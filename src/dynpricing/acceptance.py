"""End-to-end benchmark gates for the whole package.

Each criterion exercises the public API at full experimental scale and
prints one PASS/FAIL line, which ends with the criterion's elapsed
seconds.  run_all returns the results so callers (the check command, the
test suite) can turn failures into exit codes.

Criterion 4 is known to fail at the benchmark configuration and is kept
as an honest red light: with the polylog factors stripped from the
learning durations (the configuration every other benchmark here uses),
each interval shrink leaves about one standard deviation of slack between
the estimate noise and the containment margin, so the all-iterations
containment frequency is 0.775 (linear) and 0.655 (exponential) at seed 0,
not 0.95.  Restoring the polylog factors would fix the statistics but
makes the first learning period longer than the whole season for every
reachable market size.  See the repository notes for the measured landscape.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .demand import (
    ExponentialDemand,
    LinearDemand,
    PiecewiseLinearDemand,
    ProblemInstance,
    deterministic_price,
    deterministic_value,
    solve_pu,
)
from .market_sim import poisson_tail_check
from .policies import PolicyConfig
from .regret_harness import estimate_regrets, seasons, sweep
from .lower_bound import (
    Z0,
    evaluate_policy_bounds,
    kl_path,
    pD_matches_solver,
    worst_case_instance,
)

LINEAR = LinearDemand(30.0, 3.0)
EXPONENTIAL = ExponentialDemand(80.0, 0.5)
BENCH_X = 20.0
BENCH_T = 1.0
# concave-corner benchmark: demand nearly flat at ~80 until the corner
# price 4, then dropping at slope 60; x chosen so the corner price is
# optimal with a little inventory slack
KINKED = PiecewiseLinearDemand(84.0, 1.0, 4.0, 60.0, price_floor=2.0, price_ceil=5.0)
KINKED_X = 81.0


@dataclass(frozen=True)
class CriterionResult:
    index: int
    title: str
    passed: bool
    detail: str
    elapsed: float


def _timed(index: int, title: str, passed: bool, detail: str, t0: float) -> CriterionResult:
    """The result, its detail ending with the seconds since ``t0``."""
    elapsed = time.time() - t0
    return CriterionResult(index, title, passed, f"{detail}; {elapsed:.2f}s", elapsed)


def _both_instances():
    return (("linear", LINEAR), ("exponential", EXPONENTIAL))


def criterion_1(seed: int, workers: int) -> CriterionResult:
    """Closed-form prices and values for the two reference demand curves."""
    t0 = time.time()
    pu_lin = solve_pu(LINEAR)
    jd_lin = deterministic_value(LINEAR, BENCH_X, BENCH_T, 1)
    pd_exp = deterministic_price(EXPONENTIAL, BENCH_X, BENCH_T)
    jd_exp = deterministic_value(EXPONENTIAL, BENCH_X, BENCH_T, 1)
    elapsed = time.time() - t0
    checks = (
        abs(pu_lin - 5.0) <= 1e-6,
        abs(jd_lin - 75.0) <= 1e-6,
        abs(pd_exp - 2.0 * math.log(4.0)) <= 1e-6,
        abs(jd_exp - 40.0 * math.log(4.0)) <= 1e-6,
        elapsed < 1.0,
    )
    detail = (
        f"p_u={pu_lin:.8f} J_D={jd_lin:.8f} | p_D={pd_exp:.8f} "
        f"J_D={jd_exp:.8f} | {elapsed:.2f}s"
    )
    return CriterionResult(1, "closed-form benchmark", all(checks), detail, elapsed)


def criterion_2(seed: int, workers: int) -> CriterionResult:
    """Log-log regret slopes near the published fits on both instances."""
    t0 = time.time()
    reps = 1000
    n_values = (100, 1000, 10000, 100000)
    config = PolicyConfig("dpa")
    targets = {"linear": -0.444, "exponential": -0.465}
    details, ok = [], True
    for name, model in _both_instances():
        base = ProblemInstance(model, BENCH_X, BENCH_T, n_values[0])
        report = sweep(base, config, n_values, reps, seed, workers)
        hit = abs(report.slope - targets[name]) <= 0.10
        ok = ok and hit
        details.append(f"{name} slope={report.slope:.4f} (target {targets[name]})")
    elapsed = time.time() - t0
    ok = ok and elapsed < 900.0
    details.append(f"{elapsed:.0f}s")
    return CriterionResult(2, "regret slope reproduction", ok, "; ".join(details), elapsed)


def criterion_3(seed: int, workers: int) -> CriterionResult:
    """Paired-seed ordering: clairvoyant < dpa < single_phase at n=1e5."""
    t0 = time.time()
    n = 10**5
    reps = 400
    ok = True
    details = []
    policies = ("clairvoyant", "dpa", "single_phase")
    cells = [(ProblemInstance(model, BENCH_X, BENCH_T, n), PolicyConfig(pol))
             for _, model in _both_instances() for pol in policies]
    estimates = iter(estimate_regrets(cells, reps, seed, workers))  # one pool for all six
    for name, _ in _both_instances():
        points = dict(zip(policies, estimates))
        gap1 = points["dpa"].mean_regret - points["clairvoyant"].mean_regret
        se1 = math.hypot(points["dpa"].std_error, points["clairvoyant"].std_error)
        gap2 = points["single_phase"].mean_regret - points["dpa"].mean_regret
        se2 = math.hypot(points["single_phase"].std_error, points["dpa"].std_error)
        hit = gap1 >= 2 * se1 and gap2 >= 2 * se2
        ok = ok and hit
        details.append(
            f"{name}: gaps {gap1:.4f} ({gap1 / se1:.0f} SE), {gap2:.4f} ({gap2 / se2:.0f} SE)"
        )
    return _timed(3, "policy ordering", ok, "; ".join(details), t0)


@functools.lru_cache(maxsize=2)
def _interval_stats(model, n, runs, seed):
    """(containment frequency, transition frequency) over fresh dpa runs.

    Criteria 4 and 5 read the same seasons, so the result is kept for the
    second reader instead of being simulated again.
    """
    instance = ProblemInstance(model, BENCH_X, BENCH_T, n)
    pd = deterministic_price(model, BENCH_X, BENCH_T)
    contained = entered = 0
    for policy, _ in seasons(instance, PolicyConfig("dpa"), seed, range(runs)):
        contained += all(
            lo - 1e-12 <= pd <= hi + 1e-12
            for _, _, lo, hi, _, _ in policy.iterations
        )
        entered += policy.entered_step3
    return contained / runs, entered / runs


def criterion_4(seed: int, workers: int) -> CriterionResult:
    """Optimal price stays inside every learning interval in >= 95% of runs."""
    t0 = time.time()
    runs = 200
    n = 10**5
    freqs = {}
    for name, model in _both_instances():
        freqs[name], _ = _interval_stats(model, n, runs, seed)
    ok = all(f >= 0.95 for f in freqs.values())
    detail = (
        f"linear={freqs['linear']:.3f} exponential={freqs['exponential']:.3f} "
        "(bar 0.95; known red at this configuration, see module docstring)"
    )
    return _timed(4, "interval containment", ok, detail, t0)


def criterion_5(seed: int, workers: int) -> CriterionResult:
    """Constrained-track transition fires on the right instance only."""
    t0 = time.time()
    runs = 200
    n = 10**5
    _, entry_lin = _interval_stats(LINEAR, n, runs, seed)
    _, entry_exp = _interval_stats(EXPONENTIAL, n, runs, seed)
    ok = entry_lin <= 0.10 and entry_exp >= 0.90
    detail = f"linear entry={entry_lin:.3f} (<=0.10), exponential entry={entry_exp:.3f} (>=0.90)"
    return _timed(5, "track transition", ok, detail, t0)


def criterion_6(seed: int, workers: int) -> CriterionResult:
    """Segment counts match Poisson moments; tail frequency within band."""
    t0 = time.time()
    reps = 10**4
    n = 10**4
    price, duration = 5.0, 0.01
    # a season as long as the one segment under test: its first and only
    # draw is the segment's count, from the stream of key (seed, n, rep)
    instance = ProblemInstance(LINEAR, BENCH_X, duration, n)
    mu = n * LINEAR.rate(price) * duration
    counts = np.array([
        trace.passes[0].sales[0] for _, trace in
        seasons(instance, PolicyConfig("fixed", price=price), seed, range(reps))
    ], dtype=float)
    mean_band = 4.0 * math.sqrt(mu / reps)
    var_band = 4.0 * math.sqrt((mu + 2.0 * mu**2) / reps)
    mean_ok = abs(counts.mean() - mu) <= mean_band
    var_ok = abs(counts.var(ddof=1) - mu) <= var_band
    tail = poisson_tail_check(mu=5.0, r_n=500.0, eta=1.0, replications=reps, n=n, seed=seed)
    tail_ok = tail <= 10.0 / n
    ok = mean_ok and var_ok and tail_ok
    detail = (
        f"mean {counts.mean():.2f} vs {mu:.2f} (band {mean_band:.2f}); "
        f"var {counts.var(ddof=1):.1f} (band {var_band:.1f}); "
        f"tail {tail:.2e} <= {10.0 / n:.0e}"
    )
    return _timed(6, "simulator statistics", ok, detail, t0)


def criterion_7(seed: int, workers: int) -> CriterionResult:
    """Worst-case family: zero divergence at p=1, both inequalities, closed form."""
    t0 = time.time()
    n = 10**4
    reps = 1000
    inst0 = worst_case_instance(Z0, n)
    _, flat = next(seasons(inst0, PolicyConfig("fixed", price=1.0), seed, [0]))
    kl_zero = kl_path(flat, n, Z0, 2.0 / 3.0)
    solver_err = pD_matches_solver()
    ok = kl_zero == 0.0 and solver_err <= 1e-8
    details = [f"kl(p=1)={kl_zero!r}", f"closed-form err={solver_err:.2e}"]
    for config in (
        PolicyConfig("clairvoyant"),
        PolicyConfig("fixed", price=1.5),
        PolicyConfig("single_phase"),
    ):
        report = evaluate_policy_bounds(config, n, reps, seed)
        ok = ok and report.passed
        details.append(
            f"{config.name}: K={report.K_hat:.3f} "
            f"info {report.info_cost_lhs:.3f} <= {report.info_cost_rhs:.3f}"
            f"+{report.info_cost_slack:.3f} "
            f"floor {report.floor_lhs:.4f} >= {report.floor_rhs:.1e}"
            f"-{report.floor_slack:.1e} "
            f"{'ok' if report.passed else 'VIOLATED'}"
        )
    return _timed(7, "worst-case bound checks", ok, "; ".join(details), t0)


def criterion_8(seed: int, workers: int) -> CriterionResult:
    """Identical config and seed give byte-identical CSV output."""
    from .cli import main as cli_main

    t0 = time.time()
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for tag in ("first", "second"):
            out = os.path.join(tmp, f"{tag}.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([
                    "sweep", "--policy", "dpa", "--demand", "linear 30 3",
                    "--n", "100 1000 10000", "--reps", "100",
                    "--seed", str(seed), "--out", out,
                ])
            assert code == 0
            with open(out, "rb") as fh:
                body = fh.read()
            with open(out.replace(".csv", ".slopes.csv"), "rb") as fh:
                slopes = fh.read()
            outputs.append((body, slopes))
    ok = outputs[0] == outputs[1]
    detail = f"{len(outputs[0][0])} byte regret CSV, {len(outputs[0][1])} byte slope CSV"
    detail += "; identical" if ok else "; DIFFER"
    return _timed(8, "bitwise reproducibility", ok, detail, t0)


def criterion_9(seed: int, workers: int) -> CriterionResult:
    """Corner finding: applied price within 0.05 of the kink, regret scaling."""
    t0 = time.time()
    runs = 200
    kink = KINKED.kink
    stats = {}
    for n in (10**3, 10**5):
        instance = ProblemInstance(KINKED, KINKED_X, BENCH_T, n)
        jd = deterministic_value(KINKED, KINKED_X, BENCH_T, n)
        hits, regrets = 0, []
        for policy, trace in seasons(instance, PolicyConfig("dpa2"), seed, range(runs)):
            hits += abs(policy.applied_price - kink) <= 0.05
            regrets.append(1.0 - trace.terminal_revenue / jd)
        stats[n] = (hits / runs, np.mean(regrets))
    hit_rate = stats[10**5][0]
    ratio = stats[10**3][1] / stats[10**5][1]
    ok = hit_rate >= 0.90 and ratio >= 3.0
    detail = f"hit rate {hit_rate:.3f} (>=0.90); regret ratio 1e3/1e5 = {ratio:.1f} (>=3)"
    return _timed(9, "kinked demand variant", ok, detail, t0)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all(seed: int = 0, workers: int = 1, stream=None):
    """Run every criterion, print one line each, return the results."""
    stream = stream if stream is not None else sys.stdout
    results = []
    for criterion in CRITERIA:
        result = criterion(seed, workers)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(
            f"criterion {result.index} ({result.title}): {status} - {result.detail}",
            file=stream,
        )
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} criteria passed", file=stream)
    return results

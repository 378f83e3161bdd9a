"""Monte Carlo regret estimation and log-log slope fitting.

Regret of a policy is 1 - (mean realized revenue) / (deterministic optimum).
The deterministic optimum is an upper bound on every policy's expected
revenue, so regret estimates are non-negative up to Monte Carlo noise.

Every replicated season in the package runs through ``seasons``, the one
place a season's key (root seed, market size, rep index) is formed.  It
runs the reps in lockstep blocks of ``_BLOCK`` through the block engine
(``market_sim.run_block``), and each season keeps its own stream, so its
draws are the ones it would make alone, whatever the block size.  Two
policies swept with the same root seed face identical demand randomness
season for season, and rerunning any sweep reproduces every season bit
for bit.

Regret cells read only each season's revenue, so they build no pass
records (see ``market_sim``).  ``estimate_regrets`` runs every block of
every cell of one call as a task on one pool and regroups the revenues by
cell in task order; ``estimate_regret``, ``sweep`` and the acceptance
suite's policy ordering each make one such call, so a call forks its
workers once, whatever its number of cells.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .demand import ProblemInstance, deterministic_value
from .errors import UndefinedRegretError
from .market_sim import run_block
from .policies import PolicyConfig, make_policy


@dataclass(frozen=True)
class RegretPoint:
    n: int
    mean_regret: float
    std_error: float
    replications: int
    mean_revenue: float
    deterministic_value: float


@dataclass(frozen=True)
class RegretReport:
    per_n: tuple[RegretPoint, ...]
    slope: float
    intercept: float
    r_squared: float
    warnings: tuple[str, ...] = ()


_BLOCK = 128  # reps per lockstep block and per pool task; no season's key depends on it


def seasons(instance: ProblemInstance, config: PolicyConfig, seed: int, reps):
    """Yield (policy, trace) for each rep index in ``reps``: a fresh policy,
    run on the stream of key (seed, n, rep).  The reps run in lockstep
    blocks of ``_BLOCK``; each season's draws are its own."""
    n = instance.market_size
    reps = list(reps)
    for i in range(0, len(reps), _BLOCK):
        block = reps[i:i + _BLOCK]
        policies = [make_policy(config, instance) for _ in block]
        yield from zip(policies, run_block(instance, policies, [(seed, n, rep) for rep in block]))


def _revenues(block):
    instance, config, seed, reps = block
    return [trace.terminal_revenue for _, trace in seasons(instance, config, seed, reps)]


def estimate_regrets(cells, replications: int, seed: int, workers: int = 1) -> list:
    """Mean regret of each (instance, config) cell of ``cells``, in order,
    with a delta-method standard error (J^D is a constant).  Every cell is
    checked before any season runs, and the blocks of all cells run on one
    pool."""
    if replications < 2:
        raise ValueError("need at least 2 replications")
    values = []
    for instance, _ in cells:
        jd = deterministic_value(
            instance.demand, instance.inventory, instance.horizon, instance.market_size
        )
        if jd <= 0.0:
            raise UndefinedRegretError(f"deterministic optimum is {jd}; regret is undefined")
        values.append(jd)
    starts = range(0, replications, _BLOCK)
    tasks = [(instance, config, seed, range(i, min(i + _BLOCK, replications)))
             for instance, config in cells for i in starts]
    workers = min(workers, os.cpu_count() or 1)  # a pool forks every worker at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_revenues, tasks))
    else:
        blocks = list(map(_revenues, tasks))
    points = []
    for c, ((instance, _), jd) in enumerate(zip(cells, values)):
        revenues = np.concatenate(blocks[c * len(starts):(c + 1) * len(starts)])
        mean_rev = float(revenues.mean())
        se_rev = float(revenues.std(ddof=1) / math.sqrt(replications))
        points.append(RegretPoint(
            n=instance.market_size,
            mean_regret=1.0 - mean_rev / jd,
            std_error=se_rev / jd,
            replications=replications,
            mean_revenue=mean_rev,
            deterministic_value=jd,
        ))
    return points


def estimate_regret(
    instance: ProblemInstance,
    config: PolicyConfig,
    replications: int,
    seed: int,
    workers: int = 1,
) -> RegretPoint:
    """``estimate_regrets`` of one cell."""
    (point,) = estimate_regrets([(instance, config)], replications, seed, workers)
    return point


def fit_loglog(ns, means):
    """OLS of ln(mean) on ln(n): returns (slope, intercept, r_squared)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


def sweep(
    instance: ProblemInstance,
    config: PolicyConfig,
    n_values,
    replications: int,
    seed: int,
    workers: int = 1,
) -> RegretReport:
    """Regret across market sizes plus the fitted log-log slope.

    Non-positive regret estimates (possible for near-optimal policies at
    small n) are excluded from the fit with a warning rather than clamped.
    """
    n_values = [int(n) for n in n_values]
    if len(set(n_values)) < 3:
        raise ValueError("need at least 3 distinct market sizes for a slope")
    points = tuple(estimate_regrets(
        [(instance.with_market_size(n), config) for n in n_values], replications, seed, workers
    ))
    warnings = []
    usable = [p for p in points if p.mean_regret > 0.0]
    for p in points:
        if p.mean_regret <= 0.0:
            warnings.append(
                f"n={p.n}: mean regret {p.mean_regret!r} <= 0 excluded from log fit"
            )
    if len(usable) >= 2:
        slope, intercept, r2 = fit_loglog(
            [p.n for p in usable], [p.mean_regret for p in usable]
        )
    else:
        slope = intercept = r2 = float("nan")
        warnings.append("fewer than 2 positive regret points; slope undefined")
    return RegretReport(points, slope, intercept, r2, tuple(warnings))


def check_revenue_bound(point: RegretPoint) -> tuple[bool, str]:
    """Mean revenue must not exceed the deterministic optimum by > 4 SE."""
    se_rev = point.std_error * point.deterministic_value
    limit = point.deterministic_value + 4.0 * se_rev
    ok = point.mean_revenue <= limit
    msg = (
        f"n={point.n}: mean revenue {point.mean_revenue!r} vs "
        f"deterministic optimum {point.deterministic_value!r} + 4 SE ({limit!r})"
    )
    return ok, ("ok: " if ok else "VIOLATED: ") + msg


def _write_csv(path, meta, header, rows):
    lines = [f"# {key} {value}" for key, value in meta]
    lines.append(header)
    lines.extend(rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def csv_meta(version: str, config_hash: str, seed) -> list[tuple[str, str]]:
    return [("version", version), ("config_hash", config_hash), ("seed", str(seed))]


def write_regret_csv(path, labelled_points, meta) -> None:
    """Rows of (n, policy, replications, mean_regret, std_error).

    labelled_points: iterable of (policy_name, RegretPoint).  Floats use
    shortest round-trip formatting so identical runs give identical bytes.
    """
    rows = [
        f"{p.n},{name},{p.replications},{p.mean_regret!r},{p.std_error!r}"
        for name, p in labelled_points
    ]
    _write_csv(path, meta, "n,policy,replications,mean_regret,std_error", rows)


def write_slope_csv(path, labelled_reports, meta) -> None:
    """Rows of (policy, slope, intercept, r_squared) per fitted report."""
    rows = [
        f"{name},{r.slope!r},{r.intercept!r},{r.r_squared!r}"
        for name, r in labelled_reports
    ]
    _write_csv(path, meta, "policy,slope,intercept,r_squared", rows)

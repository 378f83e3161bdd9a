"""The benchmark's workloads: inputs, the call into the program, the checks.

Each workload is built in two steps so that set-up can be timed apart from
the work: the constructor imports the program and builds every input, and
``run`` makes the calls a user would make.  ``ops`` then turns the raw
outputs into checked operations (see checks.py); it runs after the clock
has stopped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os

import checks
from checks import Op

N_GRID = (100, 1000, 10000, 100000)
SWEEP_REPS = 1000  # criterion 2's replication count

LB_N = 10**4
LB_REPS = 1000  # criterion 7's replication count
LB_FIXED_PRICE = 1.5

# The acceptance suite is defined at seed 0, whatever the benchmark seed.
CHECK_SEED = 0
CHECK_CRITERIA = 9
# Seasons the suite simulates at full scale: criterion 2 sweeps 2 instances
# x 4 sizes x 1000 reps; 3 runs 3 policies x 2 instances x 400; 4 and 5
# 2 x 200 each; 7 one flat season plus 3 policies x 2 environments x 1000;
# 8 two CLI sweeps of 3 sizes x 100; 9 two sizes x 200.
CHECK_SEASONS = 8000 + 2400 + 400 + 400 + 6001 + 600 + 400
# Criterion 4 fails at its own fixed inputs: dpa's learning intervals lose
# p_D in about a fifth of the linear and a third of the exponential runs.
CHECK_KNOWN_FAULTS = ("criterion_4",)


class Sweep:
    """`dynpricing sweep` of dpa on both reference instances, with --check."""

    known_faults = ()
    expected_ops = 2 * len(N_GRID) + 2  # one per cell, one slope fit per instance
    seasons = 2 * len(N_GRID) * SWEEP_REPS

    def __init__(self, seed: int, workers: int, workdir: str):
        from dynpricing import cli

        self.main = cli.main
        self.argvs = {}
        self.paths = {}
        for family, (spec, _, _) in checks.REFERENCE.items():
            out = os.path.join(workdir, f"sweep-{family}.csv")
            self.paths[family] = (out, os.path.join(workdir, f"sweep-{family}.slopes.csv"))
            self.argvs[family] = [
                "sweep", "--policy", "dpa", "--demand", spec,
                "--n", " ".join(str(n) for n in N_GRID),
                "--reps", str(SWEEP_REPS), "--seed", str(seed),
                "--workers", str(workers), "--out", out, "--check",
            ]

    def run(self):
        outputs = {}
        for family, argv in self.argvs.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = self.main(argv)
            outputs[family] = (code, stdout.getvalue())
        return outputs

    def ops(self, outputs):
        ops = []
        for family, (code, stdout) in outputs.items():
            regret_text, slope_text = (_read(path) for path in self.paths[family])
            ops += sweep_ops(family, code, stdout, regret_text, slope_text, SWEEP_REPS)
        return ops


def _read(path):
    """Text of a CSV the program wrote; empty if it wrote none."""
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


def _csv_rows(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def sweep_ops(family, code, stdout, regret_text, slope_text, reps):
    """Checked operations of one `sweep --check` run: a cell per n and a fit.

    Mean revenue and J_D come from the --check lines on stdout; regret and
    its standard error from the regret CSV; the program's slope from the
    slope CSV.
    """
    bounds = {}
    for line in stdout.splitlines():
        # "ok: n=100: mean revenue 5605.3 vs deterministic optimum 7500.0 + 4 SE (...)"
        head, sep, tail = line.partition(": mean revenue ")
        if not sep:
            continue
        n = int(head.rsplit("n=", 1)[1])
        revenue, _, rest = tail.partition(" vs deterministic optimum ")
        bounds[n] = (float(revenue), float(rest.split()[0]))
    cells = {int(row["n"]): row for row in _csv_rows(regret_text)}
    ops = []
    for n in N_GRID:
        name = f"{family}/n={n}"
        if code != 0:
            ops.append(Op(name, (f"sweep exited {code}",)))
            continue
        if n not in bounds or n not in cells:
            ops.append(Op(name, ("cell missing from the output",)))
            continue
        row = {
            "mean_revenue": bounds[n][0],
            "jd": bounds[n][1],
            "regret": float(cells[n]["mean_regret"]),
            "std_error": float(cells[n]["std_error"]),
            "replications": int(cells[n]["replications"]),
        }
        ops.append(Op(name, tuple(checks.check_sweep_cell(family, n, reps, row))))
    name = f"{family}/slope"
    slopes = _csv_rows(slope_text)
    if code != 0 or len(slopes) != 1 or set(cells) != set(N_GRID):
        ops.append(Op(name, ("slope or cells missing from the output",)))
    else:
        regrets = [float(cells[n]["mean_regret"]) for n in N_GRID]
        problems = checks.check_sweep_fit(family, N_GRID, regrets, float(slopes[0]["slope"]))
        ops.append(Op(name, tuple(problems)))
    return ops


class LowerBound:
    """`evaluate_policy_bounds` for criterion 7's three policies, one process."""

    known_faults = ()
    expected_ops = 3
    seasons = 3 * 2 * LB_REPS  # three policies, two environments

    def __init__(self, seed: int, workers: int, workdir: str):
        from dynpricing import lower_bound
        from dynpricing.policies import PolicyConfig

        self.lower_bound = lower_bound
        self.seed = seed
        self.configs = (
            PolicyConfig("clairvoyant"),
            PolicyConfig("fixed", price=LB_FIXED_PRICE),
            PolicyConfig("single_phase"),
        )

    def run(self):
        return [
            self.lower_bound.evaluate_policy_bounds(config, LB_N, LB_REPS, self.seed)
            for config in self.configs
        ]

    def ops(self, reports):
        return [
            Op(r.policy, tuple(checks.check_bound_report(dataclasses.asdict(r), LB_FIXED_PRICE)))
            for r in reports
        ]


class Check:
    """The acceptance suite as `dynpricing check --seed 0` runs it."""

    known_faults = CHECK_KNOWN_FAULTS
    expected_ops = CHECK_CRITERIA
    seasons = CHECK_SEASONS

    def __init__(self, seed: int, workers: int, workdir: str):
        from dynpricing import acceptance

        self.acceptance = acceptance
        self.workers = workers

    def run(self):
        return self.acceptance.run_all(
            seed=CHECK_SEED, workers=self.workers, stream=io.StringIO()
        )

    def ops(self, results):
        return criterion_ops(
            [(r.index, r.passed, r.detail) for r in results]
        )


def criterion_ops(results):
    """One operation per criterion: it must pass, and criterion 1's printed
    values must match the closed forms."""
    ops = []
    for index, passed, detail in results:
        problems = [] if passed else [f"FAIL - {detail}"]
        if index == 1:
            problems += checks.check_criterion_1(detail)
        ops.append(Op(f"criterion_{index}", tuple(problems)))
    return ops


WORKLOADS = {"sweep": Sweep, "lowerbound": LowerBound, "check": Check}

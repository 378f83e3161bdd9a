"""Reference values and output checks for the benchmark workloads.

Nothing here imports the program.  Each expected value comes from a closed
form or from the benchmark's own arithmetic, so a fault in the program
cannot hide by corrupting its own reference as well.

An operation is one unit of program output that the benchmark checks: one
regret cell, one slope fit, one lower-bound report, or one acceptance
criterion.  Its check returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

# Reference instances of the sweep: inventory x = 20 and horizon T = 1.
#   linear 30 - 3p:  p_u = 5 sells 15 <= x/T, so p_D = 5 and J_D = 5 * 15 n = 75 n.
#   exponential 80 e^(-p/2):  p_u = 2 sells 80/e > x/T, so the clearing price
#   80 e^(-p/2) = 20 binds: p_D = 2 ln 4 and J_D = 20 * 2 ln 4 n = 40 ln 4 n.
REFERENCE = {
    # family: (demand spec, J_D per unit of n, published slope)
    "linear": ("linear 30 3", 75.0, -0.444),
    "exponential": ("exponential 80 0.5", 40.0 * math.log(4.0), -0.465),
}
SLOPE_BAND = 0.10  # acceptance criterion 2's band around the published slope

# Worst-case family lambda(p; z) = 1/2 + z - z p on [1/2, 3/2], x = 2, T = 1.
Z0 = 0.5
WC_HORIZON = 1.0
FLOOR_CONSTANT = 6912.0

_REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    name: str
    problems: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.problems


def summarize(ops, expected: int, known_faults=()) -> dict:
    """Attempted and failed counts of one round, and whether it is correct.

    A round attempts ``expected`` operations whatever the program returned;
    any that are missing count as failed.  The round is correct when every
    failed operation is a known fault of the program.
    """
    failed = [op.name for op in ops if not op.ok]
    missing = expected - len(ops)
    unexpected = [name for name in failed if name not in known_faults]
    return {
        "attempted": expected,
        "failed": len(failed) + max(missing, 0),
        "correct": not unexpected and missing == 0,
        "failures": {op.name: list(op.problems) for op in ops if not op.ok},
    }


def _close(a: float, b: float, rel: float = _REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


# -- sweep ---------------------------------------------------------------


def jd_closed_form(family: str, n: int) -> float:
    return REFERENCE[family][1] * n


def ols_slope(xs, ys) -> float:
    """Least-squares slope of ys on xs, from the normal equations."""
    m = len(xs)
    if m < 2 or m != len(ys):
        raise ValueError("need at least two paired points")
    mx = sum(xs) / m
    my = sum(ys) / m
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def loglog_slope(ns, regrets) -> float:
    return ols_slope([math.log(n) for n in ns], [math.log(r) for r in regrets])


def check_sweep_cell(family, n, reps, row) -> list:
    """One regret cell: row holds jd, mean_revenue, regret, std_error, replications."""
    problems = []
    jd = jd_closed_form(family, n)
    if not _close(row["jd"], jd):
        problems.append(f"J_D {row['jd']!r} != closed form {jd!r}")
    if row["replications"] != reps:
        problems.append(f"{row['replications']} replications, asked for {reps}")
    limit = jd + 4.0 * row["std_error"] * jd
    if not row["mean_revenue"] <= limit:
        problems.append(f"mean revenue {row['mean_revenue']!r} > J_D + 4 SE = {limit!r}")
    regret = 1.0 - row["mean_revenue"] / jd
    if abs(regret - row["regret"]) > 1e-9:
        problems.append(f"regret {row['regret']!r} != 1 - revenue / J_D = {regret!r}")
    return problems


def check_sweep_fit(family, ns, regrets, program_slope) -> list:
    """Regret falls from the smallest to the largest n, and the slope refit
    lies in the acceptance band and matches the program's own fit."""
    problems = []
    order = sorted(range(len(ns)), key=lambda i: ns[i])
    if not regrets[order[-1]] < regrets[order[0]]:
        problems.append(
            f"regret does not fall: {regrets[order[0]]!r} at n={ns[order[0]]}, "
            f"{regrets[order[-1]]!r} at n={ns[order[-1]]}"
        )
    if min(regrets) <= 0.0:
        return problems + [f"non-positive regret in {regrets!r}"]
    slope = loglog_slope(ns, regrets)
    target = REFERENCE[family][2]
    if not abs(slope - target) <= SLOPE_BAND:
        problems.append(f"slope {slope:.4f} outside {target} +- {SLOPE_BAND}")
    if not _close(slope, program_slope, 1e-7):
        problems.append(f"program slope {program_slope!r} != refit {slope!r}")
    return problems


# -- lower bound ---------------------------------------------------------


def z1_of_n(n: int) -> float:
    return Z0 + 0.25 * n ** -0.25


def wc_rate(p: float, z: float) -> float:
    return 0.5 + z - z * p


def kl_fixed_price(n: int, price: float) -> float:
    """Divergence between z0 and z1 of a season priced at ``price``
    throughout, from the Poisson rate formula n T (l0 ln(l0 / l1) + l1 - l0)."""
    l0, l1 = wc_rate(price, Z0), wc_rate(price, z1_of_n(n))
    return n * WC_HORIZON * (l0 * math.log(l0 / l1) + l1 - l0)


def info_cost_holds(r: dict) -> bool:
    """K <= 24 n (z0 - z1)^2 R0, with the program's two-SE allowance."""
    gap = 24.0 * r["n"] * (Z0 - z1_of_n(r["n"])) ** 2
    slack = 2.0 * math.hypot(r["K_se"], gap * r["R_se_z0"])
    return r["K_hat"] <= gap * r["R_hat_z0"] + slack


def regret_floor_holds(r: dict) -> bool:
    """R0 + R1 >= e^(-K) / (6912 sqrt n), with the program's three-SE allowance."""
    rhs = math.exp(-r["K_hat"]) / (FLOOR_CONSTANT * math.sqrt(r["n"]))
    slack = 3.0 * math.hypot(r["R_se_z0"], r["R_se_z1"], rhs * r["K_se"])
    return r["R_hat_z0"] + r["R_hat_z1"] >= rhs - slack


def check_bound_report(r: dict, fixed_price: float) -> list:
    """One policy's BoundReport, as a dict of its fields.

    clairvoyant posts p_D(z0) = 1, where every family member sells at the
    same rate, so its divergence is exactly 0.  fixed posts one price for
    the whole season without stocking out, so its divergence is the rate
    formula.  The inequalities are not checked for clairvoyant: its true
    regret is 0 in both environments, which puts both at their boundary,
    and the program's verdict there depends on the seed.
    """
    problems = []
    policy, K = r["policy"], r["K_hat"]
    if policy == "clairvoyant":
        if K != 0.0:
            problems.append(f"K {K!r} != 0 at the uninformative price")
        return problems
    if policy == "fixed":
        expected = kl_fixed_price(r["n"], fixed_price)
        if not _close(K, expected):
            problems.append(f"K {K!r} != rate formula {expected!r}")
    if not (math.isfinite(K) and K >= 0.0):
        problems.append(f"K {K!r} is not a finite divergence")
    for label, holds, verdict in (
        ("information cost", info_cost_holds(r), r["info_cost_pass"]),
        ("regret floor", regret_floor_holds(r), r["floor_pass"]),
    ):
        if not holds:
            problems.append(f"{label} inequality fails")
        if holds != verdict:
            problems.append(f"{label}: program says {verdict}, recomputed {holds}")
    return problems


# -- acceptance suite ----------------------------------------------------

_CRITERION_1 = re.compile(
    r"p_u=(?P<pu>\S+) J_D=(?P<jd_lin>\S+) \| p_D=(?P<pd>\S+) J_D=(?P<jd_exp>\S+) \|"
)


def check_criterion_1(detail: str) -> list:
    """Criterion 1 prints p_u and J_D (linear) and p_D and J_D (exponential)
    per unit of n to 8 decimals; they must match the closed forms."""
    match = _CRITERION_1.search(detail)
    if match is None:
        return [f"cannot read values from {detail!r}"]
    expected = {
        "pu": 5.0,
        "jd_lin": REFERENCE["linear"][1],
        "pd": 2.0 * math.log(4.0),
        "jd_exp": REFERENCE["exponential"][1],
    }
    return [
        f"{key} = {match[key]} != {value!r}"
        for key, value in expected.items()
        if abs(float(match[key]) - value) > 1e-6
    ]

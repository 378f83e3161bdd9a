"""Worst-case demand family and information-theoretic consistency checks.

The family lambda(p; z) = 1/2 + z - z*p on prices [1/2, 3/2] is built so
that every member passes through the same point at p = 1: experimenting at
that price reveals nothing about z.  The optimal price sits at
(1 + 2z)/(4z), so a seller who cannot distinguish z = 1/2 from the nearby
z = 1/2 + 1/(4 n^(1/4)) must misprice one of them.  Two inequalities make
that quantitative:

- the KL divergence between the two trace distributions is bounded by the
  regret under z0 (information costs revenue: only prices away from 1 are
  informative, and those prices are suboptimal under z0);
- total regret across both environments is bounded below by
  e^(-KL) / (6912 sqrt(n)).

Both are checked empirically here for concrete policies.  The KL between
the Poisson path measures is the pathwise integral of the standard rate
divergence lam0*ln(lam0/lam_z) + lam_z - lam0, averaged over traces drawn
under z0.  A season's revenue is estimated by its expected sales given
its path, sum over segments of p_k E[min(Poisson(mu_k), s_k)], with the
price p_k, mean mu_k and stock s_k each fixed before segment k's draw.
It differs from the realized revenue by a martingale, so it is unbiased,
and it drops the sales noise that would otherwise put a policy whose
true regret is 0 at the boundary of both checks.

The floor is a theorem about policies that do not know z.  ``clairvoyant``
reads z, so its floor values are reported but its floor verdict is
``n/a`` and does not count in ``BoundReport.passed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demand import ProblemInstance, WorstCaseLinear, solve_pu
from .errors import PriceDomainError
from .market_sim import P_INF, SimulationTrace
from .policies import PolicyConfig
from .regret_harness import _write_csv, seasons

Z0 = 0.5
WC_INVENTORY = 2.0
WC_HORIZON = 1.0
Z_MIN, Z_MAX = 1.0 / 3.0, 2.0 / 3.0
_READS_Z = frozenset({"clairvoyant"})  # policies the regret floor says nothing about


def z1_of_n(n: int) -> float:
    """Hard-to-distinguish neighbor of z0 at market size n."""
    if n < 6:  # z1 passes the family's upper end 2/3 below n = 6
        raise ValueError(f"the worst-case family needs market size n >= 6, got n={n}")
    return 0.5 + 0.25 * float(n) ** -0.25


def pD_of_z(z: float) -> float:
    """Optimal price of the worst-case member, (1 + 2z)/(4z)."""
    if not (Z_MIN - 1e-12 <= z <= Z_MAX + 1e-12):
        raise PriceDomainError(f"z={z!r} outside [{Z_MIN}, {Z_MAX}]")
    return (1.0 + 2.0 * z) / (4.0 * z)


def worst_case_instance(z: float, n: int) -> ProblemInstance:
    return ProblemInstance(WorstCaseLinear(z), WC_INVENTORY, WC_HORIZON, n)


def _rate(p: float, z: float) -> float:
    return 0.5 + z - z * p


def kl_path(trace: SimulationTrace, n: int, z0: float, z: float) -> float:
    """Pathwise KL integral of one trace priced under z0, against rate z.

    Shut-off segments see zero arrivals under both measures and contribute
    nothing.  A segment where the z-rate vanishes while the z0-rate does
    not carries infinite divergence (the z-measure cannot produce those
    arrivals); returns inf in that case.
    """
    total = 0.0
    for pass_ in trace.passes:
        for price, duration in zip(pass_.prices, pass_.durations):
            if price == P_INF or duration <= 0.0:
                continue
            lam0 = _rate(price, z0)
            lamz = _rate(price, z)
            if lamz <= 0.0:
                if lam0 > 0.0:
                    return math.inf
                continue
            entropy_term = lam0 * math.log(lam0 / lamz) if lam0 > 0.0 else 0.0
            total += duration * (entropy_term + lamz - lam0)
    return n * total


def _expected_sales(mu: float, stock: int) -> float:
    """E[min(Poisson(mu), stock)] for mu >= 0."""
    if mu <= 0.0 or stock <= 0:
        return 0.0
    t = stock - 1 - mu
    # Bernstein: P(X >= stock - 1) < e^-45, so mu - E[min] < mu e^-45, below
    # float resolution
    if t > 0.0 and t * t > 90.0 * mu + 30.0 * t:
        return mu
    # E[min(X, s)] is mu - E[(X - s)^+] or s - E[(s - X)^+]; sum the pmf over
    # the side of s away from the mean, within 20 sd of it
    if stock >= mu:
        j = np.arange(stock, math.ceil(mu + 20.0 * math.sqrt(mu) + 50.0))
    else:
        j = np.arange(max(0, math.floor(mu - 20.0 * math.sqrt(mu) - 50.0)), stock)
    if not len(j):
        return float(min(mu, stock))
    log_mu = math.log(mu)
    log_pmf = j[0] * log_mu - mu - math.lgamma(j[0] + 1.0)
    log_pmf = log_pmf + np.concatenate(([0.0], np.cumsum(log_mu - np.log(j[1:]))))
    gap = float(np.sum(np.abs(j - stock) * np.exp(log_pmf)))
    return mu - gap if stock >= mu else stock - gap


def expected_revenue(trace: SimulationTrace, instance: ProblemInstance) -> float:
    """Sum over the trace's segments of p_k E[min(Poisson(mu_k), s_k)]: an
    unbiased estimate of the season's revenue given its price path."""
    rate = instance.demand.rate
    n = instance.market_size
    stock = instance.scaled_inventory
    total = 0.0
    for pass_ in trace.passes:
        for price, duration, sold in zip(pass_.prices, pass_.durations, pass_.sales):
            if price != P_INF:
                total += price * _expected_sales(n * rate(price) * duration, stock)
            stock -= sold
    return total


def regret_lower_bound(n: int) -> float:
    """No-policy-can-beat floor on worst-case regret: 1/(6912 sqrt(n))."""
    if n < 1:
        raise ValueError("market size must be >= 1")
    return 1.0 / (6912.0 * math.sqrt(n))


@dataclass(frozen=True)
class BoundReport:
    """Joint empirical check of both ingredient inequalities for one policy."""

    policy: str
    n: int
    K_hat: float
    K_se: float
    R_hat_z0: float
    R_se_z0: float
    R_hat_z1: float
    R_se_z1: float
    info_cost_lhs: float  # K_hat
    info_cost_rhs: float  # 24 n (z0 - z1)^2 R_hat_z0
    info_cost_slack: float  # 2 combined SE allowance on the rhs
    info_cost_pass: bool  # lhs <= rhs + slack
    floor_lhs: float  # R_hat_z0 + R_hat_z1
    floor_rhs: float  # regret_lower_bound(n) * exp(-K_hat)
    floor_slack: float  # 3 combined SE allowance below the rhs
    floor_pass: bool  # lhs >= rhs - slack
    floor_applies: bool = True  # False for a policy that reads z

    @property
    def passed(self) -> bool:
        return self.info_cost_pass and (self.floor_pass or not self.floor_applies)

    @property
    def floor_verdict(self) -> str:
        if not self.floor_applies:
            return f"n/a ({self.policy} reads z)"
        return "ok" if self.floor_pass else "VIOLATED"


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


def evaluate_policy_bounds(
    config: PolicyConfig, n: int, replications: int, seed: int
) -> BoundReport:
    """Run one policy under both environments and test both inequalities.

    Traces under z0 supply the regret estimate at z0 and, through kl_path
    against z1 = z1_of_n(n), the divergence estimate; paired seeds give
    the z1 regret on the same stream.  Revenues are ``expected_revenue``.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications")
    z1 = z1_of_n(n)
    inst0 = worst_case_instance(Z0, n)
    inst1 = worst_case_instance(z1, n)
    jd0, jd1 = (n * p * min(WC_HORIZON * inst.demand.rate(p), WC_INVENTORY)
                for inst, p in ((inst0, pD_of_z(Z0)), (inst1, pD_of_z(z1))))

    kls, revs0, revs1 = [], [], []
    reps = range(replications)
    for (_, trace0), (_, trace1) in zip(
        seasons(inst0, config, seed, reps), seasons(inst1, config, seed, reps)
    ):
        kls.append(kl_path(trace0, n, Z0, z1))
        revs0.append(expected_revenue(trace0, inst0))
        revs1.append(expected_revenue(trace1, inst1))

    K_hat, K_se = _mean_se(kls)
    rev0, rev0_se = _mean_se(revs0)
    rev1, rev1_se = _mean_se(revs1)
    R0, R0_se = 1.0 - rev0 / jd0, rev0_se / jd0
    R1, R1_se = 1.0 - rev1 / jd1, rev1_se / jd1

    gap_sq = 24.0 * n * (Z0 - z1) ** 2
    info_rhs = gap_sq * R0
    info_slack = 2.0 * math.hypot(K_se, gap_sq * R0_se)
    info_pass = K_hat <= info_rhs + info_slack

    floor_rhs = regret_lower_bound(n) * math.exp(-K_hat)
    # rhs varies with K_hat at rate -rhs, propagated alongside the regret SEs
    floor_slack = 3.0 * math.hypot(R0_se, R1_se, floor_rhs * K_se)
    floor_lhs = R0 + R1
    floor_pass = floor_lhs >= floor_rhs - floor_slack

    return BoundReport(
        policy=config.name,
        n=n,
        K_hat=K_hat,
        K_se=K_se,
        R_hat_z0=R0,
        R_se_z0=R0_se,
        R_hat_z1=R1,
        R_se_z1=R1_se,
        info_cost_lhs=K_hat,
        info_cost_rhs=info_rhs,
        info_cost_slack=info_slack,
        info_cost_pass=info_pass,
        floor_lhs=floor_lhs,
        floor_rhs=floor_rhs,
        floor_slack=floor_slack,
        floor_pass=floor_pass,
        floor_applies=config.name not in _READS_Z,
    )


def write_bound_csv(path, reports, meta) -> None:
    header = (
        "policy,n,K_hat,K_se,R_hat_z0,R_hat_z1,"
        "info_cost_lhs,info_cost_rhs,floor_lhs,floor_rhs,pass"
    )
    rows = [
        f"{r.policy},{r.n},{r.K_hat!r},{r.K_se!r},{r.R_hat_z0!r},{r.R_hat_z1!r},"
        f"{r.info_cost_lhs!r},{r.info_cost_rhs!r},{r.floor_lhs!r},{r.floor_rhs!r},"
        f"{str(r.passed).lower()}"
        for r in reports
    ]
    _write_csv(path, meta, header, rows)


def pD_matches_solver(z_grid=(1.0 / 3.0, 0.4, 0.5, 0.6, 2.0 / 3.0)) -> float:
    """Max |closed form - generic solver| over the grid; used by tests."""
    worst = 0.0
    for z in z_grid:
        worst = max(worst, abs(pD_of_z(z) - solve_pu(WorstCaseLinear(z))))
    return worst

"""Dynamic pricing with demand learning under a finite inventory.

The package is organized around a small set of pieces:

``demand``
    the five demand families (linear, exponential, logit, piecewise linear
    with a kink, worst-case linear), deterministic benchmark prices and
    values
``market_sim``
    Poisson market simulator; ``run_policy`` drives a policy's ``season()``
    generator, which yields (prices, duration) passes and is sent each
    full pass's sales counts
``schedules`` / ``policies``
    learning schedules and the two-track shrinking-interval policies,
    plus fixed-price (clairvoyant at p_D) and single-phase baselines
``regret_harness``
    Monte Carlo regret estimation and log-log scaling sweeps
``lower_bound``
    worst-case linear family and information-theoretic regret floor checks
``cli``
    command line front end (solve / run / sweep / lowerbound / check)
"""

__version__ = "0.1.0"

from .demand import (
    P_INF,
    DemandModel,
    LinearDemand,
    ExponentialDemand,
    LogitDemand,
    PiecewiseLinearDemand,
    WorstCaseLinear,
    ProblemInstance,
    deterministic_price,
    deterministic_value,
    solve_pc,
    solve_pu,
)
from .market_sim import SimulationTrace, run_policy, write_trace_csv
from .policies import (
    POLICY_NAMES,
    DpaPolicy,
    FixedPricePolicy,
    KinkPolicy,
    PolicyConfig,
    SinglePhaseGridPolicy,
    make_policy,
)
from .schedules import build_kink_schedule, build_schedule
from .regret_harness import (
    RegretPoint,
    RegretReport,
    estimate_regret,
    fit_loglog,
    sweep,
    write_regret_csv,
)
from .lower_bound import (
    evaluate_policy_bounds,
    kl_path,
    regret_lower_bound,
    worst_case_instance,
)

__all__ = [
    "P_INF",
    "DemandModel",
    "LinearDemand",
    "ExponentialDemand",
    "LogitDemand",
    "PiecewiseLinearDemand",
    "WorstCaseLinear",
    "ProblemInstance",
    "deterministic_price",
    "deterministic_value",
    "solve_pc",
    "solve_pu",
    "SimulationTrace",
    "run_policy",
    "write_trace_csv",
    "POLICY_NAMES",
    "DpaPolicy",
    "FixedPricePolicy",
    "KinkPolicy",
    "PolicyConfig",
    "SinglePhaseGridPolicy",
    "make_policy",
    "build_kink_schedule",
    "build_schedule",
    "RegretPoint",
    "RegretReport",
    "estimate_regret",
    "fit_loglog",
    "sweep",
    "write_regret_csv",
    "evaluate_policy_bounds",
    "kl_path",
    "regret_lower_bound",
    "worst_case_instance",
    "__version__",
]

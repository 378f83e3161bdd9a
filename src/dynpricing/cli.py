"""Command-line front end: config files, experiment orchestration, CSV output.

Config files are INI-style key = value sections ([experiment], [demand],
[policy]); command-line flags override file values.  print_config emits a
canonical form whose parse round-trips exactly, and its hash goes into
every CSV header together with the package version and root seed.

Commands:
  solve       closed-form benchmark prices and value for a demand spec
  run         Monte Carlo cell for one (instance, policy); trace CSV
  sweep       regret across market sizes; regret CSV + slope CSV
  lowerbound  worst-case family divergence/regret inequality report
  check       acceptance suite; exit nonzero on any failed criterion
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import sys
from dataclasses import dataclass

from . import __version__
from .demand import (
    DemandModel,
    ExponentialDemand,
    LinearDemand,
    LogitDemand,
    PiecewiseLinearDemand,
    ProblemInstance,
    WorstCaseLinear,
    deterministic_price,
    deterministic_value,
    solve_pc,
    solve_pu,
)
from .errors import ConfigError
from .market_sim import run_policy, write_trace_csv
from .policies import POLICY_NAMES, PolicyConfig, make_policy
from .regret_harness import (
    check_revenue_bound,
    csv_meta,
    sweep,
    write_regret_csv,
    write_slope_csv,
)
from .lower_bound import evaluate_policy_bounds, write_bound_csv

DEFAULT_N_VALUES = (10, 100, 1000, 10000, 100000)

_DEMAND_ARITY = {
    # family -> (param count, builder); optional trailing floor/ceil pair
    "linear": (2, lambda ps, lo, hi: LinearDemand(*ps, **_bounds(lo, hi))),
    "exponential": (2, lambda ps, lo, hi: ExponentialDemand(*ps, **_bounds(lo, hi))),
    "logit": (2, lambda ps, lo, hi: LogitDemand(*ps, **_bounds(lo, hi))),
    "piecewise": (4, lambda ps, lo, hi: PiecewiseLinearDemand(*ps, **_bounds(lo, hi))),
    "worstcase": (1, lambda ps, lo, hi: WorstCaseLinear(ps[0])),
}


def _bounds(lo, hi):
    out = {}
    if lo is not None:
        out["price_floor"] = lo
    if hi is not None:
        out["price_ceil"] = hi
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    command: str = "sweep"
    demand_family: str = "linear"
    demand_params: tuple = (30.0, 3.0)
    price_floor: float | None = None
    price_ceil: float | None = None
    inventory: float = 20.0
    horizon: float = 1.0
    n_values: tuple = DEFAULT_N_VALUES
    replications: int = 1000
    seed: int = 0
    policy: str = "dpa"
    delta: float = 0.49
    log_mode: str = "practical"
    step3_interval: str = "last"
    learn_fraction: float | None = None
    grid_size: int | None = None
    price: float | None = None
    out: str | None = None
    workers: int = 1
    check: bool = False


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def print_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse_config round-trips it exactly."""
    exp_keys = (
        "command", "inventory", "horizon", "n_values", "replications",
        "seed", "out", "workers", "check",
    )
    dem_keys = ("demand_family", "demand_params", "price_floor", "price_ceil")
    pol_keys = (
        "policy", "delta", "log_mode", "step3_interval", "learn_fraction",
        "grid_size", "price",
    )
    rename = {
        "demand_family": "family", "demand_params": "params",
        "price_floor": "floor", "price_ceil": "ceil",
        "n_values": "n", "policy": "name",
    }
    out = []
    for section, keys in (
        ("experiment", exp_keys), ("demand", dem_keys), ("policy", pol_keys)
    ):
        out.append(f"[{section}]")
        for key in keys:
            value = getattr(config, key)
            if value is None:
                continue
            out.append(f"{rename.get(key, key)} = {_fmt(value)}")
        out.append("")
    return "\n".join(out)


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split())


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config syntax: {exc}") from exc
    fields = {}

    def take(section, key, field, convert):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                fields[field] = convert(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc

    take("experiment", "command", "command", str)
    take("experiment", "inventory", "inventory", float)
    take("experiment", "horizon", "horizon", float)
    take("experiment", "n", "n_values",
         lambda s: tuple(int(tok) for tok in s.replace(",", " ").split()))
    take("experiment", "replications", "replications", int)
    take("experiment", "seed", "seed", int)
    take("experiment", "out", "out", str)
    take("experiment", "workers", "workers", int)
    take("experiment", "check", "check", lambda s: s.strip().lower() == "true")
    take("demand", "family", "demand_family", str)
    take("demand", "params", "demand_params", _parse_floats)
    take("demand", "floor", "price_floor", float)
    take("demand", "ceil", "price_ceil", float)
    take("policy", "name", "policy", str)
    take("policy", "delta", "delta", float)
    take("policy", "log_mode", "log_mode", str)
    take("policy", "step3_interval", "step3_interval", str)
    take("policy", "learn_fraction", "learn_fraction", float)
    take("policy", "grid_size", "grid_size", int)
    take("policy", "price", "price", float)
    return ExperimentConfig(**fields)


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the result-affecting fields only.

    Output location, worker count, and the check flag change where results
    go or how fast they arrive, never their values, so two runs that should
    produce identical numbers also share a hash.
    """
    canonical = dataclasses.replace(config, out=None, workers=1, check=False)
    digest = hashlib.sha256(print_config(canonical).encode()).hexdigest()
    return digest[:12]


def build_demand(config: ExperimentConfig) -> DemandModel:
    family = config.demand_family
    if family not in _DEMAND_ARITY:
        raise ConfigError(
            f"unknown demand family {family!r}; know {sorted(_DEMAND_ARITY)}"
        )
    arity, builder = _DEMAND_ARITY[family]
    params = config.demand_params
    if len(params) != arity:
        raise ConfigError(f"{family} needs {arity} parameters, got {len(params)}")
    try:
        return builder(params, config.price_floor, config.price_ceil)
    except ValueError as exc:
        raise ConfigError(f"demand spec rejected: {exc}") from exc


def build_policy_config(config: ExperimentConfig) -> PolicyConfig:
    return PolicyConfig(
        name=config.policy,
        delta=config.delta,
        log_mode=config.log_mode,
        step3_interval=config.step3_interval,
        learn_fraction=config.learn_fraction,
        grid_size=config.grid_size,
        price=config.price,
    )


def build_instance(config: ExperimentConfig, n: int) -> ProblemInstance:
    return ProblemInstance(build_demand(config), config.inventory, config.horizon, n)


def _meta(config: ExperimentConfig):
    return csv_meta(__version__, config_hash(config), config.seed)


def cmd_solve(config: ExperimentConfig, stdout) -> int:
    model = build_demand(config)
    x, T = config.inventory, config.horizon
    pu = solve_pu(model)
    pc = solve_pc(model, x, T)
    pd = deterministic_price(model, x, T)
    per_unit = deterministic_value(model, x, T, 1)
    n = config.n_values[0]
    print(f"p_u = {pu!r}", file=stdout)
    print(f"p_c = {pc!r}", file=stdout)
    print(f"p_D = {pd!r}", file=stdout)
    print(f"J_D per unit n = {per_unit!r}", file=stdout)
    print(f"J_D at n={n} = {deterministic_value(model, x, T, n)!r}", file=stdout)
    return 0


def cmd_run(config: ExperimentConfig, stdout) -> int:
    n = config.n_values[0]
    instance = build_instance(config, n)
    pol_config = build_policy_config(config)
    traces = [
        run_policy(instance, make_policy(pol_config, instance),
                   seed=(config.seed, n, rep))
        for rep in range(config.replications)
    ]
    jd = deterministic_value(instance.demand, config.inventory, config.horizon, n)
    mean_rev = sum(t.terminal_revenue for t in traces) / len(traces)
    print(
        f"{config.policy} at n={n}: mean revenue {mean_rev!r}, "
        f"deterministic optimum {jd!r}, regret {1 - mean_rev / jd!r}",
        file=stdout,
    )
    if config.out:
        write_trace_csv(config.out, traces, [f"{k} {v}" for k, v in _meta(config)])
        print(f"wrote {config.out}", file=stdout)
    return 0


def cmd_sweep(config: ExperimentConfig, stdout) -> int:
    instance = build_instance(config, config.n_values[0])
    pol_config = build_policy_config(config)
    report = sweep(
        instance, pol_config, config.n_values, config.replications,
        config.seed, config.workers,
    )
    for point in report.per_n:
        print(
            f"n={point.n}: regret {point.mean_regret!r} +- {point.std_error!r}",
            file=stdout,
        )
    print(
        f"slope = {report.slope!r}  intercept = {report.intercept!r}  "
        f"r^2 = {report.r_squared!r}",
        file=stdout,
    )
    for warning in report.warnings:
        print(f"warning: {warning}", file=stdout)
    if config.out:
        meta = _meta(config)
        write_regret_csv(
            config.out, [(config.policy, p) for p in report.per_n], meta
        )
        slope_path = _slope_path(config.out)
        write_slope_csv(slope_path, [(config.policy, report)], meta)
        print(f"wrote {config.out} and {slope_path}", file=stdout)
    if config.check:
        failures = []
        for point in report.per_n:
            ok, msg = check_revenue_bound(point)
            print(msg, file=stdout)
            if not ok:
                failures.append(msg)
        if failures:
            return 1
    return 0


def _slope_path(out: str) -> str:
    stem, dot, ext = out.rpartition(".")
    return f"{stem}.slopes.{ext}" if dot else f"{out}.slopes"


def cmd_lowerbound(config: ExperimentConfig, stdout) -> int:
    pol_config = build_policy_config(config)
    n = config.n_values[0]
    report = evaluate_policy_bounds(pol_config, n, config.replications, config.seed)
    print(
        f"{report.policy} at n={n}: K = {report.K_hat!r} +- {report.K_se!r}",
        file=stdout,
    )
    print(
        f"information cost: {report.info_cost_lhs!r} <= {report.info_cost_rhs!r}"
        f" + {report.info_cost_slack!r}"
        f" -> {'ok' if report.info_cost_pass else 'VIOLATED'}",
        file=stdout,
    )
    print(
        f"regret floor: {report.floor_lhs!r} >= {report.floor_rhs!r}"
        f" - {report.floor_slack!r}"
        f" -> {'ok' if report.floor_pass else 'VIOLATED'}",
        file=stdout,
    )
    if config.out:
        write_bound_csv(config.out, [report], _meta(config))
        print(f"wrote {config.out}", file=stdout)
    return 0 if report.passed else 1


def cmd_check(config: ExperimentConfig, stdout) -> int:
    from .acceptance import run_all

    results = run_all(seed=config.seed, workers=config.workers, stream=stdout)
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "solve": cmd_solve,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "lowerbound": cmd_lowerbound,
    "check": cmd_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynpricing",
        description="Learning-while-doing pricing simulator and benchmarks",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="INI config file; flags override it")
    parser.add_argument("--policy", choices=POLICY_NAMES)
    parser.add_argument(
        "--demand",
        help='demand spec, e.g. "linear 30 3" or "piecewise 84 1 4 60" '
        "(optional trailing floor/ceil pair)",
    )
    parser.add_argument("--n", help="market size(s), comma or space separated")
    parser.add_argument("--reps", type=int, help="replications per cell")
    parser.add_argument("--seed", type=int, help="root seed")
    parser.add_argument("--delta", type=float, help="learning exponent in (0, 1/2)")
    parser.add_argument("--log-mode", choices=("theoretical", "practical"))
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--workers", type=int, help="parallel worker count")
    parser.add_argument(
        "--check", action="store_true", default=None,
        help="assert output invariants; nonzero exit on violation",
    )
    return parser


def _demand_fields(spec: str) -> dict:
    tokens = spec.split()
    if not tokens:
        raise ConfigError("empty demand spec")
    family = tokens[0]
    if family not in _DEMAND_ARITY:
        raise ConfigError(
            f"unknown demand family {family!r}; know {sorted(_DEMAND_ARITY)}"
        )
    arity = _DEMAND_ARITY[family][0]
    values = tuple(float(tok) for tok in tokens[1:])
    fields = {"demand_family": family}
    if len(values) == arity:
        fields["demand_params"] = values
    elif len(values) == arity + 2:
        fields["demand_params"] = values[:arity]
        fields["price_floor"] = values[arity]
        fields["price_ceil"] = values[arity + 1]
    else:
        raise ConfigError(
            f"{family} takes {arity} parameters plus an optional floor/ceil pair"
        )
    return fields


def parse_args(argv) -> ExperimentConfig:
    args = _build_parser().parse_args(argv)
    if args.config:
        with open(args.config) as fh:
            config = parse_config(fh.read())
    else:
        config = ExperimentConfig()
    overrides: dict = {"command": args.command}
    if args.policy is not None:
        overrides["policy"] = args.policy
    if args.demand is not None:
        overrides.update(_demand_fields(args.demand))
    if args.n is not None:
        overrides["n_values"] = tuple(
            int(tok) for tok in args.n.replace(",", " ").split()
        )
    if args.reps is not None:
        overrides["replications"] = args.reps
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.delta is not None:
        overrides["delta"] = args.delta
    if args.log_mode is not None:
        overrides["log_mode"] = args.log_mode
    if args.out is not None:
        overrides["out"] = args.out
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.check is not None:
        overrides["check"] = args.check
    config = dataclasses.replace(config, **overrides)
    _validate(config)
    return config


def main(argv=None) -> int:
    try:
        config = parse_args(argv if argv is not None else sys.argv[1:])
        return _COMMANDS[config.command](config, sys.stdout)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _validate(config: ExperimentConfig) -> None:
    if config.command not in _COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    if config.replications < 1:
        raise ConfigError("replications must be positive")
    if not config.n_values or any(n < 1 for n in config.n_values):
        raise ConfigError("market sizes must be positive integers")
    if not (0.0 < config.delta < 0.5):
        raise ConfigError("delta must lie in (0, 1/2)")
    if config.log_mode not in ("theoretical", "practical"):
        raise ConfigError(f"unknown log_mode {config.log_mode!r}")
    if config.workers < 1:
        raise ConfigError("workers must be positive")
    if config.policy not in POLICY_NAMES:
        raise ConfigError(f"unknown policy {config.policy!r}; know {POLICY_NAMES}")
    if config.inventory < 0 or config.horizon <= 0:
        raise ConfigError("need inventory >= 0 and horizon > 0")


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: config files, experiment orchestration, CSV output.

Config files are INI-style key = value sections ([experiment], [demand],
[policy]); command-line flags override file values.  One table, _KEYS,
defines every key: unknown sections and keys are rejected, and ``check``
takes ``true`` or ``false``.  print_config emits a canonical form whose
parse round-trips exactly, and its hash goes into every CSV header
together with the package version and root seed.  validate checks a
config once, before any season is simulated.

Commands:
  solve       closed-form benchmark prices and value for a demand spec
  run         Monte Carlo cell for one (instance, policy); trace CSV
  sweep       regret across market sizes; regret CSV + slope CSV
  lowerbound  worst-case family divergence/regret inequality report per n
  check       acceptance suite

solve and run take one market size (10 if none is given); sweep and
lowerbound take every size given (DEFAULT_N_VALUES if none is).

Exit codes: 0 ok, 1 a check failed (sweep --check, lowerbound, check),
2 bad input.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import os
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
from .market_sim import write_trace_csv
from .policies import POLICY_NAMES, PolicyConfig, make_policy
from .regret_harness import (
    check_revenue_bound,
    csv_meta,
    seasons,
    sweep,
    write_regret_csv,
    write_slope_csv,
)
from .lower_bound import (
    Z0, evaluate_policy_bounds, worst_case_instance, write_bound_csv, z1_of_n,
)

DEFAULT_N_VALUES = (10, 100, 1000, 10000, 100000)
ONE_SIZE_COMMANDS = ("solve", "run")  # without an n they run at the first default
_WRITERS = ("run", "sweep", "lowerbound")  # the commands that write --out

_DEMAND_ARITY = {
    # family -> (param count, model); an optional floor/ceil pair may follow
    "linear": (2, LinearDemand),
    "exponential": (2, ExponentialDemand),
    "logit": (2, LogitDemand),
    "piecewise": (4, PiecewiseLinearDemand),
    "worstcase": (1, WorstCaseLinear),
}


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


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


def _int_list(text: str) -> tuple:
    """Market sizes, comma or space separated; shared by --n and the n key."""
    values = tuple(int(tok) for tok in text.replace(",", " ").split())
    if not values:
        raise ValueError("need at least one market size")
    return values


def _float_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split())


# (section, key) -> (ExperimentConfig field, parser), in canonical order
_KEYS = {
    ("experiment", "command"): ("command", str),
    ("experiment", "inventory"): ("inventory", float),
    ("experiment", "horizon"): ("horizon", float),
    ("experiment", "n"): ("n_values", _int_list),
    ("experiment", "replications"): ("replications", int),
    ("experiment", "seed"): ("seed", int),
    ("experiment", "out"): ("out", str),
    ("experiment", "workers"): ("workers", int),
    ("experiment", "check"): ("check", _bool),
    ("demand", "family"): ("demand_family", str),
    ("demand", "params"): ("demand_params", _float_list),
    ("demand", "floor"): ("price_floor", float),
    ("demand", "ceil"): ("price_ceil", float),
    ("policy", "name"): ("policy", str),
    ("policy", "delta"): ("delta", float),
    ("policy", "log_mode"): ("log_mode", str),
    ("policy", "price"): ("price", float),
}
_SECTIONS = tuple(dict.fromkeys(section for section, _ in _KEYS))


def print_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse_config round-trips it exactly."""
    out = []
    for section in _SECTIONS:
        out.append(f"[{section}]")
        for (sec, key), (field, _) in _KEYS.items():
            value = getattr(config, field)
            if sec == section and value is not None:
                out.append(f"{key} = {_fmt(value)}")
        out.append("")
    return "\n".join(out)


def parse_config(text: str, source: str = "<string>") -> ExperimentConfig:
    """Config from INI text; every error message names ``source``."""
    return ExperimentConfig(**_config_fields(text, source))


def _config_fields(text: str, source: str) -> dict:
    """The ExperimentConfig fields INI text sets, parsed."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        # configparser spreads the file, line number and text over lines
        raise ConfigError(f"bad config syntax: {' '.join(str(exc).split())}") from exc
    fields = {}
    sections = parser.sections()
    if parser.defaults():  # configparser keeps [DEFAULT] out of sections()
        sections.insert(0, parser.default_section)
    for section in sections:
        if section not in _SECTIONS:
            raise ConfigError(f"{source}: unknown section [{section}]; know {list(_SECTIONS)}")
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"{source}: unknown key {key!r} in [{section}]")
            field, parse = _KEYS[section, key]
            try:
                fields[field] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{source}: [{section}] {key} = {raw!r}: {exc}") from exc
    return fields


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
    arity, model = _DEMAND_ARITY[family]
    params = config.demand_params
    if len(params) != arity:
        raise ConfigError(f"{family} needs {arity} parameters, got {len(params)}")
    bounds = {"price_floor": config.price_floor, "price_ceil": config.price_ceil}
    bounds = {k: v for k, v in bounds.items() if v is not None}
    if bounds and model is WorstCaseLinear:
        raise ConfigError("worstcase fixes its own price box [0.5, 1.5]; drop floor/ceil")
    return model(*params, **bounds)


def build_policy_config(config: ExperimentConfig) -> PolicyConfig:
    # every PolicyConfig option but the name has an ExperimentConfig namesake
    options = dataclasses.fields(PolicyConfig)[1:]
    return PolicyConfig(config.policy, **{f.name: getattr(config, f.name) for f in options})


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
    (n,) = config.n_values
    print(f"p_u = {pu!r}", file=stdout)
    print(f"p_c = {pc!r}", file=stdout)
    print(f"p_D = {pd!r}", file=stdout)
    print(f"J_D per unit n = {per_unit!r}", file=stdout)
    print(f"J_D at n={n} = {deterministic_value(model, x, T, n)!r}", file=stdout)
    return 0


def cmd_run(config: ExperimentConfig, stdout) -> int:
    (n,) = config.n_values
    instance = build_instance(config, n)
    pol_config = build_policy_config(config)
    traces = [trace for _, trace in
              seasons(instance, pol_config, config.seed, range(config.replications))]
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
        write_regret_csv(config.out, [(config.policy, p) for p in report.per_n], meta)
        slope_path = _slope_path(config.out)
        write_slope_csv(slope_path, [(config.policy, report)], meta)
        print(f"wrote {config.out} and {slope_path}", file=stdout)
    passed = True
    if config.check:
        for point in report.per_n:
            ok, msg = check_revenue_bound(point)
            print(msg, file=stdout)
            passed = passed and ok
    return 0 if passed else 1


def _slope_path(out: str) -> str:
    stem, ext = os.path.splitext(out)
    return f"{stem}.slopes{ext}"


def cmd_lowerbound(config: ExperimentConfig, stdout) -> int:
    pol_config = build_policy_config(config)
    reports = []
    for n in config.n_values:
        r = evaluate_policy_bounds(pol_config, n, config.replications, config.seed)
        reports.append(r)
        print(
            f"{r.policy} at n={n}: K = {r.K_hat!r} +- {r.K_se!r}\n"
            f"information cost: {r.info_cost_lhs!r} <= {r.info_cost_rhs!r}"
            f" + {r.info_cost_slack!r} -> {'ok' if r.info_cost_pass else 'VIOLATED'}\n"
            f"regret floor: {r.floor_lhs!r} >= {r.floor_rhs!r}"
            f" - {r.floor_slack!r} -> {'ok' if r.floor_pass else 'VIOLATED'}",
            file=stdout,
        )
    if config.out:
        write_bound_csv(config.out, reports, _meta(config))
        print(f"wrote {config.out}", file=stdout)
    return 0 if all(r.passed for r in reports) else 1


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
    # each dest is the ExperimentConfig field the flag overrides
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
    parser.add_argument("--n", dest="n_values", type=_int_list,
                        help="market size(s), comma or space separated")
    parser.add_argument("--reps", dest="replications", type=int, help="replications per cell")
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
    """Split a --demand spec into config fields; build_demand checks them."""
    family, *tokens = spec.split() or [""]
    try:
        params = tuple(float(tok) for tok in tokens)
    except ValueError as exc:
        raise ConfigError(f"demand spec {spec!r}: {exc}") from exc
    arity = _DEMAND_ARITY[family][0] if family in _DEMAND_ARITY else None
    if arity is not None and len(params) == arity + 2:
        return {
            "demand_family": family, "demand_params": params[:arity],
            "price_floor": params[arity], "price_ceil": params[arity + 1],
        }
    return {"demand_family": family, "demand_params": params}


def parse_args(argv) -> ExperimentConfig:
    args = vars(_build_parser().parse_args(argv))
    path, spec = args.pop("config"), args.pop("demand")
    fields = {}
    if path is not None:
        try:
            with open(path) as fh:
                fields = _config_fields(fh.read(), source=path)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from exc
    fields.update((field, value) for field, value in args.items() if value is not None)
    if spec is not None:
        fields.update(_demand_fields(spec))
    if fields["command"] in ONE_SIZE_COMMANDS:
        fields.setdefault("n_values", DEFAULT_N_VALUES[:1])
    return ExperimentConfig(**fields)


def validate(config: ExperimentConfig) -> None:
    """The input boundary: ConfigError for a config its command cannot run.

    Checks that no library constructor makes are made here.  The rest are
    the constructors' own: this builds every instance the command uses and,
    except for solve, a policy on each, and reports their ValueError.
    """
    command = config.command
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if config.workers < 1:
        raise ConfigError("workers must be positive")
    if config.seed < 0:
        raise ConfigError("seed must be nonnegative")
    # both become words of a season key, and market_sim keys words below 2^64
    if config.seed >= 2**64 or max(config.n_values) >= 2**64:
        raise ConfigError("seed and n must be below 2^64")
    min_reps = 2 if command in ("sweep", "lowerbound") else 1
    if config.replications < min_reps:
        raise ConfigError(f"{command} needs replications >= {min_reps}")
    if command == "sweep" and len(set(config.n_values)) < 3:
        raise ConfigError("sweep needs at least 3 distinct market sizes")
    if command in ONE_SIZE_COMMANDS and len(config.n_values) > 1:
        raise ConfigError(f"{command} takes one market size, got {len(config.n_values)}")
    if config.out is not None and command not in _WRITERS:
        raise ConfigError(f"{command} writes no file; --out is for {', '.join(_WRITERS)}")
    # sweep's slope CSV goes next to --out, so one check covers both files
    if config.out is not None:
        folder = os.path.dirname(config.out) or "."
        if os.path.isdir(config.out):
            raise ConfigError(f"--out {config.out!r} is a directory")
        if not os.path.isdir(folder):
            raise ConfigError(f"--out {config.out!r}: no directory {folder!r}")
    if command == "check":
        return
    try:
        if command == "lowerbound":
            instances = [worst_case_instance(z, n) for n in config.n_values
                         for z in (Z0, z1_of_n(n))]
        else:
            instances = [build_instance(config, n) for n in config.n_values]
        if command != "solve":
            pol_config = build_policy_config(config)
            for instance in instances:
                make_policy(pol_config, instance)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if command in ("run", "sweep") and not deterministic_value(
            instances[0].demand, config.inventory, config.horizon) > 0:
        raise ConfigError("deterministic optimum J_D is 0, so regret is undefined")


def main(argv=None) -> int:
    try:
        config = parse_args(argv if argv is not None else sys.argv[1:])
        validate(config)
        return _COMMANDS[config.command](config, sys.stdout)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: config round-trip, commands, reproducibility."""

import dataclasses
import re

import pytest

from dynpricing import cli, regret_harness
from dynpricing.cli import (
    DEFAULT_N_VALUES,
    ExperimentConfig,
    build_demand,
    build_instance,
    build_policy_config,
    config_hash,
    main,
    parse_args,
    parse_config,
    print_config,
    validate,
)
from dynpricing.demand import ExponentialDemand, LinearDemand, PiecewiseLinearDemand, WorstCaseLinear
from dynpricing.errors import ConfigError
from dynpricing.policies import PolicyConfig

FULL = ExperimentConfig(
    command="run",
    demand_family="piecewise",
    demand_params=(84.0, 1.0, 4.0, 60.0),
    price_floor=2.0,
    price_ceil=5.0,
    inventory=81.0,
    horizon=1.0,
    n_values=(1000, 100000),
    replications=200,
    seed=42,
    policy="dpa2",
    delta=0.45,
    log_mode="theoretical",
    price=3.5,
    out="/tmp/x.csv",
    workers=4,
    check=True,
)


class TestConfigRoundTrip:
    def test_defaults(self):
        config = ExperimentConfig()
        assert parse_config(print_config(config)) == config
        assert config.n_values == DEFAULT_N_VALUES
        assert config.replications == 1000
        assert config.delta == 0.49

    def test_every_field(self):
        assert parse_config(print_config(FULL)) == FULL

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(print_config(FULL))
        config = parse_args(["sweep", "--config", str(path), "--seed", "9", "--reps", "50"])
        assert config.command == "sweep"
        assert config.seed == 9 and config.replications == 50
        assert config.demand_family == "piecewise" and config.delta == 0.45

    def test_malformed_file_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[experiment]\nreplications = soon\n")

    @pytest.mark.parametrize("text, line", [("n = 100\n", 1), ("[experiment]\nseed\n", 2)])
    def test_syntax_error_names_file_and_line(self, text, line, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            parse_args(["run", "--config", str(path)])
        message = str(exc.value)
        assert "\n" not in message and str(path) in message
        assert re.search(rf"line:? {line}\b", message)

    @pytest.mark.parametrize("text", [
        "[polcy]\nname = dpa\n",
        "[experiment]\nreplicatons = 5\n",
        "[experiment]\nreplications = soon\n",
    ], ids=["unknown section", "unknown key", "bad value"])
    def test_content_error_names_file(self, text, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            parse_args(["run", "--config", str(path)])
        assert str(exc.value).startswith(f"{path}: ")


class TestHash:
    def test_ignores_execution_only_fields(self):
        a = ExperimentConfig()
        b = dataclasses.replace(a, out="/tmp/elsewhere.csv", workers=8, check=True)
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_experiment_fields(self):
        a = ExperimentConfig()
        assert config_hash(a) != config_hash(dataclasses.replace(a, seed=1))
        assert config_hash(a) != config_hash(dataclasses.replace(a, delta=0.45))


class TestBuilders:
    def test_demand_families(self):
        assert isinstance(build_demand(ExperimentConfig()), LinearDemand)
        config = parse_args(["solve", "--demand", "exponential 80 0.5"])
        assert build_demand(config) == ExponentialDemand(80.0, 0.5)
        config = parse_args(["solve", "--demand", "piecewise 84 1 4 60 2 5"])
        assert build_demand(config) == PiecewiseLinearDemand(84.0, 1.0, 4.0, 60.0, 2.0, 5.0)
        config = parse_args(["solve", "--demand", "worstcase 0.5"])
        assert isinstance(build_demand(config), WorstCaseLinear)

    def test_bounds_pair_optional(self):
        config = parse_args(["solve", "--demand", "linear 30 3 0.5 6.5"])
        model = build_demand(config)
        assert (model.price_floor, model.price_ceil) == (0.5, 6.5)

    def test_policy_and_instance(self):
        config = parse_args(["run", "--policy", "fixed", "--n", "100"])
        config = dataclasses.replace(config, price=2.5)
        pc = build_policy_config(config)
        assert pc.name == "fixed" and pc.price == 2.5
        inst = build_instance(config, 100)
        assert inst.market_size == 100 and inst.inventory == 20.0

    def test_every_policy_option_is_a_config_key(self):
        # build_policy_config copies each PolicyConfig option by name
        options = {f.name for f in dataclasses.fields(PolicyConfig)} - {"name"}
        assert options <= {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert options <= {field for field, _ in cli._KEYS.values()}


# Inputs a command cannot run: (argv, config file text or None).  Small
# market sizes and replication counts keep a regression cheap.
BAD_INPUTS = {
    "dpa n=1": (["run", "--policy", "dpa", "--n", "1"], None),
    "dpa2 n=1": (["run", "--policy", "dpa2", "--n", "1"], None),
    "sweep n=1 last": (["sweep", "--n", "100 1000 1", "--reps", "5"], None),
    "sweep 1 rep": (["sweep", "--n", "100 1000 10000", "--reps", "1"], None),
    "sweep 2 distinct n": (["sweep", "--n", "100 100 1000", "--reps", "5"], None),
    "lowerbound 1 rep": (["lowerbound", "--n", "1000", "--reps", "1"], None),
    "lowerbound n=5": (["lowerbound", "--n", "5", "--reps", "5"], None),
    "lowerbound n=5 second": (["lowerbound", "--n", "1000 5", "--reps", "5"], None),
    "lowerbound n=5 in file": (["lowerbound", "--reps", "5"], "[experiment]\nn = 10 100 5\n"),
    "solve two n": (["solve", "--n", "100 1000"], None),
    "solve two n in file": (["solve"], "[experiment]\nn = 100 1000\n"),
    "run two n": (["run", "--n", "100 1000", "--reps", "5"], None),
    "run two n in file": (["run", "--reps", "5"], "[experiment]\nn = 100 1000\n"),
    "run no inventory": (["run", "--n", "100", "--reps", "5"], "[experiment]\ninventory = 0\n"),
    "sweep no inventory": (["sweep", "--n", "100 1000 10000", "--reps", "5"],
                           "[experiment]\ninventory = 0\n"),
    "demand not numeric": (["solve", "--demand", "linear a b"], None),
    "n not numeric": (["run", "--n", "ten"], None),
    "n empty": (["run"], "[experiment]\nn =\n"),
    "missing config": (["run", "--config", "missing.ini"], None),
    # removed keys, each set to a value they used to take
    "step3_interval": (["run", "--n", "100", "--reps", "5"], "[policy]\nstep3_interval = last\n"),
    "learn_fraction": (["run", "--n", "100", "--reps", "5"],
                       "[policy]\nname = single_phase\nlearn_fraction = 0.1\n"),
    "grid_size": (["run", "--n", "100", "--reps", "5"],
                  "[policy]\nname = single_phase\ngrid_size = 10\n"),
    "negative seed": (["run", "--n", "100", "--reps", "5"], "[experiment]\nseed = -1\n"),
    "unknown key": (["run", "--n", "100", "--reps", "5"], "[experiment]\nreplicatons = 5\n"),
    "unknown section": (["run", "--n", "100", "--reps", "5"], "[polcy]\nname = dpa\n"),
    "removed key": (["run", "--n", "100", "--reps", "5"], "[policy]\ncoefficient = 1.0\n"),
    "check not boolean": (["run", "--n", "100", "--reps", "5"], "[experiment]\ncheck = yes\n"),
    "fixed price off box": (["run", "--n", "100", "--reps", "5"],
                            "[policy]\nname = fixed\nprice = 50\n"),
    "infinite inventory": (["run", "--n", "100", "--reps", "5"], "[experiment]\ninventory = inf\n"),
    "horizon nan": (["solve"], "[experiment]\nhorizon = nan\n"),
    "no section header": (["run", "--n", "100", "--reps", "5"], "n = 100\n"),
    "key without value": (["run", "--n", "100", "--reps", "5"], "[experiment]\nseed\n"),
    "worstcase box flag": (["solve", "--demand", "worstcase 0.5 0.8 1.2"], None),
    "worstcase box file": (["solve"], "[demand]\nfamily = worstcase\nparams = 0.5\n"
                                      "floor = 0.8\nceil = 1.2\n"),
    "negative rate in box": (["solve", "--demand", "linear 30 3 0.1 11"], None),
    "rate underflows flat": (["solve", "--demand", "exponential 80 1000"], None),
    "nan intercept": (["solve", "--demand", "linear nan 3"], None),
    "nan slope past the kink": (["run", "--demand", "piecewise 30 3 7 nan", "--n", "1000",
                                 "--reps", "3"], None),
    "infinite slope": (["solve", "--demand", "linear 30 inf"], None),
    "seed 2^64": (["run", "--n", "100", "--reps", "5", "--seed", "18446744073709551616"], None),
    "n 2^64": (["run", "--n", "18446744073709551616"], None),
    # the test runs in an empty directory
    "run out is a directory": (["run", "--n", "100", "--reps", "5", "--out", "."], None),
    "run out in missing directory": (["run", "--n", "100", "--reps", "5", "--out", "no/t.csv"],
                                     None),
    "sweep out is a directory": (["sweep", "--n", "100 1000 10000", "--reps", "5", "--out", "."],
                                 None),
    "sweep out in missing directory": (["sweep", "--n", "100 1000 10000", "--reps", "5"],
                                       "[experiment]\nout = no/s.csv\n"),
    "lowerbound out is a directory": (["lowerbound", "--n", "1000", "--reps", "5", "--out", "."],
                                      None),
    "lowerbound out in missing directory": (["lowerbound", "--n", "1000", "--reps", "5",
                                             "--out", "no/b.csv"], None),
    # solve and check write no file
    "solve out": (["solve", "--out", "no/such/dir.csv"], None),
    "solve out in file": (["solve"], "[experiment]\nout = s.csv\n"),
    "check out": (["check", "--out", "c.csv"], None),
    "check out in file": (["check"], "[experiment]\nout = c.csv\n"),
}


class TestBoundary:
    def test_validation_errors(self):
        # value-level checks raise ConfigError at the boundary; enumerated
        # flags are rejected by the argument parser itself
        with pytest.raises(ConfigError):
            validate(parse_args(["sweep", "--delta", "0.6"]))
        with pytest.raises(ConfigError):
            validate(parse_args(["sweep", "--reps", "0"]))
        with pytest.raises(SystemExit):
            parse_args(["sweep", "--log-mode", "fast"])
        with pytest.raises(SystemExit):
            parse_args(["run", "--policy", "oracle"])

    def test_demand_arity_enforced(self):
        with pytest.raises(ConfigError):
            validate(parse_args(["solve", "--demand", "linear 30"]))
        with pytest.raises(ConfigError):
            validate(parse_args(["solve", "--demand", "mystery 1 2"]))

    @pytest.mark.filterwarnings("error")  # a warning would print before the error line
    @pytest.mark.parametrize("argv, text", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_bad_input_exits_2_before_simulating(self, argv, text, tmp_path, monkeypatch, capsys):
        def simulate(*args, **kwargs):
            raise AssertionError("a season was simulated")

        monkeypatch.setattr(regret_harness, "run_block", simulate)  # every season runs there
        monkeypatch.chdir(tmp_path)
        if text is not None:
            (tmp_path / "exp.ini").write_text(text)
            argv = argv + ["--config", "exp.ini"]
        usage_error = False
        try:
            code = main(argv)
        except SystemExit as exc:
            usage_error, code = True, exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        if usage_error:  # argparse's own, accepted for --n ten only
            assert "ten" in argv and "error: argument --n" in err
        else:
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_lowerbound_names_the_market_size_bound(self, capsys):
        # z1 = 1/2 + n^(-1/4)/4 leaves the family's [1/3, 2/3] below n = 6
        assert main(["lowerbound", "--n", "5", "--reps", "5"]) == 2
        assert capsys.readouterr().err == (
            "error: the worst-case family needs market size n >= 6, got n=5\n"
        )
        validate(parse_args(["lowerbound", "--n", "6", "--reps", "5"]))

    def test_one_size_commands_name_the_count(self, capsys):
        assert main(["run", "--n", "100 1000 10000", "--reps", "5"]) == 2
        assert capsys.readouterr().err == "error: run takes one market size, got 3\n"

    def test_one_size_commands_default_to_one_size(self):
        for command in ("solve", "run"):
            assert parse_args([command]).n_values == (DEFAULT_N_VALUES[0],)
        # the other commands keep every default size
        assert parse_args(["lowerbound"]).n_values == DEFAULT_N_VALUES


class TestCommands:
    def test_solve_prints_closed_forms(self, capsys):
        assert main(["solve", "--demand", "linear 30 3"]) == 0
        out = capsys.readouterr().out
        assert "p_u = 5.0" in out
        assert "J_D per unit n = 75.0" in out

    def test_run_reports_regret(self, capsys):
        code = main(["run", "--demand", "linear 30 3", "--n", "500", "--reps", "5", "--seed", "1"])
        assert code == 0
        assert "regret" in capsys.readouterr().out

    def test_run_writes_traces(self, tmp_path, capsys):
        out = tmp_path / "traces.csv"
        main(["run", "--n", "200", "--reps", "2", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# version")
        assert "rep_id,seg_index,price" in lines[3]

    def test_sweep_byte_identical_reruns(self, tmp_path, capsys):
        args = ["sweep", "--policy", "clairvoyant", "--n", "100 1000 10000",
                "--reps", "5", "--seed", "0"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        slopes1 = tmp_path / "a.slopes.csv"
        slopes2 = tmp_path / "b.slopes.csv"
        assert slopes1.read_bytes() == slopes2.read_bytes()

    def test_sweep_slope_csv_sits_next_to_out(self, tmp_path, capsys, power_law_regret):
        # a dot in a directory name is not the file's extension
        power_law_regret(1.0)
        (tmp_path / "res.d").mkdir()
        out = tmp_path / "res.d" / "sweep"
        assert main(["sweep", "--n", "100 1000 10000", "--reps", "5", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.parent.iterdir()) == ["sweep", "sweep.slopes"]

    def test_sweep_csv_bytes_do_not_depend_on_workers(self, tmp_path, capsys):
        # 130 reps make two blocks in each of three cells, all on one pool,
        # so both workers run seasons
        args = ["sweep", "--n", "100 200 300", "--reps", "130", "--seed", "0"]
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "w1.slopes.csv").read_bytes() == (tmp_path / "w2.slopes.csv").read_bytes()

    def test_sweep_check_flag_verifies_revenue_bound(self, capsys):
        code = main(["sweep", "--policy", "clairvoyant", "--n", "100 1000 10000",
                     "--reps", "10", "--seed", "0", "--check"])
        assert code == 0

    def test_lowerbound_clairvoyant_passes(self, capsys):
        code = main(["lowerbound", "--policy", "clairvoyant", "--n", "1000",
                     "--reps", "20", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "information cost" in out and "regret floor" in out

    def test_lowerbound_reports_every_n(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        code = main(["lowerbound", "--policy", "clairvoyant", "--n", "1000 100000",
                     "--reps", "20", "--seed", "0", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "clairvoyant at n=1000:" in stdout and "clairvoyant at n=100000:" in stdout
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert [row.split(",")[:2] for row in rows[1:]] == [
            ["clairvoyant", "1000"], ["clairvoyant", "100000"],
        ]

    def test_lowerbound_fails_if_any_n_fails(self, monkeypatch, capsys):
        evaluate = cli.evaluate_policy_bounds

        def fail_at_large_n(config, n, replications, seed):
            report = evaluate(config, n, replications, seed)
            return dataclasses.replace(report, floor_pass=n < 10**5)

        monkeypatch.setattr(cli, "evaluate_policy_bounds", fail_at_large_n)
        argv = ["lowerbound", "--policy", "clairvoyant", "--reps", "5", "--seed", "0"]
        assert main(argv + ["--n", "1000 100000"]) == 1
        assert "-> VIOLATED" in capsys.readouterr().out
        assert main(argv + ["--n", "1000 10000"]) == 0

    def test_bad_flag_exits_2(self, capsys):
        assert main(["sweep", "--delta", "0.7"]) == 2

    def test_synthetic_sweep_slope(self, capsys, power_law_regret):
        power_law_regret(1.0)
        code = main(["sweep", "--policy", "dpa", "--n", "100 1000 10000",
                     "--reps", "5", "--seed", "0"])
        assert code == 0
        assert "slope = -0.5" in capsys.readouterr().out

"""Season runner, regret estimation, slope fitting, sweeps, and CSV output."""

import ast
import math
import os
import pathlib

import numpy as np
import pytest

from dynpricing.demand import LinearDemand, ProblemInstance
from dynpricing import market_sim, regret_harness
from dynpricing.errors import UndefinedRegretError
from dynpricing.market_sim import run_block, run_policy
from dynpricing.policies import PolicyConfig, make_policy
from dynpricing.regret_harness import (
    RegretPoint,
    check_revenue_bound,
    csv_meta,
    estimate_regret,
    estimate_regrets,
    fit_loglog,
    seasons,
    sweep,
    write_regret_csv,
    write_slope_csv,
)

LIN = LinearDemand(30.0, 3.0)
BASE = ProblemInstance(LIN, 20.0, 1.0, 10)


@pytest.fixture
def inline_pool(monkeypatch):
    """Pools run their tasks in this process on a 4-core machine; returns
    the worker count of every pool built."""
    built = []

    class InlinePool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(regret_harness, "ProcessPoolExecutor", InlinePool)
    return built


class TestSeasons:
    def test_each_block_runs_fresh_policies_on_its_first_reps_key(self, monkeypatch):
        inst, config = BASE.with_market_size(500), PolicyConfig("dpa")
        monkeypatch.setattr(regret_harness, "_BLOCK", 2)
        ran = list(seasons(inst, config, 7, [5, 0, 3]))
        first = run_block(inst, [make_policy(config, inst) for _ in range(2)], (7, 500, 5))
        last = run_policy(inst, make_policy(config, inst), seed=(7, 500, 3))
        assert [trace for _, trace in ran] == first + [last]
        assert len({id(policy) for policy, _ in ran}) == 3

    def test_seasons_is_the_only_caller_of_the_engine(self):
        # every replicated season in the package keys its stream in one
        # place; run_policy, the engine on a block of one, has no caller here
        def calls(tree, name):
            return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and name in (getattr(node.func, "id", None),
                                 getattr(node.func, "attr", None))]

        def body(tree, name):
            (function,) = [node for node in tree.body
                           if isinstance(node, ast.FunctionDef) and node.name == name]
            return function

        found, expected = [], []
        for path in sorted(pathlib.Path(regret_harness.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            assert calls(tree, "run_policy") == []
            found += calls(tree, "run_block")
            if path.stem == "regret_harness":
                expected += calls(body(tree, "seasons"), "run_block")
            if path.stem == "market_sim":
                expected += calls(body(tree, "run_policy"), "run_block")
        assert len(expected) == 2 and found == expected


class TestEstimate:
    def test_clairvoyant_regret_is_tiny(self):
        pt = estimate_regret(BASE.with_market_size(10**4), PolicyConfig("clairvoyant"), 50, seed=0)
        assert abs(pt.mean_regret) < 0.005
        assert pt.deterministic_value == pytest.approx(750000.0, abs=1e-3)

    def test_same_seed_reproduces(self):
        a = estimate_regret(BASE.with_market_size(500), PolicyConfig("dpa"), 5, seed=3)
        b = estimate_regret(BASE.with_market_size(500), PolicyConfig("dpa"), 5, seed=3)
        assert a == b

    def test_worker_count_does_not_change_results(self):
        # one rep past a block boundary, and two whole blocks and a short
        # third, so both workers run seasons
        block = regret_harness._BLOCK
        for reps in (block + 1, 2 * block + 2):
            cell = BASE.with_market_size(100), PolicyConfig("dpa"), reps
            serial = estimate_regret(*cell, seed=0, workers=1)
            pooled = estimate_regret(*cell, seed=0, workers=2)
            assert serial == pooled

    def test_a_cell_split_on_block_boundaries_gives_the_same_result(self):
        # a block's key is its first rep's, so a run of reps cut at
        # multiples of the block size gives the seasons of one run
        block = regret_harness._BLOCK
        inst, config = BASE.with_market_size(100), PolicyConfig("dpa")
        reps = 2 * block + 5
        whole = [trace for _, trace in seasons(inst, config, 0, range(reps))]
        split = [trace for start in range(0, reps, block)
                 for _, trace in seasons(inst, config, 0, range(start, min(start + block, reps)))]
        assert whole == split
        revenues = np.array([trace.terminal_revenue for trace in whole])
        point = estimate_regret(inst, config, reps, seed=0)
        assert point.mean_revenue == float(revenues.mean())

    def test_pool_never_exceeds_the_cores(self, inline_pool):
        cell = BASE.with_market_size(100), PolicyConfig("dpa"), 5
        assert estimate_regret(*cell, seed=0, workers=10**6) == estimate_regret(*cell, seed=0)
        assert inline_pool == [4]

    def test_regret_cells_build_no_records(self, monkeypatch):
        # a cell reads each season's revenue only, so no pass record is made
        built = []
        monkeypatch.setattr(market_sim, "Pass", lambda *fields: built.append(fields))
        estimate_regret(BASE.with_market_size(1000), PolicyConfig("dpa"), 70, seed=0)
        assert built == []
        _, trace = next(seasons(BASE.with_market_size(1000), PolicyConfig("dpa"), 0, [0]))
        trace.passes
        assert built

    def test_every_cell_is_checked_before_any_season_runs(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a season ran")

        monkeypatch.setattr(regret_harness, "run_block", unreachable)
        cells = [(BASE.with_market_size(100), PolicyConfig("dpa")),
                 (ProblemInstance(LIN, 0.0, 1.0, 100), PolicyConfig("dpa"))]
        with pytest.raises(UndefinedRegretError):
            estimate_regrets(cells, 5, seed=0)

    def test_zero_value_benchmark_rejected(self):
        empty = ProblemInstance(LIN, 0.0, 1.0, 100)
        with pytest.raises(UndefinedRegretError):
            estimate_regret(empty, PolicyConfig("clairvoyant"), 5, seed=0)

    def test_needs_two_replications(self):
        with pytest.raises(ValueError):
            estimate_regret(BASE.with_market_size(100), PolicyConfig("dpa"), 1, seed=0)


class TestFit:
    def test_exact_power_law(self):
        ns = [100, 1000, 10000]
        means = [5.0 * n**-0.5 for n in ns]
        slope, intercept, r2 = fit_loglog(ns, means)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert intercept == pytest.approx(math.log(5.0), abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_constant_series_has_unit_r2(self):
        slope, _, r2 = fit_loglog([10, 100, 1000], [0.5, 0.5, 0.5])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0


class TestSweep:
    def test_synthetic_slope_recovered(self, power_law_regret):
        power_law_regret(2.0)
        report = sweep(BASE, PolicyConfig("dpa"), [100, 1000, 10000], 5, seed=0)
        assert report.slope == pytest.approx(-0.5, abs=1e-9)
        assert report.r_squared == pytest.approx(1.0, abs=1e-12)
        assert report.warnings == ()
        assert [p.n for p in report.per_n] == [100, 1000, 10000]

    def test_sweep_runs_every_cell_on_one_pool(self, inline_pool):
        # 130 reps are no whole number of blocks; each point is its cell's
        # estimate alone, so the revenues were regrouped by n
        args = BASE, PolicyConfig("dpa"), [100, 200, 300], 130
        report = sweep(*args, seed=0, workers=2)
        assert inline_pool == [2]
        assert report == sweep(*args, seed=0, workers=1)
        assert report.per_n == tuple(
            estimate_regret(BASE.with_market_size(n), PolicyConfig("dpa"), 130, seed=0)
            for n in (100, 200, 300))

    def test_needs_three_market_sizes(self):
        with pytest.raises(ValueError):
            sweep(BASE, PolicyConfig("dpa"), [100, 100, 1000], 5, seed=0)

    def test_negative_regret_points_are_excluded_not_clamped(self, power_law_regret):
        power_law_regret(-1.0)
        report = sweep(BASE, PolicyConfig("dpa"), [100, 1000, 10000], 5, seed=0)
        assert math.isnan(report.slope)
        assert any("excluded" in w for w in report.warnings)
        assert any("slope undefined" in w for w in report.warnings)


class TestRevenueBound:
    def test_honest_point_passes(self):
        pt = estimate_regret(BASE.with_market_size(10**3), PolicyConfig("clairvoyant"), 50, seed=0)
        ok, msg = check_revenue_bound(pt)
        assert ok, msg

    def test_inflated_point_fails(self):
        pt = RegretPoint(
            n=100, mean_regret=-0.5, std_error=0.001,
            replications=10, mean_revenue=1125.0, deterministic_value=750.0,
        )
        ok, msg = check_revenue_bound(pt)
        assert not ok
        assert "VIOLATED" in msg


class TestCsv:
    def test_regret_csv_layout(self, tmp_path):
        pt = RegretPoint(
            n=100, mean_regret=0.1, std_error=0.0,
            replications=5, mean_revenue=6750.0, deterministic_value=7500.0,
        )
        path = tmp_path / "r.csv"
        write_regret_csv(path, [("dpa", pt)], csv_meta("0.1.0", "cafe01", 0))
        lines = path.read_text().splitlines()
        assert lines[0] == "# version 0.1.0"
        assert lines[1] == "# config_hash cafe01"
        assert lines[2] == "# seed 0"
        assert lines[3] == "n,policy,replications,mean_regret,std_error"
        assert lines[4] == "100,dpa,5,0.1,0.0"

    def test_slope_csv_layout(self, tmp_path, power_law_regret):
        power_law_regret(1.0)
        report = sweep(BASE, PolicyConfig("dpa"), [100, 1000, 10000], 5, seed=0)
        path = tmp_path / "s.csv"
        write_slope_csv(path, [("dpa", report)], csv_meta("0.1.0", "cafe01", 0))
        lines = path.read_text().splitlines()
        assert lines[3] == "policy,slope,intercept,r_squared"
        assert lines[4].startswith("dpa,-0.5")

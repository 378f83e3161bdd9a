"""Tests of the benchmark's own checkers and tracer; no simulation runs."""

import math

import numpy as np
import pytest

import checks
from checks import Op, summarize
from tracer import Tracer, layer_metrics
from workloads import N_GRID, criterion_ops, sweep_ops

REPS = 1000


class TestClosedForms:
    def test_deterministic_values(self):
        assert checks.jd_closed_form("linear", 1) == 75.0
        assert checks.jd_closed_form("linear", 10**5) == 7.5e6
        # exponential: p_D = 2 ln 4 clears x = 20, so J_D = 20 * 2 ln 4 * n
        assert checks.jd_closed_form("exponential", 100) == pytest.approx(
            100 * 20 * 2 * math.log(4.0), rel=1e-15
        )

    def test_kl_of_the_fixed_price_season(self):
        # z1 = 0.525 at n = 1e4; rates at p = 1.5 are 0.25 and 0.2375
        l0, l1 = 0.25, 0.2375
        expected = 10**4 * (l0 * math.log(l0 / l1) + l1 - l0)
        assert checks.z1_of_n(10**4) == pytest.approx(0.525, abs=1e-15)
        assert checks.kl_fixed_price(10**4, 1.5) == pytest.approx(expected, rel=1e-12)
        assert round(checks.kl_fixed_price(10**4, 1.5), 4) == 3.2332

    def test_kl_vanishes_at_the_uninformative_price(self):
        assert checks.kl_fixed_price(10**4, 1.0) == 0.0


class TestSlopeRefit:
    def test_exact_power_law(self):
        ns = N_GRID
        assert checks.loglog_slope(ns, [3.0 * n**-0.465 for n in ns]) == pytest.approx(
            -0.465, abs=1e-12
        )

    def test_agrees_with_numpy(self):
        rng = np.random.default_rng(7)
        xs, ys = rng.normal(size=9), rng.normal(size=9)
        assert checks.ols_slope(list(xs), list(ys)) == pytest.approx(
            np.polyfit(xs, ys, 1)[0], rel=1e-12
        )

    def test_band(self):
        regrets = [0.3 * (n / 100) ** -0.6 for n in N_GRID]
        problems = checks.check_sweep_fit("exponential", N_GRID, regrets, -0.6)
        assert any("outside" in p for p in problems)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime:
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def leaf():
            clock.now += 2.0

        leaf = tracer.wrap("market_sim.rng", leaf)

        def middle():
            clock.now += 1.0
            leaf()
            clock.now += 0.5

        middle = tracer.wrap("market_sim.segment", middle)

        def outer():
            middle()
            clock.now += 4.0
            middle()

        tracer.wrap("market_sim.season", outer)()
        assert tracer.total_s["market_sim.rng"] == 4.0
        assert tracer.self_s["market_sim.segment"] == 3.0  # 2 x (3.5 - 2)
        assert tracer.total_s["market_sim.segment"] == 7.0
        assert tracer.self_s["market_sim.season"] == 4.0  # 11 - 7
        metrics = layer_metrics(tracer)
        assert metrics["market_sim.segments"] == (2, "count")
        assert metrics["market_sim.segment_us"] == (3.5e6, "us")
        assert metrics["market_sim.season_self_s"] == (4.0, "s")

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def boom():
            clock.now += 1.0
            raise ValueError

        boom = tracer.wrap("demand.solve", boom)
        with pytest.raises(ValueError):
            boom()
        assert tracer.calls["demand.solve"] == 1
        assert tracer.self_s["demand.solve"] == 1.0
        assert tracer._child_s == []


def fake_sweep(family, regrets, ses):
    """stdout, regret CSV and slope CSV as `sweep --check --out` writes them."""
    lines, rows = [], []
    for n, regret, se in zip(N_GRID, regrets, ses):
        jd = checks.jd_closed_form(family, n)
        revenue = jd * (1.0 - regret)
        lines.append(
            f"ok: n={n}: mean revenue {revenue!r} vs deterministic optimum "
            f"{jd!r} + 4 SE ({jd + 4 * se * jd!r})"
        )
        rows.append(f"{n},dpa,{REPS},{regret!r},{se!r}")
    slope = checks.loglog_slope(N_GRID, regrets)
    meta = "# version 0.1.0\n# config_hash 0\n# seed 0\n"
    regret_csv = meta + "n,policy,replications,mean_regret,std_error\n" + "\n".join(rows)
    slope_csv = meta + f"policy,slope,intercept,r_squared\ndpa,{slope!r},0.0,1.0\n"
    return "\n".join(lines), regret_csv, slope_csv


REGRETS = [0.25, 0.19, 0.039, 0.015]
SES = [0.0016, 0.0019, 0.00045, 0.0002]


class TestSweepOps:
    def test_good_output_passes(self):
        ops = sweep_ops("linear", 0, *fake_sweep("linear", REGRETS, SES), REPS)
        assert [op.name for op in ops] == [f"linear/n={n}" for n in N_GRID] + ["linear/slope"]
        assert summarize(ops, len(N_GRID) + 1) == {
            "attempted": 5, "failed": 0, "correct": True, "failures": {},
        }

    def test_revenue_above_the_optimum_is_a_failed_operation(self):
        stdout, regret_csv, slope_csv = fake_sweep("linear", REGRETS, SES)
        # the n = 1e5 cell reports 1% more revenue than J_D, 50 SE too much
        jd = checks.jd_closed_form("linear", 10**5)
        stdout = stdout.replace(f"revenue {jd * (1 - 0.015)!r}", f"revenue {jd * 1.01!r}")
        ops = sweep_ops("linear", 0, stdout, regret_csv, slope_csv, REPS)
        summary = summarize(ops, len(ops))
        assert summary["failed"] >= 1 and not summary["correct"]
        assert any("J_D + 4 SE" in p for p in summary["failures"]["linear/n=100000"])

    def test_wrong_optimum_and_a_crash(self):
        stdout, regret_csv, slope_csv = fake_sweep("exponential", REGRETS, SES)
        jd = checks.jd_closed_form("exponential", 100)
        stdout = stdout.replace(f"optimum {jd!r}", f"optimum {jd + 1.0!r}")
        ops = sweep_ops("exponential", 0, stdout, regret_csv, slope_csv, REPS)
        assert [op.ok for op in ops] == [False, True, True, True, True]
        crashed = sweep_ops("exponential", 1, stdout, regret_csv, slope_csv, REPS)
        assert summarize(crashed, 5)["failed"] == 5
        rejected = sweep_ops("exponential", 2, "", "", "", REPS)
        assert summarize(rejected, 5)["failed"] == 5


class TestCheckOps:
    DETAIL_1 = "p_u=5.00000000 J_D=75.00000000 | p_D=2.77258872 J_D=55.45177444 | 0.00s"

    def results(self, **overrides):
        out = [(k, k != 4, self.DETAIL_1 if k == 1 else "") for k in range(1, 10)]
        for k, detail in overrides.items():
            index = int(k[1:])
            out[index - 1] = (index, True, detail)
        return out

    def test_known_fault_keeps_the_round_correct(self):
        summary = summarize(criterion_ops(self.results()), 9, ("criterion_4",))
        assert (summary["attempted"], summary["failed"], summary["correct"]) == (9, 1, True)

    def test_wrong_closed_form_fails_criterion_1(self):
        bad = self.DETAIL_1.replace("J_D=75.0", "J_D=76.0")
        summary = summarize(criterion_ops(self.results(c1=bad)), 9, ("criterion_4",))
        assert summary["failed"] == 2 and not summary["correct"]

    def test_missing_criteria_count_as_failed(self):
        summary = summarize(criterion_ops(self.results()[:7]), 9, ("criterion_4",))
        assert summary["failed"] == 3 and not summary["correct"]


class TestBoundReport:
    def report(self, **fields):
        base = {
            "policy": "fixed", "n": 10**4, "K_hat": checks.kl_fixed_price(10**4, 1.5),
            "K_se": 0.0, "R_hat_z0": 0.25, "R_se_z0": 0.0005, "R_hat_z1": 0.29,
            "R_se_z1": 0.0005, "info_cost_pass": True, "floor_pass": True,
        }
        return {**base, **fields}

    def test_fixed_price_report_passes(self):
        assert checks.check_bound_report(self.report(), 1.5) == []

    def test_wrong_divergence_fails(self):
        problems = checks.check_bound_report(self.report(K_hat=3.3), 1.5)
        assert any("rate formula" in p for p in problems)

    def test_clairvoyant_must_have_zero_divergence(self):
        assert checks.check_bound_report(self.report(policy="clairvoyant", K_hat=0.0), 1.5) == []
        assert checks.check_bound_report(self.report(policy="clairvoyant", K_hat=1e-9), 1.5)

    def test_verdict_must_match_the_recomputed_inequality(self):
        problems = checks.check_bound_report(self.report(info_cost_pass=False), 1.5)
        assert problems == ["information cost: program says False, recomputed True"]


def test_op_ok():
    assert Op("a").ok and not Op("a", ("bad",)).ok

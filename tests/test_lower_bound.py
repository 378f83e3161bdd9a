"""Worst-case family, pathwise KL, and the two bound inequalities."""

import math

import numpy as np
import pytest

from dynpricing.demand import LinearDemand, ProblemInstance, solve_pu
from dynpricing.errors import PriceDomainError
from dynpricing.lower_bound import (
    Z0,
    BoundReport,
    _expected_sales,
    evaluate_policy_bounds,
    expected_revenue,
    kl_path,
    pD_of_z,
    pD_matches_solver,
    regret_lower_bound,
    worst_case_instance,
    write_bound_csv,
    z1_of_n,
)
from dynpricing.market_sim import P_INF, Pass, SimulationTrace, run_policy
from dynpricing.policies import FixedPricePolicy, PolicyConfig
from dynpricing.regret_harness import csv_meta, seasons


def trace_of(*passes):
    return SimulationTrace(passes=passes, terminal_revenue=0.0, stockout_time=None)


def flat_trace(price, duration=1.0):
    return trace_of(Pass([price], 0.0, [duration], [0]))


class TestFamily:
    def test_neighbor_scale(self):
        assert z1_of_n(10**4) == pytest.approx(0.525, abs=1e-15)

    def test_optimal_price_closed_form(self):
        # (1 + 2z)/(4z): 1 at z = 1/2, 5/4 at z = 1/3, 7/8 at z = 2/3
        assert pD_of_z(0.5) == pytest.approx(1.0, abs=1e-15)
        assert pD_of_z(1.0 / 3.0) == pytest.approx(1.25, abs=1e-12)
        assert pD_of_z(2.0 / 3.0) == pytest.approx(0.875, abs=1e-12)
        with pytest.raises(PriceDomainError):
            pD_of_z(0.2)

    def test_closed_form_agrees_with_the_solver(self):
        assert pD_matches_solver() <= 1e-8
        for z in (1.0 / 3.0, 0.5, 2.0 / 3.0):
            inst = worst_case_instance(z, 100)
            assert solve_pu(inst.demand) == pytest.approx(pD_of_z(z), abs=1e-8)

    def test_instance_shape(self):
        inst = worst_case_instance(0.5, 1000)
        assert inst.inventory == 2.0
        assert inst.horizon == 1.0
        assert (inst.demand.price_floor, inst.demand.price_ceil) == (0.5, 1.5)


class TestKlPath:
    def test_uninformative_price_has_zero_divergence(self):
        # every family member sells at rate 1/2 at p = 1, so the measures
        # coincide exactly
        assert kl_path(flat_trace(1.0), 10**6, Z0, 0.61) == 0.0
        inst = worst_case_instance(Z0, 100)
        trace = run_policy(inst, FixedPricePolicy(inst, 1.0), seed=(0, 100, 0))
        assert kl_path(trace, 100, Z0, 2.0 / 3.0) == 0.0

    def test_identical_environments_have_zero_divergence(self):
        assert kl_path(flat_trace(1.4), 100, Z0, Z0) == 0.0

    def test_worked_example(self):
        # fixed p = 3/2 for the whole season, z0 = 1/2 vs z = 1/3:
        # rates 1/4 and 1/3, so K = n (1/4 ln(3/4) + 1/3 - 1/4)
        inst = worst_case_instance(Z0, 100)
        trace = run_policy(inst, FixedPricePolicy(inst, 1.5), seed=(0, 100, 0))
        expected = 100 * (0.25 * math.log(0.75) + 1.0 / 3.0 - 0.25)
        assert kl_path(trace, 100, Z0, 1.0 / 3.0) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(1.1412815220388062, rel=1e-12)

    def test_additive_in_segments(self):
        two = trace_of(Pass([1.4], 0.0, [0.3], [0]), Pass([1.4], 0.3, [0.7], [0]))
        assert kl_path(two, 50, Z0, 0.6) == pytest.approx(
            kl_path(flat_trace(1.4), 50, Z0, 0.6), rel=1e-12
        )

    def test_shutoff_segments_contribute_nothing(self):
        with_tail = trace_of(Pass([1.4], 0.0, [1.0], [0]), Pass([P_INF], 1.0, [0.5], [0]))
        assert kl_path(with_tail, 50, Z0, 0.6) == kl_path(flat_trace(1.4), 50, Z0, 0.6)

    def test_vanishing_alternative_rate_is_infinitely_informative(self):
        # z = 3 shuts demand off at p = 1.4 while z0 keeps selling
        assert kl_path(flat_trace(1.4), 100, Z0, 3.0) == math.inf

    def test_divergence_is_nonnegative(self):
        for p in (0.5, 0.8, 1.0, 1.2, 1.5):
            for z in (1.0 / 3.0, 0.45, 0.55, 2.0 / 3.0):
                assert kl_path(flat_trace(p), 100, Z0, z) >= 0.0


class TestExpectedRevenue:
    @staticmethod
    def direct(mu, stock):
        """E[min(Poisson(mu), stock)] as sum over j < stock of P(X > j)."""
        total, cdf, pmf = 0.0, 0.0, math.exp(-mu)
        for j in range(stock):
            cdf += pmf
            total += 1.0 - cdf
            pmf *= mu / (j + 1)
        return total

    @pytest.mark.parametrize("mu", [0.4, 3.0, 25.0, 400.0])
    def test_capped_mean_matches_the_direct_sum(self, mu):
        for stock in sorted({1, 2, int(mu / 2) + 1, int(mu), int(mu) + 1, int(mu + 3 * mu**0.5) + 1}):
            assert _expected_sales(mu, stock) == pytest.approx(self.direct(mu, stock), rel=1e-10)

    def test_ample_stock_gives_the_mean_exactly(self):
        assert _expected_sales(500.0, 2000) == 500.0
        assert _expected_sales(0.0, 10) == 0.0 and _expected_sales(5.0, 0) == 0.0

    def test_stock_runs_down_over_segments_and_the_tail_is_free(self):
        inst = ProblemInstance(LinearDemand(30.0, 3.0), 0.04, 1.0, 100)  # 4 units
        trace = trace_of(Pass([5.0, 6.0], 0.0, [0.001, 0.001], [1, 3]),
                         Pass([P_INF], 0.002, [0.998], [0]))
        expected = 5.0 * _expected_sales(100 * 15.0 * 0.001, 4) + 6.0 * _expected_sales(
            100 * 12.0 * 0.001, 3)
        assert expected_revenue(trace, inst) == expected

    def test_is_unbiased_where_stock_binds(self):
        # mean demand 1500 against 1500 units: about half the seasons sell out
        inst = ProblemInstance(LinearDemand(30.0, 3.0), 15.0, 1.0, 100)
        traces = [trace for _, trace in seasons(inst, PolicyConfig("fixed", price=5.0), 0,
                                                range(2000))]
        realized = np.array([trace.terminal_revenue for trace in traces])
        assert 0.3 < np.mean([trace.stockout_time is not None for trace in traces]) < 0.7
        estimate = expected_revenue(traces[0], inst)
        assert estimate == 5.0 * _expected_sales(1500.0, 1500)
        se = realized.std(ddof=1) / math.sqrt(len(realized))
        assert abs(realized.mean() - estimate) <= 4.0 * se


class TestFloor:
    def test_floor_value(self):
        assert regret_lower_bound(1) == pytest.approx(1.0 / 6912.0, abs=1e-18)
        assert regret_lower_bound(10**4) == pytest.approx(1.4467592592592593e-06, rel=1e-12)
        # quadrupling n halves the floor
        assert regret_lower_bound(4 * 10**4) == pytest.approx(regret_lower_bound(10**4) / 2)
        with pytest.raises(ValueError):
            regret_lower_bound(0)


class TestBoundChecks:
    def test_clairvoyant_never_pays_information_cost(self):
        # it posts the uninformative price p_D(1/2) = 1, so K = 0 exactly;
        # it never stocks out, so its expected revenue is J_D exactly
        report = evaluate_policy_bounds(PolicyConfig("clairvoyant"), 10**3, 30, seed=0)
        assert report.K_hat == 0.0
        assert report.K_se == 0.0
        assert report.R_hat_z0 == 0.0 and report.R_se_z0 == 0.0
        assert report.info_cost_pass
        assert report.passed

    def test_clairvoyant_floor_verdict_is_not_applicable(self):
        # it reads z, and the floor holds only for policies that do not
        report = evaluate_policy_bounds(PolicyConfig("clairvoyant"), 10**4, 50, seed=0)
        assert not report.floor_applies and not report.floor_pass and report.passed
        assert report.floor_verdict == "n/a (clairvoyant reads z)"
        single = evaluate_policy_bounds(PolicyConfig("single_phase"), 10**4, 50, seed=0)
        assert single.floor_applies and single.floor_verdict == "ok"

    def test_fixed_informative_price_pays_measurable_cost(self):
        report = evaluate_policy_bounds(PolicyConfig("fixed", price=1.5), 10**3, 30, seed=0)
        assert report.K_hat > 1.0
        assert report.info_cost_pass
        assert report.floor_pass
        assert report.R_hat_z0 > 0.1  # far from optimal under z0

    def test_report_passed_is_conjunction(self):
        base = dict(
            policy="x", n=10, K_hat=0.0, K_se=0.0, R_hat_z0=0.0, R_se_z0=0.0,
            R_hat_z1=0.0, R_se_z1=0.0, info_cost_lhs=0.0, info_cost_rhs=0.0,
            info_cost_slack=0.0, floor_lhs=0.0, floor_rhs=0.0, floor_slack=0.0,
        )
        assert BoundReport(**base, info_cost_pass=True, floor_pass=True).passed
        assert not BoundReport(**base, info_cost_pass=True, floor_pass=False).passed
        assert not BoundReport(**base, info_cost_pass=False, floor_pass=True).passed
        # a floor that does not apply leaves the information check alone
        assert BoundReport(**base, info_cost_pass=True, floor_pass=False, floor_applies=False).passed
        assert not BoundReport(**base, info_cost_pass=False, floor_pass=True,
                               floor_applies=False).passed

    def test_csv_layout(self, tmp_path):
        report = evaluate_policy_bounds(PolicyConfig("clairvoyant"), 10**3, 5, seed=0)
        path = tmp_path / "b.csv"
        write_bound_csv(path, [report], csv_meta("0.1.0", "cafe01", 0))
        lines = path.read_text().splitlines()
        assert lines[3] == (
            "policy,n,K_hat,K_se,R_hat_z0,R_hat_z1,"
            "info_cost_lhs,info_cost_rhs,floor_lhs,floor_rhs,pass"
        )
        assert lines[4].startswith("clairvoyant,1000,0.0,")

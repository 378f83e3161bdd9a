"""Worst-case family, pathwise KL, and the two bound inequalities."""

import math

import pytest

from dynpricing.demand import solve_pu
from dynpricing.errors import PriceDomainError
from dynpricing.lower_bound import (
    Z0,
    BoundReport,
    evaluate_policy_bounds,
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
from dynpricing.regret_harness import csv_meta


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
        # it posts the uninformative price p_D(1/2) = 1, so K = 0 exactly
        report = evaluate_policy_bounds(PolicyConfig("clairvoyant"), 10**3, 30, seed=0)
        assert report.K_hat == 0.0
        assert report.K_se == 0.0
        assert report.passed

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

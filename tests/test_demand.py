"""Demand families, deterministic benchmark, and solver accuracy."""

import math

import numpy as np
import pytest

from dynpricing.demand import (
    P_INF,
    CallableDemand,
    ExponentialDemand,
    LinearDemand,
    LogitDemand,
    PiecewiseLinearDemand,
    ProblemInstance,
    TabulatedDemand,
    WorstCaseLinear,
    advertisement_transform,
    deterministic_price,
    deterministic_value,
    solve_pc,
    solve_pu,
)
from dynpricing.errors import PriceDomainError

LIN = LinearDemand(30.0, 3.0)
EXP = ExponentialDemand(80.0, 0.5)


class TestRateInterface:
    def test_shutoff_price_sells_nothing(self):
        assert LIN.rate(P_INF) == 0.0
        assert LIN.revenue(P_INF) == 0.0

    def test_out_of_interval_price_rejected(self):
        with pytest.raises(PriceDomainError):
            LIN.rate(10.5)
        with pytest.raises(PriceDomainError):
            LIN.rate(0.0)

    def test_rate_clipped_nonnegative(self):
        # 30 - 3p hits zero exactly at the ceiling p = 10
        assert LIN.rate(10.0) == 0.0

    def test_inverse_round_trip(self):
        for model in (LIN, EXP, LogitDemand(0.5, 1.0), PiecewiseLinearDemand(84.0, 1.0, 4.0, 60.0, 2.0, 5.0)):
            for p in np.linspace(model.price_floor, model.price_ceil, 17)[1:-1]:
                assert model.inverse(model.rate(p)) == pytest.approx(p, abs=1e-9)

    def test_inverse_out_of_range_rejected(self):
        with pytest.raises(PriceDomainError):
            LIN.inverse(31.0)

    def test_monotone_decreasing_enforced(self):
        with pytest.raises(ValueError):
            LinearDemand(30.0, -3.0)
        with pytest.raises(ValueError):
            CallableDemand(lambda p: p, 0.1, 1.0)  # increasing


class TestFamilies:
    def test_linear_values(self):
        assert LIN.rate(5.0) == pytest.approx(15.0)
        assert LIN.revenue(5.0) == pytest.approx(75.0)

    def test_exponential_values(self):
        assert EXP.rate(2.0 * math.log(4.0)) == pytest.approx(20.0, rel=1e-12)

    def test_logit_rate_is_a_probability(self):
        model = LogitDemand(0.5, 1.0)
        ps = np.linspace(model.price_floor, model.price_ceil, 33)
        rates = [model.rate(p) for p in ps]
        assert all(0.0 < r < 1.0 for r in rates)
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_piecewise_is_continuous_at_the_kink(self):
        model = PiecewiseLinearDemand(84.0, 1.0, 4.0, 60.0, 2.0, 5.0)
        assert model.rate(4.0) == pytest.approx(80.0)
        assert model.rate(4.0 - 1e-9) == pytest.approx(model.rate(4.0 + 1e-9), abs=1e-6)
        assert model.rate(2.0) == pytest.approx(82.0)
        assert model.rate(5.0) == pytest.approx(20.0)

    def test_piecewise_kink_must_be_interior(self):
        with pytest.raises(ValueError):
            PiecewiseLinearDemand(84.0, 1.0, 5.0, 60.0, 2.0, 5.0)

    def test_worst_case_members_cross_at_one(self):
        for z in (1 / 3, 0.4, 0.5, 0.6, 2 / 3):
            assert WorstCaseLinear(z).rate(1.0) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError):
            WorstCaseLinear(0.2)

    def test_tabulated_interpolates(self):
        model = TabulatedDemand((1.0, 2.0, 4.0), (10.0, 8.0, 2.0))
        assert model.rate(1.5) == pytest.approx(9.0)
        assert model.inverse(5.0) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            TabulatedDemand((1.0, 2.0), (5.0, 5.0))  # not strictly decreasing

    def test_advertisement_reduces_to_pricing(self):
        # fixed posted price 10, demand grows with intensity a on [0, 5]:
        # effective price w = 10 - a gives lambda(w) = 2 + (10 - w) = 12 - w
        model = advertisement_transform(10.0, lambda a: 2.0 + a, 0.0, 5.0)
        assert model.price_floor == pytest.approx(5.0)
        assert model.price_ceil == pytest.approx(10.0)
        assert model.rate(6.0) == pytest.approx(6.0, abs=1e-9)


class TestSolvers:
    def test_linear_unconstrained_price(self):
        # argmax p (30 - 3p) = 5 exactly
        assert solve_pu(LIN) == pytest.approx(5.0, abs=1e-9)

    def test_exponential_unconstrained_price(self):
        # argmax p e^(-bp) = 1/b
        assert solve_pu(EXP) == pytest.approx(2.0, abs=1e-9)

    def test_clearing_price_crossing(self):
        # 30 - 3p = 20  ->  p = 10/3
        assert solve_pc(LIN, 20.0, 1.0) == pytest.approx(10.0 / 3.0, abs=1e-9)
        # 80 e^(-p/2) = 20  ->  p = 2 ln 4
        assert solve_pc(EXP, 20.0, 1.0) == pytest.approx(2.0 * math.log(4.0), abs=1e-9)

    def test_clearing_price_clamps_to_bounds(self):
        assert solve_pc(LIN, 50.0, 1.0) == LIN.price_floor  # demand can never reach 50
        assert solve_pc(LIN, 0.0, 1.0) == LIN.price_ceil

    def test_benchmark_price_and_value(self):
        assert deterministic_price(LIN, 20.0, 1.0) == pytest.approx(5.0, abs=1e-6)
        assert deterministic_value(LIN, 20.0, 1.0, 1) == pytest.approx(75.0, abs=1e-6)
        assert deterministic_price(EXP, 20.0, 1.0) == pytest.approx(2 * math.log(4.0), abs=1e-6)
        assert deterministic_value(EXP, 20.0, 1.0, 1) == pytest.approx(40 * math.log(4.0), abs=1e-6)
        assert deterministic_value(LIN, 20.0, 1.0, 100) == pytest.approx(7500.0, abs=1e-4)

    def test_zero_inventory_is_worth_nothing(self):
        assert deterministic_value(LIN, 0.0, 1.0, 100) == 0.0

    def test_kinked_benchmark_sits_at_the_corner(self):
        model = PiecewiseLinearDemand(84.0, 1.0, 4.0, 60.0, 2.0, 5.0)
        # revenue rises toward the kink on both sides: slope 84 - 2p > 0 on
        # the left, 320 - 120p < 0 on the right, so p_u = 4; clearing price
        # 84 - p = 81 -> p = 3 is below it
        assert solve_pu(model) == pytest.approx(4.0, abs=1e-6)
        assert solve_pc(model, 81.0, 1.0) == pytest.approx(3.0, abs=1e-9)
        assert deterministic_value(model, 81.0, 1.0, 1) == pytest.approx(320.0, abs=1e-4)

    def test_tabulated_solver_scans_first(self):
        ps = np.linspace(0.5, 9.5, 181)
        model = TabulatedDemand(tuple(ps), tuple(30.0 - 3.0 * ps))
        assert solve_pu(model) == pytest.approx(5.0, abs=1e-3)


class TestRegularityConstants:
    def test_linear_closed_forms(self):
        c = LIN.constants
        assert c.M == pytest.approx(30.0 - 3.0 * 0.1)
        assert c.K == pytest.approx(30.0)  # |r'(p)| at the ceiling dominates
        assert c.m_L == pytest.approx(2.0 / 3.0)
        assert c.m_U == pytest.approx(2.0 / 3.0)

    def test_exponential_sampled_curvature_brackets(self):
        # r(lam) = lam ln(a/lam)/b has r'' = -1/(b lam); the sampled
        # bracket must land inside the analytic range over the rate grid
        c = EXP.constants
        lam_lo, lam_hi = EXP.rate(EXP.price_ceil), EXP.rate(EXP.price_floor)
        assert 0.0 < c.m_U <= c.m_L
        assert c.m_L <= 1.05 * (1.0 / (0.5 * lam_lo))
        assert c.m_U >= 0.95 * (1.0 / (0.5 * lam_hi))


class TestProblemInstance:
    def test_inventory_scaling_floors(self):
        inst = ProblemInstance(LIN, 20.5, 1.0, 3)
        assert inst.scaled_inventory == 61
        assert inst.with_market_size(7).scaled_inventory == 143

    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemInstance(LIN, -1.0, 1.0, 10)
        with pytest.raises(ValueError):
            ProblemInstance(LIN, 20.0, 0.0, 10)
        with pytest.raises(ValueError):
            ProblemInstance(LIN, 20.0, 1.0, 0)
        with pytest.raises(ValueError):
            ProblemInstance(LIN, math.inf, 1.0, 10)
        with pytest.raises(ValueError):
            ProblemInstance(LIN, 20.0, math.nan, 10)

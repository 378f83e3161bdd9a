"""Demand families, deterministic benchmark, and solver accuracy."""

import math

import numpy as np
import pytest

from dynpricing.demand import (
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
from dynpricing.errors import PriceDomainError
from dynpricing.market_sim import P_INF

LIN = LinearDemand(30.0, 3.0)
EXP = ExponentialDemand(80.0, 0.5)


class TestRateInterface:
    def test_shutoff_price_is_not_a_price(self):
        # only the simulator writes P_INF, for a season's tail; it lies
        # outside every price box
        with pytest.raises(PriceDomainError):
            LIN.rate(P_INF)
        with pytest.raises(PriceDomainError):
            LIN.revenue(P_INF)

    def test_out_of_interval_price_rejected(self):
        with pytest.raises(PriceDomainError):
            LIN.rate(10.5)
        with pytest.raises(PriceDomainError):
            LIN.rate(0.0)

    def test_rate_clipped_nonnegative(self):
        # 30 - 3p hits zero exactly at the ceiling p = 10
        assert LIN.rate(10.0) == 0.0

    def test_monotone_decreasing_enforced(self):
        with pytest.raises(ValueError):
            LinearDemand(30.0, -3.0)
        with pytest.raises(ValueError, match="negative"):
            LinearDemand(30.0, 3.0, price_ceil=11.0)  # rate -3 at the ceiling
        with pytest.raises(ValueError, match="strictly decreasing"):
            ExponentialDemand(80.0, 1000.0)  # rate underflows to a flat 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [
        lambda: LinearDemand(math.nan, 3.0),
        lambda: LinearDemand(30.0, math.inf),
        lambda: LinearDemand(math.inf, 3.0),
        lambda: PiecewiseLinearDemand(30.0, 3.0, 7.0, math.nan),
        lambda: LogitDemand(math.nan, 1.0),
    ], ids=["nan a", "inf b", "inf a", "nan b_right", "logit nan a"])
    def test_non_finite_rates_rejected(self, build):
        with pytest.raises(ValueError, match="not finite"):
            build()


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

    @pytest.mark.parametrize("model, inventory", [
        (LIN, 20.0), (EXP, 20.0), (LIN, 1.0), (WorstCaseLinear(0.5), 0.5),
        (PiecewiseLinearDemand(84.0, 1.0, 4.0, 60.0, 2.0, 5.0), 81.0),
    ])
    def test_memoised_benchmark_price_equals_a_fresh_solve(self, model, inventory):
        memoised = deterministic_price(model, inventory, 1.0)
        assert deterministic_price(model, inventory, 1.0) is memoised
        assert deterministic_price.__wrapped__(model, inventory, 1.0) == memoised

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

    @pytest.mark.parametrize("ceil, pu, revenue", [(10.0, 10.0, 81.0), (8.0, 5.0, 75.0)])
    def test_convex_kink_takes_the_better_piece(self, ceil, pu, revenue):
        # revenue p (30 - 3p) peaks at 5 (75) left of the kink at 7; right
        # of it, p (11.1 - 0.3p) rises to the ceiling (81 at 10, 69.6 at 8)
        model = PiecewiseLinearDemand(30.0, 3.0, 7.0, 0.3, price_ceil=ceil)
        assert solve_pu(model) == pytest.approx(pu, abs=1e-6)
        assert model.revenue(solve_pu(model)) == pytest.approx(revenue, abs=1e-6)

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

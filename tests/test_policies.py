"""Policy behavior: baselines, interval learning, track transition."""

import math

import numpy as np
import pytest

from dynpricing.cli import parse_config
from dynpricing.demand import (
    ExponentialDemand,
    LinearDemand,
    PiecewiseLinearDemand,
    ProblemInstance,
    deterministic_price,
)
from dynpricing.errors import ConfigError
from dynpricing.market_sim import run_policy
from dynpricing.policies import (
    DpaPolicy,
    FixedPricePolicy,
    KinkPolicy,
    PolicyConfig,
    SinglePhaseGridPolicy,
    make_policy,
)

LIN = LinearDemand(30.0, 3.0)
EXP = ExponentialDemand(80.0, 0.5)
KINKED = PiecewiseLinearDemand(84.0, 1.0, 4.0, 60.0, price_floor=2.0, price_ceil=5.0)


def lin_instance(n):
    return ProblemInstance(LIN, 20.0, 1.0, n)


def exp_instance(n):
    return ProblemInstance(EXP, 20.0, 1.0, n)


def segments_cover_season(trace, inst):
    t = 0.0
    for seg in trace.segments:
        assert seg.t_start == pytest.approx(t, abs=1e-9)
        t += seg.duration
    assert t == pytest.approx(inst.horizon, abs=1e-9)


class TestBaselines:
    def test_clairvoyant_posts_the_benchmark_price(self):
        inst = lin_instance(1000)
        pol = make_policy(PolicyConfig("clairvoyant"), inst)
        assert pol.applied_price == pytest.approx(5.0, abs=1e-6)
        trace = run_policy(inst, pol, seed=(0, 1000, 0))
        assert len(trace.segments) == 1
        segments_cover_season(trace, inst)

    def test_fixed_price(self):
        inst = lin_instance(1000)
        trace = run_policy(inst, FixedPricePolicy(inst, 3.0), seed=(0, 1000, 0))
        assert trace.segments[0].price == 3.0
        # the price must lie in the box [0.1, 10.0] when the policy is built
        for price in (50.0, 0.05, float("nan")):
            with pytest.raises(ValueError):
                FixedPricePolicy(inst, price)

    def test_single_phase_grid_then_commit(self):
        # n = 625 = 5^4: a grid of 5 prices for a fifth of the season
        inst = lin_instance(625)
        pol = SinglePhaseGridPolicy(inst)
        trace = run_policy(inst, pol, seed=(0, 625, 0))
        grid_prices = [s.price for s in trace.segments[:5]]
        assert grid_prices == pytest.approx(list(np.linspace(0.1, 10.0, 5)))
        for seg in trace.segments[:5]:
            assert seg.duration == pytest.approx(0.2 / 5)
        assert trace.segments[5].duration == pytest.approx(0.8)
        assert trace.segments[5].price == pol.applied_price
        segments_cover_season(trace, inst)

    def test_single_phase_default_tuning(self):
        # ceil(n^(1/4)) = 10 grid prices for an n^(-1/4) = 0.1 share of the season
        inst = lin_instance(10**4)
        trace = run_policy(inst, SinglePhaseGridPolicy(inst), seed=(0, 10**4, 0))
        assert len(trace.segments) == 11
        for seg in trace.segments[:10]:
            assert seg.duration == pytest.approx(0.01)
        assert trace.segments[10].duration == pytest.approx(0.9)

    def test_single_phase_validation(self):
        # n = 1 leaves a grid of ceil(1^(1/4)) = 1 price
        with pytest.raises(ValueError, match="n >= 2"):
            SinglePhaseGridPolicy(lin_instance(1))
        SinglePhaseGridPolicy(lin_instance(2))


def first_pass(policy):
    """The prices of ``policy``'s first grid pass, run as a block of one."""
    _, prices, _ = next(policy.season([policy]))
    return prices[0].tolist()


BOXES = [(0.1, 10.0), (2.0, 5.0), (0.5, 1.5), (0.3, 0.7), (1.7, 1234.5)]


def box_instance(floor, ceil, n):
    return ProblemInstance(LinearDemand(ceil + 1.0, 1.0, floor, ceil), 1.0, 1.0, n)


class TestGridPrices:
    """First grid passes bit for bit against numpy, which builds the same
    grids from the same arithmetic."""

    @pytest.mark.parametrize("floor, ceil", BOXES)
    @pytest.mark.parametrize("n", [2, 17, 625, 10**4, 123457, 10**6, 4 * 10**7])
    def test_single_phase_grid_is_linspace(self, floor, ceil, n):
        prices = first_pass(SinglePhaseGridPolicy(box_instance(floor, ceil, n)))
        assert len(prices) == math.ceil(n**0.25)  # 2 to 80 prices
        assert all(type(p) is float for p in prices)
        assert prices == np.linspace(floor, ceil, len(prices)).tolist()

    @pytest.mark.parametrize("floor, ceil", BOXES)
    @pytest.mark.parametrize("n", [2, 17, 100, 10**4, 123457, 10**6, 10**7])
    def test_track_grid_is_left_endpoints(self, floor, ceil, n):
        policy = DpaPolicy(box_instance(floor, ceil, n))
        prices = first_pass(policy)
        kappa = policy.schedule[0].kappa[0]  # 2 to 83 prices
        step = (ceil - floor) / kappa
        assert all(type(p) is float for p in prices)
        assert prices == (floor + step * np.arange(kappa)).tolist()


class TestDpaStructure:
    def test_season_is_gapless_and_never_overruns(self):
        inst = lin_instance(10**4)
        trace = run_policy(inst, DpaPolicy(inst), seed=(0, 10**4, 0))
        segments_cover_season(trace, inst)

    def test_interval_shrink_geometry(self):
        # widths follow w' <= ln(n) * w / kappa with the asymmetric 1/3-2/3
        # split around the estimate; clamping can only make them narrower
        inst = lin_instance(10**4)
        pol = DpaPolicy(inst)
        run_policy(inst, pol, seed=(0, 10**4, 0))
        hist = pol.iterations
        assert hist[0][:4] == ("u", 1, LIN.price_floor, LIN.price_ceil)
        ln_n = math.log(10**4)
        for (_, i, lo, hi, _, _), (_, j, lo2, hi2, _, _) in zip(hist, hist[1:]):
            kappa = pol.schedule[0].kappa[i - 1]
            step = (hi - lo) / kappa
            assert hi2 - lo2 <= ln_n * step + 1e-12
            assert lo2 >= LIN.price_floor - 1e-12
            assert hi2 <= LIN.price_ceil + 1e-12

    def test_linear_stays_on_the_revenue_track(self):
        inst = lin_instance(10**4)
        pol = DpaPolicy(inst)
        run_policy(inst, pol, seed=(0, 10**4, 0))
        assert not pol.entered_step3
        assert {row[0] for row in pol.iterations} == {"u"}
        # committed price carries the upward adjustment, capped at the ceiling
        _, i, lo, hi, p_u, p_c = pol.iterations[-1]
        step = (hi - lo) / pol.schedule[0].kappa[i - 1]
        expect = min(max(p_u, p_c) + 2.0 * math.sqrt(pol.ln_n) * step, 10.0)
        assert pol.applied_price == pytest.approx(expect, rel=1e-12)

    def test_exponential_hands_over_to_the_constrained_track(self):
        inst = exp_instance(10**4)
        pol = DpaPolicy(inst)
        run_policy(inst, pol, seed=(0, 10**4, 0))
        assert pol.entered_step3
        assert pol.iterations[-1][0] == "c"  # a constrained iteration ran
        # the committed price is the last clearing estimate, unadjusted
        assert pol.applied_price == pol.iterations[-1][5]
        # and should approximate the true clearing price 2 ln 4 = 2.77
        assert abs(pol.applied_price - 2.0 * math.log(4.0)) < 0.25

    def test_constrained_track_inherits_the_last_interval(self):
        inst = exp_instance(10**4)
        pol = DpaPolicy(inst)
        run_policy(inst, pol, seed=(0, 10**4, 0))
        last_u = [row for row in pol.iterations if row[0] == "u"][-1]
        first_c = [row for row in pol.iterations if row[0] == "c"][0]
        assert (first_c[2], first_c[3]) == (last_u[2], last_u[3])

    def test_transition_threshold_keeps_log_factor_in_theoretical_mode(self):
        inst = exp_instance(10**4)
        assert DpaPolicy(inst).transition_factor == 2.0
        theo = DpaPolicy(inst, log_mode="theoretical")
        assert theo.transition_factor == pytest.approx(2.0 * math.sqrt(math.log(10**4)))

    def test_theoretical_first_period_truncates_to_the_season(self):
        # tau_1 = n^(-0.49) (ln n)^3.5 = 26.6 seasons at n = 1e4: learning
        # is cut to the season length and the estimate is still recorded
        inst = lin_instance(10**4)
        pol = DpaPolicy(inst, log_mode="theoretical")
        trace = run_policy(inst, pol, seed=(0, 10**4, 0))
        assert pol.truncated_learning
        assert len(pol.iterations) == 1
        assert None not in pol.iterations[0]
        assert pol.applied_price is not None
        segments_cover_season(trace, inst)

    def test_invalid_step3_interval(self):
        # the constrained track has one start, so no key or parameter picks it
        with pytest.raises(ConfigError, match="step3_interval"):
            parse_config("[policy]\nstep3_interval = last\n")
        with pytest.raises(TypeError):
            DpaPolicy(lin_instance(100), step3_interval="last")


class TestKinkPolicy:
    def test_commits_the_raw_estimate(self):
        inst = ProblemInstance(KINKED, 81.0, 1.0, 10**4)
        pol = KinkPolicy(inst)
        trace = run_policy(inst, pol, seed=(0, 10**4, 0))
        _, _, _, _, p_u, p_c = pol.iterations[-1]
        assert pol.applied_price == max(p_u, p_c)
        segments_cover_season(trace, inst)

    def test_shrinks_are_symmetric(self):
        inst = ProblemInstance(KINKED, 81.0, 1.0, 10**4)
        pol = KinkPolicy(inst)
        run_policy(inst, pol, seed=(0, 10**4, 0))
        hist = pol.iterations
        ln_n = math.log(10**4)
        for (_, i, lo, hi, pu, pc), (_, _, lo2, hi2, _, _) in zip(hist, hist[1:]):
            step = (hi - lo) / pol.schedule.kappa[i - 1]
            center = max(pu, pc)
            # interior shrinks sit centered; box clamps cut one side only
            assert lo2 == pytest.approx(max(center - ln_n / 2 * step, 2.0), abs=1e-12)
            assert hi2 == pytest.approx(min(center + ln_n / 2 * step, 5.0), abs=1e-12)

    def test_finds_the_corner(self):
        inst = ProblemInstance(KINKED, 81.0, 1.0, 10**4)
        pol = KinkPolicy(inst)
        run_policy(inst, pol, seed=(0, 10**4, 0))
        assert abs(pol.applied_price - 4.0) < 0.05


class TestConfig:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            PolicyConfig("greedy")

    def test_fixed_needs_a_price(self):
        with pytest.raises(ConfigError):
            PolicyConfig("fixed")

    def test_dispatch(self):
        inst = lin_instance(100)
        assert isinstance(make_policy(PolicyConfig("dpa"), inst), DpaPolicy)
        assert isinstance(make_policy(PolicyConfig("dpa2"), inst), KinkPolicy)
        clairvoyant = make_policy(PolicyConfig("clairvoyant"), inst)
        assert clairvoyant.applied_price == deterministic_price(LIN, 20.0, 1.0)
        assert isinstance(make_policy(PolicyConfig("single_phase"), inst), SinglePhaseGridPolicy)
        assert isinstance(make_policy(PolicyConfig("fixed", price=2.0), inst), FixedPricePolicy)

    def test_synthetic_cannot_be_instantiated(self):
        # the power-law stand-in lives in the tests, not among the policies
        with pytest.raises(ConfigError):
            make_policy(PolicyConfig("synthetic"), lin_instance(100))

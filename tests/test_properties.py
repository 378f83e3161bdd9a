"""Simulator and policy invariants on random instances, policies and seeds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpricing.demand import (
    P_INF,
    ExponentialDemand,
    LinearDemand,
    LogitDemand,
    PiecewiseLinearDemand,
    ProblemInstance,
    WorstCaseLinear,
)
from dynpricing.market_sim import run_policy
from dynpricing.policies import PolicyConfig, make_policy

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, database=None)


@st.composite
def demands(draw):
    """A demand model of a random family on a random price box."""
    floor = draw(st.floats(0.1, 2.0))
    ceil = floor + draw(st.floats(0.5, 8.0))
    family = draw(st.sampled_from(("linear", "exponential", "logit", "piecewise", "worstcase")))
    if family == "linear":
        b = draw(st.floats(0.2, 5.0))
        # a - b * ceil is the rate at the ceiling, kept positive
        return LinearDemand(b * ceil + draw(st.floats(0.1, 30.0)), b, floor, ceil)
    if family == "exponential":
        return ExponentialDemand(draw(st.floats(1.0, 100.0)), draw(st.floats(0.05, 2.0)), floor, ceil)
    if family == "logit":
        return LogitDemand(draw(st.floats(-5.0, 5.0)), draw(st.floats(0.1, 3.0)), floor, ceil)
    if family == "piecewise":
        kink = floor + (ceil - floor) * draw(st.floats(0.1, 0.9))
        b_left, b_right = draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 5.0))
        a = b_left * kink + b_right * (ceil - kink) + draw(st.floats(0.1, 30.0))
        return PiecewiseLinearDemand(a, b_left, kink, b_right, floor, ceil)
    return WorstCaseLinear(draw(st.floats(1.0 / 3.0, 2.0 / 3.0)))


@st.composite
def season_setups(draw):
    """(instance, fresh policy, season key) for a random instance, policy
    and seed."""
    model = draw(demands())
    instance = ProblemInstance(
        model, draw(st.floats(0.0, 50.0)), draw(st.floats(0.25, 4.0)), draw(st.integers(2, 10**4))
    )
    name = draw(st.sampled_from(("dpa", "dpa2", "single_phase", "clairvoyant", "fixed")))
    config = PolicyConfig(
        name,
        log_mode=draw(st.sampled_from(("practical", "theoretical"))),
        price=draw(st.floats(model.price_floor, model.price_ceil)),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return instance, make_policy(config, instance), (seed,)


def seasons():
    """(instance, simulated trace) for a random instance, policy and seed."""
    return season_setups().map(
        lambda setup: (setup[0], run_policy(setup[0], setup[1], seed=setup[2]))
    )


class CountRecorder:
    """Forwards a policy's season and records every count sent into it."""

    def __init__(self, policy):
        self.policy = policy
        self.counts = []

    def season(self):
        inner = self.policy.season()
        request = next(inner, None)
        while request is not None:
            sales = yield request
            self.counts.append(sales)
            try:
                request = inner.send(sales)
            except StopIteration:
                request = None


@PROPERTY_SETTINGS
@given(seasons())
def test_sales_never_exceed_stock(season):
    instance, trace = season
    assert sum(seg.sales for seg in trace.segments) <= instance.scaled_inventory


@PROPERTY_SETTINGS
@given(seasons())
def test_trace_ends_at_horizon(season):
    instance, trace = season
    T = instance.horizon
    clock = 0.0
    for seg in trace.segments:
        assert seg.duration >= 0.0
        assert seg.t_start == pytest.approx(clock, rel=1e-12, abs=1e-12)
        clock = seg.t_start + seg.duration
    assert clock == pytest.approx(T, rel=1e-12)
    assert math.fsum(seg.duration for seg in trace.segments) == pytest.approx(T, rel=1e-12)


@PROPERTY_SETTINGS
@given(seasons())
def test_revenue_is_price_times_sales(season):
    _, trace = season
    revenue = math.fsum(seg.price * seg.sales for seg in trace.segments if seg.price is not P_INF)
    assert trace.terminal_revenue == pytest.approx(revenue, rel=1e-12, abs=1e-12)


@PROPERTY_SETTINGS
@given(seasons())
def test_prices_in_box_or_shut_off(season):
    instance, trace = season
    model = instance.demand
    for seg in trace.segments:
        assert seg.price is P_INF or model.price_floor <= seg.price <= model.price_ceil


@PROPERTY_SETTINGS
@given(season_setups())
def test_every_count_is_sent_back_once_in_order(setup):
    # no policy posts the shut-off price, so the shut-off segments are the
    # tail the simulator closes the season with
    instance, policy, seed = setup
    recorder = CountRecorder(policy)
    trace = run_policy(instance, recorder, seed=seed)
    assert recorder.counts == [seg.sales for seg in trace.segments if seg.price is not P_INF]

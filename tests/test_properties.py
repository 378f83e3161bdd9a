"""Simulator and policy invariants on random instances, policies and seeds."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynpricing.demand import (
    _PRICE_TOL as _PRICE_SLACK,
    ExponentialDemand,
    LinearDemand,
    LogitDemand,
    PiecewiseLinearDemand,
    ProblemInstance,
    WorstCaseLinear,
)
from dynpricing.market_sim import (
    _T_EPS,
    P_INF,
    Segment,
    run_block,
    run_policy,
    season_rng,
)
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
    """Forwards a policy's season and records every list of counts sent
    into it."""

    def __init__(self, policy):
        self.policy = policy
        self.counts = []

    def season(self, block):
        inner = self.policy.season([self.policy])
        request = next(inner, None)
        while request is not None:
            full, sales = yield request
            self.counts.append(sales[0].tolist())
            try:
                request = inner.send((full, sales))
            except StopIteration:
                request = None


class OnePricePerRequest:
    """Splits each of a policy's passes into one-price requests for the
    reference simulator, and sends the pass its counts once all ran."""

    def __init__(self, policy):
        self.policy = policy

    def season(self):
        inner = self.policy.season([self.policy])
        request = next(inner, None)
        while request is not None:
            _, prices, duration = request
            sales = []
            for price in np.asarray(prices, dtype=float)[0].tolist():
                sales.append((yield (price, duration)))
            try:
                request = inner.send((np.array([True]), np.array([sales])))
            except StopIteration:
                request = None


def reference_season(instance, policy, seed):
    """A per-segment simulator, the oracle ``run_policy`` must match: one
    (price, duration) request per segment, each count sent back right after
    its segment.  Returns (segments, revenue, stockout time)."""
    model = instance.demand
    T = instance.horizon
    n = instance.market_size
    open_until = T - _T_EPS
    lowest = model.price_floor - _PRICE_SLACK
    highest = model.price_ceil + _PRICE_SLACK
    rng = season_rng(seed)
    stock = instance.scaled_inventory
    clock = 0.0
    revenue = 0.0
    segments = []
    stockout_time = None
    season = policy.season()
    request = next(season, None) if stock and clock < open_until else None
    while request is not None:
        price, duration = request
        if price is not P_INF:
            price = float(price)
            assert lowest <= price <= highest
        duration = float(duration)
        assert duration >= -_T_EPS
        duration = min(max(0.0, duration), T - clock)
        mean = n * model.rate(price) * duration
        if mean > 0:
            sales = min(int(rng.poisson(mean)), stock)
            stock -= sales
        else:
            sales = 0
        if price is not P_INF:
            revenue += price * sales
        segments.append(Segment(price, clock, duration, sales))
        clock += duration
        if not stock:
            stockout_time = clock
        try:
            request = season.send(sales)
        except StopIteration:
            break
        if not stock or clock >= open_until:
            break
    if clock < open_until:
        segments.append(Segment(P_INF, clock, T - clock, 0))
    return tuple(segments), revenue, stockout_time


POLICY_STATE = ("iterations", "entered_step3", "applied_price", "truncated_learning", "_t")


def policy_state(policy):
    return tuple(getattr(policy, name, None) for name in POLICY_STATE)


def full_pass_sales(trace):
    """Counts of every pass the policy posted that ran in full.  No policy
    posts the shut-off price, so a pass holding it is the simulator's tail."""
    return [p.sales for p in trace.passes
            if P_INF not in p.prices and len(p.sales) == len(p.prices)]


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
    # every pass that ran in full gets its counts, in order; the shut-off
    # tail is the simulator's, and a cut pass is the season's last
    instance, policy, seed = setup
    recorder = CountRecorder(policy)
    trace = run_policy(instance, recorder, seed=seed)
    posted = [p for p in trace.passes if P_INF not in p.prices]
    assert all(len(p.sales) == len(p.prices) for p in posted[:-1])
    assert recorder.counts == full_pass_sales(trace)


@PROPERTY_SETTINGS
@given(season_setups())
def test_passes_match_the_per_segment_reference(setup):
    instance, policy, seed = setup
    twin = copy.deepcopy(policy)
    recorder = CountRecorder(policy)
    trace = run_policy(instance, recorder, seed=seed)
    segments, revenue, stockout_time = reference_season(instance, OnePricePerRequest(twin), seed)
    assert trace.segments == segments
    assert trace.terminal_revenue == revenue
    assert trace.stockout_time == stockout_time
    assert policy_state(policy) == policy_state(twin)
    assert recorder.counts == full_pass_sales(trace)


@PROPERTY_SETTINGS
@given(season_setups(), st.integers(1, 70))
def test_block_reps_match_their_solo_reference(setup, reps):
    # reps run in lockstep, each on its own key, as if each ran alone
    instance, policy, (seed,) = setup
    n = instance.market_size
    block = [copy.deepcopy(policy) for _ in range(reps)]
    traces = run_block(instance, block, [(seed, n, rep) for rep in range(reps)])
    for rep, (view, trace) in enumerate(zip(block, traces)):
        twin = copy.deepcopy(policy)
        segments, revenue, stockout_time = reference_season(
            instance, OnePricePerRequest(twin), (seed, n, rep))
        assert trace.segments == segments
        assert trace.terminal_revenue == revenue
        assert trace.stockout_time == stockout_time
        assert policy_state(view) == policy_state(twin)

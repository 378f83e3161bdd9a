"""Learning-policy decisions pinned apart from the market simulator.

Each case drives a policy's ``season()`` by hand, drawing sales
from a local generator instead of the simulator's keyed streams.  The
emitted (price, duration) sequence, one entry per price of every pass,
then depends only on the policy's decisions, so a change to how the
simulator draws randomness leaves these values alone while any change to
a decision breaks them.  The sequences are long, so each is pinned by its
length, its first and last segments and a digest of the repr of every
float in it.
"""

import hashlib

import numpy as np
import pytest

from dynpricing.demand import (
    ExponentialDemand,
    LinearDemand,
    PiecewiseLinearDemand,
    ProblemInstance,
)
from dynpricing.policies import DpaPolicy, KinkPolicy, SinglePhaseGridPolicy

LIN = LinearDemand(30.0, 3.0)
EXP = ExponentialDemand(80.0, 0.5)
KINKED = PiecewiseLinearDemand(84.0, 1.0, 4.0, 60.0, price_floor=2.0, price_ceil=5.0)
N = 10**4


def drive(policy, model, seed):
    """Every segment the policy asks for, answered with Poisson sales: each
    price of a pass gets one draw, in order, and the pass its list."""
    rng = np.random.default_rng(seed)
    season = policy.season([policy])  # a block of one
    segments = []
    request = next(season, None)
    while request is not None:
        _, prices, duration = request
        sales = []
        for price in np.asarray(prices)[0]:
            price, duration = float(price), float(duration)
            segments.append((price, duration))
            sales.append(int(rng.poisson(N * model.rate(price) * duration)))
        try:
            request = season.send((np.array([True]), np.array([sales])))
        except StopIteration:
            request = None
    return segments


def digest(segments):
    text = "\n".join(f"{p!r} {d!r}" for p, d in segments)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


CASES = {
    # name: (policy factory, model, seed)
    "linear": (lambda: DpaPolicy(ProblemInstance(LIN, 20.0, 1.0, N)), LIN, 1),
    "exponential_last": (lambda: DpaPolicy(ProblemInstance(EXP, 20.0, 1.0, N)), EXP, 2),
    "theoretical": (
        lambda: DpaPolicy(ProblemInstance(LIN, 20.0, 1.0, N), log_mode="theoretical"),
        LIN,
        3,
    ),
    "theoretical_tight_stock": (
        lambda: DpaPolicy(ProblemInstance(EXP, 1.0, 1.0, N), log_mode="theoretical"),
        EXP,
        5,
    ),
    "kinked": (lambda: KinkPolicy(ProblemInstance(KINKED, 81.0, 1.0, N)), KINKED, 4),
    "single_phase": (lambda: SinglePhaseGridPolicy(ProblemInstance(LIN, 20.0, 1.0, N)), LIN, 6),
}

# recorded once; (count, first, last, digest, applied price, handed off,
# first iteration truncated)
EXPECTED = {
    "linear": (
        63, (0.1, 0.000476729650497037), (5.923498375707021, 0.25976732382943324),
        "d9bc63ad9e0c2753", 5.923498375707021, False, False,
    ),
    "exponential_last": (
        154, (0.1, 0.000476729650497037), (2.7450677783230324, 0.18422396342578629),
        "327f987af65a93a8", 2.7450677783230324, True, False,
    ),
    # the first period outlasts the season: one cut grid pass, no commitment
    "theoretical": (
        23, (0.1, 0.043478260869565216), (9.569565217391304, 0.043478260869565216),
        "631c3c4769ae5724", 7.016961492332687, False, True,
    ),
    # p_c_hat sits past the hand-off margin, but a cut iteration is the
    # track's last: the policy commits on the revenue track, shaded up
    "theoretical_tight_stock": (
        23, (0.1, 0.043478260869565216), (9.569565217391304, 0.043478260869565216),
        "631c3c4769ae5724", 10.0, False, True,
    ),
    "kinked": (
        115, (2.0, 0.00024919959003254205), (3.9936560653369586, 0.013207842409124204),
        "f4b0d79eacf77756", 3.9936560653369586, False, False,
    ),
    # ceil(N^(1/4)) = 10 prices for N^(-1/4) T / 10 = 0.01 each, then 0.9
    "single_phase": (
        11, (0.1, 0.01), (4.5, 0.9), "fb5fc4bd33a42285", 4.5, False, False,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_emitted_segments_and_applied_price(name):
    factory, model, seed = CASES[name]
    policy = factory()
    segments = drive(policy, model, seed)
    count, first, last, sha, applied, handed_off, truncated = EXPECTED[name]
    assert len(segments) == count
    assert segments[0] == first
    assert segments[-1] == last
    assert digest(segments) == sha
    assert policy.applied_price == applied
    assert getattr(policy, "entered_step3", False) == handed_off
    assert getattr(policy, "truncated_learning", False) == truncated

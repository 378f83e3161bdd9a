"""Poisson market simulator and the season protocol.

A simulation runs one selling season.  A policy is any object whose
``season()`` returns a generator of (price, duration) requests;
``run_policy`` sends each segment's realized sales count back into it, so
the policy sees every count before choosing its next segment.  The
simulator keeps the clock, the inventory, the revenue and the random
stream.  Once inventory hits zero, or the generator stops early, the
remainder of the season is priced at the shut-off price ``P_INF`` with no
further policy involvement.

Randomness: each season carries a key K of 1 to 4 words, each in
[0, 2^64); the sweeps use (seed, n, rep).  Zero-padded to (K0, K1, K2,
K3), it keys one counter-based stream (Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3", SC'11): Philox4x64 with key (K0, K1) and
a counter starting at (0, 0, K2, K3), that is
``Generator(Philox(key=K0 + 2**64 * K1, counter=2**128 * K2 + 2**192 * K3))``.
The season draws its segments' sales from it in order, so within a season
a draw depends on the draws before it; zero-mean segments draw nothing.
A season uses fewer than 2^128 blocks of the counter, so distinct keys
never share a block, and no season's draws depend on another's, on the
order seasons run in, or on the worker count.

``season_rng`` positions one reused generator per process at the start
of a key's stream through its public state setter, which costs a fraction
of building a fresh ``Philox`` for each of thousands of short seasons.
The generator is valid until the next ``season_rng`` call and must not be
shared across threads.  It is built on the first call, so importing this
module does not import ``numpy.random``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .demand import P_INF, ProblemInstance
from .errors import PolicyProtocolError

_T_EPS = 1e-12
_PRICE_SLACK = 1e-9
_KEY_WORDS = 4


def _as_entropy(seed) -> tuple:
    if isinstance(seed, (tuple, list)):
        parts = tuple(int(s) for s in seed)
    else:
        parts = (int(seed),)
    if not 0 < len(parts) <= _KEY_WORDS:
        raise ValueError(f"a season key has 1 to {_KEY_WORDS} words, not {len(parts)}")
    if not all(0 <= s < 2**64 for s in parts):
        raise ValueError("season key words must be integers in [0, 2^64)")
    return parts


_rng = None  # the process's one generator, built on the first season


def season_rng(entropy) -> np.random.Generator:
    """The process's generator, positioned at the start of the stream of
    season key ``entropy`` (see the module docstring); valid until the
    next call.  Raises ValueError for a key outside the domain."""
    global _rng
    k0, k1, k2, k3 = (_as_entropy(entropy) + (0,) * _KEY_WORDS)[:_KEY_WORDS]
    if _rng is None:
        from numpy.random import Generator, Philox

        _rng = Generator(Philox(0))
    _rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, k2, k3), "key": (k0, k1)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # empty: the first draw increments the counter
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _rng


class Segment(NamedTuple):
    price: object  # float or P_INF
    t_start: float
    duration: float
    sales: int


@dataclass(frozen=True)
class SimulationTrace:
    """Everything a season produced, in segment order."""

    segments: tuple
    terminal_revenue: float
    stockout_time: float | None


def run_policy(instance: ProblemInstance, policy, seed) -> SimulationTrace:
    """Run one season of ``policy`` on ``instance``.

    ``policy.season()`` must return a generator that yields (price,
    duration) requests.  Each segment's realized sales count is sent back
    into it right after the segment, the last one too, so every count is
    delivered exactly once; a request yielded after the season has ended
    (clock at the horizon, or stock out) is discarded.  Prices must lie in
    the model's interval or be ``P_INF``; the final segment is clamped to
    the season end.  Identical (instance, policy behavior, seed) triples
    reproduce the trace exactly.
    """
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
    # a season with nothing to sell never asks the policy
    request = next(season, None) if stock and clock < open_until else None
    while request is not None:
        try:
            price, duration = request
        except (TypeError, ValueError):
            raise PolicyProtocolError(f"bad segment request {request!r}")
        if price is not P_INF:
            price = float(price)
            if not lowest <= price <= highest:
                raise PolicyProtocolError(
                    f"policy emitted infeasible price {price!r}"
                )
        duration = float(duration)
        if duration < -_T_EPS:
            raise PolicyProtocolError(f"policy emitted negative duration {duration!r}")
        # a rounding-sized negative duration advances the clock by 0, and the
        # trace records what the clock advanced by; clamp at season end
        duration = min(max(0.0, duration), T - clock)
        # zero-mean segments (shut-off price, zero duration) draw nothing
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
            request = season.send(sales)  # sent even when the season just ended
        except StopIteration:
            break
        if not stock or clock >= open_until:
            break
    if clock < open_until:
        # stockout or early policy exit: shut off demand for the tail
        segments.append(Segment(P_INF, clock, T - clock, 0))
    return SimulationTrace(
        segments=tuple(segments),
        terminal_revenue=revenue,
        stockout_time=stockout_time,
    )


def poisson_tail_check(
    mu: float,
    r_n: float,
    eta: float,
    replications: int,
    *,
    n: int,
    seed: int = 0,
) -> float:
    """Empirical frequency of |N(mu r_n) - mu r_n| > r_n * eps_n with
    eps_n = 2 sqrt(eta * mu * log(n) / r_n); the concentration bound says
    each one-sided tail is below C / n^eta for moderate C.

    Returns the observed two-sided exceedance fraction.  The counts are
    drawn from the stream of key (seed, 2^31).
    """
    if mu < 0 or r_n <= 0 or eta <= 0 or n < 2:
        raise ValueError("need mu >= 0, r_n > 0, eta > 0, n >= 2")
    draws = season_rng((seed, 2**31)).poisson(mu * r_n, size=int(replications))
    threshold = 2.0 * math.sqrt(eta * mu * math.log(n) * r_n)
    exceed = np.abs(draws - mu * r_n) > threshold
    return float(np.mean(exceed))


def write_trace_csv(path, traces, header_lines=()) -> None:
    """Write traces as delimited text: one row per segment.

    Columns: rep_id, seg_index, price, t_start, duration, sales,
    revenue_cum.  The shut-off price is written as the token ``p_inf``.
    Floats use shortest round-trip formatting, so identical traces yield
    identical bytes.
    """
    lines = [f"# {h}" for h in header_lines]
    lines.append("rep_id,seg_index,price,t_start,duration,sales,revenue_cum")
    for rep_id, trace in enumerate(traces):
        revenue = 0.0
        for k, seg in enumerate(trace.segments):
            if seg.price is P_INF:
                price_txt = "p_inf"
            else:
                price_txt = repr(seg.price)
                revenue += seg.price * seg.sales
            lines.append(
                f"{rep_id},{k},{price_txt},{seg.t_start!r},{seg.duration!r},{seg.sales},{revenue!r}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

"""Poisson market simulator and the policy/segment protocol.

A simulation runs one selling season.  The policy is asked for one
(price, duration) segment at a time and sees the realized sales count of
its previous segment before choosing the next; the simulator owns the
clock, the inventory, and the random stream.  Once inventory hits zero,
or the policy stops early, the remainder of the season is priced at the
shut-off price ``P_INF`` with no further policy involvement.

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

from .demand import DemandModel, P_INF, ProblemInstance
from .errors import PolicyProtocolError, PriceDomainError

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


@dataclass(slots=True)
class MarketState:
    """Mutable season state owned by the simulator."""

    remaining_inventory: int
    rng: np.random.Generator  # the season's stream, from ``season_rng``
    clock: float = 0.0
    revenue: float = 0.0


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


def simulate_segment(
    state: MarketState,
    model: DemandModel,
    market_size: int,
    price,
    duration: float,
) -> tuple[int, MarketState]:
    """Sell at ``price`` for ``duration``; returns (sales, state).

    Sales are the Poisson draw at mean n * lambda(p) * duration, capped by
    remaining inventory.  Zero-mean segments (shut-off price, zero duration,
    zero inventory) consume no randomness.
    """
    if duration < -_T_EPS:
        raise PriceDomainError(f"negative duration {duration!r}")
    duration = max(0.0, duration)
    mean = market_size * model.rate(price) * duration
    stock = state.remaining_inventory
    if mean > 0 and stock > 0:
        sales = min(int(state.rng.poisson(mean)), stock)
        state.remaining_inventory = stock - sales
    else:
        sales = 0
    if price is not P_INF:
        state.revenue += float(price) * sales
    state.clock += duration
    return sales, state


def run_policy(instance: ProblemInstance, policy, seed) -> SimulationTrace:
    """Run one season of ``policy`` on ``instance``.

    The policy object must expose ``next_segment(last_sales)`` returning a
    (price, duration) pair or None when done; ``last_sales`` is None on the
    first call.  Every realized count is delivered exactly once: if the
    season ends (or stock runs out) right on a segment boundary, the policy
    is called one final time with that count and the answer is ignored.
    Prices must lie in the model's interval or be ``P_INF``; the final
    segment is clamped to the season end.  Identical (instance, policy
    behavior, seed) triples reproduce the trace exactly.
    """
    model = instance.demand
    T = instance.horizon
    n = instance.market_size
    open_until = T - _T_EPS
    lowest = model.price_floor - _PRICE_SLACK
    highest = model.price_ceil + _PRICE_SLACK
    next_segment = policy.next_segment
    state = MarketState(instance.scaled_inventory, season_rng(seed))
    segments = []
    stockout_time = None
    last_sales = None
    finished_by_policy = False
    while state.clock < open_until and state.remaining_inventory:
        request = next_segment(last_sales)
        if request is None:
            finished_by_policy = True
            break
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
        t_start = state.clock
        duration = min(duration, T - t_start)  # clamp at season end
        last_sales, state = simulate_segment(state, model, n, price, duration)
        segments.append(Segment(price, t_start, duration, last_sales))
        if stockout_time is None and not state.remaining_inventory:
            stockout_time = state.clock
    if not finished_by_policy and last_sales is not None:
        # the season ended on the simulator's side; deliver the final count
        # so a learning policy can fold it into its estimates, and discard
        # any further request
        next_segment(last_sales)
    if state.clock < open_until:
        # stockout or early policy exit: shut off demand for the tail
        segments.append(Segment(P_INF, state.clock, T - state.clock, 0))
        state.clock = T
    return SimulationTrace(
        segments=tuple(segments),
        terminal_revenue=state.revenue,
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

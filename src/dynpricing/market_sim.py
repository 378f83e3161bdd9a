"""Poisson market simulator and the season protocol.

A simulation runs one selling season.  A policy is any object whose
``season()`` returns a generator of (prices, duration) passes: k >= 1
prices inside the model's price interval, each posted for ``duration`` in
order.  ``run_policy`` sends the list of k sales counts back into it once
the whole pass has run; a pass that a stock-out or the season end cuts
short is the season's last and is not sent back.  The simulator keeps the
clock, the inventory, the revenue and the random stream.  Once inventory
hits zero, or the generator stops early, the remainder of the season is
priced at the shut-off price ``P_INF`` (``math.inf``) with no further
policy involvement.  That tail is the simulator's alone: a pass holds
in-box prices only.  A trace keeps one record per pass and builds its
per-segment view only when read.

Randomness: each season carries a key K of 1 to 4 words, each in
[0, 2^64); ``regret_harness.seasons`` keys every replicated season
(seed, n, rep).  Zero-padded to (K0, K1, K2, K3), it keys one
counter-based stream (Salmon et al., "Parallel Random Numbers: As Easy as
1, 2, 3", SC'11): Philox4x64 with key (K0, K1) and a counter starting at
(0, 0, K2, K3), that is
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

from .demand import _PRICE_TOL, ProblemInstance
from .errors import PolicyProtocolError

P_INF = math.inf  # the shut-off price; fails every price box check
_T_EPS = 1e-12
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
    price: float  # P_INF in the shut-off tail
    t_start: float
    duration: float
    sales: int


class Pass(NamedTuple):
    """A pass as it ran: ``durations`` and ``sales`` have one entry per price
    that ran, so a cut pass is shorter in them than in ``prices``."""

    prices: list
    t_start: float
    durations: list
    sales: list


@dataclass(frozen=True)
class SimulationTrace:
    """Everything a season produced, one record per pass."""

    passes: tuple
    terminal_revenue: float
    stockout_time: float | None

    @property
    def segments(self) -> tuple:
        """One ``Segment`` per price that ran, in order; built on each read."""
        segments = []
        for prices, t, durations, sales in self.passes:
            for price, duration, count in zip(prices, durations, sales):
                segments.append(Segment(price, t, duration, count))
                t += duration
        return tuple(segments)


def run_policy(instance: ProblemInstance, policy, seed) -> SimulationTrace:
    """Run one season of ``policy`` on ``instance``.

    ``policy.season()`` must return a generator of (prices, duration)
    passes (see the module docstring).  A pass whose last price ends the
    season is sent back, and whatever the policy yields next is discarded.
    Prices must lie in the model's interval, up to the slack that
    ``DemandModel.rate`` allows; ``P_INF`` is not a price a policy may
    post.  The segment that crosses the season end is clamped to it.
    Identical (instance, policy behavior, seed) triples reproduce the trace
    exactly.
    """
    model = instance.demand
    rate = model._rate
    floor, ceil = model.price_floor, model.price_ceil
    T = instance.horizon
    n = instance.market_size
    open_until = T - _T_EPS
    lowest, highest = floor - _PRICE_TOL, ceil + _PRICE_TOL
    poisson = season_rng(seed).poisson
    stock = instance.scaled_inventory
    clock = 0.0
    revenue = 0.0
    passes = []
    stockout_time = None
    season = policy.season()
    # a season with nothing to sell never asks the policy
    request = next(season, None) if stock and clock < open_until else None
    while request is not None:
        try:
            prices, duration = request
            prices = [float(p) for p in prices]
            duration = float(duration)
            lo, hi = min(prices), max(prices)
        except (TypeError, ValueError):
            raise PolicyProtocolError(f"bad pass request {request!r}") from None
        # min and max pass over a NaN that does not come first; the sum does not
        if not lowest <= lo <= hi <= highest or math.isnan(sum(prices)):
            raise PolicyProtocolError(f"policy posted an infeasible pass {prices!r}")
        if duration < -_T_EPS:
            raise PolicyProtocolError(f"policy emitted negative duration {duration!r}")
        # a rounding-sized negative duration advances the clock by 0, and the
        # trace records what the clock advanced by
        duration = max(0.0, duration)
        clamp = lo < floor or hi > ceil  # a price inside the slack sells at the box edge
        start, durations, sales = clock, [], []
        for price in prices:
            rest = T - clock
            step = rest if rest < duration else duration  # clamped at season end
            mean = n * rate(min(max(price, floor), ceil) if clamp else price) * step
            # zero-mean segments draw nothing, and neither do negative rates
            if mean > 0:
                count = min(int(poisson(mean)), stock)
                stock -= count
                revenue += price * count
            else:
                count = 0
            durations.append(step)
            sales.append(count)
            clock += step
            if not stock or clock >= open_until:
                break
        passes.append(Pass(prices, start, durations, sales))
        if not stock:
            stockout_time = clock
        if len(sales) == len(prices):  # a cut pass is the season's last
            try:
                request = season.send(sales)  # sent even when the season just ended
            except StopIteration:
                break
        if not stock or clock >= open_until:
            break
    if clock < open_until:
        # stockout or early policy exit: shut off demand for the tail
        passes.append(Pass([P_INF], clock, [T - clock], [0]))
    return SimulationTrace(tuple(passes), revenue, stockout_time)


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
    revenue_cum.  The shut-off tail's price is written as ``p_inf``.
    Floats use shortest round-trip formatting, so identical traces yield
    identical bytes.
    """
    lines = [f"# {h}" for h in header_lines]
    lines.append("rep_id,seg_index,price,t_start,duration,sales,revenue_cum")
    for rep_id, trace in enumerate(traces):
        revenue = 0.0
        for k, seg in enumerate(trace.segments):
            if seg.price == P_INF:
                price_txt = "p_inf"
            else:
                price_txt = repr(seg.price)
                revenue += seg.price * seg.sales
            lines.append(
                f"{rep_id},{k},{price_txt},{seg.t_start!r},{seg.duration!r},{seg.sales},{revenue!r}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

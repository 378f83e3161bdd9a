"""Poisson market simulator: the block engine and the season protocol.

``run_block`` runs a block of seasons in lockstep, one per rep, all on
one instance and all from one policy config.  A policy object holds one
rep's state; its ``season(block)``, called on the block's first policy
with the whole block, is a generator of passes over the block.  A pass
is (rows, prices, duration): the reps ``rows`` (indices into the block)
each post their row of an (m, k) price matrix, k >= 1 prices inside the
model's price interval, each price for ``duration`` in order.  A fixed
price or a commitment is a pass of one price.  The engine sends back
(full, sales): the mask of the rows whose pass ran in full and the (m, k)
sales counts.  A rep whose pass a stock-out or the season end cuts short
is done, and so is a rep whose full pass ended its season; the policy
then drops it, and a pass that still names it runs without it.  The
engine keeps each rep's clock, inventory and revenue, and the block's
random stream.
Once a rep's inventory hits zero, or the generator stops early, the
remainder of its season is priced at the shut-off price ``P_INF``
(``math.inf``) with no further policy involvement.  That tail is the
engine's alone: a pass holds in-box prices only.  The engine logs each
pass as the arrays it ran it with, a posted rows and prices array
included, so a policy must not write to an array it has posted.  A
trace's records, one per pass with the shut-off tail last, are built from
that log the first time any trace of the block reads them, for the whole
block at once, and its per-segment view only when read.  A caller that
reads only revenues and stock-out times builds no records.
``run_policy`` is the engine on a block of one.

Every rep's policy state ends as it would in a season run alone on the
same draws.  A lone season stops its policy at a pass cut short, unsent,
or at the first pass the policy posts once the season is over, discarded.
The engine freezes each rep at that same point and sends until the
generator stops or every rep is frozen; a pass that names only frozen
reps runs empty.  Each pass computes its clock steps, rates, means, stock
caps and revenue with array operations over the rows, in the order of
operations of one season run alone.  Rates come from the model's array
method ``_rates``, one call per pass.

Randomness: each block carries a key K of 1 to 4 words, each in
[0, 2^64); ``regret_harness.seasons`` keys a block of replicated seasons
by its first season's key (seed, n, first rep).  Zero-padded to
(K0, K1, K2, K3), it keys one counter-based stream (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC'11): Philox4x64 with
key (K0, K1) and a counter starting at (0, 0, K2, K3), that is
``Generator(Philox(key=K0 + 2**64 * K1, counter=2**128 * K2 + 2**192 * K3))``.
Each pass draws the sales of its whole (m, k) mean matrix from that
stream with one ``poisson`` call, in row-major order; zero-mean segments
draw nothing, and draws past a rep's stock-out are drawn and discarded by
the stock cap.  Only a mean past numpy's limit makes the pass draw one
price at a time, stopping each row at its stock-out.  So a rep's draws
depend on the draws before it in its block, and on its block-mates, but
not on other blocks, the order blocks run in, or the worker count.  A
block of one draws exactly its season's stream, so ``run_policy`` is one
keyed season.  A block uses fewer than 2^128 blocks of the counter, so
distinct keys never share a counter block.

The generator is reused, not built per block: ``season_rng`` positions
one generator per process at the start of a key's stream through its
public state setter, which costs a fraction of building a fresh
``Philox`` for each of thousands of short seasons, and ``run_block``
draws from it.  A positioned generator is valid until it is positioned
again and must not be shared across threads.  It is built on first use,
so importing this module does not import ``numpy.random``.
"""

from __future__ import annotations

import math
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


_rng = None  # season_rng's generator, built on its first call


def _positioned(rng: np.random.Generator, entropy) -> np.random.Generator:
    """``rng``, set to the start of the stream of season key ``entropy``
    (see the module docstring).  Raises ValueError for a key outside the
    domain."""
    k0, k1, k2, k3 = (_as_entropy(entropy) + (0,) * _KEY_WORDS)[:_KEY_WORDS]
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, k2, k3), "key": (k0, k1)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # empty: the first draw increments the counter
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def season_rng(entropy) -> np.random.Generator:
    """The process's generator, positioned at the start of the stream of
    season key ``entropy``; valid until the next call.  Raises ValueError
    for a key outside the domain."""
    global _rng
    if _rng is None:
        from numpy.random import Generator, Philox

        _rng = Generator(Philox(0))
    return _positioned(_rng, entropy)


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


class _BlockLog:
    """A block's passes as the engine ran them: per pass, the rows that ran
    and their prices, start clocks, clock steps, sales counts and number of
    prices that ran, as arrays; and each rep's clock at its season's end."""

    def __init__(self, entries, ends, horizon, open_until):
        self.entries = entries
        self.ends = ends
        self.horizon = horizon
        self.open_until = open_until
        self.passes = None

    def records(self, rep) -> tuple:
        """Rep ``rep``'s ``Pass`` records.  The first call builds every rep's
        and frees the arrays."""
        if self.passes is None:
            passes = [[] for _ in self.ends]
            for rows, prices, start, steps, counts, ran in self.entries:
                for b, row, t, durations, sold, m in zip(
                    rows.tolist(), prices.tolist(), start.tolist(), steps.tolist(),
                    counts.tolist(), ran.tolist(),
                ):
                    passes[b].append(Pass(row, t, durations[:m], sold[:m]))
            for trail, t in zip(passes, self.ends):
                if t < self.open_until:
                    # stockout or early policy exit: shut off demand for the tail
                    trail.append(Pass([P_INF], t, [self.horizon - t], [0]))
            self.passes = [tuple(trail) for trail in passes]
            self.entries = None
        return self.passes[rep]


class _Unread(NamedTuple):
    """Stands in for the passes of rep ``rep`` of a block until first read."""

    log: _BlockLog
    rep: int


class SimulationTrace:
    """Everything a season produced, one record per pass.  A trace from
    ``run_block`` builds its records on first read (see the module
    docstring)."""

    __slots__ = ("_passes", "terminal_revenue", "stockout_time")

    def __init__(self, passes, terminal_revenue: float, stockout_time: float | None):
        self._passes = passes
        self.terminal_revenue = terminal_revenue
        self.stockout_time = stockout_time

    @property
    def passes(self) -> tuple:
        passes = self._passes
        if isinstance(passes, _Unread):
            passes = self._passes = passes.log.records(passes.rep)
        return passes

    @property
    def segments(self) -> tuple:
        """One ``Segment`` per price that ran, in order; built on each read."""
        segments = []
        for prices, t, durations, sales in self.passes:
            for price, duration, count in zip(prices, durations, sales):
                segments.append(Segment(price, t, duration, count))
                t += duration
        return tuple(segments)

    def _fields(self) -> tuple:
        return self.passes, self.terminal_revenue, self.stockout_time

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        passes, revenue, out = self._fields()
        return (f"SimulationTrace(passes={passes!r}, terminal_revenue={revenue!r}, "
                f"stockout_time={out!r})")


def run_block(instance: ProblemInstance, policies, key) -> list:
    """Run one season per policy on ``instance`` in lockstep, all drawing
    from the stream of key ``key``; return their traces in order.

    ``policies`` is a block of policies made from one config, and
    ``policies[0].season(policies)`` the generator that runs it (see the
    module docstring).  Prices must lie in the model's interval, up to the
    slack that ``DemandModel.rate`` allows; ``P_INF`` is not a price a
    policy may post.  The segment that crosses the season end is clamped to
    it.  A key outside the domain raises ValueError before any season runs.
    """
    rng = season_rng(key)
    model = instance.demand
    floor, ceil = model.price_floor, model.price_ceil
    T = instance.horizon
    n = instance.market_size
    open_until = T - _T_EPS
    lowest, highest = floor - _PRICE_TOL, ceil + _PRICE_TOL
    size = len(policies)
    # stock is int64: past 2^63 - 1 units it could bind only once the int64
    # sales sums had overflowed
    initial = min(instance.scaled_inventory, 2**63 - 1)
    stock = np.full(size, initial, dtype=np.int64)
    clock = np.zeros(size)
    revenue = np.zeros(size)
    # a season with nothing to sell never asks the policy
    running = np.full(size, bool(initial) and 0.0 < open_until)
    frozen = ~running  # reps whose policy a season run alone would have stopped
    log = []  # (rows, prices, start, steps, counts, ran) per pass
    season = policies[0].season(policies)
    request = None if frozen.all() else next(season, None)
    while request is not None:
        try:
            rows, prices, duration = request
            rows = np.asarray(rows, dtype=np.intp)
            prices = np.asarray(prices, dtype=float)
            duration = float(duration)
            lo, hi = prices.min(), prices.max()
            live = running[rows]
        except (TypeError, ValueError, IndexError):
            raise PolicyProtocolError(f"bad pass request {request!r}") from None
        if rows.ndim != 1 or prices.ndim != 2 or len(rows) != len(prices):
            raise PolicyProtocolError(f"bad pass request {request!r}")
        # a NaN fails both comparisons, and numpy's min and max pass it on
        if not lowest <= lo <= hi <= highest:
            raise PolicyProtocolError(f"policy posted an infeasible pass {prices.tolist()!r}")
        if duration < -_T_EPS:
            raise PolicyProtocolError(f"policy emitted negative duration {duration!r}")
        # a lone season stops its policy at the first pass it posts once the
        # season is over, and discards that pass
        frozen[rows[~live]] = True
        if frozen.all():
            break
        # a rounding-sized negative duration advances the clock by 0, and the
        # trace records what the clock advanced by
        duration = max(0.0, duration)
        full = np.zeros(len(rows), dtype=bool)
        sales = np.zeros(prices.shape, dtype=np.int64)
        if not live.all():  # reps whose season is over drop out of the pass
            rows, prices = rows[live], prices[live]
        k = prices.shape[1]
        # clock before and after each price; the step that crosses the
        # season end is clamped to it, and what follows it never runs
        start = clock[rows]
        before = np.add.accumulate(
            np.column_stack((start, np.full((len(rows), k - 1), duration))), axis=1)
        rest = T - before
        steps = np.where(rest < duration, rest, duration)
        after = before + steps
        runs = np.ones(prices.shape, dtype=bool)
        runs[:, 1:] = after[:, :-1] < open_until
        # a price inside the slack sells at the box edge
        priced = np.clip(prices, floor, ceil) if lo < floor or hi > ceil else prices
        means = n * model._rates(priced) * steps
        # zero-mean segments draw nothing, and neither do negative rates
        means = np.where(runs & (means > 0), means, 0.0)
        have = stock[rows]
        try:
            draws = rng.poisson(means)  # row-major, one call for the pass
        except ValueError:  # a mean past numpy's limit: draw one at a time
            draws = np.zeros(prices.shape, dtype=np.int64)
            for row, (mu, units) in enumerate(zip(means.tolist(), have.tolist())):
                for j, x in enumerate(mu):
                    if x > 0 and units > 0:  # none after a stock-out
                        draws[row, j] = count = rng.poisson(x)
                        units -= count
        # sales are capped by the stock left before each price
        sold_before = np.cumsum(draws, axis=1) - draws
        counts = np.minimum(draws, np.maximum(have[:, None] - sold_before, 0))
        left = have[:, None] - np.cumsum(counts, axis=1)
        ended = (left == 0) | (after >= open_until)
        ran = np.where(ended.any(axis=1), ended.argmax(axis=1) + 1, k)
        last = ran - 1
        at = np.arange(len(rows))
        stock[rows] = left[at, last]
        clock[rows] = after[at, last]
        revenue[rows] = np.add.accumulate(
            np.column_stack((revenue[rows], prices * counts)), axis=1)[:, -1]
        running[rows] = (stock[rows] > 0) & (clock[rows] < open_until)
        log.append((rows, prices, start, steps, counts, ran))
        # a cut pass stops its rep's policy; a pass that ran in full is sent
        # back, even when it ended the season
        frozen[rows[ran < k]] = True
        if frozen.all():
            break
        if live.all():
            full, sales = ran == k, counts
        else:
            full[live], sales[live] = ran == k, counts
        try:
            request = season.send((full, sales))
        except StopIteration:
            break
    ends = clock.tolist()
    # a rep that sold out stopped at the end of the pass that sold its last unit
    sold_out = (stock == 0) & (initial > 0)
    block_log = _BlockLog(log, ends, T, open_until)
    return [
        SimulationTrace(_Unread(block_log, b), total, t if out else None)
        for b, (t, total, out) in enumerate(zip(ends, revenue.tolist(), sold_out.tolist()))
    ]


def run_policy(instance: ProblemInstance, policy, seed) -> SimulationTrace:
    """One season of ``policy`` on the stream of key ``seed``: a block of
    one.  Identical (instance, policy behavior, seed) triples reproduce the
    trace exactly."""
    (trace,) = run_block(instance, [policy], seed)
    return trace


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

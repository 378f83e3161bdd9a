"""Poisson market simulator and the policy/segment protocol.

A simulation runs one selling season.  The policy is asked for one
(price, duration) segment at a time and sees the realized sales count of
its previous segment before choosing the next; the simulator owns the
clock, the inventory, and the random stream.  Once inventory hits zero,
or the policy stops early, the remainder of the season is priced at the
shut-off price ``P_INF`` with no further policy involvement.

Randomness: each replication carries an entropy key K; segment k draws
from an independent stream seeded by (K..., k).  Counter-style keying means
a policy emitting different segment counts, or a refactor reordering the
bookkeeping, never shifts the stream of an unrelated segment.

Stream contract: segment k of key K draws exactly from
``PCG64(SeedSequence((*K, k)))``, numpy's ``default_rng`` of that key.
Building those two objects costs about 25 us, most of a season's time,
so the states are derived in blocks of 4096 keys instead: consecutive
values of K's last word (the replication) times the segments seen so far,
for one prefix ``K[:-1]``.  The block ports SeedSequence's entropy hash and
``generate_state`` (numpy NEP 19) to uint32 array arithmetic, and each
draw applies PCG64's two-step seeding (O'Neill, "PCG: A Family of Simple
Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905) to one reused generator.  A key of up to
4 words, each below 2^32, zero-pads to SeedSequence's 4-word pool with the
same result.  The blocks cover K a tuple of 1 to 3 Python ints in
[0, 2^32) and k in [0, 4096); any other key (a word of 2^32 or more,
which SeedSequence splits in two, more than 4 words, a K of another type)
builds the two objects as before.  Both paths give the same draws; each
state is a function of its key alone, so call order and worker count
cannot change a draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .demand import DemandModel, P_INF, ProblemInstance
from .errors import PolicyProtocolError, PriceDomainError

_T_EPS = 1e-12
_PRICE_SLACK = 1e-9


def _as_entropy(seed) -> tuple:
    if isinstance(seed, (tuple, list)):
        parts = tuple(int(s) for s in seed)
    else:
        parts = (int(seed),)
    if any(s < 0 for s in parts):
        raise ValueError("seed components must be nonnegative integers")
    return parts


# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK_128 = (1 << 128) - 1
_BLOCK_KEYS = 4096  # 128 kB of seeds: reps x segments, both powers of 2
_FIRST_SEGMENTS = 16


def _hash_constants(init: int, mult: int, count: int) -> list:
    """(xor, multiplier) of each successive hashmix call.

    SeedSequence's hash constant advances on every call whatever the data,
    so the i-th call's constants are fixed."""
    consts, h = [], init
    for _ in range(count):
        nxt = h * mult & 0xFFFFFFFF
        consts.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return consts


# 4 words hashed in, then 12 cross-mixes; 8 output words for 4 uint64
_HASH_A = _hash_constants(_INIT_A, _MULT_A, _POOL_WORDS * _POOL_WORDS)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_WORDS)


def _hashmix(value, consts):
    xor, mult = consts
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x, y):
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> np.uint32(16))


def _generate_state(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` of every key.

    ``keys`` is a (4, ...) uint32 array of keys zero-padded to the 4-word
    pool, which leaves SeedSequence's hash unchanged; the result has shape
    (..., 4), uint64.
    """
    pool = [_hashmix(word, consts) for word, consts in zip(keys, _HASH_A)]
    calls = iter(_HASH_A[_POOL_WORDS:])
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(calls)))
    state = np.empty(keys.shape[1:] + (2 * _POOL_WORDS,), dtype=np.uint32)
    for i, consts in enumerate(_HASH_B):
        state[..., i] = _hashmix(pool[i % _POOL_WORDS], consts)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _block_seeds(prefix: tuple, first_rep: int, reps: int, segments: int) -> np.ndarray:
    """Seeds of the keys (*prefix, rep, k) for rep in [first_rep,
    first_rep + reps) and k in [0, segments), as a (reps, segments, 4)
    array."""
    keys = np.zeros((_POOL_WORDS, reps, segments), dtype=np.uint32)
    keys[: len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None, None]
    keys[len(prefix)] = (np.arange(reps, dtype=np.uint32) + np.uint32(first_rep))[:, None]
    keys[len(prefix) + 1] = np.arange(segments, dtype=np.uint32)
    return _generate_state(keys)


def _in_block_domain(entropy: tuple, segment_index: int) -> bool:
    return (
        type(entropy) is tuple  # immutable: the memo knows a key by identity
        and 0 < len(entropy) < _POOL_WORDS
        and all(type(w) is int and 0 <= w < 2**32 for w in entropy)
        and type(segment_index) is int
        and 0 <= segment_index < _BLOCK_KEYS
    )


class _BlockStreams:
    """Segment streams from the seeds of one memoised block of keys.

    Holds the block of the last key seen and one reused PCG64.  The block
    covers 4096 keys of one prefix: 4096 / S aligned reps times segments
    [0, S).  A new prefix starts at S = 16; a segment past S doubles S
    for the rest of the prefix, halving the reps.  The generator is built
    on the first draw, so importing this module does not import
    ``numpy.random``.
    """

    def __init__(self):
        self._entropy = None  # the key whose row ``_row`` is
        self._row = 0
        self._prefix = None
        self._first_rep = 0
        self._segments = 0
        self._seeds = None
        self._bitgen = self._generator = None
        self._inner = {"state": 0, "inc": 0}
        self._state = {"bit_generator": "PCG64", "state": self._inner,
                       "has_uint32": 0, "uinteger": 0}

    def _locate(self, entropy: tuple, segment_index: int) -> None:
        prefix, rep = entropy[:-1], entropy[-1]
        segments = self._segments if prefix == self._prefix else _FIRST_SEGMENTS
        while segments <= segment_index:
            segments *= 2
        reps = _BLOCK_KEYS // segments
        first_rep = rep - rep % reps
        block = (prefix, first_rep, segments)
        if block != (self._prefix, self._first_rep, self._segments):
            self._seeds = _block_seeds(prefix, first_rep, reps, segments)
            self._prefix, self._first_rep, self._segments = block
        self._entropy, self._row = entropy, rep - first_rep

    def generator(self, entropy: tuple, segment_index: int):
        """The reused generator at the start of the segment's stream, or
        None when the key is outside the block domain."""
        if not (entropy is self._entropy and type(segment_index) is int
                and 0 <= segment_index < self._segments):
            if not _in_block_domain(entropy, segment_index):
                return None
            self._locate(entropy, segment_index)
        seed_hi, seed_lo, seq_hi, seq_lo = self._seeds[self._row, segment_index].tolist()
        # PCG64's set_seed: state = 0, inc = 2 seq + 1, step, state += seed, step
        inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK_128
        self._inner["state"] = ((((seed_hi << 64) | seed_lo) + inc) * _PCG_MULT + inc) & _MASK_128
        self._inner["inc"] = inc
        if self._generator is None:
            from numpy.random import PCG64, Generator

            self._bitgen = PCG64(0)
            self._generator = Generator(self._bitgen)
        self._bitgen.state = self._state
        return self._generator


# one per process: each draw is a function of its key alone, so sharing the
# memo between callers cannot change what any of them draws
_STREAMS = _BlockStreams()


def segment_rng(entropy: tuple, segment_index: int) -> np.random.Generator:
    """Generator positioned at the start of segment ``segment_index``'s
    stream of the replication key ``entropy``: exactly the stream of
    ``default_rng(SeedSequence((*entropy, segment_index)))``.

    Within the block domain (see the module docstring) it is one reused
    generator, valid until the next call; outside it, a fresh one.
    """
    rng = _STREAMS.generator(entropy, segment_index)
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence((*entropy, segment_index)))
    return rng


@dataclass
class MarketState:
    """Mutable season state owned by the simulator."""

    remaining_inventory: int
    clock: float = 0.0
    revenue: float = 0.0
    entropy: tuple = (0,)
    segment_index: int = 0

    @property
    def stocked_out(self) -> bool:
        return self.remaining_inventory == 0


@dataclass(frozen=True)
class Segment:
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
    initial_inventory: int
    horizon: float


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
    zero inventory) consume no randomness, keeping sibling segment streams
    stable.
    """
    if duration < -_T_EPS:
        raise PriceDomainError(f"negative duration {duration!r}")
    duration = max(0.0, duration)
    mean = market_size * model.rate(price) * duration
    if mean > 0 and state.remaining_inventory > 0:
        rng = segment_rng(state.entropy, state.segment_index)
        count = int(rng.poisson(mean))
    else:
        count = 0
    sales = min(count, state.remaining_inventory)
    state.remaining_inventory -= sales
    if price is not P_INF:
        state.revenue += float(price) * sales
    state.clock += duration
    state.segment_index += 1
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
    state = MarketState(
        remaining_inventory=instance.scaled_inventory,
        entropy=_as_entropy(seed),
    )
    segments = []
    stockout_time = None
    last_sales = None
    finished_by_policy = False
    while state.clock < T - _T_EPS and not state.stocked_out:
        request = policy.next_segment(last_sales)
        if request is None:
            finished_by_policy = True
            break
        try:
            price, duration = request
        except (TypeError, ValueError):
            raise PolicyProtocolError(f"bad segment request {request!r}")
        if price is not P_INF:
            price = float(price)
            if not (
                model.price_floor - _PRICE_SLACK
                <= price
                <= model.price_ceil + _PRICE_SLACK
            ):
                raise PolicyProtocolError(
                    f"policy emitted infeasible price {price!r}"
                )
        duration = float(duration)
        if duration < -_T_EPS:
            raise PolicyProtocolError(f"policy emitted negative duration {duration!r}")
        duration = min(duration, T - state.clock)  # clamp at season end
        t_start = state.clock
        last_sales, state = simulate_segment(state, model, instance.market_size, price, duration)
        segments.append(Segment(price=price, t_start=t_start, duration=duration, sales=last_sales))
        if state.stocked_out and stockout_time is None:
            stockout_time = state.clock
    if not finished_by_policy and last_sales is not None:
        # the season ended on the simulator's side; deliver the final count
        # so a learning policy can fold it into its estimates, and discard
        # any further request
        policy.next_segment(last_sales)
    if state.clock < T - _T_EPS:
        # stockout or early policy exit: shut off demand for the tail
        segments.append(
            Segment(price=P_INF, t_start=state.clock, duration=T - state.clock, sales=0)
        )
        state.clock = T
    return SimulationTrace(
        segments=tuple(segments),
        terminal_revenue=state.revenue,
        stockout_time=stockout_time,
        initial_inventory=instance.scaled_inventory,
        horizon=T,
    )


def poisson_tail_check(
    mu: float,
    r_n: float,
    eta: float,
    replications: int,
    *,
    n: int,
    rate_bound: float | None = None,
    seed: int = 0,
) -> float:
    """Empirical frequency of |N(mu r_n) - mu r_n| > r_n * eps_n with
    eps_n = 2 sqrt(eta * M * log(n) / r_n); the concentration bound says
    each one-sided tail is below C / n^eta for moderate C.

    Returns the observed two-sided exceedance fraction.
    """
    if mu < 0 or r_n <= 0 or eta <= 0 or n < 2:
        raise ValueError("need mu >= 0, r_n > 0, eta > 0, n >= 2")
    M = mu if rate_bound is None else float(rate_bound)
    if M < mu:
        raise ValueError("rate_bound must dominate mu")
    rng = np.random.default_rng(np.random.SeedSequence((_as_entropy(seed)[0], 2**31)))
    draws = rng.poisson(mu * r_n, size=int(replications))
    threshold = 2.0 * math.sqrt(eta * M * math.log(n) * r_n)
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

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
``generate_state`` (numpy NEP 19) to uint32 array arithmetic, then PCG64's
two-step seeding (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation",
HMC-CS-2014-0905) to 128-bit arithmetic on uint64 halves, giving each
key's final 32 bytes of (state, inc).  A draw copies its key's bytes into
one reused PCG64, through numpy's ctypes interface
(``bit_generator.ctypes.state_address``), and clears its buffered uint32.
The first draw probes that layout: it reads back a known state to learn
the order of each word's halves and where the buffered uint32 lives.  If
the probe fails, every key takes the plain path below.  The reused
generator is one per process and must not be shared across threads.

A key of up to 4 words, each below 2^32, zero-pads to SeedSequence's
4-word pool with the same result.  The blocks cover K a tuple of 1 to 3
Python ints in [0, 2^32) and k in [0, 4096); any other key (a word of 2^32
or more, which SeedSequence splits in two, more than 4 words, a K of
another type) builds the two objects as before.  Both paths give the same
draws; each state is a function of its key alone, so call order and
worker count cannot change a draw.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import NamedTuple

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
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_1, _32, _63 = np.uint64(1), np.uint64(32), np.uint64(63)
_LOW_32 = np.uint64(0xFFFFFFFF)
_NO_BUFFERED_UINT32 = bytes(8)  # has_uint32 = 0, uinteger = 0
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


def _mulhi(a, b):
    """High 64 bits of the 128-bit products a * b of uint64 words, by
    32-bit limbs."""
    a0, a1, b0, b1 = a & _LOW_32, a >> _32, b & _LOW_32, b >> _32
    cross_a, cross_b = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _32) + (cross_a & _LOW_32) + (cross_b & _LOW_32)
    return a1 * b1 + (cross_a >> _32) + (cross_b >> _32) + (mid >> _32)


def _add128(a_lo, a_hi, b_lo, b_hi):
    lo = a_lo + b_lo
    return lo, a_hi + b_hi + (lo < a_lo)


def _pcg64_words(seeds: np.ndarray, order: tuple) -> np.ndarray:
    """PCG64's (state low, state high, inc low, inc high), taken in
    ``order``, after seeding with each row of ``seeds``: inc = 2 seq + 1
    and state = (seed + inc) * MULT + inc, mod 2^128."""
    seed_hi, seed_lo, seq_hi, seq_lo = np.moveaxis(seeds, -1, 0)
    inc_lo, inc_hi = seq_lo << _1 | _1, seq_hi << _1 | seq_lo >> _63
    lo, hi = _add128(seed_lo, seed_hi, inc_lo, inc_hi)
    lo, hi = lo * _PCG_MULT_LO, _mulhi(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    halves = _add128(lo, hi, inc_lo, inc_hi) + (inc_lo, inc_hi)
    return np.stack([halves[i] for i in order], axis=-1)


def _probe(generator):
    """Writable byte views of a fresh ``Generator(PCG64(0))``'s (state, inc)
    words and of its (has_uint32, uinteger) pair, and the order of the
    words' halves; None unless a read-back finds both.

    ``state_address`` is numpy's ``pcg64_state``: a pointer to the (state,
    inc) pair, then has_uint32 and uinteger.  The halves are low, high under
    ``__uint128_t`` and high, low under numpy's emulated 128-bit type.
    """
    bitgen = generator.bit_generator
    base = bitgen.ctypes.state_address
    pair_at = ctypes.c_void_p.from_address(base).value or 0
    if not 16 <= pair_at - base <= 64:  # the pair sits in the same object
        return None
    start = bitgen.state
    seen = list((ctypes.c_uint64 * 4).from_address(pair_at))
    order = next((o for o in ((0, 1, 2, 3), (1, 0, 3, 2))  # key (0, 0) is SeedSequence(0)
                  if seen == _pcg64_words(_block_seeds((), 0, 1, 1), o).ravel().tolist()), None)
    generator.integers(2**32, dtype=np.uint32)  # buffers the other half
    words = list((ctypes.c_uint32 * ((pair_at - base) // 4)).from_address(base))
    flags_at = next((i for i in range(ctypes.sizeof(ctypes.c_void_p) // 4, len(words) - 1)
                     if words[i : i + 2] == [1, bitgen.state["uinteger"]]), None)
    if order is None or flags_at is None:
        return None
    state = memoryview((ctypes.c_char * 32).from_address(pair_at)).cast("B")
    flags = memoryview((ctypes.c_char * 8).from_address(base + 4 * flags_at)).cast("B")
    state[:] = np.array(seen, dtype=np.uint64).tobytes()
    flags[:] = _NO_BUFFERED_UINT32  # a raw write of the start state must read back
    return (state, flags, order) if bitgen.state == start else None


def _in_block_domain(entropy: tuple, segment_index: int) -> bool:
    return (
        type(entropy) is tuple  # immutable: the memo knows a key by identity
        and 0 < len(entropy) < _POOL_WORDS
        and all(type(w) is int and 0 <= w < 2**32 for w in entropy)
        and type(segment_index) is int
        and 0 <= segment_index < _BLOCK_KEYS
    )


class _BlockStreams:
    """Segment streams from the PCG64 words of one memoised block of keys.

    Holds the block of the last key seen and one reused PCG64.  The block
    covers 4096 keys of one prefix: 4096 / S aligned reps times segments
    [0, S).  A new prefix starts at S = 16; a segment past S doubles S
    for the rest of the prefix, halving the reps.  A draw copies its key's
    32 bytes into the generator and clears its buffered uint32.  The
    generator is built, and probed, on the first draw, so importing this
    module does not import ``numpy.random``; if the probe fails, the block
    domain is empty.
    """

    def __init__(self):
        self._entropy = None  # the key whose row starts at byte ``_row_at``
        self._row_at = 0
        self._prefix = None
        self._first_rep = 0
        self._segments = 0
        self._words = None  # the block's bytes
        self._generator = None
        self._state = self._flags = self._order = None  # from the probe

    def _start(self) -> None:
        from numpy.random import PCG64, Generator

        self._generator = Generator(PCG64(0))
        self._state, self._flags, self._order = _probe(self._generator) or (None,) * 3

    def _locate(self, entropy: tuple, segment_index: int) -> None:
        prefix, rep = entropy[:-1], entropy[-1]
        segments = self._segments if prefix == self._prefix else _FIRST_SEGMENTS
        while segments <= segment_index:
            segments *= 2
        reps = _BLOCK_KEYS // segments
        first_rep = rep - rep % reps
        block = (prefix, first_rep, segments)
        if block != (self._prefix, self._first_rep, self._segments):
            seeds = _block_seeds(prefix, first_rep, reps, segments)
            self._words = memoryview(_pcg64_words(seeds, self._order)).cast("B")
            self._prefix, self._first_rep, self._segments = block
        self._entropy, self._row_at = entropy, 32 * segments * (rep - first_rep)

    def generator(self, entropy: tuple, segment_index: int):
        """The reused generator at the start of the segment's stream, or
        None when the key is outside the block domain."""
        if not (entropy is self._entropy and type(segment_index) is int
                and 0 <= segment_index < self._segments):
            if self._generator is None:
                self._start()
            if self._state is None or not _in_block_domain(entropy, segment_index):
                return None
            self._locate(entropy, segment_index)
        at = self._row_at + 32 * segment_index
        self._state[:] = self._words[at : at + 32]
        self._flags[:] = _NO_BUFFERED_UINT32
        return self._generator


# one per process, not to be shared across threads: each draw is a function
# of its key alone, so sharing the memo between callers cannot change what
# any of them draws
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


@dataclass(slots=True)
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
    stock = state.remaining_inventory
    if mean > 0 and stock > 0:
        sales = min(int(segment_rng(state.entropy, state.segment_index).poisson(mean)), stock)
        state.remaining_inventory = stock - sales
    else:
        sales = 0
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
    n = instance.market_size
    open_until = T - _T_EPS
    lowest = model.price_floor - _PRICE_SLACK
    highest = model.price_ceil + _PRICE_SLACK
    next_segment = policy.next_segment
    state = MarketState(
        remaining_inventory=instance.scaled_inventory,
        entropy=_as_entropy(seed),
    )
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

"""Poisson market simulator and the policy/segment protocol.

A simulation runs one selling season.  The policy is asked for one
(price, duration) segment at a time and sees the realized sales count of
its previous segment before choosing the next; the simulator owns the
clock, the inventory, and the random stream.  Once inventory hits zero,
or the policy stops early, the remainder of the season is priced at the
shut-off price ``P_INF`` with no further policy involvement.

Randomness: each replication carries an entropy key; segment k draws from
an independent stream seeded by (key..., k).  Counter-style keying means
a policy emitting different segment counts, or a refactor reordering the
bookkeeping, never shifts the stream of an unrelated segment.
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


def segment_rng(entropy: tuple, segment_index: int) -> np.random.Generator:
    """Independent generator for one segment of one replication."""
    return np.random.default_rng(np.random.SeedSequence((*entropy, segment_index)))


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

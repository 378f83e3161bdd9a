"""Pricing policies speaking the block engine's season protocol.

A policy object holds one rep's state: ``applied_price`` and, for the
learning policies, ``iterations``, ``entered_step3`` and
``truncated_learning``.  Its class's ``season(block)`` runs the decision
logic of a whole block of such objects, made from one config, as arrays
over the reps: a generator of (rows, prices, duration) passes that
receives, through ``send``, the mask of the reps whose pass ran in full
and their sales counts (see ``market_sim``).  A rep whose pass was cut,
or whose season is over, leaves the block's logic at the point where a
season run alone would stop, so every rep's state ends as it would alone.
No policy posts the shut-off price, which only the simulator writes.
The clairvoyant baseline is ``FixedPricePolicy`` at the deterministic
price p_D.  The learning policies follow the shrinking-interval scheme:
test a price grid, one pass, on the current interval, estimate the
demand rate at each grid point, re-center a narrower interval on the
estimated optimum, and finally commit to a single price for the rest of
the season.

One track runner does every learning iteration of every policy.  A track
is set by its schedule, its left and right shrink widths (in grid steps),
the estimate it re-centers on, and a hand-off margin.  Three settings are
used:

- revenue track (``dpa``): asymmetric shrinks, re-centers on
  max(p_u_hat, p_c_hat), and hands off once p_c_hat sits more than the
  transition threshold above p_u_hat;
- constrained track (``dpa`` after a hand-off): symmetric shrinks and
  denser grids suited to root-finding, re-centers on p_c_hat, never hands
  off;
- kink track (``dpa2``): symmetric shrinks, re-centers on
  max(p_u_hat, p_c_hat), never hands off, and commits without any
  final-price adjustment; built for revenue curves with a concave corner.

Reps on one track that started it together share its clock; reps that
leave it (a hand-off, a degenerate interval, the schedule's end) leave in
groups, each of which goes on at its own clock.  No policy requests past
the season end.  An iteration that no longer fits is cut to the
remaining time only while its track has no estimate yet; otherwise
learning stops there and the current estimate is applied for the
remainder.  The constrained track
starts from the revenue track's hand-off estimate, so in practice only a
first iteration is ever cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demand import ProblemInstance, deterministic_price
from .errors import ConfigError
from .market_sim import _T_EPS
from .schedules import TrackSchedule, build_kink_schedule, build_schedule

POLICY_NAMES = ("dpa", "dpa2", "clairvoyant", "single_phase", "fixed")


def _grid_pass(rows, prices, delta, n, target, t):
    """Post row i of ``prices``, an (m, k) grid, for rep ``rows[i]``, each
    price for ``delta`` from clock ``t``, as one pass; a generator.

    The rate at each price is estimated as sales / (n delta).  Returns
    (full, p_u_hat, p_c_hat, t): the mask of the reps whose pass ran in
    full and, for those, the grid price of the highest estimated revenue and
    the one whose rate estimate is nearest ``target``; and the clock after
    the pass, advanced by ``delta`` per price.
    """
    full, sales = yield rows, prices, delta
    prices = prices[full]
    rates = sales[full] / (n * delta)
    for _ in range(prices.shape[1]):
        t += delta
    at = np.arange(len(prices))
    # on ties argmax and argmin keep the first, the lowest price
    p_u = prices[at, np.argmax(prices * rates, axis=1)]
    p_c = prices[at, np.argmin(np.abs(rates - target), axis=1)]
    return full, p_u, p_c, t


def _commit(block, rows, price, t):
    """Apply ``price[i]`` for rep ``rows[i]`` for whatever is left of the
    season after clock ``t``; a generator."""
    for rep, p in zip(rows.tolist(), price.tolist()):
        block[rep].applied_price = p
    remaining = block[0].instance.horizon - t
    if remaining > _T_EPS and len(rows):
        yield rows, price[:, None], remaining


class FixedPricePolicy:
    """Posts one given price, inside the price box, for the whole season."""

    def __init__(self, instance: ProblemInstance, price: float):
        model = instance.demand
        if not (model.price_floor <= price <= model.price_ceil):
            raise ValueError(
                f"fixed price {price!r} outside [{model.price_floor}, {model.price_ceil}]"
            )
        self.instance = instance
        self.applied_price = float(price)

    @staticmethod
    def season(block):
        yield np.arange(len(block)), [[p.applied_price] for p in block], block[0].instance.horizon


class SinglePhaseGridPolicy:
    """Learn-then-earn baseline: one exploration pass, one committed price.

    Tests an even grid of ceil(n^(1/4)) prices spanning the price interval
    for an n^(-1/4) share of the season, then posts the better of the
    estimated revenue-maximizing and inventory-clearing prices: the
    classical one-phase tuning.
    """

    def __init__(self, instance: ProblemInstance):
        if instance.market_size < 2:
            raise ValueError("single_phase needs market size n >= 2")
        self.instance = instance
        self.applied_price = None

    @staticmethod
    def season(block):
        inst = block[0].instance
        model = inst.demand
        n, T = inst.market_size, inst.horizon
        floor, ceil = model.price_floor, model.price_ceil
        grid_size = int(math.ceil(n**0.25))
        # the even grid as numpy.linspace computes it, ending exactly at ceil
        step = (ceil - floor) / (grid_size - 1)
        grid = [floor + j * step for j in range(grid_size - 1)] + [ceil]
        delta = n ** (-0.25) * T / grid_size
        rows = np.arange(len(block))
        full, p_u, p_c, t = yield from _grid_pass(
            rows, np.array([grid] * len(block)), delta, n, inst.inventory / T, 0.0
        )
        yield from _commit(block, rows[full], np.maximum(p_u, p_c), t)


def _run_track(block, track, schedule, rows, lo, hi, t, left, right, center,
               margin=None, estimate=None):
    """Run one learning track for reps ``rows`` of ``block``, rep
    ``rows[i]`` on [lo[i], hi[i]], all at clock ``t``; a generator of passes.

    Each iteration tests a grid, estimates p_u and p_c, and shrinks the
    interval to [c - left * step, c + right * step] around
    c = center(p_u_hat, p_c_hat), clamped to the price box.  A rep hands
    off when p_c_hat exceeds p_u_hat by more than ``margin`` grid steps;
    ``estimate`` is the estimate the reps start from, if any.  Returns the
    reps that left the track, in groups that left it together, as
    (rows, t, estimate, grid step, lo, hi, handed off), where on a hand-off
    the estimate is p_c_hat and [lo, hi] the interval just tested.
    """
    first = block[0]
    T = first.instance.horizon
    n = first.instance.market_size
    exits = []
    step = None
    for i, (tau, kappa) in enumerate(zip(schedule.tau, schedule.kappa), start=1):
        tau *= T
        truncated = t + tau > T + _T_EPS
        if truncated:
            if estimate is not None:
                break
            tau = T - t
            for rep in rows.tolist():
                block[rep].truncated_learning = True
        step = (hi - lo) / kappa
        for rep, a, b in zip(rows.tolist(), lo.tolist(), hi.tolist()):
            block[rep].iterations.append((track, i, a, b, None, None))
        # grid pass: kappa left-endpoint prices for tau / kappa each
        full, p_u, p_c, t = yield from _grid_pass(
            rows, lo[:, None] + step[:, None] * np.arange(kappa), tau / kappa, n,
            first.target, t,
        )
        rows, lo, hi, step = rows[full], lo[full], hi[full], step[full]
        for rep, a, b, u, c in zip(rows.tolist(), lo.tolist(), hi.tolist(),
                                   p_u.tolist(), p_c.tolist()):
            block[rep].iterations[-1] = (track, i, a, b, u, c)
        estimate = center(p_u, p_c)
        if truncated:
            break
        if margin is not None:
            handed = p_c > p_u + margin * step
            exits.append((rows[handed], t, p_c[handed], step[handed], lo[handed], hi[handed], True))
            rows, step, estimate = rows[~handed], step[~handed], estimate[~handed]
        lo = np.maximum(estimate - left * step, first.p_lo)
        hi = np.minimum(estimate + right * step, first.p_hi)
        stop = hi - lo <= first._degenerate_width
        exits.append((rows[stop], t, estimate[stop], step[stop], lo[stop], hi[stop], False))
        rows, lo, hi, step, estimate = (a[~stop] for a in (rows, lo, hi, step, estimate))
        if not len(rows):
            break
    exits.append((rows, t, estimate, step, lo, hi, False))
    return [e for e in exits if len(e[0])]


class _IntervalLearner:
    """Per-rep state of the shrinking-interval policies; the block logic
    is ``_run_track``."""

    def __init__(self, instance: ProblemInstance):
        self.instance = instance
        model = instance.demand
        self.p_lo = model.price_floor
        self.p_hi = model.price_ceil
        self.ln_n = math.log(instance.market_size)
        self.target = instance.inventory / instance.horizon
        # (track, i, lo, hi, p_u_hat, p_c_hat) per iteration started; the
        # estimates stay None if the season ends inside the grid pass
        self.iterations = []
        self.applied_price = None
        self.truncated_learning = False
        self._degenerate_width = max(1e-12, 1e-10 * (self.p_hi - self.p_lo))

    @staticmethod
    def _whole_box(block):
        """(rows, lo, hi) of a block starting its first track on the box."""
        size = len(block)
        return np.arange(size), np.full(size, block[0].p_lo), np.full(size, block[0].p_hi)


class DpaPolicy(_IntervalLearner):
    """Two-track learning policy.

    Track selection: after each revenue-track iteration the inventory
    estimate is compared against the revenue estimate; a gap beyond the
    transition threshold flips the policy into the constrained track.  The
    final committed price is nudged up by twice the threshold width on the
    revenue track (selling slightly high costs little revenue but guards
    the inventory), and used as-is on the constrained track.

    The transition threshold is 2 sqrt(log n) grid steps.  In practical
    mode the sqrt(log n) slack is dropped along with the other polylog
    factors: at reachable n it exceeds the structural gap the shrinks
    leave between the two estimates (a third of the interval against
    2 sqrt(log n) / kappa_i of it), and the test would never fire.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        *,
        delta: float = 0.49,
        log_mode: str = "practical",
    ):
        super().__init__(instance)
        self.schedule = build_schedule(instance.market_size, delta, log_mode)
        self.transition_factor = (
            2.0 * math.sqrt(self.ln_n) if log_mode == "theoretical" else 2.0
        )
        self.entered_step3 = False

    @staticmethod
    def season(block):
        first = block[0]
        revenue, constrained = first.schedule
        ln_n = first.ln_n
        exits = yield from _run_track(
            block, "u", revenue, *first._whole_box(block), 0.0,
            ln_n / 3.0, 2.0 * ln_n / 3.0, np.maximum, first.transition_factor,
        )
        for rows, t, price, step, lo, hi, handed in exits:
            if not handed:
                # revenue track: shade the commitment up by the threshold width
                price = np.minimum(price + 2.0 * math.sqrt(ln_n) * step, first.p_hi)
                yield from _commit(block, rows, price, t)
                continue
            for rep in rows.tolist():
                block[rep].entered_step3 = True
            settled = yield from _run_track(
                block, "c", constrained, rows, lo, hi, t, ln_n / 2.0, ln_n / 2.0,
                lambda p_u, p_c: p_c, estimate=price,
            )
            for group, t_end, final, *_ in settled:
                yield from _commit(block, group, final, t_end)


class KinkPolicy(_IntervalLearner):
    """Single-track learner for revenue curves with a concave corner.

    Same grid/estimate/shrink loop as the revenue track, but shrinks are
    symmetric, the track never hands off, and the final price is committed
    without any upward adjustment: under the corner's linear growth
    condition the estimate itself is already accurate enough, and shading
    up would cost linearly.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        *,
        delta: float = 0.49,
        log_mode: str = "practical",
    ):
        super().__init__(instance)
        self.schedule = build_kink_schedule(instance.market_size, delta, log_mode)

    @staticmethod
    def season(block):
        first = block[0]
        exits = yield from _run_track(
            block, "kink", first.schedule, *first._whole_box(block), 0.0,
            first.ln_n / 2.0, first.ln_n / 2.0, np.maximum,
        )
        for rows, t, price, *_ in exits:
            yield from _commit(block, rows, price, t)


@dataclass(frozen=True)
class PolicyConfig:
    """Picklable policy description; make_policy turns it into an instance."""

    name: str
    delta: float = 0.49
    log_mode: str = "practical"
    price: float | None = None

    def __post_init__(self):
        if self.name not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.name!r}; know {POLICY_NAMES}")
        if self.name == "fixed" and self.price is None:
            raise ConfigError("fixed policy needs a price")


def make_policy(config: PolicyConfig, instance: ProblemInstance):
    """Fresh policy instance for one replication."""
    if config.name == "dpa":
        return DpaPolicy(instance, delta=config.delta, log_mode=config.log_mode)
    if config.name == "dpa2":
        return KinkPolicy(instance, delta=config.delta, log_mode=config.log_mode)
    if config.name == "clairvoyant":
        return FixedPricePolicy(
            instance, deterministic_price(instance.demand, instance.inventory, instance.horizon)
        )
    if config.name == "single_phase":
        return SinglePhaseGridPolicy(instance)
    return FixedPricePolicy(instance, config.price)  # PolicyConfig checked the name

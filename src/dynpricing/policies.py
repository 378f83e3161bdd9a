"""Pricing policies speaking the simulator's segment protocol.

Every policy yields (price, duration) segments and receives the realized
sales count of the segment it just posted.  The learning policies follow
the shrinking-interval scheme: test a price grid on the current interval,
estimate the demand rate at each grid point, re-center a narrower interval
on the estimated optimum, and finally commit to a single price for the
rest of the season.

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

All policies track their own clock and never request past the season end.
An iteration that no longer fits is cut to the remaining time only while
its track has no estimate yet; otherwise learning stops there and the
current estimate is applied for the remainder.  The constrained track
starts from the revenue track's hand-off estimate, so in practice only a
first iteration is ever cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demand import ProblemInstance, deterministic_price
from .errors import ConfigError
from .schedules import TrackSchedule, build_kink_schedule, build_schedule

_T_EPS = 1e-12

POLICY_NAMES = ("dpa", "dpa2", "clairvoyant", "single_phase", "fixed")


class SeasonPolicy:
    """Generator-backed policy base; subclasses implement _season()."""

    def __init__(self):
        self._send = self._start

    def _season(self):
        raise NotImplementedError

    def _start(self, last_sales):
        self._send = self._season().send
        return self._send(None)

    def next_segment(self, last_sales):
        """Next (price, duration) request, or None when the season plan ends."""
        try:
            return self._send(last_sales)
        except StopIteration:
            self._send = lambda last_sales: None
            return None


class ClairvoyantPolicy(SeasonPolicy):
    """Posts the deterministic-optimal fixed price for the whole season."""

    def __init__(self, instance: ProblemInstance):
        super().__init__()
        self.instance = instance
        self.applied_price = deterministic_price(
            instance.demand, instance.inventory, instance.horizon
        )

    def _season(self):
        yield (self.applied_price, self.instance.horizon)


class FixedPricePolicy(SeasonPolicy):
    """Posts one given price, inside the price box, for the whole season."""

    def __init__(self, instance: ProblemInstance, price: float):
        super().__init__()
        model = instance.demand
        if not (model.price_floor <= price <= model.price_ceil):
            raise ValueError(
                f"fixed price {price!r} outside [{model.price_floor}, {model.price_ceil}]"
            )
        self.instance = instance
        self.applied_price = float(price)

    def _season(self):
        yield (self.applied_price, self.instance.horizon)


class SinglePhaseGridPolicy(SeasonPolicy):
    """Learn-then-earn baseline: one exploration pass, one committed price.

    Tests an even grid spanning the price interval for a learn_fraction
    share of the season, then posts the better of the estimated
    revenue-maximizing and inventory-clearing prices.  Defaults follow the
    classical one-phase tuning: learn_fraction n^(-1/4) and grid size
    ceil(n^(1/4)).
    """

    def __init__(
        self,
        instance: ProblemInstance,
        learn_fraction: float | None = None,
        grid_size: int | None = None,
    ):
        super().__init__()
        n = instance.market_size
        if learn_fraction is None:
            learn_fraction = n ** (-0.25)
        if grid_size is None:
            grid_size = int(math.ceil(n**0.25))
        if not (0.0 < learn_fraction <= 1.0):
            raise ValueError("learn_fraction must lie in (0, 1]")
        if grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        self.instance = instance
        self.learn_fraction = float(learn_fraction)
        self.grid_size = int(grid_size)
        self.applied_price = None

    def _season(self):
        inst = self.instance
        model = inst.demand
        n, T = inst.market_size, inst.horizon
        target = inst.inventory / T
        grid = np.linspace(model.price_floor, model.price_ceil, self.grid_size)
        delta = self.learn_fraction * T / self.grid_size
        t = 0.0
        d_hat = np.empty(self.grid_size)
        for j, pj in enumerate(grid):
            sales = yield (float(pj), delta)
            d_hat[j] = sales / (n * delta)
            t += delta
        p_u = float(grid[int(np.argmax(grid * d_hat))])
        p_c = float(grid[int(np.argmin(np.abs(d_hat - target)))])
        self.applied_price = max(p_u, p_c)
        if T - t > _T_EPS:
            yield (self.applied_price, T - t)


class _IntervalLearner(SeasonPolicy):
    """Shared bookkeeping and the track runner of the shrinking-interval
    policies."""

    def __init__(self, instance: ProblemInstance):
        super().__init__()
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
        self._t = 0.0
        self._degenerate_width = max(1e-12, 1e-10 * (self.p_hi - self.p_lo))

    def _run_track(
        self,
        track: str,
        schedule: TrackSchedule,
        lo: float,
        hi: float,
        left: float,
        right: float,
        center,
        margin: float = math.inf,
        estimate: float | None = None,
    ):
        """Run one learning track on [lo, hi]; a generator of segments.

        Each iteration tests a grid, estimates p_u and p_c, and shrinks the
        interval to [c - left * step, c + right * step] around
        c = center(p_u_hat, p_c_hat), clamped to the price box.  The track
        hands off when p_c_hat exceeds p_u_hat by more than margin grid
        steps; ``estimate`` is the estimate the track starts from, if any.
        Returns (estimate, grid step, lo, hi, handed off), where on a
        hand-off the estimate is p_c_hat and [lo, hi] the interval just
        tested.
        """
        T = self.instance.horizon
        n = self.instance.market_size
        step = None
        for i, (tau, kappa) in enumerate(zip(schedule.tau, schedule.kappa), start=1):
            tau *= T
            truncated = self._t + tau > T + _T_EPS
            if truncated:
                if estimate is not None:
                    break
                tau = T - self._t
                self.truncated_learning = True
            step = (hi - lo) / kappa
            self.iterations.append((track, i, lo, hi, None, None))
            # grid pass: kappa left-endpoint prices for delta each
            delta = tau / kappa
            d_hat = np.empty(kappa)
            for j in range(kappa):
                sales = yield (lo + j * step, delta)
                d_hat[j] = sales / (n * delta)
                self._t += delta
            prices = lo + step * np.arange(kappa)
            p_u = float(prices[int(np.argmax(prices * d_hat))])
            p_c = float(prices[int(np.argmin(np.abs(d_hat - self.target)))])
            self.iterations[-1] = (track, i, lo, hi, p_u, p_c)
            estimate = center(p_u, p_c)
            if truncated:
                break
            if p_c > p_u + margin * step:
                return p_c, step, lo, hi, True
            lo = max(estimate - left * step, self.p_lo)
            hi = min(estimate + right * step, self.p_hi)
            if hi - lo <= self._degenerate_width:
                break
        return estimate, step, lo, hi, False

    def _commit(self, price):
        """Apply ``price`` for whatever is left of the season."""
        self.applied_price = price
        remaining = self.instance.horizon - self._t
        if remaining > _T_EPS:
            yield (price, remaining)


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
        step3_interval: str = "last",
    ):
        super().__init__(instance)
        if step3_interval not in ("last", "full"):
            raise ValueError("step3_interval must be 'last' or 'full'")
        self.schedule = build_schedule(instance.market_size, delta, log_mode)
        self.step3_interval = step3_interval
        self.transition_factor = (
            2.0 * math.sqrt(self.ln_n) if log_mode == "theoretical" else 2.0
        )
        self.entered_step3 = False

    def _season(self):
        revenue, constrained = self.schedule
        price, step, lo, hi, self.entered_step3 = yield from self._run_track(
            "u", revenue, self.p_lo, self.p_hi,
            self.ln_n / 3.0, 2.0 * self.ln_n / 3.0, max, self.transition_factor,
        )
        if self.entered_step3:
            if self.step3_interval == "full":
                lo, hi = self.p_lo, self.p_hi
            price, _, _, _, _ = yield from self._run_track(
                "c", constrained, lo, hi, self.ln_n / 2.0, self.ln_n / 2.0,
                lambda p_u, p_c: p_c, estimate=price,
            )
        else:
            # revenue track: shade the commitment up by the threshold width
            price = min(price + 2.0 * math.sqrt(self.ln_n) * step, self.p_hi)
        yield from self._commit(price)


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

    def _season(self):
        price, _, _, _, _ = yield from self._run_track(
            "kink", self.schedule, self.p_lo, self.p_hi,
            self.ln_n / 2.0, self.ln_n / 2.0, max,
        )
        yield from self._commit(price)


@dataclass(frozen=True)
class PolicyConfig:
    """Picklable policy description; make_policy turns it into an instance."""

    name: str
    delta: float = 0.49
    log_mode: str = "practical"
    step3_interval: str = "last"
    learn_fraction: float | None = None
    grid_size: int | None = None
    price: float | None = None

    def __post_init__(self):
        if self.name not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.name!r}; know {POLICY_NAMES}")
        if self.name == "fixed" and self.price is None:
            raise ConfigError("fixed policy needs a price")


def make_policy(config: PolicyConfig, instance: ProblemInstance) -> SeasonPolicy:
    """Fresh policy instance for one replication."""
    if config.name == "dpa":
        return DpaPolicy(
            instance,
            delta=config.delta,
            log_mode=config.log_mode,
            step3_interval=config.step3_interval,
        )
    if config.name == "dpa2":
        return KinkPolicy(instance, delta=config.delta, log_mode=config.log_mode)
    if config.name == "clairvoyant":
        return ClairvoyantPolicy(instance)
    if config.name == "single_phase":
        return SinglePhaseGridPolicy(instance, config.learn_fraction, config.grid_size)
    return FixedPricePolicy(instance, config.price)  # PolicyConfig checked the name

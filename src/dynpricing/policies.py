"""Pricing policies speaking the simulator's season protocol.

Every policy's ``season()`` is a generator of (prices, duration) passes
that receives, through ``send``, the sales counts of each pass that ran
in full; a cut pass ends the season (see ``market_sim.run_policy``).  A
pass is a plain list of prices inside the price box; no policy posts the
shut-off price, which only the simulator writes.  A policy object runs
one season.  The clairvoyant baseline is
``FixedPricePolicy`` at the deterministic price p_D.  The learning
policies follow the shrinking-interval scheme: test a price grid, one
pass, on the current interval, estimate the demand rate at each grid
point, re-center a narrower interval on the estimated optimum, and
finally commit to a single price for the rest of the season.

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

from .demand import ProblemInstance, deterministic_price
from .errors import ConfigError
from .market_sim import _T_EPS
from .schedules import TrackSchedule, build_kink_schedule, build_schedule

POLICY_NAMES = ("dpa", "dpa2", "clairvoyant", "single_phase", "fixed")


def _grid_pass(prices, delta, n, target, t):
    """Post each of ``prices`` for ``delta``, starting at clock ``t``, as one
    pass; a generator.

    The rate at each price is estimated as sales / (n delta).  Returns
    (p_u_hat, p_c_hat, t): the grid price of the highest estimated revenue,
    the one whose rate estimate is nearest ``target``, and the clock after
    the pass, advanced by ``delta`` per price.
    """
    sales = yield (prices, delta)
    unit = n * delta
    estimates = [(price, count / unit) for price, count in zip(prices, sales)]
    for _ in sales:
        t += delta
    # on ties max and min keep the first, the lowest price
    p_u = max(estimates, key=lambda e: e[0] * e[1])[0]
    p_c = min(estimates, key=lambda e: abs(e[1] - target))[0]
    return p_u, p_c, t


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

    def season(self):
        yield ([self.applied_price], self.instance.horizon)


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

    def season(self):
        inst = self.instance
        model = inst.demand
        n, T = inst.market_size, inst.horizon
        floor, ceil = model.price_floor, model.price_ceil
        grid_size = int(math.ceil(n**0.25))
        # the even grid as numpy.linspace computes it, ending exactly at ceil
        step = (ceil - floor) / (grid_size - 1)
        grid = [floor + j * step for j in range(grid_size - 1)] + [ceil]
        delta = n ** (-0.25) * T / grid_size
        p_u, p_c, t = yield from _grid_pass(grid, delta, n, inst.inventory / T, 0.0)
        self.applied_price = max(p_u, p_c)
        if T - t > _T_EPS:
            yield ([self.applied_price], T - t)


class _IntervalLearner:
    """Shared bookkeeping and the track runner of the shrinking-interval
    policies."""

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
        """Run one learning track on [lo, hi]; a generator of passes.

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
            # grid pass: kappa left-endpoint prices for tau / kappa each
            p_u, p_c, self._t = yield from _grid_pass(
                [lo + step * j for j in range(kappa)], tau / kappa, n, self.target, self._t
            )
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
            yield ([price], remaining)


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

    def season(self):
        revenue, constrained = self.schedule
        price, step, lo, hi, self.entered_step3 = yield from self._run_track(
            "u", revenue, self.p_lo, self.p_hi,
            self.ln_n / 3.0, 2.0 * self.ln_n / 3.0, max, self.transition_factor,
        )
        if self.entered_step3:
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

    def season(self):
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

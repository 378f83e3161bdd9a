"""Demand families, deterministic benchmark prices, and benchmark values.

Five families, the ones the command line builds: linear, exponential,
logit, piecewise linear with one kink, and the worst-case linear family of
the lower bound.  Each maps a posted price p in [price_floor, price_ceil]
to an arrival rate lambda(p) of a unit-demand Poisson stream, per unit of
market size.  Prices keep user units throughout; nothing here knows about
market scaling beyond the final benchmark value.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

import numpy as np

from .errors import PriceDomainError

_PRICE_TOL = 1e-9
_SOLVER_TOL = 1e-10
_SOLVER_MAX_ITER = 200


class DemandModel(ABC):
    """Strictly decreasing price-to-rate map on a bounded price interval."""

    price_floor: float
    price_ceil: float

    @abstractmethod
    def _rate(self, p: float) -> float:
        """Rate at an in-domain numeric price."""

    def rate(self, p) -> float:
        p = float(p)
        if not (self.price_floor - _PRICE_TOL <= p <= self.price_ceil + _PRICE_TOL):
            raise PriceDomainError(
                f"price {p!r} outside [{self.price_floor}, {self.price_ceil}]"
            )
        return max(0.0, self._rate(min(max(p, self.price_floor), self.price_ceil)))

    def _unimodal_pieces(self) -> tuple:
        """Price intervals covering the box on each of which revenue is
        unimodal."""
        return ((self.price_floor, self.price_ceil),)

    def revenue(self, p) -> float:
        """Instantaneous revenue rate p * lambda(p)."""
        return float(p) * self.rate(p)

    def _check_decreasing(self):
        lo, hi = self.price_floor, self.price_ceil
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"bad price interval [{lo}, {hi}]")
        ps = np.linspace(lo, hi, 257)
        lams = [self._rate(p) for p in ps]
        if not all(map(math.isfinite, lams)):
            raise ValueError("demand rate is not finite inside the price interval")
        if max(np.diff(lams)) >= 0:
            raise ValueError("demand must be strictly decreasing in price")
        if lams[-1] < -_PRICE_TOL:
            raise ValueError("demand rate is negative inside the price interval")


@dataclass(frozen=True)
class LinearDemand(DemandModel):
    """lambda(p) = a - b p."""

    a: float
    b: float
    price_floor: float = 0.1
    price_ceil: float = 10.0

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("linear demand needs b > 0")
        self._check_decreasing()

    def _rate(self, p):
        return self.a - self.b * p


class WorstCaseLinear(LinearDemand):
    """The hard linear family lambda(p; z) = 1/2 + z - z p on [1/2, 3/2].

    Constructed so that all members cross at the uninformative price p = 1.
    """

    def __init__(self, z: float):
        if not (1.0 / 3.0 - 1e-12 <= z <= 2.0 / 3.0 + 1e-12):
            raise ValueError("z must lie in [1/3, 2/3]")
        super().__init__(0.5 + z, z, 0.5, 1.5)


@dataclass(frozen=True)
class ExponentialDemand(DemandModel):
    """lambda(p) = a exp(-b p)."""

    a: float
    b: float
    price_floor: float = 0.1
    price_ceil: float = 10.0

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("exponential demand needs a, b > 0")
        self._check_decreasing()

    def _rate(self, p):
        return self.a * math.exp(-self.b * p)


@dataclass(frozen=True)
class LogitDemand(DemandModel):
    """lambda(p) = exp(-a - b p) / (1 + exp(-a - b p))."""

    a: float
    b: float
    price_floor: float = 0.1
    price_ceil: float = 10.0

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("logit demand needs b > 0")
        self._check_decreasing()

    def _rate(self, p):
        u = math.exp(-self.a - self.b * p)
        return u / (1.0 + u)


@dataclass(frozen=True)
class PiecewiseLinearDemand(DemandModel):
    """Two linear pieces joined continuously at a kink price.

    lambda(p) = a - b_left p for p <= kink, and continues with slope -b_right
    beyond it.  With b_right > b_left the revenue curve has a concave corner,
    the regime the single-track policy is built for.
    """

    a: float
    b_left: float
    kink: float
    b_right: float
    price_floor: float = 0.1
    price_ceil: float = 10.0

    def __post_init__(self):
        if self.b_left <= 0 or self.b_right <= 0:
            raise ValueError("piecewise demand needs positive slopes")
        if not (self.price_floor < self.kink < self.price_ceil):
            raise ValueError("kink must be interior to the price interval")
        self._check_decreasing()

    @property
    def _rate_at_kink(self):
        return self.a - self.b_left * self.kink

    def _unimodal_pieces(self):
        if self.b_right < self.b_left:  # convex corner: one concave piece each side
            return ((self.price_floor, self.kink), (self.kink, self.price_ceil))
        return super()._unimodal_pieces()

    def _rate(self, p):
        if p <= self.kink:
            return self.a - self.b_left * p
        return self._rate_at_kink - self.b_right * (p - self.kink)


@dataclass(frozen=True)
class ProblemInstance:
    """A demand model with inventory x, season length T, and market size n.

    The simulator scales demand to n * lambda(p) and inventory to
    floor(n * x); everything else stays in user units.
    """

    demand: DemandModel
    inventory: float
    horizon: float
    market_size: int

    def __post_init__(self):
        if not (0 <= self.inventory < math.inf):
            raise ValueError("inventory must be finite and nonnegative")
        if not (0 < self.horizon < math.inf):
            raise ValueError("horizon must be finite and positive")
        if self.market_size < 1:
            raise ValueError("market size must be at least 1")

    @property
    def scaled_inventory(self) -> int:
        return int(math.floor(self.market_size * self.inventory))

    def with_market_size(self, n: int) -> "ProblemInstance":
        return replace(self, market_size=int(n))


# -- deterministic benchmark ------------------------------------------------


def _golden_max(f, lo: float, hi: float) -> float:
    """Golden-section maximization of a unimodal f on [lo, hi].

    A single parabolic refinement follows the bracketing: comparisons of f
    near a smooth maximum drown in rounding noise at sqrt(eps) price scale,
    and the three-point vertex recovers the extra digits.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_SOLVER_MAX_ITER):
        if b - a < _SOLVER_TOL:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    p = 0.5 * (a + b)
    h = 1e-5 * max(1.0, abs(p))
    if lo + h < p < hi - h:
        f0, f1, f2 = f(p - h), f(p), f(p + h)
        denom = f0 - 2.0 * f1 + f2
        if denom < 0:
            vertex = p + 0.5 * h * (f0 - f2) / denom
            if lo <= vertex <= hi and f(vertex) >= f1:
                return vertex
    return p


def solve_pu(model: DemandModel) -> float:
    """Unconstrained revenue-maximizing price argmax p * lambda(p).

    Golden-section search on each interval where revenue is unimodal: the
    whole box for every family but piecewise demand with a convex corner
    (b_right < b_left), whose two pieces are searched apart and the better
    maximum kept.
    """
    return max(
        (_golden_max(model.revenue, lo, hi) for lo, hi in model._unimodal_pieces()),
        key=model.revenue,
    )


def solve_pc(model: DemandModel, inventory: float, horizon: float) -> float:
    """Inventory-clearing price: lambda(p) = x / T, clamped to the bounds.

    Demand is strictly decreasing, so bisection finds the unique crossing;
    if x / T falls outside the achievable rate range the nearer bound is
    returned.
    """
    if inventory < 0 or horizon <= 0:
        raise ValueError("need inventory >= 0 and horizon > 0")
    target = inventory / horizon
    lo, hi = model.price_floor, model.price_ceil
    if target >= model.rate(lo):
        return lo
    if target <= model.rate(hi):
        return hi
    for _ in range(_SOLVER_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if model.rate(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < _SOLVER_TOL:
            break
    return 0.5 * (lo + hi)


@functools.lru_cache
def deterministic_price(model: DemandModel, inventory: float, horizon: float) -> float:
    """Optimal fixed price of the deterministic relaxation: max(p_u, p_c).

    Memoised: every model is a frozen, hashable value."""
    return max(solve_pu(model), solve_pc(model, inventory, horizon))


def deterministic_value(
    model: DemandModel, inventory: float, horizon: float, market_size: int = 1
) -> float:
    """Deterministic benchmark revenue n * p_D * min(T lambda(p_D), x)."""
    if inventory == 0:
        return 0.0
    p_d = deterministic_price(model, inventory, horizon)
    sold = min(horizon * model.rate(p_d), inventory)
    return market_size * p_d * sold


"""Demand families, deterministic benchmark prices, and benchmark values.

All models map a posted price p in [price_floor, price_ceil] to an arrival
rate lambda(p) of a unit-demand Poisson stream, per unit of market size.
Prices keep user units throughout; nothing here knows about market scaling
beyond the final benchmark value.

The shut-off price is the symbolic object ``P_INF`` rather than a float:
it is feasible for every model and carries rate 0.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import PriceDomainError

_PRICE_TOL = 1e-9
_SOLVER_TOL = 1e-10
_SOLVER_MAX_ITER = 200
_SCAN_RESOLUTION = 4097  # dense-scan fallback for tabulated/callable revenue


class _ShutoffPrice:
    """Symbolic price at which demand is switched off entirely."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "P_INF"

    def __reduce__(self):
        # keep the singleton property across pickling
        return (_ShutoffPrice, ())


P_INF = _ShutoffPrice()

Price = "float | _ShutoffPrice"


@dataclass(frozen=True)
class RegularityConstants:
    """Sampled smoothness diagnostics for a demand model.

    M bounds the rate, K the Lipschitz constants of lambda(p), r(lambda(p))
    and the inverse demand, and [-m_L, -m_U] brackets the second derivative
    of the revenue rate as a function of lambda.  These are descriptive: no
    policy reads them, but tests check them against closed forms.
    """

    M: float
    K: float
    m_L: float
    m_U: float


class DemandModel(ABC):
    """Strictly decreasing price-to-rate map on a bounded price interval."""

    price_floor: float
    price_ceil: float

    # -- core map -----------------------------------------------------------

    @abstractmethod
    def _rate(self, p: float) -> float:
        """Rate at an in-domain numeric price."""

    @abstractmethod
    def _inverse(self, lam: float) -> float:
        """Price at which the rate equals lam (lam within the rate range)."""

    def rate(self, p) -> float:
        if p is P_INF:
            return 0.0
        p = float(p)
        if not (self.price_floor - _PRICE_TOL <= p <= self.price_ceil + _PRICE_TOL):
            raise PriceDomainError(
                f"price {p!r} outside [{self.price_floor}, {self.price_ceil}]"
            )
        return max(0.0, self._rate(min(max(p, self.price_floor), self.price_ceil)))

    def inverse(self, lam: float) -> float:
        lo, hi = self.rate(self.price_ceil), self.rate(self.price_floor)
        if not (lo - _PRICE_TOL <= lam <= hi + _PRICE_TOL):
            raise PriceDomainError(f"rate {lam!r} outside [{lo}, {hi}]")
        return self._inverse(min(max(lam, lo), hi))

    def revenue(self, p) -> float:
        """Instantaneous revenue rate p * lambda(p); 0 at the shut-off price."""
        if p is P_INF:
            return 0.0
        return float(p) * self.rate(p)

    # -- diagnostics --------------------------------------------------------

    _constants_cache: RegularityConstants | None = None

    @property
    def constants(self) -> RegularityConstants:
        if self._constants_cache is None:
            object.__setattr__(self, "_constants_cache", self._sample_constants())
        return self._constants_cache

    def _sample_constants(self, points: int = 2049) -> RegularityConstants:
        ps = np.linspace(self.price_floor, self.price_ceil, points)
        lams = np.array([self.rate(p) for p in ps])
        revs = ps * lams
        dp = ps[1] - ps[0]
        M = float(lams.max())
        k_lam = float(np.abs(np.diff(lams) / dp).max())
        k_rev = float(np.abs(np.diff(revs) / dp).max())
        # inverse-demand slope on an even rate grid (interior, to dodge
        # flat endpoints when the rate hits zero at the ceiling)
        lo, hi = lams.min(), lams.max()
        lgrid = np.linspace(lo + 1e-4 * (hi - lo), hi - 1e-4 * (hi - lo), points)
        pgrid = np.array([self.inverse(l) for l in lgrid])
        dl = lgrid[1] - lgrid[0]
        k_inv = float(np.abs(np.diff(pgrid) / dl).max())
        r_of_lam = lgrid * pgrid
        d2 = np.diff(r_of_lam, 2) / dl**2
        return RegularityConstants(
            M=M,
            K=max(k_lam, k_rev, k_inv),
            m_L=float(-d2.min()),
            m_U=float(-d2.max()),
        )

    def _check_decreasing(self):
        lo, hi = self.price_floor, self.price_ceil
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"bad price interval [{lo}, {hi}]")
        ps = np.linspace(lo, hi, 257)
        lams = [self._rate(p) for p in ps]
        if min(np.diff(lams)) >= 0 or max(np.diff(lams)) >= 0:
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

    def _inverse(self, lam):
        return (self.a - lam) / self.b

    def _sample_constants(self, points: int = 2049) -> RegularityConstants:
        # closed forms: r(lam) = lam (a - lam) / b has r'' = -2/b
        return RegularityConstants(
            M=self.a - self.b * self.price_floor,
            K=max(
                self.b,
                1.0 / self.b,
                abs(self.a - 2 * self.b * self.price_ceil),
                abs(self.a - 2 * self.b * self.price_floor),
            ),
            m_L=2.0 / self.b,
            m_U=2.0 / self.b,
        )


@dataclass(frozen=True)
class WorstCaseLinear(LinearDemand):
    """The hard linear family lambda(p; z) = 1/2 + z - z p on [1/2, 3/2].

    Constructed so that all members cross at the uninformative price p = 1.
    """

    z: float = 0.5
    a: float = field(init=False, default=0.0)
    b: float = field(init=False, default=0.0)
    price_floor: float = field(init=False, default=0.5)
    price_ceil: float = field(init=False, default=1.5)

    def __init__(self, z: float):
        if not (1.0 / 3.0 - 1e-12 <= z <= 2.0 / 3.0 + 1e-12):
            raise ValueError("z must lie in [1/3, 2/3]")
        object.__setattr__(self, "z", float(z))
        object.__setattr__(self, "a", 0.5 + float(z))
        object.__setattr__(self, "b", float(z))
        object.__setattr__(self, "price_floor", 0.5)
        object.__setattr__(self, "price_ceil", 1.5)
        self._check_decreasing()


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

    def _inverse(self, lam):
        return math.log(self.a / lam) / self.b


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

    def _inverse(self, lam):
        return (math.log((1.0 - lam) / lam) - self.a) / self.b


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

    def _rate(self, p):
        if p <= self.kink:
            return self.a - self.b_left * p
        return self._rate_at_kink - self.b_right * (p - self.kink)

    def _inverse(self, lam):
        if lam >= self._rate_at_kink:
            return (self.a - lam) / self.b_left
        return self.kink + (self._rate_at_kink - lam) / self.b_right


@dataclass(frozen=True)
class TabulatedDemand(DemandModel):
    """Piecewise-linear interpolation through (price, rate) samples."""

    prices: tuple
    rates: tuple
    price_floor: float = field(init=False, default=0.0)
    price_ceil: float = field(init=False, default=0.0)

    def __init__(self, prices: Sequence[float], rates: Sequence[float]):
        prices = tuple(float(p) for p in prices)
        rates = tuple(float(r) for r in rates)
        if len(prices) != len(rates) or len(prices) < 2:
            raise ValueError("need matching price/rate samples, at least two")
        if any(q <= p for p, q in zip(prices, prices[1:])):
            raise ValueError("prices must be strictly increasing")
        if any(s >= r for r, s in zip(rates, rates[1:])):
            raise ValueError("rates must be strictly decreasing")
        if rates[-1] < 0:
            raise ValueError("rates must be nonnegative")
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "price_floor", prices[0])
        object.__setattr__(self, "price_ceil", prices[-1])

    def _rate(self, p):
        return float(np.interp(p, self.prices, self.rates))

    def _inverse(self, lam):
        return float(np.interp(lam, self.rates[::-1], self.prices[::-1]))


class CallableDemand(DemandModel):
    """Demand given by an arbitrary strictly decreasing callable.

    The inverse is resolved by bisection, so anything here is slower than
    the closed-form families; fine for validation work, not for big sweeps
    (and closures do not survive pickling, so keep workers at 1).
    """

    def __init__(self, fn: Callable[[float], float], price_floor: float, price_ceil: float):
        self.fn = fn
        self.price_floor = float(price_floor)
        self.price_ceil = float(price_ceil)
        self._check_decreasing()

    def _rate(self, p):
        return float(self.fn(p))

    def _inverse(self, lam):
        lo, hi = self.price_floor, self.price_ceil
        for _ in range(_SOLVER_MAX_ITER):
            mid = 0.5 * (lo + hi)
            if self._rate(mid) > lam:
                lo = mid
            else:
                hi = mid
            if hi - lo < _SOLVER_TOL:
                break
        return 0.5 * (lo + hi)


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

    Analytic families are unimodal, so golden-section search applies
    directly.  Tabulated and callable models get a dense scan (resolution
    4097) to bracket the global maximum before the same refinement, since
    interpolated data need not be unimodal.
    """
    lo, hi = model.price_floor, model.price_ceil
    if isinstance(model, (TabulatedDemand, CallableDemand)):
        ps = np.linspace(lo, hi, _SCAN_RESOLUTION)
        revs = np.array([model.revenue(p) for p in ps])
        j = int(np.argmax(revs))  # first hit = smallest price on ties
        lo = ps[max(j - 1, 0)]
        hi = ps[min(j + 1, len(ps) - 1)]
    return _golden_max(model.revenue, lo, hi)


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


def deterministic_price(model: DemandModel, inventory: float, horizon: float) -> float:
    """Optimal fixed price of the deterministic relaxation: max(p_u, p_c)."""
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


def advertisement_transform(
    price: float,
    intensity_rate: Callable[[float], float],
    intensity_lo: float,
    intensity_hi: float,
) -> CallableDemand:
    """Recast an advertising problem (fixed price, variable intensity a)
    as pricing in the effective price w = price - a.

    intensity_rate(a) gives the demand rate at intensity a on
    [intensity_lo, intensity_hi]; the returned model has rate
    lambda(w) = intensity_rate(price - w) on the induced w interval.
    Raises if the induced demand is not strictly decreasing.
    """
    if intensity_hi <= intensity_lo:
        raise ValueError("need intensity_lo < intensity_hi")
    w_lo, w_hi = price - intensity_hi, price - intensity_lo
    return CallableDemand(lambda w: intensity_rate(price - w), w_lo, w_hi)

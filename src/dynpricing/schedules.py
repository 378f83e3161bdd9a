"""Iteration schedules for the shrinking-interval learning policies.

A schedule fixes, per learning iteration i, the time budget tau_i (as a
fraction of the season) and the grid size kappa_i.  Closed forms, with
delta in (0, 1/2) the designer's slack and all logs natural:

revenue track   kappa_i = n^((1/5)(3/5)^(i-1)(1-delta)) * log n
                tau_i   = n^(1-2delta-(1-delta)(3/5)^(i-1)) * (log n)^5
inventory track kappa_i = n^((1/3)(2/3)^(i-1)(1-delta)) * log n
                tau_i   = n^(1-2delta-(1-delta)(2/3)^(i-1)) * (log n)^3

with the first budgets defined as n^(-delta) (log n)^3.5 and
n^(-delta) (log n)^2.5 respectively.  The single-track (kink) schedule
reuses the inventory-track shapes with (log n)^3 throughout.

"practical" mode strips the polylog factors from every tau_i; they are
union-bound slack, and at desk-scale n they dwarf the season itself.
Grid counts are floored to integers and clamped to at least 2.

Both builders are memoised: a schedule is a pure function of (n, delta,
log_mode) and immutable, so every season at one setting shares one.

Iteration counts come from the delta-only bounds
N1 = floor(log_{3/5}((1-2delta)/(1-delta))) + 1 (revenue track) and
N2 likewise with ratio 2/3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

LOG_MODES = ("theoretical", "practical")

# track shape constants: (grid exponent scale, shrink ratio, tau1 log power,
# tau log power)
_TRACKS = {
    "u": (1.0 / 5.0, 3.0 / 5.0, 3.5, 5.0),
    "c": (1.0 / 3.0, 2.0 / 3.0, 2.5, 3.0),
    "kink": (1.0 / 3.0, 2.0 / 3.0, 3.0, 3.0),
}


def _validate(n: int, delta: float, log_mode: str):
    if n < 2:
        raise ValueError("market size n must be at least 2")
    if not (0.0 < delta < 0.5):
        raise ValueError("delta must lie in (0, 1/2)")
    if log_mode not in LOG_MODES:
        raise ValueError(f"log_mode must be one of {LOG_MODES}")


def max_iterations(delta: float, shrink_ratio: float) -> int:
    """Largest useful iteration count for a track with the given ratio."""
    if not (0.0 < delta < 0.5):
        raise ValueError("delta must lie in (0, 1/2)")
    x = math.log((1.0 - 2.0 * delta) / (1.0 - delta)) / math.log(shrink_ratio)
    return int(math.floor(x)) + 1


@dataclass(frozen=True)
class TrackSchedule:
    """Per-iteration time budgets (fractions of the season) and grid sizes
    of one learning track."""

    tau: tuple
    kappa: tuple


def _track(n: int, delta: float, log_mode: str, track: str) -> TrackSchedule:
    scale, ratio, p1, p_rest = _TRACKS[track]
    ln_n = math.log(n)
    taus, kappas = [], []
    for i in range(1, max_iterations(delta, ratio) + 1):
        shrink = ratio ** (i - 1)
        kappa_raw = n ** (scale * shrink * (1.0 - delta)) * ln_n
        kappas.append(max(2, int(math.floor(kappa_raw))))
        exponent = 1.0 - 2.0 * delta - (1.0 - delta) * shrink
        if log_mode == "theoretical":
            log_factor = ln_n ** (p1 if i == 1 else p_rest)
        else:
            log_factor = 1.0
        taus.append(n**exponent * log_factor)
    return TrackSchedule(tuple(taus), tuple(kappas))


@functools.lru_cache
def build_schedule(
    n: int, delta: float = 0.49, log_mode: str = "practical"
) -> tuple[TrackSchedule, TrackSchedule]:
    """(revenue track, constrained track) schedules of the main policy."""
    _validate(n, delta, log_mode)
    return _track(n, delta, log_mode, "u"), _track(n, delta, log_mode, "c")


@functools.lru_cache
def build_kink_schedule(
    n: int, delta: float = 0.49, log_mode: str = "practical"
) -> TrackSchedule:
    """Single-track schedule of the kinked-revenue policy."""
    _validate(n, delta, log_mode)
    return _track(n, delta, log_mode, "kink")

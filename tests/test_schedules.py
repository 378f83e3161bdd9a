"""Learning schedule construction against hand-computed values."""

import math

import pytest

from dynpricing.schedules import (
    build_kink_schedule,
    build_schedule,
    max_iterations,
)


def test_iteration_counts_at_default_delta():
    # floor(ln((1-2d)/(1-d)) / ln(ratio)) + 1 at d = 0.49:
    # ratio 3/5 -> floor(6.34) + 1 = 7, ratio 2/3 -> floor(7.99) + 1 = 8
    assert max_iterations(0.49, 3.0 / 5.0) == 7
    assert max_iterations(0.49, 2.0 / 3.0) == 8
    assert max_iterations(0.25, 3.0 / 5.0) == 1
    assert max_iterations(0.30, 3.0 / 5.0) == 2


def test_schedule_at_reference_scale():
    u, c = build_schedule(10**5, 0.49, "practical")
    assert len(u.tau) == 7 and len(c.tau) == 8
    assert u.kappa == (37, 23, 17, 14, 13, 12, 12)
    assert c.kappa == (81, 42, 27, 20, 16, 14, 13, 12)
    # tau_1 = n^(1 - 2d - (1 - d)) = n^(-0.49)
    assert u.tau[0] == pytest.approx((10**5) ** -0.49, rel=1e-12)
    assert u.tau[0] == pytest.approx(3.548133892335755e-3, rel=1e-12)
    assert u.tau[4] == pytest.approx(0.5881932008172602, rel=1e-12)
    # both tracks share the first exponent 1 - 2d - (1 - d)
    assert c.tau[0] == u.tau[0]


def test_grid_sizes_follow_the_power_law():
    n, d = 10**5, 0.49
    u, _ = build_schedule(n, d, "practical")
    for i, kappa in enumerate(u.kappa, start=1):
        raw = n ** ((1.0 / 5.0) * (3.0 / 5.0) ** (i - 1) * (1 - d)) * math.log(n)
        assert kappa == max(2, math.floor(raw))


def test_theoretical_mode_multiplies_polylog_factors():
    n = 10**5
    prac_u, prac_c = build_schedule(n, 0.49, "practical")
    theo_u, theo_c = build_schedule(n, 0.49, "theoretical")
    assert theo_u.tau[0] == pytest.approx(prac_u.tau[0] * math.log(n) ** 3.5, rel=1e-12)
    assert theo_u.tau[1] == pytest.approx(prac_u.tau[1] * math.log(n) ** 5.0, rel=1e-12)
    assert theo_c.tau[0] == pytest.approx(prac_c.tau[0] * math.log(n) ** 2.5, rel=1e-12)
    # the polylog factors push the first learning period past a unit season
    # at every desk-reachable n, which is why practical mode exists
    assert theo_u.tau[0] > 1.0
    assert theo_u.tau[0] == pytest.approx(18.371724561475855, rel=1e-12)


def test_kink_schedule_shapes():
    k = build_kink_schedule(10**5, 0.49, "practical")
    _, c = build_schedule(10**5, 0.49, "practical")
    assert len(k.tau) == 8
    assert k == c  # same 1/3-exponent, 2/3-ratio shape, no log factors
    kt = build_kink_schedule(10**5, 0.49, "theoretical")
    _, ct = build_schedule(10**5, 0.49, "theoretical")
    assert kt.tau[0] != ct.tau[0]  # log powers differ (3.0 vs 2.5)


def test_validation():
    with pytest.raises(ValueError):
        build_schedule(1, 0.49, "practical")
    with pytest.raises(ValueError):
        build_schedule(100, 0.5, "practical")
    with pytest.raises(ValueError):
        build_schedule(100, 0.49, "exact")
    with pytest.raises(ValueError):
        build_kink_schedule(1, 0.49, "practical")

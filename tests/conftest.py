"""Shared fixtures."""

import math

import pytest

from dynpricing import regret_harness
from dynpricing.demand import deterministic_value
from dynpricing.regret_harness import RegretPoint


@pytest.fixture
def power_law_regret(monkeypatch):
    """Replace simulation in sweeps with the exact regret c * n^(-1/2).

    Call the fixture with the coefficient c.  Every sweep, including one
    made through the command line, then sees the power law with zero
    standard error, which pins down the slope fit and its warnings.
    """

    def install(coefficient):
        def estimate(cells, replications, seed, workers=None):
            points = []
            for instance, _ in cells:
                n = instance.market_size
                jd = deterministic_value(
                    instance.demand, instance.inventory, instance.horizon, n
                )
                regret = coefficient / math.sqrt(n)
                points.append(RegretPoint(n, regret, 0.0, replications, jd * (1 - regret), jd))
            return points

        monkeypatch.setattr(regret_harness, "estimate_regrets", estimate)

    return install

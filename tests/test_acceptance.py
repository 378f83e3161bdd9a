"""Full-scale acceptance gates, one test per criterion.

The suite runs once at module setup (a few minutes of simulation) and
prints one PASS/FAIL line per criterion straight to the terminal, outside
pytest's capture, so the summary is visible in any log of the run.

Criterion 4 (interval containment at the benchmark configuration) is a
known failure; see the acceptance module docstring and the repository
notes for the analysis.  It is asserted at its stated bar regardless: the
red test is the honest record of where the implementation stands, and it
will flip green if a configuration satisfying both the containment bar
and the runtime budget is found.
"""

import re
import sys

import pytest

from dynpricing.acceptance import run_all

SEED = 0
WORKERS = 2


@pytest.fixture(scope="module")
def results():
    return run_all(seed=SEED, workers=WORKERS, stream=sys.__stdout__)


def _check(results, index):
    result = results[index - 1]
    assert result.index == index
    assert result.passed, f"criterion {index} ({result.title}): {result.detail}"


def test_criterion_1_closed_form_benchmark(results):
    _check(results, 1)


def test_criterion_2_regret_slope_reproduction(results):
    _check(results, 2)


def test_criterion_3_policy_ordering(results):
    _check(results, 3)


def test_criterion_4_interval_containment(results):
    _check(results, 4)


def test_criterion_5_track_transition(results):
    _check(results, 5)


def test_criterion_6_simulator_statistics(results):
    _check(results, 6)


def test_criterion_7_worst_case_bound_checks(results):
    _check(results, 7)


def test_criterion_8_bitwise_reproducibility(results):
    _check(results, 8)


def test_criterion_9_kinked_demand_variant(results):
    _check(results, 9)


def test_every_line_ends_with_its_elapsed_seconds(results):
    for result in results:
        assert re.search(r"\d\.?\d*s$", result.detail), result.detail

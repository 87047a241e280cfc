"""Reduced-scale runs of the randomized cross-verification suites."""

import numpy as np

from quotavia import EconParams, ViabilityBounds
from quotavia.econ import harvest_curve, harvest_level
from quotavia.verification import (
    monotonicity_suite,
    nash_agreement_suite,
    viability_domain_suite,
    floor_biconditional_suite,
    catch_cap_biconditional_suite,
    viability_existence_search,
)


def test_harvest_curve_matches_scalar_solve():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        params = EconParams(*np.exp(rng.uniform(np.log(0.1), np.log(10), 7)))
        xs = np.exp(rng.uniform(np.log(0.1), np.log(10), 4))
        rs = rng.uniform(0.0, 6.0, 5)
        grid = harvest_curve(params, xs, rs)
        for i, x in enumerate(xs):
            for j, r in enumerate(rs):
                worst = max(worst, abs(grid[i, j] - harvest_level(params, float(x), float(r))))
    assert worst == 0.0


def test_existence_search_canonical(symmetric_params, logistic, floors):
    assert viability_existence_search(symmetric_params, logistic, floors)
    tight = ViabilityBounds(stock_floor=1.0, harvest_floor=0.6)
    assert not viability_existence_search(symmetric_params, logistic, tight)


def test_nash_agreement_reduced():
    report = nash_agreement_suite(seed=5, instances=120)
    assert report.passed, report.line()


def test_viability_domain_equivalence_reduced():
    report = viability_domain_suite(seed=6, instances=100)
    assert report.passed, report.line()


def test_floor_biconditional_reduced():
    report = floor_biconditional_suite(seed=7, instances=400)
    assert report.passed, report.line()


def test_catch_cap_biconditional_reduced():
    report = catch_cap_biconditional_suite(seed=8, instances=400)
    assert report.passed, report.line()


def test_monotonicity_reduced():
    report = monotonicity_suite(seed=9, instances=80)
    assert report.passed, report.line()


def test_reports_render():
    report = nash_agreement_suite(seed=10, instances=20)
    line = report.line()
    assert line.startswith("PASS") and "20 instances" in line

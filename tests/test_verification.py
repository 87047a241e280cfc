"""Reduced-scale runs of the randomized cross-verification suites."""

import dataclasses
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from quotavia import EconParams, Recruitment, ViabilityBounds, verification
from quotavia.econ import (
    BOUNDARY_TOL,
    Regime,
    _nash_point,
    harvest_curve,
    regime_codes,
    unmanaged_harvest,
)
from quotavia.verification import (
    monotonicity_suite,
    nash_agreement_suite,
    viability_domain_suite,
    floor_biconditional_suite,
    catch_cap_biconditional_suite,
    viability_existence_search,
)


def _scalar_grid(params, xs, rs):
    return np.array([[_nash_point(params, float(x), float(r))[2] for r in rs] for x in xs])


def _assert_regimes_match(params, xs, rs, grid):
    """``regime_codes`` on ``harvest_curve``'s grid tags every point as the
    scalar solve does."""
    scalar = [[list(Regime).index(_nash_point(params, float(x), float(r))[3]) for r in rs]
              for x in xs]
    assert regime_codes(params, xs, rs, grid).tolist() == scalar


def _free_catch(params, x):
    """The free catch as both solves compute it: a negative or NaN optimum
    counts as 0."""
    opt1 = (params.price * x - params.alpha_1) / (2.0 * params.beta_1)
    opt2 = (params.price * x - params.alpha_2) / (2.0 * params.beta_2)
    return (opt1 if opt1 > 0.0 else 0.0) + (opt2 if opt2 > 0.0 else 0.0)


def _branch(params, x, r):
    """Which branch of the negotiation sets the harvest at (x, r)."""
    if params.unmanaged or _free_catch(params, x) <= r + BOUNDARY_TOL:
        return "non-deviating"
    q1, q2, h, _ = _nash_point(params, x, r)
    if not h > 0.0:
        return "zero"
    if q1 > 0.0 and q2 > 0.0:
        return "interior"
    return "solo-1" if q2 == 0.0 else "solo-2"


def test_harvest_curve_matches_scalar_solve():
    rng = np.random.default_rng(101)
    seen = set()
    for i in range(200):
        params = EconParams(*np.exp(rng.uniform(np.log(0.1), np.log(10), 7)))
        xs = np.exp(rng.uniform(np.log(0.1), np.log(10), 4))
        rs = rng.uniform(0.0, 6.0, 5)
        if i % 50 == 0:
            # a NaN stock has no free catch and lands 0.0; a NaN
            # recommendation falls through every branch to 0.0
            xs[0] = np.nan
            rs[-1] = np.nan
        # on the boundary of the non-deviating branch, free == r + BOUNDARY_TOL
        rs[0] = max(_free_catch(params, float(xs[1])) - BOUNDARY_TOL, 0.0)
        grid = harvest_curve(params, xs, rs)
        assert grid.tobytes() == _scalar_grid(params, xs, rs).tobytes()
        _assert_regimes_match(params, xs, rs, grid)
        seen.update(_branch(params, float(x), float(r)) for x in xs for r in rs)
    assert seen == {"non-deviating", "interior", "solo-1", "solo-2", "zero"}
    # where the scalar solve's ``> 0.0`` tests give 0.0: a NaN recommendation
    # in a single-group point, a NaN stock without management, and a free
    # catch within BOUNDARY_TOL of 0, managed and not
    for params, x, r in ((EconParams(1, 5, 1, 1, 1, 1, 2), 1.0, np.nan),
                         (EconParams(1, 5, 1, 1, 0, 0, 2), np.nan, 1.0),
                         (EconParams(1, 1, 1, 1, 1, 1, 1), 1.0 + 1e-13, 0.5),
                         (EconParams(1, 1, 1, 1, 0, 0, 1), 1.0 + 1e-13, 0.5)):
        grid = harvest_curve(params, [x], [r])
        assert grid.tobytes() == _scalar_grid(params, [x], [r]).tobytes()
        _assert_regimes_match(params, [x], [r], grid)
    # overflowing and vanishing stocks: at x = 1e308 the interior quotas
    # are NaN (inf - inf), where the scalar solve lets group 1 fish alone
    # (about 3.6, 4.1, 4.6 and 8.6 here, not 0.0)
    params = EconParams(14.6, 10.9, 18.7, 16.33, 0.1, 17.16, 0.72)
    rs = [0.0, 0.5, 1.0, 5.0]
    with np.errstate(all="ignore"):
        grid = harvest_curve(params, [1e308], rs)
        assert grid.tobytes() == _scalar_grid(params, [1e308], rs).tobytes()
        _assert_regimes_match(params, [1e308], rs, grid)
        assert grid.min() > 3.5
        xs = [1e308, 1.7e308, 1e300, 1e-300, 5e-324]
        for _ in range(20):
            params = EconParams(*np.exp(rng.uniform(np.log(0.05), np.log(20), 7)))
            rs = np.concatenate(([0.0, 1e-300, 1e300], rng.uniform(0.0, 6.0, 3)))
            grid = harvest_curve(params, xs, rs)
            assert grid.tobytes() == _scalar_grid(params, xs, rs).tobytes()
            _assert_regimes_match(params, xs, rs, grid)


# 1-D parameter columns pair the points, in one block at any size, past a
# grid block's 1 << 14 points too
@pytest.mark.parametrize("points", [1, 192, (1 << 14) + 5])
def test_harvest_curve_pointwise_matches_scalar_solve(points):
    # per-point parameters, one fishery in seven unmanaged, stocks from
    # 1e-320 to 1e308 and recommendations with NaN, 0 and inf among them
    rng = np.random.default_rng(points)
    draws = np.exp(rng.uniform(np.log(0.05), np.log(20.0), (7, points)))
    draws[4:6, rng.integers(0, 7, points) == 0] = 0.0
    xs = np.exp(rng.uniform(np.log(1e-320), np.log(1e308), points))
    xs[::5] = rng.uniform(0.1, 10.0, xs[::5].size)
    rs = rng.uniform(0.0, 6.0, points)
    rs[1::7], rs[2::11], rs[3::13] = np.nan, 0.0, np.inf
    fisheries = [EconParams(*map(float, draws[:, i])) for i in range(points)]
    params = SimpleNamespace(**{
        f.name: np.array([getattr(p, f.name) for p in fisheries])
        for f in dataclasses.fields(EconParams)})
    with np.errstate(all="ignore"):
        h = harvest_curve(params, xs, rs)
    scalar = [_nash_point(p, float(x), float(r))[2] for p, x, r in zip(fisheries, xs, rs)]
    assert h.shape == (points,)
    assert h.tobytes() == np.array(scalar).tobytes()


def test_harvest_curve_pointwise_without_points():
    params = SimpleNamespace(**{f.name: np.empty(0) for f in dataclasses.fields(EconParams)})
    assert harvest_curve(params, [], []).shape == (0,)


@pytest.mark.parametrize("rows, cols", [(0, 7), (7, 0), (0, 0), (20_000, 0)])
def test_harvest_curve_grid_without_points(rows, cols):
    # an empty axis keeps the other's length, in one block or in several
    params = EconParams(0.5, 3.0, 1.0, 0.4, 2.0, 0.3, 1.5)
    xs, rs = np.linspace(0.5, 4.0, rows), np.linspace(0.0, 3.0, cols)
    assert harvest_curve(params, xs, rs).shape == (rows, cols)


def test_harvest_curve_numpy_scalar_params_give_the_grid():
    # numpy scalars have ndim 0, so they select the grid as floats do
    values = (0.5, 3.0, 1.0, 0.4, 2.0, 0.3, 1.5)
    params = EconParams(*map(np.float64, values))
    xs, rs = [0.5, 1.0, 4.0], [0.0, 0.7]
    grid = harvest_curve(params, xs, rs)
    assert grid.shape == (3, 2)
    assert grid.tobytes() == harvest_curve(EconParams(*values), xs, rs).tobytes()


@pytest.mark.parametrize("rows, cols", [
    (11, 4096),     # several row blocks, the last one short
    (37, 1000),
    (4, 4096),      # exactly one row block
    (5, 4096),      # one row past it: two blocks
    (1, 4096),
    (4096, 1),
    (1, 1),
])
@pytest.mark.parametrize("kappas", [(2.0, 0.3), (0.0, 0.0)], ids=["managed", "unmanaged"])
def test_harvest_curve_grid_shapes(rows, cols, kappas):
    params = EconParams(0.5, 3.0, 1.0, 0.4, *kappas, 1.5)
    rng = np.random.default_rng(rows * cols)
    xs = np.exp(rng.uniform(np.log(0.5), np.log(8.0), rows))
    rs = rng.permutation(np.linspace(0.0, 8.0, cols))
    grid = harvest_curve(params, xs, rs)
    assert grid.shape == (rows, cols)
    assert grid.tobytes() == _scalar_grid(params, xs, rs).tobytes()
    _assert_regimes_match(params, xs, rs, grid)


def test_harvest_curve_bytes_are_pinned():
    # the 65 x 4096 grid viability_existence_search builds, with asymmetric
    # costs so that every block has interior, non-deviating and solo points
    params = EconParams(0.5, 3.0, 1.0, 0.4, 2.0, 0.3, 1.5)
    rec = Recruitment(1.0, 2.0)
    x_lo = 1.0
    rs = np.linspace(0.0, 3.0 * max(unmanaged_harvest(params, x_lo), 1.0), 4096)
    xs = np.concatenate(([x_lo], np.linspace(x_lo, 4.0 * rec.capacity, 65)[1:]))
    digest = hashlib.sha256(harvest_curve(params, xs, rs).tobytes()).hexdigest()
    assert digest == "e8c48cf5e5f5b2252cb39a4eda2bcf226ead5a364cafb07ae761dd51e0171279"


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


SUITES = ("nash_agreement", "viability_domain", "floor_biconditional",
          "catch_cap_biconditional", "monotonicity")


@pytest.mark.parametrize("instances, counts", [
    (None, [1000, 2000, 10000, 10000, 400]),   # each suite's own default
    (0, [0] * 5),                              # 0 is a count, not a request for the defaults
    (7, [7] * 5),
])
def test_run_all_seeds_and_counts(monkeypatch, instances, counts):
    calls = []
    for name in SUITES:
        real = getattr(verification, f"{name}_suite")
        monkeypatch.setattr(verification, f"{name}_suite",
                            lambda seed, instances=real.__defaults__[-1], name=name:
                            calls.append((name, seed, instances)))
    verification.run_all(seed=40, instances=instances)
    assert calls == [(name, 40 + i, n) for i, (name, n) in enumerate(zip(SUITES, counts))]


@pytest.mark.parametrize("name", SUITES)
def test_negative_count_reports_no_instances(name):
    report = getattr(verification, f"{name}_suite")(seed=11, instances=-3)
    assert (report.instances, report.failures, report.max_error) == (0, 0, 0.0)


def _report_fields(report):
    """Every field of a report except ``elapsed``, floats as ``float.hex``."""
    values = (getattr(report, f.name) for f in dataclasses.fields(report)
              if f.name != "elapsed")
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


# sha256 of the five report rows and of the arguments of every spied call,
# keyed by run_all's base seed; the draws are libm's, so these hold with
# numpy's AVX-512 loops on or off (CI runs this file both ways)
PINNED_REPORTS = {
    1729: "8105428e187cad70178e6e9e76792afdb50209ab899cc064acf3cc95fbd982ae",
    1: "bc6f0cdd86c6c4d73b536d463623062b07e8b3543dfd84969dd51d1f3fb7ff9f",
    2: "43c9e31ff1963f5fef3baee0e238eef4081530a56a4d1341cd140d45f6f5c649",
    3: "2e6286e8f18fa17967bfd4695eb6d25712b3faf705640fcd6d941f25546c05dc",
}

# one per suite, each called with the instance that suite drew
_SPIED = ("total_harvest", "check_viability_domain", "recruitment_meets_floor_flags",
          "catch_within_recruitment_flags", "recommendation_floor")


@pytest.mark.parametrize("seed", [verification.DEFAULT_SEED, 1, 2, 3])
def test_suite_reports_are_pinned(monkeypatch, seed):
    # each suite at 1/100 of its default count and at run_all's seed offset;
    # a change to any draw, its order, a rejection or a check moves the digest
    digest = hashlib.sha256()
    for name in _SPIED:
        real = getattr(verification, name)
        def spy(*args, real=real):
            digest.update(repr((real.__name__, args)).encode())
            return real(*args)
        monkeypatch.setattr(verification, name, spy)
    rows = []
    for i, name in enumerate(SUITES):
        suite = getattr(verification, f"{name}_suite")
        rows.append(_report_fields(suite(seed + i, max(1, suite.__defaults__[-1] // 100))))
    digest.update(repr(rows).encode())
    assert digest.hexdigest() == PINNED_REPORTS[seed], rows


def test_reports_render():
    report = nash_agreement_suite(seed=10, instances=20)
    line = report.line()
    assert line.startswith("PASS") and "20 instances" in line

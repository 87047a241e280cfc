"""Threshold curves, viability verdicts, critical levels, region table."""

import hashlib
import math
import random

import numpy as np
import pytest

from quotavia import (
    CaseOrder,
    EconParams,
    Recruitment,
    Regime,
    Region,
    ViabilityBounds,
    catch_within_recruitment_flags,
    check_viability_domain,
    classify_region,
    critical_levels,
    recommendation_ceiling,
    recommendation_floor,
    recruitment_meets_floor_flags,
    total_harvest,
    unmanaged_harvest,
)
from quotavia.econ import binding_harvest
from quotavia.viability import phase_blocks


def test_bounds_validation():
    with pytest.raises(ValueError):
        ViabilityBounds(stock_floor=0.0, harvest_floor=0.4)
    with pytest.raises(ValueError):
        ViabilityBounds(stock_floor=1.0, harvest_floor=-0.4)


class TestRecommendationCeiling:
    def test_examples(self, symmetric_params, logistic):
        assert recommendation_ceiling(symmetric_params, logistic, 1.0) == pytest.approx(0.25)
        assert recommendation_ceiling(symmetric_params, logistic, 2.0) == pytest.approx(-0.75)

    def test_ceiling_recommendation_balances_growth(self, symmetric_params, logistic):
        r = recommendation_ceiling(symmetric_params, logistic, 1.0)
        assert binding_harvest(symmetric_params, 1.0, r) == pytest.approx(logistic.rate(1.0))

    def test_blows_up_toward_zero_stock(self, symmetric_params, logistic):
        assert recommendation_ceiling(symmetric_params, logistic, 1e-9) > 1e6

    def test_rejects_bad_inputs(self, symmetric_params, logistic):
        with pytest.raises(ValueError):
            recommendation_ceiling(symmetric_params, logistic, 0.0)
        unmanaged = EconParams(1, 1, 1, 1, 0, 0, 2)
        with pytest.raises(ValueError):
            recommendation_ceiling(unmanaged, logistic, 1.0)


class TestRecommendationFloor:
    def test_examples(self, symmetric_params, floors):
        assert recommendation_floor(symmetric_params, floors, 1.0) == pytest.approx(0.1)
        at_a = recommendation_floor(symmetric_params, floors, 0.7)
        assert at_a == pytest.approx(0.4)
        assert at_a == pytest.approx(unmanaged_harvest(symmetric_params, 0.7))

    def test_higher_floor_example(self, symmetric_params):
        tight = ViabilityBounds(stock_floor=1.0, harvest_floor=0.5)
        r = recommendation_floor(symmetric_params, tight, 1.0)
        assert r == pytest.approx(0.25)
        assert binding_harvest(symmetric_params, 1.0, r) == pytest.approx(0.5)

    def test_strictly_decreasing(self, symmetric_params, floors):
        xs = np.linspace(0.2, 4.0, 50)
        vals = [recommendation_floor(symmetric_params, floors, float(x)) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_threshold_curve_outputs_are_pinned():
    # %.17g of the unmanaged and binding harvests and of the floor and
    # ceiling recommendations over seeded random parameters and stocks;
    # one deviation cost in five is 0, and stocks reach where the curves
    # turn negative
    rng = random.Random(4242)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    lines = []
    for i in range(2000):
        kappas = [log_uniform(0.01, 100), log_uniform(0.01, 100)]
        if i % 5 == 0:
            kappas[i % 2] = 0.0
        params = EconParams(log_uniform(0.1, 10), log_uniform(0.1, 10),
                            log_uniform(0.1, 10), log_uniform(0.1, 10),
                            *kappas, log_uniform(0.1, 10))
        rec = Recruitment(growth=log_uniform(0.1, 10), capacity=log_uniform(0.1, 10))
        bounds = ViabilityBounds(stock_floor=1.0, harvest_floor=log_uniform(0.01, 10))
        x = log_uniform(1e-3, 40)
        values = (unmanaged_harvest(params, x),
                  binding_harvest(params, x, rng.uniform(0.0, 5.0)),
                  recommendation_floor(params, bounds, x),
                  recommendation_ceiling(params, rec, x))
        lines.append(",".join(f"{v:.17g}" for v in values) + "\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "f9c339a86429e41900257016706cd113e9ef9910140ba7ab545222d519c59bfb"


class TestViabilityDomain:
    def test_canonical_margins(self, symmetric_params, logistic, floors):
        verdict = check_viability_domain(symmetric_params, logistic, floors)
        assert verdict.viable
        assert verdict.margin_floor_attainable == pytest.approx(0.9)
        assert verdict.margin_recruitment == pytest.approx(0.1)
        assert verdict.margin_admissible >= 0.0

    def test_floor_above_recruitment_fails(self, symmetric_params, logistic):
        verdict = check_viability_domain(
            symmetric_params, logistic, ViabilityBounds(1.0, 0.6))
        assert not verdict.viable
        assert verdict.margin_recruitment == pytest.approx(-0.1)
        assert verdict.conditions == (True, False, True)

    def test_vanishing_floor_is_viable(self, symmetric_params, logistic):
        verdict = check_viability_domain(
            symmetric_params, logistic, ViabilityBounds(1.0, 1e-9))
        assert verdict.viable


class TestCriticalLevels:
    def test_canonical_roots_match_quadratic_oracle(self, symmetric_params, logistic, floors):
        levels = critical_levels(symmetric_params, logistic, floors)
        # roots of x^2 - 2x + 0.8 (recruitment equals floor)
        b_exact = 1.0 - math.sqrt(0.2)
        c_exact = 1.0 + math.sqrt(0.2)
        # positive root of 4x^2 - 0.8x - 1.4 (floor meets unmanaged harvest)
        a_exact = (0.8 + math.sqrt(0.64 + 22.4)) / 8.0
        assert levels.a == pytest.approx(a_exact, abs=1e-9)
        assert levels.b == pytest.approx(b_exact, abs=1e-9)
        assert levels.c == pytest.approx(c_exact, abs=1e-9)
        assert levels.case_order is CaseOrder.B_BELOW_A

    def test_root_certification(self, symmetric_params, logistic, floors):
        levels = critical_levels(symmetric_params, logistic, floors)
        floor_at_a = recommendation_floor(symmetric_params, floors, levels.a)
        assert abs(floor_at_a - unmanaged_harvest(symmetric_params, levels.a)) <= 1e-8
        assert abs(logistic.rate(levels.b) - floors.harvest_floor) <= 1e-8
        assert abs(logistic.rate(levels.c) - floors.harvest_floor) <= 1e-8

    def test_degenerate_at_peak(self, symmetric_params, logistic):
        levels = critical_levels(symmetric_params, logistic,
                                 ViabilityBounds(1.0, logistic.peak_rate))
        assert levels.b == pytest.approx(1.0)
        assert levels.c == pytest.approx(1.0)
        assert levels.case_order is CaseOrder.DEGENERATE

    def test_floor_above_peak_has_no_roots(self, symmetric_params, logistic):
        levels = critical_levels(symmetric_params, logistic, ViabilityBounds(1.0, 0.6))
        assert levels.b is None and levels.c is None
        assert levels.case_order is CaseOrder.DEGENERATE

    def test_ordering_inside_viable_domains(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 40:
            params = EconParams(*np.exp(rng.uniform(np.log(0.1), np.log(10), 7)))
            rec = Recruitment(growth=float(np.exp(rng.uniform(np.log(0.2), np.log(5)))),
                              capacity=float(np.exp(rng.uniform(np.log(0.5), np.log(8)))))
            x_lo = rec.capacity * float(rng.uniform(0.2, 0.8))
            h_lo = rec.rate(x_lo) * float(rng.uniform(0.2, 0.9))
            if h_lo <= 0:
                continue
            bounds = ViabilityBounds(x_lo, h_lo)
            verdict = check_viability_domain(params, rec, bounds)
            if not verdict.viable or verdict.margin_recruitment < 1e-6:
                continue
            levels = critical_levels(params, rec, bounds)
            assert levels.b is not None and levels.c is not None
            assert levels.b < x_lo < levels.c
            if levels.a is not None:
                assert levels.a < x_lo
            checked += 1


class TestClassifyRegion:
    # harvest above (1) or below (-1) the 0.4 floor, under a recommendation
    # that it reaches (binding) or stays under
    @pytest.mark.parametrize("trend,harvest,binding,expected", [
        (1, 1, True, Region.R1_GROWING_ABOVE_FLOOR),
        (1, -1, True, Region.R2_GROWING_BELOW_FLOOR),
        (-1, 1, True, Region.R3_DECLINING_ABOVE_FLOOR),
        (-1, -1, True, Region.R4_DECLINING_BELOW_FLOOR),
        (1, 1, False, Region.R0_NON_BINDING),
        (-1, -1, False, Region.R0_NON_BINDING),
    ])
    def test_table(self, floors, trend, harvest, binding, expected):
        h = 0.6 if harvest > 0 else 0.3
        r = 0.5 * h if binding else h + 0.1
        assert classify_region(trend, h, r, floors) is expected

    def test_zero_ties_resolve_to_continuation(self, floors):
        # zero trend counts as growing, a harvest on the floor as above it
        assert classify_region(0, 0.4, 0.4, floors) is Region.R1_GROWING_ABOVE_FLOOR

    def test_binding_tolerance(self, floors):
        assert classify_region(1, 0.5 - 1e-12, 0.5, floors) is Region.R1_GROWING_ABOVE_FLOOR
        assert classify_region(1, 0.5 - 2e-12, 0.5, floors) is Region.R0_NON_BINDING

    def test_harvest_on_floor_counts_as_above(self, floors):
        assert classify_region(-1, 0.4, 0.3, floors) is Region.R3_DECLINING_ABOVE_FLOOR
        below = math.nextafter(0.4, 0.0)
        assert classify_region(-1, below, 0.3, floors) is Region.R4_DECLINING_BELOW_FLOOR

    def test_nan_harvest_never_binds(self, floors):
        assert classify_region(1, math.nan, 0.0, floors) is Region.R0_NON_BINDING


class TestBiconditionalFlags:
    def test_floor_flags_canonical(self, symmetric_params, logistic, floors):
        assert recruitment_meets_floor_flags(symmetric_params, logistic, floors, 1.0) \
            == (True, True)

    def test_floor_flags_at_upper_yield_stock(self, symmetric_params, logistic, floors):
        c = 1.0 + math.sqrt(0.2)
        left, right = recruitment_meets_floor_flags(symmetric_params, logistic, floors, c)
        assert left == right

    def test_catch_flags_canonical(self, symmetric_params, logistic):
        # recommending the recruitment still lets the catch exceed it
        assert catch_within_recruitment_flags(symmetric_params, logistic, 1.0) \
            == (False, False)
        out = total_harvest(symmetric_params, 1.0, logistic.rate(1.0))
        assert out.h == pytest.approx(2 / 3)

    def test_catch_flags_low_stock(self, symmetric_params, logistic):
        assert catch_within_recruitment_flags(symmetric_params, logistic, 0.55) \
            == (True, True)


def test_phase_blocks_stationary_point(symmetric_params, logistic, floors):
    (block,) = phase_blocks(symmetric_params, logistic, floors, [1.0], [0.25])
    assert block.x == [1.0]
    assert block.h.shape == block.sign.shape == (1, 1)
    assert block.h[0, 0] == pytest.approx(0.5)
    assert block.sign[0, 0] == 0
    assert block.unmanaged[0] == pytest.approx(1.0)
    assert block.ceiling[0] == pytest.approx(0.25)
    assert block.floor[0] == pytest.approx(0.1)


def test_phase_blocks_unprofitable_zone(symmetric_params, logistic, floors):
    (block,) = phase_blocks(symmetric_params, logistic, floors, [0.3], [0.5, 1.0])
    assert block.h.tolist() == [[0.0, 0.0]]
    assert [list(Regime)[code] for code in block.regime.ravel().tolist()] \
        == [Regime.SHUTDOWN_UNPROFITABLE] * 2


@pytest.mark.parametrize("xs, rs, kappas", [
    ([1.0, 0.0], [0.5], (1.0, 1.0)),
    ([1.0, float("nan")], [0.5], (1.0, 1.0)),
    ([1.0], [0.5, -0.1], (1.0, 1.0)),
    ([1.0], [float("nan"), 0.5], (1.0, 1.0)),
    ([1.0], [0.5], (0.0, 0.0)),
], ids=["zero stock", "nan stock", "negative r", "nan r", "unmanaged"])
def test_phase_blocks_check_inputs(logistic, floors, xs, rs, kappas):
    params = EconParams(1.0, 1.0, 1.0, 1.0, *kappas, 2.0)
    with pytest.raises(ValueError):
        list(phase_blocks(params, logistic, floors, xs, rs))

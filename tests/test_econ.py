"""Closed-form negotiation: frozen examples, regime dispatch, invariants."""

import dataclasses
import hashlib
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotavia import (
    EconParams,
    Recruitment,
    Regime,
    binding_harvest,
    profit,
    realized_unmanaged_harvest,
    total_harvest,
    unmanaged_harvest,
)
from quotavia.econ import (
    BOUNDARY_TOL,
    _nash_point,
    harvest_curve,
    harvest_level,
    regime_codes,
)


def test_econ_params_validation():
    with pytest.raises(ValueError):
        EconParams(-1, 1, 1, 1, 1, 1, 2)
    with pytest.raises(ValueError):
        EconParams(1, 1, 0, 1, 1, 1, 2)
    with pytest.raises(ValueError):
        EconParams(1, 1, 1, 1, -0.1, 1, 2)
    with pytest.raises(ValueError):
        EconParams(1, 1, 1, 1, 1, 1, 0)
    assert EconParams(1, 1, 1, 1, 0, 0, 2).unmanaged


# EconParams's derived terms, as formulas of its seven fields in their order
_TERMS = {
    "weight": lambda a1, a2, b1, b2, k1, k2, p: b1 * k2 + b2 * k1,
    "beta_product": lambda a1, a2, b1, b2, k1, k2, p: b1 * b2,
    "cost_term": lambda a1, a2, b1, b2, k1, k2, p: 0.5 * (a1 * b2 + a2 * b1),
    "price_term": lambda a1, a2, b1, b2, k1, k2, p: 0.5 * (b1 + b2) * p,
    "two_beta_1": lambda a1, a2, b1, b2, k1, k2, p: 2.0 * b1,
    "two_beta_2": lambda a1, a2, b1, b2, k1, k2, p: 2.0 * b2,
}
_FIELDS = ("alpha_1", "alpha_2", "beta_1", "beta_2", "kappa_1", "kappa_2", "price")


@pytest.mark.parametrize("values", [
    (0.3, 0.7, 1.1, 0.9, 2.3, 0.6, 1.7),
    (3, 1, 2, 5, 7, 0, 3),
    tuple(map(np.float64, (0.3, 0.7, 1.1, 0.9, 2.3, 0.6, 1.7))),
], ids=["float", "int", "float64"])
def test_econ_params_derives_its_terms(values):
    def assert_terms(params, values):
        for name, term in _TERMS.items():
            assert struct.pack("<d", getattr(params, name)) == struct.pack("<d", term(*values))

    params = EconParams(*values)
    assert_terms(params, values)
    # dataclasses.replace runs __post_init__ again, so the terms follow
    for i, name in enumerate(_FIELDS):
        moved = values[:i] + (values[i] * 1.3,) + values[i + 1:]
        assert_terms(dataclasses.replace(params, **{name: moved[i]}), moved)
    # the terms take no part in ==, hash or repr, and cannot be set
    twin = EconParams(*values)
    for name in _TERMS:
        object.__setattr__(twin, name, -1.0)
    assert twin == params and hash(twin) == hash(params) and repr(twin) == repr(params)
    assert "weight" not in repr(params)
    for name in _TERMS:
        with pytest.raises(TypeError):
            EconParams(*values, **{name: 1.0})


@pytest.mark.parametrize("betas, kappas, match", [
    ((1e-200, 1e-200), (1e-200, 1e-200), r"beta_1 \* beta_2"),
    ((1e-200, 1e-200), (1.0, 1.0), r"beta_1 \* beta_2"),
    ((1.0, 1.0), (1e-320, 1e-320), "unless both kappas are 0"),
    ((1.0, 1.0), (0.0, 1e-320), "unless both kappas are 0"),
], ids=["all-tiny", "betas-tiny", "kappas-subnormal", "one-kappa-subnormal"])
def test_underflowing_products_rejected(betas, kappas, match):
    # each product must be a normal float, so that "unmanaged" means
    # exactly "both kappas are 0" and no closed form divides by zero
    with pytest.raises(ValueError, match=match):
        EconParams(1.0, 1.0, *betas, *kappas, 2.0)
    assert EconParams(1.0, 1.0, 1e-150, 1e-150, 0.0, 0.0, 2.0).unmanaged
    assert not EconParams(1.0, 1.0, 1.0, 1.0, 0.0, 1e-300, 2.0).unmanaged


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", _FIELDS)
def test_non_finite_field_rejected(name, value):
    # an infinite beta_1 with both kappas 0 would make the weight NaN, and
    # the unmanaged fishery would compute as a deviating one
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        EconParams(**{**dict(zip(_FIELDS, (1, 1, 1, 1, 0, 0, 2))), name: value})


class TestRecruitment:
    def test_examples(self, logistic):
        assert logistic.rate(0.0) == 0.0
        assert logistic.rate(1.0) == pytest.approx(0.5)
        assert logistic.rate(2.0) == pytest.approx(0.0)
        assert logistic.peak_stock == pytest.approx(1.0)
        assert logistic.peak_rate == pytest.approx(0.5)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            Recruitment(growth=0.0, capacity=2.0)
        with pytest.raises(ValueError):
            Recruitment(growth=1.0, capacity=-2.0)

    @pytest.mark.parametrize("growth, capacity", [
        (1e-320, 2.0),            # subnormal peak rate
        (1e-200, 1e-200),         # peak rate underflows to zero
        (1.0, float("inf")),      # peak rate is NaN
        (float("inf"), 1.0),      # peak rate overflows
        (10.0, 1e308),
        (1000.0, 2.75e305),       # finite peak, but rate(capacity) is NaN
    ])
    def test_unusable_scale_rejected(self, growth, capacity):
        with pytest.raises(ValueError, match="peak recruitment"):
            Recruitment(growth=growth, capacity=capacity)

    def test_shape_holds_on_grid(self, logistic):
        xs = np.linspace(1e-3, logistic.capacity, 257)
        vals = np.array([logistic.rate(float(x)) for x in xs])
        below = xs < logistic.peak_stock
        assert np.all(vals[below] > 0.0)
        assert np.all(np.diff(vals[below]) > 0.0)
        above = xs > logistic.peak_stock
        assert np.all(np.diff(vals[above]) < 0.0)


class TestUnmanagedHarvest:
    def test_examples(self, symmetric_params):
        assert unmanaged_harvest(symmetric_params, 1.0) == pytest.approx(1.0)
        assert unmanaged_harvest(symmetric_params, 0.5) == pytest.approx(0.0)
        assert unmanaged_harvest(symmetric_params, 0.4) == pytest.approx(-0.2)

    def test_bad_stock_rejected(self, symmetric_params):
        with pytest.raises(ValueError):
            unmanaged_harvest(symmetric_params, 0.0)

    def test_clamped_variant_drops_idle_group(self):
        # group 2 unprofitable: it stays ashore instead of fishing negatively
        params = EconParams(0.1, 10.0, 1.0, 10.0, 1.0, 1.0, 2.0)
        assert unmanaged_harvest(params, 1.0) == pytest.approx(0.55)
        assert realized_unmanaged_harvest(params, 1.0) == pytest.approx(0.95)


class TestBindingHarvest:
    def test_examples(self, symmetric_params):
        assert binding_harvest(symmetric_params, 1.0, 0.0) == pytest.approx(1 / 3)
        assert binding_harvest(symmetric_params, 1.0, 0.25) == pytest.approx(0.5)
        # joins the unmanaged level exactly at the regime boundary
        assert binding_harvest(symmetric_params, 1.0, 1.0) == pytest.approx(1.0)

    def test_requires_deviation_costs(self):
        params = EconParams(1, 1, 1, 1, 0, 0, 2)
        with pytest.raises(ValueError):
            binding_harvest(params, 1.0, 0.5)

    def test_rejects_bad_domain(self, symmetric_params):
        with pytest.raises(ValueError):
            binding_harvest(symmetric_params, 0.0, 0.5)
        with pytest.raises(ValueError):
            binding_harvest(symmetric_params, 1.0, -0.1)

    def test_monotone_in_recommendation_and_stock(self, symmetric_params):
        rs = np.linspace(0.0, 2.0, 40)
        hs = [binding_harvest(symmetric_params, 1.3, float(r)) for r in rs]
        assert all(b > a for a, b in zip(hs, hs[1:]))
        xs = np.linspace(0.2, 5.0, 40)
        hs = [binding_harvest(symmetric_params, float(x), 0.7) for x in xs]
        assert all(b > a for a, b in zip(hs, hs[1:]))


class TestTotalHarvest:
    def test_binding_example(self, symmetric_params):
        out = total_harvest(symmetric_params, 1.0, 0.5)
        assert out.regime is Regime.BINDING
        assert out.h == pytest.approx(2 / 3)

    def test_non_binding_example(self, symmetric_params):
        out = total_harvest(symmetric_params, 1.0, 2.0)
        assert out.regime is Regime.NON_BINDING
        assert out.h == pytest.approx(1.0)

    def test_shutdown_example(self, symmetric_params):
        out = total_harvest(symmetric_params, 0.4, 10.0)
        assert out.regime is Regime.SHUTDOWN_UNPROFITABLE
        assert out.h == 0.0

    def test_boundary_resolves_non_binding(self, symmetric_params):
        r_hat = unmanaged_harvest(symmetric_params, 1.0)
        out = total_harvest(symmetric_params, 1.0, r_hat)
        assert out.regime is Regime.NON_BINDING
        assert out.h == pytest.approx(r_hat)

    def test_quotas_sum_to_total(self, symmetric_params):
        rng = np.random.default_rng(7)
        for _ in range(500):
            params = EconParams(*np.exp(rng.uniform(np.log(0.1), np.log(10), 7)))
            x = float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
            r = float(rng.uniform(0.0, 3.0))
            out = total_harvest(params, x, r)
            assert out.h == pytest.approx(out.q_1 + out.q_2, abs=1e-12)
            assert out.q_1 >= 0.0 and out.q_2 >= 0.0
            if out.regime is Regime.NON_BINDING:
                assert out.h == pytest.approx(
                    realized_unmanaged_harvest(params, x), abs=1e-12)
            # no restricted shutdown occurs in this draw; one may land a
            # harvest up to BOUNDARY_TOL (test_restricted_shutdown_lands_within_tolerance)
            if out.regime in (Regime.SHUTDOWN_UNPROFITABLE, Regime.SHUTDOWN_RESTRICTED):
                assert out.h == 0.0

    def test_continuity_at_regime_boundary(self, symmetric_params):
        delta = 1e-6
        r_hat = unmanaged_harvest(symmetric_params, 1.0)
        below = harvest_level(symmetric_params, 1.0, r_hat - delta)
        above = harvest_level(symmetric_params, 1.0, r_hat + delta)
        assert abs(below - above) < 1e-4

    def test_unmanaged_params_ignore_recommendation(self):
        params = EconParams(1, 1, 1, 1, 0, 0, 2)
        for r in (0.0, 0.3, 5.0):
            assert harvest_level(params, 1.0, r) == pytest.approx(1.0)

    def test_restricted_shutdown_is_reachable(self):
        # free fishing lands 2e-12, just above BOUNDARY_TOL; steep deviation
        # costs at r = 0 pull the agreed total to 2e-18, below it
        params = EconParams(1, 1, 1, 1, 1e6, 1e6, 1)
        *_, h, regime = _nash_point(params, 1 + 4e-12, 0.0)
        assert regime is Regime.SHUTDOWN_RESTRICTED
        assert 0.0 < h <= 1e-12

    def test_restricted_shutdown_lands_within_tolerance(self):
        # a restricted shutdown lands at most BOUNDARY_TOL, not exactly 0,
        # through the public solve and the array kernel alike
        params = EconParams(1, 1, 1, 1, 1e6, 1e6, 1)
        out = total_harvest(params, 1 + 4e-12, 0.0)
        assert out.regime is Regime.SHUTDOWN_RESTRICTED
        assert 0.0 <= out.h <= BOUNDARY_TOL
        assert harvest_curve(params, [1 + 4e-12], [0.0])[0, 0] == out.h



def _nash_grid():
    """Seeded (params, x, r) points spanning every branch of _nash_point:
    one in ten unmanaged, asymmetric costs for the single-active branches,
    plus the restricted-shutdown point."""
    rng = random.Random(2024)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    points = [(EconParams(1, 1, 1, 1, 1e6, 1e6, 1), 1 + 4e-12, 0.0)]
    for i in range(2000):
        kappas = ((0.0, 0.0) if i % 10 == 0
                  else (log_uniform(0.01, 100), log_uniform(0.01, 100)))
        params = EconParams(log_uniform(0.1, 10), log_uniform(0.1, 10),
                            log_uniform(0.1, 10), log_uniform(0.1, 10),
                            *kappas, log_uniform(0.1, 10))
        points.append((params, log_uniform(0.05, 20), rng.uniform(0.0, 5.0)))
    return points


def test_nash_point_outputs_are_pinned():
    lines = []
    seen = set()
    for params, x, r in _nash_grid():
        q1, q2, h, regime = _nash_point(params, x, r)
        seen.add(regime)
        if regime is Regime.BINDING and (q1 == 0.0) != (q2 == 0.0):
            seen.add("group 1 alone" if q2 == 0.0 else "group 2 alone")
        lines.append(f"{q1:.17g},{q2:.17g},{h:.17g},{regime.value}\n")
    assert seen == {*Regime, "group 1 alone", "group 2 alone"}
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "e287f2977974c8fe3c868e23ced35e1e00e87f13e6b38db7f83bf5d93de59825"


def test_regime_codes_match_nash_point_on_pinned_draw():
    # each point its own fishery, as a 1x1 grid; one in ten unmanaged, where
    # every point is non-deviating
    points = _nash_grid()
    codes = [regime_codes(p, [x], [r], harvest_curve(p, [x], [r])).item()
             for p, x, r in points]
    scalar = [_nash_point(p, x, r)[3] for p, x, r in points]
    assert [list(Regime)[code] for code in codes] == scalar
    assert set(scalar) == set(Regime)
    assert {regime for (p, _, _), regime in zip(points, scalar)
            if p.unmanaged} == {Regime.NON_BINDING, Regime.SHUTDOWN_UNPROFITABLE}


class TestIndividualQuotas:
    def test_symmetric_binding(self, symmetric_params):
        out = total_harvest(symmetric_params, 1.0, 0.0)
        assert out.q_1 == pytest.approx(1 / 6)
        assert out.q_2 == pytest.approx(1 / 6)

    def test_symmetric_non_binding(self, symmetric_params):
        out = total_harvest(symmetric_params, 1.0, 5.0)
        assert (out.q_1, out.q_2) == (pytest.approx(0.5), pytest.approx(0.5))

    def test_asymmetric_clamps_idle_group(self):
        params = EconParams(1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0)
        out = total_harvest(params, 1.0, 5.0)
        assert out.q_1 == pytest.approx(0.5)
        assert out.q_2 == 0.0


class TestProfit:
    def test_equilibrium_value(self, symmetric_params):
        value = profit(symmetric_params, 1, 1 / 6, 1 / 6, 1.0, 0.0)
        assert value == pytest.approx(1 / 36)

    def test_idle_group_earns_nothing(self, symmetric_params):
        assert profit(symmetric_params, 1, 0.0, 0.0, 3.0, 1.0) == 0.0

    def test_deviation_term_inactive_below_recommendation(self, symmetric_params):
        value = profit(symmetric_params, 1, 0.2, 0.2, 1.0, 1.0)
        assert value == pytest.approx(0.16)

    def test_validation(self, symmetric_params):
        with pytest.raises(ValueError):
            profit(symmetric_params, 3, 0.1, 0.1, 1.0, 0.0)
        with pytest.raises(ValueError):
            profit(symmetric_params, 1, -0.1, 0.1, 1.0, 0.0)
        with pytest.raises(ValueError):
            profit(symmetric_params, 1, 0.1, 0.1, 0.0, 0.0)


_positive = st.floats(min_value=0.1, max_value=10.0,
                      allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(a1=_positive, a2=_positive, b1=_positive, b2=_positive,
       k1=_positive, k2=_positive, p=_positive, x=_positive,
       r=st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
def test_harvest_never_exceeds_unmanaged_catch(a1, a2, b1, b2, k1, k2, p, x, r):
    params = EconParams(a1, a2, b1, b2, k1, k2, p)
    out = total_harvest(params, x, r)
    assert out.h <= max(realized_unmanaged_harvest(params, x), 0.0) + 1e-9


@settings(max_examples=200, deadline=None)
@given(a=_positive, b=_positive, k1=_positive, k2=_positive, p=_positive,
       x=_positive, r=st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
def test_binding_flag_observable(a, b, k1, k2, p, x, r):
    # realized catch reaches the recommendation exactly when it binds
    params = EconParams(a, a, b, b, k1, k2, p)
    gap = unmanaged_harvest(params, x) - r
    if abs(gap) <= 1e-9 * max(1.0, abs(gap) + r):
        return
    bound_gap = binding_harvest(params, x, r) - r
    assert (gap > 0.0) == (bound_gap > 0.0)

"""Recommendation strategies: laws, rule table, moratorium, firewall."""

import inspect

import pytest

from quotavia import (
    ControllerState,
    Maturity,
    Region,
    Strategy,
    StrategySettings,
    classify_region,
    conservative_recommend,
    ichthyocentric_recommend,
    qualitative_step,
)


def make_state(floor_step=5e-4, exit_intervals=5, **kwargs):
    settings = StrategySettings(Strategy.QUALITATIVE, rate=0.1, floor_step=floor_step,
                                moratorium_exit_intervals=exit_intervals)
    defaults = dict(recommendation=0.5, maturity=Maturity.MATURE)
    defaults.update(kwargs)
    return ControllerState(settings, floor_step, **defaults)


R0, R1, R2, R3, R4 = Region


class TestClosedFormLaws:
    def test_ichthyocentric(self, logistic):
        assert ichthyocentric_recommend(logistic, 1.0) == pytest.approx(0.5)
        assert ichthyocentric_recommend(logistic, 0.0) == 0.0
        assert ichthyocentric_recommend(logistic, 2.0) == 0.0
        with pytest.raises(ValueError):
            ichthyocentric_recommend(logistic, -1.0)

    def test_conservative(self, symmetric_params, floors):
        assert conservative_recommend(symmetric_params, floors, 1.0) == pytest.approx(0.1)
        assert conservative_recommend(symmetric_params, floors, 2.0) == 0.0
        assert conservative_recommend(symmetric_params, floors, 0.7) == pytest.approx(0.4)


class TestQualitativeRules:
    def test_non_binding_decreases(self):
        state = make_state(recommendation=1.2)
        qualitative_step(state, R0)
        assert state.recommendation == pytest.approx(1.2 / 1.1)

    def test_growing_above_floor_increases(self):
        state = make_state(recommendation=0.5)
        qualitative_step(state, R1)
        assert state.recommendation == pytest.approx(0.55)

    def test_growing_below_floor_increases(self):
        state = make_state(recommendation=0.5)
        qualitative_step(state, R2)
        assert state.recommendation == pytest.approx(0.55)

    def test_mature_decline_above_floor_decreases(self):
        state = make_state(recommendation=0.5)
        qualitative_step(state, R3)
        assert state.recommendation == pytest.approx(0.5 / 1.1)

    def test_mature_decline_below_floor_starts_moratorium(self):
        state = make_state(recommendation=0.5)
        qualitative_step(state, R4)
        assert state.moratorium
        assert state.recommendation == 0.0

    def test_emerging_decline_below_floor_increases(self):
        state = make_state(recommendation=0.5, maturity=Maturity.EMERGING)
        qualitative_step(state, R4)
        assert not state.moratorium
        assert state.recommendation == pytest.approx(0.55)

    def test_emerging_decline_above_floor_decreases(self):
        state = make_state(recommendation=0.5, maturity=Maturity.EMERGING)
        qualitative_step(state, R3)
        assert state.recommendation == pytest.approx(0.5 / 1.1)

    def test_maturity_flips_only_in_growing_above_floor(self):
        state = make_state(maturity=Maturity.EMERGING)
        qualitative_step(state, R2)
        assert state.maturity is Maturity.EMERGING
        qualitative_step(state, R1)
        assert state.maturity is Maturity.MATURE

    def test_floor_step_lets_recommendation_leave_zero(self):
        state = make_state(recommendation=0.0, floor_step=1e-3)
        qualitative_step(state, R1)
        assert state.recommendation == pytest.approx(1e-3)

    def test_harvest_exactly_on_floor_counts_as_above(self, floors):
        state = make_state(recommendation=0.5)
        region = classify_region(-1, floors.harvest_floor, floors.harvest_floor, floors)
        qualitative_step(state, region)
        assert region is R3
        assert not state.moratorium


class TestMoratorium:
    def test_exit_requires_consecutive_growth(self):
        state = make_state(moratorium=True, recommendation=0.0, exit_intervals=3)
        for region in (R1, R2, R4, R2, R1):
            qualitative_step(state, region)
            assert state.moratorium
        qualitative_step(state, R2)
        assert not state.moratorium

    def test_rules_frozen_during_moratorium(self):
        state = make_state(moratorium=True, recommendation=0.0)
        for region in (R0, R3, R4):
            qualitative_step(state, region)
        assert state.recommendation == 0.0
        assert state.moratorium


def test_information_firewall():
    # the qualitative rules see the phase region only (trend sign, floor and
    # binding comparisons): the stock is not among their inputs
    assert list(inspect.signature(qualitative_step).parameters) == ["state", "region"]


def test_state_validation():
    # the controller's settings are validated where a scenario sets them
    for bad in (dict(initial_recommendation=-0.1), dict(rate=0.0),
                dict(moratorium_exit_intervals=0), dict(floor_step=-1.0),
                dict(floor_step=float("nan")), dict(initial_maturity="mature"),
                dict(initial_trend=5), dict(initial_trend=float("nan"))):
        with pytest.raises(ValueError):
            StrategySettings(Strategy.QUALITATIVE, **bad)
    with pytest.raises(ValueError):
        StrategySettings("qualitative")
    assert StrategySettings(Strategy.QUALITATIVE, floor_step=0.0).floor_step == 0.0

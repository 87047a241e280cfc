"""Recommendation strategies: laws, rule table, moratorium, firewall."""

import dataclasses

import pytest

from quotavia import (
    ControllerState,
    Maturity,
    Observation,
    Strategy,
    StrategySettings,
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


def obs(trend=1, harvest=0.6, binding=True):
    return Observation(trend_sign=trend, harvest=harvest, binding=binding)


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
    def test_non_binding_decreases(self, floors):
        state = make_state(recommendation=1.2)
        qualitative_step(state, obs(binding=False), floors)
        assert state.recommendation == pytest.approx(1.2 / 1.1)

    def test_growing_above_floor_increases(self, floors):
        state = make_state(recommendation=0.5)
        qualitative_step(state, obs(trend=1, harvest=0.6), floors)
        assert state.recommendation == pytest.approx(0.55)

    def test_growing_below_floor_increases(self, floors):
        state = make_state(recommendation=0.5)
        qualitative_step(state, obs(trend=1, harvest=0.3), floors)
        assert state.recommendation == pytest.approx(0.55)

    def test_mature_decline_above_floor_decreases(self, floors):
        state = make_state(recommendation=0.5)
        qualitative_step(state, obs(trend=-1, harvest=0.6), floors)
        assert state.recommendation == pytest.approx(0.5 / 1.1)

    def test_mature_decline_below_floor_starts_moratorium(self, floors):
        state = make_state(recommendation=0.5)
        qualitative_step(state, obs(trend=-1, harvest=0.3), floors)
        assert state.moratorium
        assert state.recommendation == 0.0

    def test_emerging_decline_below_floor_increases(self, floors):
        state = make_state(recommendation=0.5, maturity=Maturity.EMERGING)
        qualitative_step(state, obs(trend=-1, harvest=0.3), floors)
        assert not state.moratorium
        assert state.recommendation == pytest.approx(0.55)

    def test_emerging_decline_above_floor_decreases(self, floors):
        state = make_state(recommendation=0.5, maturity=Maturity.EMERGING)
        qualitative_step(state, obs(trend=-1, harvest=0.6), floors)
        assert state.recommendation == pytest.approx(0.5 / 1.1)

    def test_maturity_flips_only_in_growing_above_floor(self, floors):
        state = make_state(maturity=Maturity.EMERGING)
        qualitative_step(state, obs(trend=1, harvest=0.3), floors)
        assert state.maturity is Maturity.EMERGING
        qualitative_step(state, obs(trend=1, harvest=0.6), floors)
        assert state.maturity is Maturity.MATURE

    def test_floor_step_lets_recommendation_leave_zero(self, floors):
        state = make_state(recommendation=0.0, floor_step=1e-3)
        qualitative_step(state, obs(trend=1, harvest=0.6), floors)
        assert state.recommendation == pytest.approx(1e-3)

    def test_harvest_exactly_on_floor_counts_as_above(self, floors):
        state = make_state(recommendation=0.5)
        qualitative_step(state, obs(trend=-1, harvest=floors.harvest_floor), floors)
        assert not state.moratorium


class TestMoratorium:
    def test_exit_requires_consecutive_growth(self, floors):
        state = make_state(moratorium=True, recommendation=0.0, exit_intervals=3)
        for trend in (1, 1, -1, 1, 1):
            qualitative_step(state, obs(trend=trend, harvest=0.0), floors)
            assert state.moratorium
        qualitative_step(state, obs(trend=1, harvest=0.0), floors)
        assert not state.moratorium

    def test_rules_frozen_during_moratorium(self, floors):
        state = make_state(moratorium=True, recommendation=0.0)
        qualitative_step(state, obs(trend=-1, harvest=0.0, binding=False), floors)
        assert state.recommendation == 0.0
        assert state.moratorium


def test_information_firewall():
    # the qualitative rules see trend signs and floor comparisons only: the
    # stock is not among the observable fields
    fields = [f.name for f in dataclasses.fields(Observation)]
    assert fields == ["trend_sign", "harvest", "binding"]
    assert "stock" not in fields


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

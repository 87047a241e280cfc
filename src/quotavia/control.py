"""Closed-loop recommendation strategies.

Three interchangeable controllers produce a catch recommendation from the
observable state: a purely resource-based rule (recommend the recruitment),
an economically conservative rule (recommend just enough for the harvest
floor), and a qualitative rule table that reads only trend signs and
threshold comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .econ import EconParams, Recruitment
from .viability import (EMERGING, MATURE, R0, R1, R2, R3, R4, Maturity, Region,
                         ViabilityBounds, recommendation_floor)

__all__ = [
    "Strategy",
    "StrategySettings",
    "ControllerState",
    "ControllerArrays",
    "ichthyocentric_recommend",
    "conservative_recommend",
    "qualitative_step",
    "qualitative_steps",
]


class Strategy(Enum):
    ICHTHYOCENTRIC = "ichthyocentric"
    CONSERVATIVE = "conservative"
    QUALITATIVE = "qualitative"


# Bound once, as econ binds Regime: a member lookup on the Enum class costs
# about ten times a module-name lookup, and every decision makes one.
ICHTHYOCENTRIC, CONSERVATIVE, QUALITATIVE = Strategy


@dataclass(frozen=True)
class StrategySettings:
    """Controller seed carried by a scenario.

    ``initial_recommendation = None`` lets the qualitative controller start
    from half the realized unmanaged catch.  ``initial_trend`` seeds the
    first trend observation; when set, the qualitative controller decides
    already at t = 0 (a fishery with a pre-model history), otherwise its
    first decision waits for one measured control interval.
    """

    strategy: Strategy
    rate: float = 0.05                       # multiplicative step per control interval
    floor_step: float | None = None          # None -> 1e-3 * peak recruitment
    initial_recommendation: float | None = None
    initial_maturity: Maturity = EMERGING
    initial_trend: int | None = None
    moratorium_exit_intervals: int = 5       # growing intervals that lift a moratorium

    def __post_init__(self) -> None:
        # the typed form of each parsed field's check in scenario._SCHEMA
        if not isinstance(self.strategy, Strategy):
            raise ValueError(f"expected Strategy, got {self.strategy!r}")
        if not isinstance(self.initial_maturity, Maturity):
            raise ValueError(f"expected Maturity, got {self.initial_maturity!r}")
        if self.initial_trend not in (None, 1, -1):
            raise ValueError(f"expected trend, got {self.initial_trend!r}")
        if not self.rate > 0.0:
            raise ValueError("rate must be positive")
        if self.floor_step is not None and not self.floor_step >= 0.0:
            raise ValueError("floor_step must be non-negative")
        if self.initial_recommendation is not None and self.initial_recommendation < 0.0:
            raise ValueError("initial_recommendation must be non-negative")
        if self.moratorium_exit_intervals < 1:
            raise ValueError("moratorium_exit_intervals must be at least 1")


@dataclass
class ControllerState:
    """Mutable state of one controller, owned by a single simulation run."""

    settings: StrategySettings
    floor_step: float               # additive minimum increase, lets r leave 0
    recommendation: float = 0.0
    maturity: Maturity = EMERGING
    moratorium: bool = False
    growth_streak: int = 0


def ichthyocentric_recommend(rec: Recruitment, x: float) -> float:
    """Recommend exactly the estimated recruitment (clamped to zero above
    capacity, since recommendations cannot be negative)."""
    if x < 0.0:
        raise ValueError("stock must be non-negative")
    return max(rec.rate(x), 0.0)


def conservative_recommend(params: EconParams, bounds: ViabilityBounds, x: float) -> float:
    """Recommend the smallest value that secures the harvest floor."""
    return max(recommendation_floor(params, bounds, x), 0.0)


def qualitative_step(state: ControllerState, region: Region) -> ControllerState:
    """Advance the qualitative rule table by one control interval.

    The controller reads the phase region only, never the stock: the
    information firewall is the signature.  During a moratorium nothing
    moves until the stock has grown (R1 or R2) for
    ``moratorium_exit_intervals`` consecutive intervals.  Otherwise a
    non-binding recommendation (R0) and a catch above the floor in a
    declining stock (R3) lower the recommendation; a catch below the floor
    in a declining stock (R4) closes a mature fishery; every other region
    raises it, and the fishery turns mature on first reaching R1.
    """
    if state.moratorium:
        state.growth_streak = state.growth_streak + 1 if region is R1 or region is R2 else 0
        if state.growth_streak >= state.settings.moratorium_exit_intervals:
            state.moratorium = False
            state.growth_streak = 0
    elif region is R0 or region is R3:
        state.recommendation /= 1.0 + state.settings.rate
    elif region is R4 and state.maturity is MATURE:
        state.moratorium = True
        state.recommendation = 0.0
        state.growth_streak = 0
    else:
        if region is R1:
            state.maturity = MATURE
        state.recommendation += max(state.settings.rate * state.recommendation, state.floor_step)
    return state


@dataclass
class ControllerArrays:
    """The ``ControllerState`` of many cells, one array entry per cell: the
    controllers of a lockstep ensemble (``engine.sweep``)."""

    rate: np.ndarray
    floor_step: np.ndarray
    exit_intervals: np.ndarray
    recommendation: np.ndarray
    mature: np.ndarray
    moratorium: np.ndarray
    growth_streak: np.ndarray

    @classmethod
    def stack(cls, states: list[ControllerState]) -> "ControllerArrays":
        def column(read, dtype):
            return np.array([read(s) for s in states], dtype=dtype)
        return cls(column(lambda s: s.settings.rate, float),
                   column(lambda s: s.floor_step, float),
                   column(lambda s: s.settings.moratorium_exit_intervals, np.int64),
                   column(lambda s: s.recommendation, float),
                   column(lambda s: s.maturity is MATURE, bool),
                   column(lambda s: s.moratorium, bool),
                   column(lambda s: s.growth_streak, np.int64))


def qualitative_steps(states: ControllerArrays, deciding: np.ndarray,
                      region: np.ndarray) -> None:
    """:func:`qualitative_step` for every cell where ``deciding`` is set, as
    masked updates; ``region`` holds each cell's ``Region`` index
    (``viability.region_codes``).  Each branch of the rule table is a mask
    of the cells that take it, and its update runs the scalar operations,
    so every cell moves as its own ``qualitative_step`` would move it."""
    rec, streak, moratorium = states.recommendation, states.growth_streak, states.moratorium
    held = deciding & moratorium
    free = deciding & ~moratorium
    # in a moratorium: count the growing intervals, lift it after enough
    np.copyto(streak, np.where((region == 1) | (region == 2), streak + 1, 0), where=held)
    lifted = held & (streak >= states.exit_intervals)
    moratorium[lifted] = False
    streak[lifted] = 0
    # R0 and R3 lower the recommendation
    lower = free & ((region == 0) | (region == 3))
    np.copyto(rec, rec / (1.0 + states.rate), where=lower)
    # R4 closes a mature fishery
    close = free & (region == 4) & states.mature
    moratorium[close] = True
    rec[close] = 0.0
    streak[close] = 0
    # every other region raises it, and R1 matures the fishery
    grow = free & ~lower & ~close
    states.mature[grow & (region == 1)] = True
    step = states.rate * rec
    np.copyto(rec, rec + np.where(states.floor_step > step, states.floor_step, step), where=grow)

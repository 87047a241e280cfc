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

from .econ import EconParams, Recruitment
from .viability import (EMERGING, MATURE, R0, R1, R2, R3, R4, Maturity, Region,
                         ViabilityBounds, recommendation_floor)

__all__ = [
    "Strategy",
    "StrategySettings",
    "ControllerState",
    "ichthyocentric_recommend",
    "conservative_recommend",
    "qualitative_step",
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


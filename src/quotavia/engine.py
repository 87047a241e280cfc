"""Time integration of the managed stock with event detection.

The stock follows ``dx/dt = growth(x) - harvest(x, r)``.  The recommendation
``r`` is piecewise constant between controller decisions; the negotiated
harvest reacts to the stock instantaneously, so the integrator re-solves the
negotiation at every Runge-Kutta stage; the first stage reuses the solve at
the stock itself that is recorded for the step's sample.  Violations of the
viability floors, region crossings, moratorium transitions and extinction
are recorded as time-stamped events.  A step that takes the stock to or
below 0 sets it to exactly 0 and logs one extinction event; the stock then
stays at 0, where the negotiation lands no catch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .control import (
    ControllerState,
    Strategy,
    StrategySettings,
    conservative_recommend,
    ichthyocentric_recommend,
    qualitative_step,
)
from .econ import (
    EconParams,
    Recruitment,
    Regime,
    _nash_point,
    realized_unmanaged_harvest,
)
from .viability import (
    Maturity,
    Region,
    ViabilityBounds,
    check_viability_domain,
    classify_region,
)

__all__ = [
    "MAX_STEPS",
    "SimConfig",
    "Sample",
    "Event",
    "TrajectoryRecord",
    "CellResult",
    "simulate",
    "sweep",
]

# Deadband below which a floor comparison does not flip the viability flag;
# keeps an exactly-on-the-floor trajectory from flickering events.
_VIABILITY_TOL = 1e-9

# Step budget of one simulation, horizon / dt: 50 times the 20,000 steps of
# the shipped scenarios.  A run that long takes several seconds, and at
# record_stride 1 its samples take about 265 MB (measured on canonical.ini);
# a larger horizon / dt is refused when the configuration is built, before
# anything is allocated.
MAX_STEPS = 1_000_000

EVENT_VIOLATION = "ViabilityViolation"
EVENT_RECOVERY = "ViabilityRecovery"
EVENT_REGION = "RegionCrossing"
EVENT_MORATORIUM_START = "MoratoriumStart"
EVENT_MORATORIUM_END = "MoratoriumEnd"
EVENT_EXTINCTION = "Extinction"


@dataclass(frozen=True)
class SimConfig:
    initial_stock: float
    settings: StrategySettings
    dt: float = 0.01
    horizon: float = 200.0
    control_interval: float = 0.1
    record_stride: int = 1

    def __post_init__(self) -> None:
        if not self.initial_stock > 0.0:
            raise ValueError("initial_stock must be positive")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.control_interval < self.dt:
            raise ValueError("control_interval must be at least dt")
        ratio = self.control_interval / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(ratio, 1.0):
            raise ValueError("control_interval must be an integer multiple of dt")
        if self.horizon < self.control_interval:
            raise ValueError("horizon must cover at least one control interval")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        steps = self.horizon / self.dt
        if not steps <= MAX_STEPS:
            raise ValueError(f"horizon / dt is {steps:.6g} steps, above the "
                             f"budget of {MAX_STEPS} steps")


class Sample(NamedTuple):
    t: float
    x: float
    r: float
    h: float
    q_1: float
    q_2: float
    regime: Regime
    region: Region
    maturity: Maturity
    viable_ecological: bool
    viable_economic: bool


@dataclass(frozen=True)
class Event:
    t: float
    kind: str
    detail: dict = field(default_factory=dict)


@dataclass
class TrajectoryRecord:
    """Sampled trajectory plus its event log.

    During a moratorium the recorded harvest and quotas are the realized
    (zero) ones while ``regime`` keeps reporting what the negotiation at the
    current stock and recommendation would yield, so regime tags always
    recompute from (x, r).
    """

    samples: list[Sample]
    events: list[Event]
    metadata: dict

    def first_event(self, kind: str) -> Event | None:
        for event in self.events:
            if event.kind == kind:
                return event
        return None

    def mean_harvest(self, t_from: float = 0.0) -> float:
        values = [s.h for s in self.samples if s.t >= t_from]
        return sum(values) / len(values)


def _rk4(rhs: Callable[[float], float], x: float, dt: float, k1: float) -> float:
    """Classical fourth-order step from ``x``; ``k1 = rhs(x)`` is passed in
    because the simulation loop already has it from the recorded solve."""
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def simulate(params: EconParams, rec: Recruitment, bounds: ViabilityBounds,
             cfg: SimConfig) -> TrajectoryRecord:
    """Run one closed-loop trajectory.

    Every control interval the strategy updates the recommendation from its
    observations; every dt the negotiation outcome is re-evaluated at the
    current stock and the stock is advanced.  Pathological states surface as
    events, never as exceptions.
    """
    settings = cfg.settings
    dt = cfg.dt
    per_control = round(cfg.control_interval / dt)
    n_steps = round(cfg.horizon / dt)
    deadband = 1e-6 * rec.capacity  # a smaller decline reads as growing

    events: list[Event] = []
    samples: list[Sample] = []
    x = cfg.initial_stock
    trend = settings.initial_trend if settings.initial_trend is not None else 1
    prev_control_x = x
    qualitative = settings.strategy is Strategy.QUALITATIVE

    def control_update(t: float) -> None:
        if settings.strategy is Strategy.ICHTHYOCENTRIC:
            state.recommendation = ichthyocentric_recommend(rec, x)
        elif settings.strategy is Strategy.CONSERVATIVE:
            state.recommendation = conservative_recommend(params, bounds, x)
        else:
            h = _nash_point(params, x, state.recommendation)[2]
            if state.moratorium:
                h = 0.0
            was_moratorium = state.moratorium
            qualitative_step(state, classify_region(trend, h, state.recommendation, bounds))
            if state.moratorium and not was_moratorium:
                events.append(Event(t, EVENT_MORATORIUM_START))
            elif was_moratorium and not state.moratorium:
                events.append(Event(t, EVENT_MORATORIUM_END))

    floor_step = settings.floor_step
    state = ControllerState(settings, floor_step if floor_step is not None else 1e-3 * rec.peak_rate,
                            maturity=settings.initial_maturity)
    if qualitative:
        state.recommendation = (settings.initial_recommendation
                                if settings.initial_recommendation is not None
                                else 0.5 * realized_unmanaged_harvest(params, x))
    # A seeded trend is pre-model history: the qualitative controller then
    # decides already at t = 0, as the other strategies always do.
    if not qualitative or settings.initial_trend is not None:
        control_update(0.0)

    # an unmanaged fishery has no threshold curves
    verdict = None if params.unmanaged else check_viability_domain(params, rec, bounds)

    # Recruitment.rate spelled out: the same operations, without a method
    # call per RK stage.
    growth, capacity = rec.growth, rec.capacity

    def closed_loop(s: float) -> float:
        if s <= 0.0:
            return 0.0
        return (growth * s * (1.0 - s / capacity)
                - _nash_point(params, s, state.recommendation)[2])

    def regrowth(s: float) -> float:
        return growth * s * (1.0 - s / capacity) if s > 0.0 else 0.0

    stock_line = bounds.stock_floor - _VIABILITY_TOL
    harvest_line = bounds.harvest_floor - _VIABILITY_TOL
    region = Region.R0_NON_BINDING  # replaced at k = 0
    prev_flags: tuple[bool, bool] | None = None
    stride = cfg.record_stride

    for k in range(n_steps + 1):
        t = k * dt
        decides = k > 0 and k % per_control == 0
        if decides:
            raw = x - prev_control_x
            trend = -1 if raw <= -deadband else 1
            prev_control_x = x
            control_update(t)

        r = state.recommendation
        q1, q2, h, regime = _nash_point(params, x, r)
        if state.moratorium:
            q1 = q2 = h = 0.0

        if k == 0 or decides:
            new_region = classify_region(trend, h, r, bounds)
            if k > 0 and new_region is not region:
                events.append(Event(t, EVENT_REGION,
                                    {"from": region.value, "to": new_region.value}))
            region = new_region

        flags = (x >= stock_line, h >= harvest_line)
        if prev_flags is not None and flags != prev_flags:
            for which, before, now in (("ecological", prev_flags[0], flags[0]),
                                       ("economic", prev_flags[1], flags[1])):
                if before and not now:
                    events.append(Event(t, EVENT_VIOLATION, {"which": which}))
                elif now and not before:
                    events.append(Event(t, EVENT_RECOVERY, {"which": which}))
        prev_flags = flags

        if k % stride == 0 or k == n_steps:
            samples.append(Sample(t, x, r, h, q1, q2, regime,
                                  region, state.maturity, flags[0], flags[1]))
        if k == n_steps:
            break

        if state.moratorium:
            x_next = _rk4(regrowth, x, dt, regrowth(x))
        else:
            x_next = _rk4(closed_loop, x, dt, growth * x * (1.0 - x / capacity) - h)
        # from x = 0 both right-hand sides give exactly 0, so the stock stays there
        if x_next <= 0.0 < x:
            events.append(Event((k + 1) * dt, EVENT_EXTINCTION))
            x_next = 0.0
        x = x_next

    return TrajectoryRecord(samples=samples, events=events,
                            metadata={"viability_verdict": verdict})


@dataclass(frozen=True)
class CellResult:
    """Per-cell summary of a parameter sweep."""

    values: tuple
    violated: bool
    first_violation: float | None
    terminal_stock: float
    mean_harvest: float
    error: str | None = None


def summarize(record: TrajectoryRecord, values: tuple = ()) -> CellResult:
    violation = record.first_event(EVENT_VIOLATION)
    return CellResult(
        values=values,
        violated=violation is not None,
        first_violation=violation.t if violation is not None else None,
        terminal_stock=record.samples[-1].x,
        mean_harvest=record.mean_harvest(),
    )


def sweep(build: Callable[[dict], tuple[EconParams, Recruitment, ViabilityBounds, SimConfig]],
          axes: list[tuple[str, list]]) -> list[CellResult]:
    """One simulation per cell of the cartesian axis grid.

    ``build`` maps a field->value override dict to simulation inputs.
    Per-cell failures are recorded in the grid instead of aborting it;
    results are ordered by row-major cell index, so the sweep is
    deterministic and any cell reproduces standalone.
    """
    fields = [name for name, _ in axes]
    grids = [values for _, values in axes]
    results: list[CellResult] = []
    for combo in itertools.product(*grids) if grids else [()]:
        overrides = dict(zip(fields, combo))
        try:
            params, rec, bounds, cfg = build(overrides)
            record = simulate(params, rec, bounds, cfg)
            results.append(summarize(record, tuple(combo)))
        except Exception as exc:  # recorded in-grid, sweep continues
            results.append(CellResult(tuple(combo), False, None,
                                      math.nan, math.nan,
                                      error=f"{type(exc).__name__}: {exc}"))
    return results

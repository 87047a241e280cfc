"""Time integration of the managed stock with event detection.

The stock follows ``dx/dt = growth(x) - harvest(x, r)``.  The recommendation
``r`` is piecewise constant between controller decisions; the negotiated
harvest reacts to the stock instantaneously, so the integrator re-solves the
negotiation at every Runge-Kutta stage.  Violations of the viability floors,
region crossings, moratorium transitions and extinction are recorded as
time-stamped events.  A step that takes the stock to or below 0 sets it to
exactly 0 and logs one extinction event; the stock then stays at 0, where
the negotiation lands no catch.  ``simulate`` runs one trajectory, ``sweep``
one per cell of a parameter grid.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .control import (
    CONSERVATIVE,
    ICHTHYOCENTRIC,
    QUALITATIVE,
    ControllerState,
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
    harvest_curve,
    realized_unmanaged_harvest,
)
from .viability import (
    R0,
    Maturity,
    Region,
    ViabilityBounds,
    _binding_recommendation,
    check_viability_domain,
    classify_region,
    recommendation_floor,
)

__all__ = [
    "MAX_STEPS",
    "ConfigError",
    "SimConfig",
    "Sample",
    "Event",
    "TrajectoryRecord",
    "CellResult",
    "require_runnable",
    "simulate",
    "sweep",
]

# Smallest group of cells a sweep advances in lockstep: a lockstep step costs about
# 150 us, a scalar one 2.3-2.8 us per cell, and at 60 cells both take about as long.
_LOCKSTEP_MIN_CELLS = 60

# Cells a sweep builds, and runs, at a time: what it holds, whatever its size.
_SWEEP_BATCH = 4096

# Decision states a simulate run keeps to find a repeat: far above the shipped
# periods (one and two control intervals); at about 200 bytes a state, 0.8 MB.
_REPEAT_KEYS = 4096

# Deadband below which a floor comparison does not flip the viability flag;
# keeps an exactly-on-the-floor trajectory from flickering events.
_VIABILITY_TOL = 1e-9

# Step budget of one simulation, horizon / dt: 50 times the shipped scenarios.  At
# record_stride 1 a run that long keeps about 265 MB of samples.
MAX_STEPS = 1_000_000

EVENT_VIOLATION = "ViabilityViolation"
EVENT_RECOVERY = "ViabilityRecovery"
EVENT_REGION = "RegionCrossing"
EVENT_MORATORIUM_START = "MoratoriumStart"
EVENT_MORATORIUM_END = "MoratoriumEnd"
EVENT_EXTINCTION = "Extinction"


class ConfigError(ValueError):
    """A refused scenario or run input; the message names the offending field."""


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

    @property
    def time_grid(self) -> tuple[int, int]:
        """The run's steps and a control interval's: horizon / dt and
        control_interval / dt, rounded."""
        return round(self.horizon / self.dt), round(self.control_interval / self.dt)


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
    recompute from (x, r).  ``settled_from`` is ``(first, period)`` for a
    run that repeats (``simulate``), else None: from index ``first + period``
    on, every sample equals the one ``period`` samples before it in all but
    t, except a last sample that falls off the record stride.
    """

    samples: list[Sample]
    events: list[Event]
    metadata: dict
    settled_from: tuple[int, int] | None = None

    def first_event(self, kind: str) -> Event | None:
        for event in self.events:
            if event.kind == kind:
                return event
        return None

    def mean_harvest(self, t_from: float = 0.0) -> float:
        values = [s.h for s in self.samples if s.t >= t_from]
        # left to right, as sweep adds them; sum() compensates on 3.12+
        return functools.reduce(operator.add, values, 0.0) / len(values)


def _rk4(rhs: Callable[[float], float], x: float, dt: float, k1: float) -> float:
    """Classical fourth-order step from ``x``, a stock or a column of them;
    ``k1 = rhs(x)`` is passed in because the simulation loop already has it
    from the recorded solve."""
    k2 = rhs(x + 0.5 * dt * k1)
    k3 = rhs(x + 0.5 * dt * k2)
    k4 = rhs(x + dt * k3)
    return x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _recorded_after(k: int, n_steps: int, stride: int):
    """The steps after step ``k`` that a run records: every ``stride``-th
    and the last."""
    steps = range(k - k % stride + stride, n_steps + 1, stride)
    return steps if n_steps % stride == 0 else [*steps, n_steps]


def _decide(params: EconParams, rec: Recruitment, bounds: ViabilityBounds,
            state: ControllerState, x: float, trend: int) -> None:
    """One decision of the strategy at stock ``x`` under the stock trend
    ``trend``: a new recommendation, and for the qualitative rule table a
    step that may also open or lift a moratorium."""
    strategy = state.settings.strategy
    if strategy is ICHTHYOCENTRIC:
        state.recommendation = ichthyocentric_recommend(rec, x)
    elif strategy is CONSERVATIVE:
        state.recommendation = conservative_recommend(params, bounds, x)
    else:
        h = _nash_point(params, x, state.recommendation)[2]
        if state.moratorium:
            h = 0.0
        qualitative_step(state, classify_region(trend, h, state.recommendation, bounds))


def _require_deviation_costs(params: EconParams, user: str) -> None:
    """The threshold curves, which check, phase and conservative runs use, need a deviation cost."""
    if params.unmanaged:
        raise ConfigError(f"[econ] kappa_1, kappa_2: {user} needs a positive deviation "
                          "cost; with both 0 the threshold curves are undefined")


def _require_weighted(params: EconParams, x: float, where: str, error=ConfigError) -> None:
    """The threshold curves divide by the deviation weight times the stock."""
    if params.weight * x == 0.0:
        raise error(f"{where} {x!r} times beta_1 * kappa_2 + beta_2 * kappa_1 underflows to 0")


def require_runnable(params: EconParams, rec: Recruitment, bounds: ViabilityBounds,
                     cfg: SimConfig) -> None:
    """Raise :class:`ConfigError` where a run is undefined: a conservative run
    without deviation costs, a deviation weight times the stock floor (the
    viability check) or times a conservative initial stock that underflows to
    0, or a conservative first floor recommendation that is not finite."""
    conservative = cfg.settings.strategy is CONSERVATIVE
    if conservative:
        _require_deviation_costs(params, "the conservative strategy")
    if not params.unmanaged:
        _require_weighted(params, bounds.stock_floor, "[bounds] stock_floor:")
    if conservative:
        x = cfg.initial_stock
        _require_weighted(params, x, "[simulation] initial_stock:")
        if not math.isfinite(floor := recommendation_floor(params, bounds, x)):
            raise ConfigError(f"[simulation] initial_stock: {x!r} gives the conservative "
                              f"strategy a floor recommendation of {floor!r}")


def _start(params: EconParams, rec: Recruitment, bounds: ViabilityBounds,
           cfg: SimConfig) -> tuple[ControllerState, int]:
    """Controller state and stock trend at t = 0, after the decision taken
    there: what a run computes before its first step, once
    :func:`require_runnable` has passed its inputs."""
    require_runnable(params, rec, bounds, cfg)
    settings = cfg.settings
    x = cfg.initial_stock
    trend = settings.initial_trend if settings.initial_trend is not None else 1
    qualitative = settings.strategy is QUALITATIVE
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
        _decide(params, rec, bounds, state, x, trend)
    return state, trend


def simulate(params: EconParams, rec: Recruitment, bounds: ViabilityBounds,
             cfg: SimConfig) -> TrajectoryRecord:
    """Run one closed-loop trajectory.

    Every control interval the strategy updates the recommendation from its
    observations; every dt the negotiation outcome is re-evaluated at the
    current stock and the stock is advanced.  :func:`require_runnable`'s
    refusals raise :class:`ConfigError`; pathological states surface as
    events, except ``ValueError: stock must be positive`` at a conservative
    decision after an extinction, until that gets a defined action.

    Every later step is a pure function of the run's state at a decision,
    before the decision is made: the stock, the previous decision's stock,
    the recommendation with its sign, the controller's moratorium, maturity
    and growth streak, the region and the previous step's flags.  If that
    state at decision step k equals the state at an earlier decision step s,
    the run from k on repeats steps s..k-1 with period P = k - s; a fixed
    point is P = one control interval.  The run then steps on to k + P - 1
    only, recording every step of that window, and builds the rest of the
    record from it: the sample at step j >= k is the window's at
    (j - k) % P, at t = j * dt, and each window event at step i recurs at
    step i + m * P, at t = (i + m * P) * dt.  The record is the same bits as
    the stepped one.  A dict keyed by the state finds the first repeat; it
    keeps at most ``_REPEAT_KEYS`` states.
    """
    dt = cfg.dt
    n_steps, per_control = cfg.time_grid
    deadband = 1e-6 * rec.capacity  # a smaller decline reads as growing

    events: list[Event] = []
    samples: list[Sample] = []
    x = cfg.initial_stock
    prev_control_x = x
    state, trend = _start(params, rec, bounds, cfg)
    if state.moratorium:
        events.append(Event(0.0, EVENT_MORATORIUM_START))

    # Recruitment.rate spelled out: the same operations, without a method
    # call per RK stage.
    growth, capacity = rec.growth, rec.capacity

    def closed_loop(s: float) -> float:
        if s <= 0.0:
            return 0.0
        return growth * s * (1.0 - s / capacity) - _nash_point(params, s, r)[2]

    def regrowth(s: float) -> float:
        return growth * s * (1.0 - s / capacity) if s > 0.0 else 0.0

    stock_line = bounds.stock_floor - _VIABILITY_TOL
    harvest_line = bounds.harvest_floor - _VIABILITY_TOL
    region = R0  # replaced at k = 0
    prev_flags: tuple[bool, bool] | None = None
    stride = cfg.record_stride
    r, idle = state.recommendation, state.moratorium
    # The sign keeps r = -0.0 apart from +0.0, which compare equal; the stock
    # is never -0.0 (it starts positive, the extinction clamp sets 0.0, and
    # from 0.0 the RK4 sum is 0.0 + 0.0).  A NaN matches a key only as the
    # same object (dicts test identity before equality), so the same bits.
    seen: dict[tuple, int] = {}
    last = end = n_steps    # every step from last on is recorded; the loop stops at end

    for k in range(n_steps + 1):
        t = k * dt
        decides = k > 0 and k % per_control == 0
        if decides:
            start = seen.setdefault((x, prev_control_x, r, math.copysign(1.0, r), idle,
                                     state.maturity, state.growth_streak, region, prev_flags), k)
            if len(seen) > _REPEAT_KEYS:
                seen.clear()
            if start < k and end == n_steps and 2 * k - start <= n_steps:
                last, end, first_window_event = k, 2 * k - start - 1, len(events)
            previous, prev_control_x = prev_control_x, x
            trend = -1 if x - previous <= -deadband else 1
            _decide(params, rec, bounds, state, x, trend)
            r, was_idle, idle = state.recommendation, idle, state.moratorium
            if idle != was_idle:
                events.append(Event(t, EVENT_MORATORIUM_START if idle else EVENT_MORATORIUM_END))

        q1, q2, h, regime = _nash_point(params, x, r)
        if idle:
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

        if k % stride == 0 or k >= last:
            # _make, the documented constructor from an iterable, skips the
            # keyword handling of Sample(...)
            samples.append(Sample._make((t, x, r, h, q1, q2, regime,
                                         region, state.maturity, flags[0], flags[1])))
        if k == end:
            break

        if idle:
            x_next = _rk4(regrowth, x, dt, regrowth(x))
        else:
            x_next = _rk4(closed_loop, x, dt, growth * x * (1.0 - x / capacity) - h)
        # from x = 0 both right-hand sides give exactly 0, so the stock stays there
        if x_next <= 0.0 < x:
            events.append(Event((k + 1) * dt, EVENT_EXTINCTION))
            x_next = 0.0
        x = x_next

    settled_from = None
    if end < n_steps:   # steps last..end are one period of the rest of the run
        period = end + 1 - last
        window = [sample[1:] for sample in samples[-period:]]
        del samples[-period:]
        settled_from = (len(samples), period // math.gcd(period, stride))
        samples.extend(Sample._make((j * dt,) + window[(j - last) % period])
                       for j in _recorded_after(last - 1, n_steps, stride))
        recurring = [(round(e.t / dt), e) for e in events[first_window_event:]]
        events.extend(Event((i + shift) * dt, e.kind, dict(e.detail))
                      for shift in range(period, n_steps + 1 - last, period)
                      for i, e in recurring if i + shift <= n_steps)
    # an unmanaged fishery has no threshold curves
    verdict = None if params.unmanaged else check_viability_domain(params, rec, bounds)
    return TrajectoryRecord(samples=samples, events=events,
                            metadata={"viability_verdict": verdict}, settled_from=settled_from)


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


def _failed(values: tuple, exc: Exception) -> CellResult:
    return CellResult(values, False, None, math.nan, math.nan,
                      error=f"{type(exc).__name__}: {exc}")


def _simulated(values: tuple, params: EconParams, rec: Recruitment,
               bounds: ViabilityBounds, cfg: SimConfig) -> CellResult:
    try:
        return summarize(simulate(params, rec, bounds, cfg), values)
    except Exception as exc:  # recorded in-grid, sweep continues
        return _failed(values, exc)


def _lockstep(cells: list[tuple]) -> list[CellResult]:
    """:func:`_simulated` of every cell ``(values, params, rec, bounds,
    cfg)``, the cells, which share one time grid, advanced as one ensemble.

    Each cell is one entry of 1-D arrays: a column per field of its
    parameter dataclasses, its stock, recommendation and moratorium flag.
    Every cell's result equals its own :func:`_simulated` bit for bit.
    Where the floor formula is not finite, that cell's decision runs the
    scalar code, and an exception it raises becomes the cell's error
    result; a cell is live while ``results[i] is None``.

    An ensemble without qualitative cells stops after the first decision at
    which every cell, failed ones included, is at the previous decision's
    stock and the step returns it, and adds each cell's harvest once per
    sample left: the repeat rule of :func:`simulate` with P = one control
    interval, since a memoryless decision reads the stock alone.
    """
    import numpy as np
    results: list[CellResult | None] = [None] * len(cells)
    live, states, trends = [], [], []
    for i, (values, params, rec, bounds, cfg) in enumerate(cells):
        try:
            state, trend = _start(params, rec, bounds, cfg)
        except Exception as exc:  # recorded in-grid, sweep continues
            results[i] = _failed(values, exc)
            continue
        live.append(i)
        states.append(state)
        trends.append(trend)
    if not live:
        return results

    _, econs, recs, floors, cfgs = zip(*(cells[i] for i in live))

    def column(values) -> np.ndarray:
        return np.fromiter(values, dtype=float, count=len(live))

    # a column per field of each dataclass, read by its formulas as they read a float
    params, rec, bounds = (SimpleNamespace(**{f.name: column(getattr(o, f.name) for o in objects)
                                              for f in fields(objects[0])})
                           for objects in (econs, recs, floors))
    deadband = 1e-6 * rec.capacity
    stock_line = bounds.stock_floor - _VIABILITY_TOL
    harvest_line = bounds.harvest_floor - _VIABILITY_TOL
    x = column(c.initial_stock for c in cfgs)
    strategy = [state.settings.strategy for state in states]
    ichthyocentric, conservative = (np.array([s is member for s in strategy])
                                    for member in (ICHTHYOCENTRIC, CONSERVATIVE))
    ruled = [j for j, s in enumerate(strategy) if s is QUALITATIVE]   # on the rule table
    r = column(state.recommendation for state in states)
    moratorium = np.array([state.moratorium for state in states])

    cfg = cfgs[0]
    dt = cfg.dt
    n_steps, per_control = cfg.time_grid
    stride = cfg.record_stride
    total = np.zeros(len(live))                # recorded h, added left to right
    first_violation = np.full(len(live), -1)   # step, or -1
    prev_control_x = x
    eco_before = econ_before = None
    row = 0

    def decide() -> None:
        # x is never negative, so ichthyocentric_recommend never raises
        if ichthyocentric.any():
            g = Recruitment.rate(rec, x)
            np.copyto(r, np.where(0.0 > g, 0.0, g), where=ichthyocentric)
        if conservative.any():
            floor = _binding_recommendation(params, x, bounds.harvest_floor)
            np.copyto(r, np.where(0.0 > floor, 0.0, floor), where=conservative)
            # the scalar code raises only where the floor is not finite
            for j in np.flatnonzero(conservative & ~np.isfinite(floor)):
                if results[live[j]] is None:    # else it failed at an earlier decision
                    try:
                        r[j] = conservative_recommend(econs[j], floors[j], float(x[j]))
                    except Exception as exc:  # recorded in-grid, sweep continues
                        results[live[j]] = _failed(cells[live[j]][0], exc)
        if ruled:
            hs = np.where(moratorium, 0.0, harvest_curve(params, x, r)).tolist()
            for j in ruled:
                state = qualitative_step(states[j], classify_region(
                    trends[j], hs[j], states[j].recommendation, floors[j]))
                r[j], moratorium[j] = state.recommendation, state.moratorium

    def rhs(s: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
        # reads the step's r, moratorium and idle; h, the harvest at s, is given at stage k1
        g = Recruitment.rate(rec, s)
        out = g - (harvest_curve(params, s, r) if h is None else h)
        np.copyto(out, 0.0, where=s <= 0.0)
        if idle:
            np.copyto(out, np.where(s > 0.0, g, 0.0), where=moratorium)
        return out

    # numpy warns where the scalar code silently computes inf or NaN
    with np.errstate(all="ignore"):
        for k in range(n_steps + 1):
            decides = k > 0 and k % per_control == 0
            if decides:
                previous, prev_control_x = prev_control_x, x
                trends = np.where(x - previous <= -deadband, -1, 1).tolist()
                decide()
            h = harvest_curve(params, x, r)
            idle = moratorium.any()
            if idle:
                h[moratorium] = 0.0
            eco, econ = x >= stock_line, h >= harvest_line
            if k > 0:
                fell = (eco_before > eco) | (econ_before > econ)   # True -> False
                if fell.any():
                    first_violation[fell & (first_violation < 0)] = k
            eco_before, econ_before = eco, econ
            if k % stride == 0 or k == n_steps:
                total += h
                row += 1
            if k == n_steps:
                break

            x_next = _rk4(rhs, x, dt, rhs(x, h))
            if decides and not ruled and ((x == previous) & (x_next == x)).all():
                for _ in _recorded_after(k, n_steps, stride):
                    total += h
                    row += 1
                break
            np.copyto(x_next, 0.0, where=(x_next <= 0.0) & (x > 0.0))
            x = x_next

    for j, i in enumerate(live):
        if results[i] is None:
            step = int(first_violation[j])
            results[i] = CellResult(cells[i][0], step >= 0, step * dt if step >= 0 else None,
                                    float(x[j]), float(total[j]) / row)
    return results


def _run_group(cells: list[tuple]) -> list[CellResult]:
    """:func:`_simulated` of each of ``cells``, which share a time grid."""
    if len(cells) < _LOCKSTEP_MIN_CELLS:
        return [_simulated(*cell) for cell in cells]
    return _lockstep(cells)


def sweep(build: Callable[[dict], tuple[EconParams, Recruitment, ViabilityBounds, SimConfig]],
          axes: list[tuple[str, list]]) -> list[CellResult]:
    """One simulation per cell of the cartesian axis grid.

    ``build`` maps a field->value override dict to simulation inputs.  A
    cell that fails records its ``"<type>: <message>"`` error in the grid
    instead of aborting it; results are ordered by row-major cell index,
    and each equals its cell's standalone run bit for bit.  Cells are built
    ``_SWEEP_BATCH`` at a time and grouped by time grid; a group of at
    least ``_LOCKSTEP_MIN_CELLS`` runs in :func:`_lockstep`, a smaller one
    cell by cell.
    """
    fields = [name for name, _ in axes]
    combos = itertools.product(*(values for _, values in axes))
    results: list[CellResult] = []
    while batch := list(itertools.islice(combos, _SWEEP_BATCH)):
        done: list[CellResult | None] = [None] * len(batch)
        groups: dict[tuple, list[tuple[int, tuple]]] = {}
        for i, combo in enumerate(batch):
            try:
                params, rec, bounds, cfg = build(dict(zip(fields, combo)))
                key = (cfg.dt, cfg.time_grid, cfg.record_stride)
            except Exception as exc:  # recorded in-grid, sweep continues
                done[i] = _failed(combo, exc)
                continue
            groups.setdefault(key, []).append((i, (combo, params, rec, bounds, cfg)))
        for members in groups.values():
            for (i, _), result in zip(members, _run_group([cell for _, cell in members])):
                done[i] = result
        results.extend(done)
    return results

"""Simulation engine: integration accuracy, events, determinism, sweeps."""

import collections
import functools
import itertools
import math
import os
import struct

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from quotavia import (
    ConfigError,
    EconParams,
    Maturity,
    Recruitment,
    ScenarioConfig,
    SimConfig,
    Strategy,
    StrategySettings,
    ViabilityBounds,
    simulate,
    sweep,
    total_harvest,
    unmanaged_harvest,
)
from quotavia import engine, scenario
from quotavia.cli import main
from quotavia.engine import (
    EVENT_EXTINCTION,
    EVENT_MORATORIUM_END,
    EVENT_MORATORIUM_START,
    EVENT_RECOVERY,
    EVENT_VIOLATION,
    summarize,
)


def analytic_logistic(x0, t, growth=1.0, capacity=2.0):
    return capacity / (1.0 + ((capacity - x0) / x0) * math.exp(-growth * t))


def settings(strategy=Strategy.CONSERVATIVE, **kwargs):
    return StrategySettings(strategy=strategy, **kwargs)


def config(x0=1.2, strategy=Strategy.CONSERVATIVE, dt=0.01, horizon=200.0, **kwargs):
    return SimConfig(initial_stock=x0, settings=settings(strategy, **kwargs),
                     dt=dt, horizon=horizon, control_interval=0.1)


def rk4_step(x, h, rec, dt):
    """One step of the engine's integrator on ``dx/dt = growth(x) - h``."""
    def rhs(s):
        return rec.rate(s) - h
    return engine._rk4(rhs, x, dt, rhs(x))


class TestStep:
    def test_stationary_point(self, logistic):
        assert rk4_step(1.0, 0.5, logistic, 0.01) == 1.0

    def test_matches_analytic_logistic(self, logistic):
        got = rk4_step(1.0, 0.0, logistic, 0.01)
        assert got == pytest.approx(analytic_logistic(1.0, 0.01), abs=1e-11)

    def test_long_logistic_run(self, logistic):
        x, t = 0.3, 0.0
        for _ in range(2000):
            x = rk4_step(x, 0.0, logistic, 0.01)
            t += 0.01
        exact = analytic_logistic(0.3, t)
        assert abs(x - exact) / exact < 1e-8


class TestSimConfigValidation:
    def test_control_interval_multiple_of_dt(self):
        with pytest.raises(ValueError):
            SimConfig(initial_stock=1.0, settings=settings(),
                      dt=0.03, control_interval=0.1)

    def test_horizon_covers_one_interval(self):
        with pytest.raises(ValueError):
            SimConfig(initial_stock=1.0, settings=settings(),
                      dt=0.01, horizon=0.0, control_interval=0.1)

    def test_positive_initial_stock(self):
        with pytest.raises(ValueError):
            SimConfig(initial_stock=0.0, settings=settings())

    def test_step_budget(self):
        # validation only: no configuration here is simulated
        at_budget = SimConfig(initial_stock=1.0, settings=settings(), dt=0.5,
                              horizon=0.5 * engine.MAX_STEPS, control_interval=0.5)
        assert at_budget.horizon / at_budget.dt == engine.MAX_STEPS
        for dt, horizon in ((0.5, 0.5 * (engine.MAX_STEPS + 1)), (1e-300, 1.0)):
            with pytest.raises(ValueError, match="horizon / dt"):
                SimConfig(initial_stock=1.0, settings=settings(), dt=dt,
                          horizon=horizon, control_interval=dt)


@pytest.fixture(scope="module")
def conservative_record(symmetric_params, logistic, floors):
    return simulate(symmetric_params, logistic, floors, config())


@pytest.fixture(scope="module")
def ichthyocentric_record(symmetric_params, logistic, floors):
    return simulate(symmetric_params, logistic, floors,
                    config(strategy=Strategy.ICHTHYOCENTRIC))


@pytest.fixture(scope="module")
def qualitative_record(symmetric_params, logistic, floors):
    return simulate(symmetric_params, logistic, floors,
                    config(strategy=Strategy.QUALITATIVE,
                           initial_recommendation=0.2))


@pytest.fixture(scope="module")
def crisis_record(symmetric_params, logistic, floors):
    return simulate(symmetric_params, logistic, floors,
                    config(x0=0.6, strategy=Strategy.QUALITATIVE,
                           initial_maturity=Maturity.MATURE,
                           initial_trend=-1))


class TestConservativeRun:
    @pytest.fixture
    def record(self, conservative_record):
        return conservative_record

    def test_no_violations(self, record):
        assert record.first_event(EVENT_VIOLATION) is None

    def test_floors_hold_everywhere(self, record, floors):
        assert all(s.x >= floors.stock_floor - 1e-6 for s in record.samples)
        assert all(s.h >= floors.harvest_floor - 1e-6 for s in record.samples)

    def test_terminal_stock_between_floor_and_upper_yield_stock(self, record):
        assert 1.0 <= record.samples[-1].x <= 1.0 + math.sqrt(0.2)

    def test_timestamps_strictly_increasing(self, record):
        times = [s.t for s in record.samples]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_regime_recomputes_from_state(self, record, symmetric_params):
        for sample in record.samples[:: 500]:
            expected = total_harvest(symmetric_params, sample.x, sample.r).regime
            assert sample.regime is expected

    def test_metadata_carries_verdict(self, record):
        assert record.metadata["viability_verdict"].viable


class TestIchthyocentricRun:
    @pytest.fixture
    def record(self, ichthyocentric_record):
        return ichthyocentric_record

    def test_ecological_violation_at_finite_time(self, record):
        event = record.first_event(EVENT_VIOLATION)
        assert event is not None
        assert event.detail["which"] == "ecological"
        assert 0.0 < event.t < 200.0

    def test_declines_whenever_recommendation_binds(self, record, symmetric_params, logistic):
        # catch above recruitment forces decline wherever the unmanaged
        # harvest exceeds the recruitment recommendation
        for sample in record.samples[:: 200]:
            if logistic.rate(sample.x) < unmanaged_harvest(symmetric_params, sample.x) - 1e-9:
                assert sample.h > logistic.rate(sample.x)

    def test_stock_falls_below_floor(self, record, floors):
        assert min(s.x for s in record.samples) < floors.stock_floor


class TestQualitativeCanonicalRun:
    @pytest.fixture
    def record(self, qualitative_record):
        return qualitative_record

    def test_no_violations(self, record):
        assert record.first_event(EVENT_VIOLATION) is None

    def test_outperforms_conservative_late(self, record, symmetric_params, logistic, floors):
        conservative = simulate(symmetric_params, logistic, floors, config())
        assert record.mean_harvest(100.0) > conservative.mean_harvest(100.0)

    def test_maturity_latch(self, record):
        seen_mature = False
        for sample in record.samples:
            if sample.maturity is Maturity.MATURE:
                seen_mature = True
            elif seen_mature:
                pytest.fail("maturity reverted after latching")
        assert seen_mature


class TestCrisisRun:
    @pytest.fixture
    def record(self, crisis_record):
        return crisis_record

    def test_moratorium_triggers_immediately(self, record):
        start = record.first_event(EVENT_MORATORIUM_START)
        assert start is not None and start.t == 0.0

    def test_moratorium_ends_after_growth_streak(self, record):
        end = record.first_event(EVENT_MORATORIUM_END)
        assert end is not None and end.t == pytest.approx(0.5)

    def test_stock_recovers_to_floor_in_finite_time(self, record, floors):
        crossing = next((s.t for s in record.samples if s.x >= floors.stock_floor), None)
        assert crossing is not None
        assert record.first_event(EVENT_RECOVERY) is not None

    def test_stock_grows_monotonically_during_moratorium(self, record):
        end = record.first_event(EVENT_MORATORIUM_END).t
        xs = [s.x for s in record.samples if s.t <= end]
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_harvest_zero_during_moratorium(self, record):
        end = record.first_event(EVENT_MORATORIUM_END).t
        assert all(s.h == 0.0 for s in record.samples if s.t < end)


@pytest.mark.parametrize("strategy", [Strategy.ICHTHYOCENTRIC, Strategy.QUALITATIVE])
def test_forced_extinction_event(strategy, floors):
    # overharvest a slow-growing stock: extinction is clamped and flagged once,
    # and the stock stays at exactly 0 with zero catch
    slow = Recruitment(growth=0.01, capacity=2.0)
    brutal = EconParams(0.001, 0.001, 0.01, 0.01, 0.1, 0.1, 10.0)
    record = simulate(brutal, slow, floors,
                      SimConfig(initial_stock=0.05, settings=settings(strategy),
                                dt=0.01, horizon=5.0, control_interval=0.1))
    extinctions = [e for e in record.events if e.kind == EVENT_EXTINCTION]
    assert len(extinctions) == 1
    after = [s for s in record.samples if s.t >= extinctions[0].t]
    assert after
    assert all(s.x == s.h == s.q_1 == s.q_2 == 0.0 for s in after)


def _between(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def _fishery(draw):
    """Random valid economics, recruitment and floors over wide ranges, one
    fishery in seven unmanaged."""
    alphas = [draw(_between(1e-3, 10.0)) for _ in range(2)]
    betas = [draw(_between(0.01, 10.0)) for _ in range(2)]
    kappas = ([0.0, 0.0] if draw(st.integers(0, 6)) == 0
              else [draw(_between(0.01, 10.0)) for _ in range(2)])
    params = EconParams(*alphas, *betas, *kappas, draw(_between(0.1, 3000.0)))
    rec = Recruitment(draw(_between(0.005, 5.0)), draw(_between(0.5, 8.0)))
    stock_floor = rec.capacity * draw(_between(0.05, 0.9))
    bounds = ViabilityBounds(stock_floor, rec.rate(stock_floor) * draw(_between(0.05, 1.2)))
    return params, rec, bounds


@st.composite
def short_runs(draw):
    """Random valid scenarios over wide ranges, one in seven unmanaged,
    with stocks down to 1e-320 and horizons up to one time unit."""
    params, rec, bounds = _fishery(draw)
    strategy = draw(st.sampled_from([Strategy.ICHTHYOCENTRIC, Strategy.QUALITATIVE]))
    control = StrategySettings(
        strategy,
        initial_recommendation=draw(st.none() | _between(0.0, 10.0)),
        initial_maturity=draw(st.sampled_from(list(Maturity))),
        initial_trend=draw(st.sampled_from([None, 1, -1])))
    cfg = SimConfig(initial_stock=draw(_between(1e-320, 2.0 * rec.capacity)),
                    settings=control, dt=0.01, horizon=draw(_between(0.1, 1.0)),
                    control_interval=0.1)
    return params, rec, bounds, cfg


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(run=short_runs())
def test_simulate_never_raises_and_stays_finite(run):
    # the conservative strategy is left out: its recommendation is undefined
    # at x = 0 (ROADMAP item 2), and require_runnable refuses the subnormal
    # initial stocks where it overflows
    record = simulate(*run)
    assert all(math.isfinite(v) for s in record.samples for v in s[:6])


def test_event_completeness(symmetric_params, logistic, floors):
    # every flag flip between consecutive samples maps to exactly one event
    record = simulate(symmetric_params, logistic, floors,
                      config(strategy=Strategy.ICHTHYOCENTRIC, horizon=50.0))
    flips = 0
    for before, after in zip(record.samples, record.samples[1:]):
        flips += before.viable_ecological != after.viable_ecological
        flips += before.viable_economic != after.viable_economic
    boundary_events = [e for e in record.events
                       if e.kind in (EVENT_VIOLATION, EVENT_RECOVERY)]
    assert flips == len(boundary_events)


def test_determinism(symmetric_params, logistic, floors):
    first = simulate(symmetric_params, logistic, floors, config(horizon=20.0))
    second = simulate(symmetric_params, logistic, floors, config(horizon=20.0))
    assert first.samples == second.samples
    assert first.events == second.events


@pytest.mark.parametrize("scenario, overrides, solves", [
    # both shipped runs repeat, and each steps only to the end of its first
    # repeated period: canonical.ini to step 4,789, crisis.ini to step 5,329
    pytest.param("canonical", {}, 19_157, id="canonical-19157"),
    pytest.param("crisis", {}, 21_700, id="crisis-21700"),
    # canonical.ini first repeats at t = 47.80: before that, every step is
    # computed, 4 solves each, plus the last sample's
    pytest.param("canonical", {"simulation.horizon": 40.0}, 4 * 4_000 + 1, id="unsettled-16001"),
    # a subnormal stock takes the same single recorded solve per step
    pytest.param("canonical", {"strategy.name": "qualitative", "simulation.initial_stock": 1e-310,
                               "simulation.horizon": 1.0}, 411, id="subnormal-411"),
])
def test_nash_solves_per_run(scenario, overrides, solves, request, monkeypatch):
    # per computed step one recorded solve at the stock itself, which RK
    # stage k1 and the region classification reuse, plus stages k2-k4
    # outside a moratorium at a positive stock; the last sample takes its
    # solve alone; the qualitative controller adds one solve per decision
    cfg = ScenarioConfig.from_file(request.getfixturevalue(f"{scenario}_scenario_path"))
    cfg = cfg.with_overrides(overrides)
    calls = 0
    solve = engine._nash_point

    def counted(*args):
        nonlocal calls
        calls += 1
        return solve(*args)

    monkeypatch.setattr(engine, "_nash_point", counted)
    simulate(*cfg.build())
    assert calls == solves


def _float_bits(value):
    return struct.pack("<d", value)


@pytest.mark.parametrize("scenario", ["canonical", "crisis"])
def test_every_step_replays_from_its_sample(scenario, request):
    # each step recomputed from its recorded sample, with the moratorium
    # rebuilt from the events, gives the recorded negotiation and the next
    # sample's stock bit for bit, reused steps included
    cfg = ScenarioConfig.from_file(request.getfixturevalue(f"{scenario}_scenario_path"))
    params, rec, bounds, sim = cfg.build()
    assert sim.record_stride == 1
    record = simulate(params, rec, bounds, sim)
    switches = {round(e.t / sim.dt): e.kind == EVENT_MORATORIUM_START for e in record.events
                if e.kind in (EVENT_MORATORIUM_START, EVENT_MORATORIUM_END)}
    moratorium, idle = False, 0
    for k, sample in enumerate(record.samples):
        moratorium = switches.get(k, moratorium)
        idle += moratorium
        x, r = sample.x, sample.r
        q1, q2, h, regime = engine._nash_point(params, x, r)
        if moratorium:
            q1 = q2 = h = 0.0
        assert ([_float_bits(v) for v in (sample.q_1, sample.q_2, sample.h)], sample.regime) \
            == ([_float_bits(v) for v in (q1, q2, h)], regime), k
        if k + 1 == len(record.samples):
            break

        def rhs(s):
            if s <= 0.0:
                return 0.0
            return rec.rate(s) if moratorium else rec.rate(s) - engine._nash_point(params, s, r)[2]
        x_next = engine._rk4(rhs, x, sim.dt, rhs(x))
        if x_next <= 0.0 < x:
            x_next = 0.0
        assert _float_bits(record.samples[k + 1].x) == _float_bits(x_next), k
    assert (idle > 0) == (scenario == "crisis")     # the moratorium branch replayed too


def _record_bits(record):
    """A record's samples and events with every float as its IEEE bytes."""
    def pack(value):
        return _float_bits(value) if isinstance(value, float) else value
    return ([tuple(map(pack, sample)) for sample in record.samples],
            [(pack(event.t), event.kind, event.detail) for event in record.events])


def _stepped(inputs, monkeypatch):
    """The run of ``inputs`` with the repeat rule off: every step stepped."""
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_REPEAT_KEYS", 0)
        record = simulate(*inputs)
    assert record.settled_from is None
    return record


@pytest.mark.parametrize("flip", ["zero-sign", "moratorium"])
def test_the_repeat_rule_tells_every_input_apart(flip, logistic, floors, monkeypatch):
    # at one unchanging stock each decision flips the sign of r = 0.0, which
    # compares equal to its negation, or the moratorium flag; a solve that
    # tells the inputs apart shows a period of two intervals, not one
    def solve(params, x, r):
        return math.copysign(1.0, r), 0.0, 0.0, engine.Regime.SHUTDOWN_UNPROFITABLE

    def decide(params, rec, bounds, state, x, trend):
        if flip == "zero-sign":
            state.recommendation = -state.recommendation
        else:
            state.moratorium = not state.moratorium

    monkeypatch.setattr(engine, "_nash_point", solve)
    monkeypatch.setattr(engine, "_decide", decide)
    cfg = SimConfig(initial_stock=logistic.capacity, dt=0.01, horizon=1.0, control_interval=0.1,
                    settings=settings(Strategy.QUALITATIVE, initial_recommendation=0.0))
    inputs = EconParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0), logistic, floors, cfg
    record = simulate(*inputs)
    assert record.settled_from == (30, 20)
    assert _record_bits(record) == _record_bits(_stepped(inputs, monkeypatch))
    samples = record.samples
    assert {s.x for s in samples} == {logistic.capacity}
    flipped = -1.0 if flip == "zero-sign" else 0.0
    assert [_float_bits(s.q_1) for s in samples] == [
        _float_bits(flipped if (k // 10) % 2 else 1.0) for k in range(len(samples))]


@pytest.mark.parametrize("scenario", ["canonical", "crisis"])
def test_emptied_repeat_dict_keeps_the_record(scenario, request, monkeypatch):
    # a bound of 7 states empties the dict over and over, so the repeat is
    # found later; the record stays the same bits
    cfg = ScenarioConfig.from_file(request.getfixturevalue(f"{scenario}_scenario_path"))
    expected = simulate(*cfg.build())
    monkeypatch.setattr(engine, "_REPEAT_KEYS", 7)
    record = simulate(*cfg.build())
    assert record.settled_from is not None
    assert _record_bits(record) == _record_bits(expected)


@functools.cache
def _repeat_at_stride_1(cfg):
    return simulate(*cfg.build()).settled_from


@pytest.mark.parametrize("scenario, strategy", [
    ("canonical", "conservative"), ("canonical", "ichthyocentric"),
    ("canonical", "qualitative"), ("crisis", "qualitative")])
@pytest.mark.parametrize("stride", [1, 7, 20])
@pytest.mark.parametrize("ends", ["at-horizon", "mid-period", "one-step-after-the-window"])
def test_settled_tail_equals_the_stepped_record(scenario, strategy, stride, ends, request,
                                                monkeypatch):
    # a repeating run builds its later samples and events from one period;
    # with the rule off it steps through every one, and the two records are
    # the same bits: at strides that do not divide the period (7) or that
    # skip the repeat's first step, with a last sample off the stride
    # (20,000 % 7 = 1), on a horizon that ends mid-period or one step after
    # the window, and on the qualitative cycles, whose windows hold events
    cfg = ScenarioConfig.from_file(request.getfixturevalue(f"{scenario}_scenario_path"))
    cfg = cfg.with_overrides({"strategy.name": strategy})
    start, period = _repeat_at_stride_1(cfg)    # in steps
    overrides = {"simulation.record_stride": stride}
    if ends != "at-horizon":
        steps = start + period + (period // 2 + 3 if ends == "mid-period" else 0)
        overrides["simulation.horizon"] = steps * cfg.simulation.dt
    cfg = cfg.with_overrides(overrides)
    n_steps = cfg.simulation.time_grid[0]
    assert n_steps >= start + period
    inputs = cfg.build()
    record = simulate(*inputs)
    assert _record_bits(record) == _record_bits(_stepped(inputs, monkeypatch))
    first, samples_period = record.settled_from
    assert samples_period == period // math.gcd(period, stride)
    tail = record.samples[first:]
    step = round(tail[0].t / cfg.simulation.dt)
    assert start <= step < start + stride and step % stride == 0
    assert all(sample[1:] == tail[i][1:] for i, sample in enumerate(tail[samples_period:-1]))
    if ends == "at-horizon":
        assert (n_steps % stride == 1) == (stride == 7)
        assert any(event.t >= tail[0].t for event in record.events) == (strategy == "qualitative")


@pytest.mark.parametrize("scenario, settled_from", [("canonical", (4_780, 10)),
                                                    ("crisis", (5_310, 20))])
def test_settled_tail_starts_where_the_run_settles(scenario, settled_from, request):
    # canonical.ini repeats a fixed point from t = 47.80, one control
    # interval long; crisis.ini, on the qualitative rule table, repeats a
    # 20-step R1 <-> R3 cycle from t = 53.10
    cfg = ScenarioConfig.from_file(request.getfixturevalue(f"{scenario}_scenario_path"))
    record = simulate(*cfg.build())
    assert record.settled_from == settled_from
    assert record.samples[settled_from[0]].t == settled_from[0] * cfg.simulation.dt


def test_the_rule_table_counts_a_still_stock_apart(symmetric_params, logistic, monkeypatch):
    # a moratorium from t = 0 (a catch of 0.6 below the floor of 1 in a
    # stock read as declining) at the capacity holds the stock exactly
    # still, yet the qualitative controller counts growing intervals and
    # lifts it; the growth streak keeps those decisions apart, so the run is
    # its stepped record, and on the lockstep path its own simulate
    floors = ViabilityBounds(stock_floor=1.0, harvest_floor=1.0)
    cfg = SimConfig(initial_stock=logistic.capacity, dt=0.01, horizon=2.0, control_interval=0.1,
                    settings=settings(Strategy.QUALITATIVE, initial_recommendation=0.0,
                                      initial_maturity=Maturity.MATURE, initial_trend=-1))
    inputs = symmetric_params, logistic, floors, cfg
    record = simulate(*inputs)
    assert _record_bits(record) == _record_bits(_stepped(inputs, monkeypatch))
    switches = [(e.t, e.kind) for e in record.events
                if e.kind in (EVENT_MORATORIUM_START, EVENT_MORATORIUM_END)]
    assert switches[:2] == [(0.0, EVENT_MORATORIUM_START), (0.5, EVENT_MORATORIUM_END)]
    assert {s.x for s in record.samples[:51]} == {logistic.capacity}
    cells = [((), *inputs)]
    assert [_bits(cell) for cell in engine._lockstep(cells)] == _scalar(cells)


def test_record_stride_keeps_terminal_sample(symmetric_params, logistic, floors):
    cfg = SimConfig(initial_stock=1.2, settings=settings(), dt=0.01,
                    horizon=20.0, control_interval=0.1, record_stride=7)
    record = simulate(symmetric_params, logistic, floors, cfg)
    assert record.samples[0].t == 0.0
    assert record.samples[-1].t == pytest.approx(20.0)
    dense = simulate(symmetric_params, logistic, floors, config(horizon=20.0))
    assert record.samples[-1].x == dense.samples[-1].x


def test_mean_harvest_adds_left_to_right():
    # 1.0 + 2**-53 rounds back to 1.0 at each addition, as a sweep's running
    # total adds; sum() compensates from Python 3.12 on and gets 1 + 2**-51
    harvests = [1.0] + [2.0 ** -53] * 4
    record = engine.TrajectoryRecord(
        [engine.Sample(float(k), 1.0, 0.0, h, 0.0, 0.0, None, None, None, True, True)
         for k, h in enumerate(harvests)], [], {})
    assert record.mean_harvest() == 1.0 / 5


def test_conservative_control_is_viable_on_random_domains():
    # from any admissible start inside a verified viability domain the
    # conservative law keeps both floors satisfied for the whole horizon
    import numpy as np

    from quotavia import check_viability_domain
    from quotavia.verification import _interior_params

    rng = np.random.default_rng(37)
    checked = 0
    while checked < 15:
        growth = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        capacity = float(np.exp(rng.uniform(np.log(0.8), np.log(5.0))))
        rec = Recruitment(growth, capacity)
        x_lo = capacity * float(rng.uniform(0.2, 0.7))
        params = _interior_params(rng, x_lo)
        if params is None:
            continue
        h_lo = rec.rate(x_lo) * float(rng.uniform(0.2, 0.9))
        bounds = ViabilityBounds(x_lo, h_lo)
        if not check_viability_domain(params, rec, bounds).viable:
            continue
        x0 = float(rng.uniform(x_lo, 2.0 * capacity))
        # continuous-control limit: the recommendation is refreshed every
        # step, so holding it between sparser decisions cannot let the
        # realized harvest drift below the floor while the stock moves
        cfg = SimConfig(initial_stock=x0, settings=settings(), dt=0.02,
                        horizon=40.0, control_interval=0.02)
        record = simulate(params, rec, bounds, cfg)
        assert all(s.x >= x_lo - 1e-6 for s in record.samples)
        assert all(s.h >= h_lo - 1e-6 for s in record.samples)
        checked += 1


@pytest.mark.parametrize("kwargs", [
    dict(strategy=Strategy.CONSERVATIVE),
    dict(strategy=Strategy.ICHTHYOCENTRIC),
    dict(strategy=Strategy.QUALITATIVE, initial_recommendation=0.2),
])
def test_halving_dt_preserves_terminal_stock(symmetric_params, logistic, floors, kwargs):
    coarse = simulate(symmetric_params, logistic, floors, config(dt=0.01, **kwargs))
    fine = simulate(symmetric_params, logistic, floors, config(dt=0.005, **kwargs))
    x1, x2 = coarse.samples[-1].x, fine.samples[-1].x
    assert abs(x1 - x2) / abs(x1) < 1e-6


class TestSweep:
    def test_single_cell_equals_simulate_summary(self, symmetric_params, logistic, floors):
        cfg = config(horizon=20.0)

        def build(overrides):
            assert overrides == {}
            return symmetric_params, logistic, floors, cfg

        cells = sweep(build, [])
        reference = summarize(simulate(symmetric_params, logistic, floors, cfg))
        assert len(cells) == 1
        assert cells[0].terminal_stock == reference.terminal_stock
        assert cells[0].mean_harvest == reference.mean_harvest
        assert cells[0].violated == reference.violated

    def test_cells_reproduce_standalone(self, symmetric_params, logistic, floors):
        def build(overrides):
            params = EconParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, overrides["econ.price"])
            return params, logistic, floors, config(horizon=20.0)

        cells = sweep(build, [("econ.price", [1.5, 2.0, 2.5])])
        lone = sweep(build, [("econ.price", [2.0])])[0]
        match = next(c for c in cells if c.values == (2.0,))
        assert match.terminal_stock == lone.terminal_stock
        assert match.mean_harvest == lone.mean_harvest

    def test_verdict_flips_with_recruitment_condition(self, symmetric_params, logistic):
        # viability flips where the harvest floor crosses recruitment at the
        # stock floor (0.5 for the canonical recruitment)
        def build(overrides):
            floors = ViabilityBounds(1.0, overrides["bounds.harvest_floor"])
            return symmetric_params, logistic, floors, config(horizon=120.0)

        cells = sweep(build, [("bounds.harvest_floor", [0.45, 0.55])])
        assert not cells[0].violated
        assert cells[1].violated

    def test_batches_and_lockstep_runs_keep_every_cell(self, logistic, floors, monkeypatch):
        # 7-cell build batches, two time grids and failing builds in between:
        # every cell as its own simulate gives it, in row-major order
        def build(overrides):
            if overrides["econ.price"] == 2.5 and overrides["simulation.dt"] == 0.02:
                raise ValueError("boom")
            params = EconParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, overrides["econ.price"])
            cfg = SimConfig(initial_stock=1.2, settings=settings(overrides["strategy.name"]),
                            dt=overrides["simulation.dt"], horizon=30 * overrides["simulation.dt"],
                            control_interval=0.1)
            return params, logistic, floors, cfg

        axes = [("simulation.dt", [0.01, 0.02]), ("strategy.name", list(Strategy)),
                ("econ.price", [1.5, 2.0, 2.5, 300.0])]
        monkeypatch.setattr(engine, "_SWEEP_BATCH", 7)
        monkeypatch.setattr(engine, "_LOCKSTEP_MIN_CELLS", 2)
        runs = []
        real = engine._lockstep
        monkeypatch.setattr(engine, "_lockstep", lambda cells: runs.append(len(cells)) or real(cells))
        cells = sweep(build, axes)
        expected = [engine._failed((dt, name, price), ValueError("boom"))
                    if price == 2.5 and dt == 0.02 else
                    engine._simulated((dt, name, price), *build({"simulation.dt": dt,
                                                                 "strategy.name": name,
                                                                 "econ.price": price}))
                    for dt, name, price in itertools.product(*(v for _, v in axes))]
        assert [_bits(cell) for cell in cells] == [_bits(cell) for cell in expected]
        # one lockstep run per time grid per batch: cells 0-6 at dt 0.01;
        # 7-11 at 0.01 and 12-13 at 0.02; 14-20 at 0.02 but for the failing
        # 14 and 18; 21 and 23
        assert runs == [7, 5, 2, 5, 2]

    def test_failed_cell_recorded_not_raised(self, symmetric_params, logistic, floors):
        def build(overrides):
            if overrides["econ.price"] > 2.0:
                raise ValueError("boom")
            return symmetric_params, logistic, floors, config(horizon=10.0)

        cells = sweep(build, [("econ.price", [2.0, 3.0])])
        assert cells[0].error is None
        assert cells[1].error == "ValueError: boom"


def _bits(cell):
    """A CellResult with every float as its IEEE bytes, so NaN and -0.0
    compare exactly."""
    def pack(v):
        return None if v is None else struct.pack("<d", v)
    return (cell.values, cell.violated, pack(cell.first_violation),
            pack(cell.terminal_stock), pack(cell.mean_harvest), cell.error)


def _scalar(cells):
    return [_bits(engine._simulated(*cell)) for cell in cells]


@st.composite
def lockstep_cells(draw, dt, per_control, steps, stride):
    """One random cell on the given time grid: all three strategies, one
    fishery in seven unmanaged (a conservative one then raises), stocks
    down to 1e-320."""
    params, rec, bounds = _fishery(draw)
    control = StrategySettings(
        draw(st.sampled_from(list(Strategy))),
        rate=draw(_between(0.01, 0.5)),
        floor_step=draw(st.none() | _between(0.0, 0.1)),
        initial_recommendation=draw(st.none() | _between(0.0, 10.0)),
        initial_maturity=draw(st.sampled_from(list(Maturity))),
        initial_trend=draw(st.sampled_from([None, 1, -1])),
        moratorium_exit_intervals=draw(st.integers(1, 5)))
    stock = draw(_between(1e-320, 2.0 * rec.capacity) | st.sampled_from([1e-320, 1e-310, 1e-300]))
    cfg = SimConfig(initial_stock=stock, settings=control, dt=dt, horizon=steps * dt,
                    control_interval=per_control * dt, record_stride=stride)
    return (stock,), params, rec, bounds, cfg


@st.composite
def lockstep_groups(draw):
    dt = draw(st.sampled_from([0.01, 0.025]))
    per_control = draw(st.integers(1, 10))
    steps = draw(st.integers(per_control, 120))
    stride = draw(st.integers(1, 3))
    size = draw(st.integers(1, 6))
    return [draw(lockstep_cells(dt, per_control, steps, stride)) for _ in range(size)]


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(cells=lockstep_groups())
def test_lockstep_matches_simulate_bit_for_bit(cells):
    # groups far below the crossover, which sweep runs one by one, taken
    # through the lockstep path all the same
    assert [_bits(cell) for cell in engine._lockstep(cells)] == _scalar(cells)


def _special_cells():
    """Cells on one time grid (dt 0.01, 300 steps, stride 3) where the
    lockstep path has to follow the scalar code through its corners."""
    canonical = EconParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0)
    unmanaged = EconParams(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 2.0)
    rec, bounds = Recruitment(1.0, 2.0), ViabilityBounds(1.0, 0.4)

    def cell(name, params, stock, strategy, **kwargs):
        cfg = SimConfig(initial_stock=stock, settings=settings(strategy, **kwargs), dt=0.01,
                        horizon=3.0, control_interval=0.1, record_stride=3)
        return (name,), params, rec, bounds, cfg

    cells = [
        # crisis.ini: a moratorium at t = 0 that lifts and closes again
        cell("crisis", canonical, 0.6, Strategy.QUALITATIVE,
             initial_maturity=Maturity.MATURE, initial_trend=-1),
        cell("crisis-late", canonical, 0.9, Strategy.QUALITATIVE,
             initial_maturity=Maturity.MATURE, initial_trend=-1, moratorium_exit_intervals=2),
        # extinction: the conservative floor recommendation at x = 0 raises
        cell("extinct", EconParams(0.01, 0.01, 1.0, 1.0, 1.0, 1.0, 1000.0), 1.2,
             Strategy.CONSERVATIVE),
        # the deviation weight times the stock underflows to 0
        cell("underflow", EconParams(1.0, 1.0, 1.0, 1.0, 0.1, 0.1, 2.0), 5e-324,
             Strategy.CONSERVATIVE),
        # library path: no threshold curves without deviation costs
        cell("unmanaged-conservative", unmanaged, 1.2, Strategy.CONSERVATIVE),
        cell("unmanaged-ichthyocentric", unmanaged, 1.2, Strategy.ICHTHYOCENTRIC),
        cell("unmanaged-qualitative", unmanaged, 1.2, Strategy.QUALITATIVE, initial_trend=1),
    ]
    for strategy in Strategy:
        for stock in (1e-320, 1e-310, 1e-300):
            cells.append(cell(f"{strategy.value}-{stock}", canonical, stock, strategy))
    return cells


def test_lockstep_matches_simulate_on_special_cells():
    cells = _special_cells()
    expected = _scalar(cells)
    errors = {bits[0][0]: bits[5] for bits in expected if bits[5] is not None}
    assert errors == {
        "extinct": "ValueError: stock must be positive",
        "underflow": "ConfigError: [simulation] initial_stock: 5e-324 times "
                     "beta_1 * kappa_2 + beta_2 * kappa_1 underflows to 0",
        "unmanaged-conservative": "ConfigError: [econ] kappa_1, kappa_2: the conservative "
                                  "strategy needs a positive deviation cost; with both 0 "
                                  "the threshold curves are undefined",
        "conservative-1e-320": "ConfigError: [simulation] initial_stock: 1e-320 gives the "
                               "conservative strategy a floor recommendation of inf",
        "conservative-1e-310": "ConfigError: [simulation] initial_stock: 1e-310 gives the "
                               "conservative strategy a floor recommendation of inf",
    }
    record = simulate(*cells[0][1:])
    assert {e.kind for e in record.events} >= {EVENT_MORATORIUM_START, EVENT_MORATORIUM_END}
    assert [_bits(cell) for cell in engine._lockstep(cells)] == expected


def test_lockstep_steps_qualitative_cells_through_the_rule_table(monkeypatch):
    # one rule table for both paths: each qualitative cell's own state goes
    # through engine.qualitative_step at every decision (30 in 300 steps),
    # and once more at t = 0 when its trend is seeded
    cells = _special_cells()
    expected = _scalar(cells)
    calls = collections.Counter()
    step = engine.qualitative_step

    def counted(state, region):
        calls[id(state.settings)] += 1
        return step(state, region)

    monkeypatch.setattr(engine, "qualitative_step", counted)
    assert [_bits(cell) for cell in engine._lockstep(cells)] == expected
    ruled = [cfg.settings for *_, cfg in cells if cfg.settings.strategy is Strategy.QUALITATIVE]
    assert len(ruled) == 6
    assert calls == {id(s): 30 + (s.initial_trend is not None) for s in ruled}


def test_lockstep_reads_recruitment_and_the_floor_formula_as_columns(monkeypatch):
    # one recruitment law and one floor formula for both paths: the lockstep
    # calls Recruitment.rate on its columns at the 4 RK4 stages of each of
    # its 300 steps (rhs) and at each of its 30 ichthyocentric decisions, and
    # the floor formula at each of its 30 conservative decisions
    cells = _special_cells()
    expected = _scalar(cells)
    rate, floor = Recruitment.rate, engine._binding_recommendation
    calls = collections.Counter()

    def spied_rate(rec, x):
        if isinstance(x, np.ndarray):
            calls["rate", x.shape, rec.growth.shape, rec.capacity.shape] += 1
        return rate(rec, x)

    def spied_floor(params, x, h):
        calls["floor", x.shape, params.weight.shape, h.shape] += 1
        return floor(params, x, h)

    monkeypatch.setattr(Recruitment, "rate", spied_rate)
    monkeypatch.setattr(engine, "_binding_recommendation", spied_floor)
    assert [_bits(cell) for cell in engine._lockstep(cells)] == expected
    live = (len(cells) - 4,)   # the four cells require_runnable refuses fail at t = 0
    assert calls == {("rate", live, live, live): 4 * 300 + 30, ("floor", live, live, live): 30}


def test_only_simulate_computes_the_viability_verdict(monkeypatch):
    # the verdict is kept in a TrajectoryRecord's metadata; a lockstep cell
    # keeps its summary only, so the lockstep never computes one
    cells = (_special_cells() * 4)[:engine._LOCKSTEP_MIN_CELLS]
    expected = _scalar(cells)
    check, calls = engine.check_viability_domain, []
    monkeypatch.setattr(engine, "check_viability_domain",
                        lambda *args: calls.append(args) or check(*args))
    assert [_bits(cell) for cell in engine._lockstep(cells)] == expected
    assert calls == []
    record = simulate(*cells[0][1:])
    assert len(calls) == 1
    assert record.metadata["viability_verdict"] == check(*cells[0][1:4])


def test_library_refuses_what_the_cli_refuses(canonical_scenario_path, tmp_path, capsys):
    # one place for a run's preconditions: the CLI's refusal of each input,
    # with its config error text, is what simulate raises and what both
    # sweep paths record for the cell
    base = ScenarioConfig.from_file(canonical_scenario_path).with_overrides(
        {"simulation.horizon": 1.0})
    cases = [{"econ.kappa_1": 0.0, "econ.kappa_2": 0.0}]
    cases += [{"econ.kappa_1": 1e-10, "econ.kappa_2": 1e-10, "bounds.stock_floor": 1e-315,
               "strategy.name": strategy.value} for strategy in Strategy]
    cases += [{"econ.kappa_1": 0.1, "econ.kappa_2": 0.1, "simulation.initial_stock": stock}
              for stock in (5e-324, 1e-320, 1e-310)]
    messages, inputs = [], []
    for i, overrides in enumerate(cases):
        cfg = base.with_overrides(overrides)
        path = tmp_path / f"case{i}.ini"
        path.write_text(cfg.to_text())
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.endswith("\n")
        messages.append(err[len("config error: "):-1])
        inputs.append(cfg.build())
        with pytest.raises(ConfigError) as info:
            simulate(*inputs[-1])
        assert str(info.value) == messages[-1]
    assert not (tmp_path / "out").exists()
    assert ConfigError is engine.ConfigError is scenario.ConfigError
    recorded = [f"ConfigError: {message}" for message in messages]
    cells = [((i,), *run) for i, run in enumerate(inputs)]
    assert [cell.error for cell in engine._lockstep(cells)] == recorded
    assert len(cases) < engine._LOCKSTEP_MIN_CELLS   # sweep runs the cells one by one
    results = sweep(lambda overrides: inputs[overrides["case"]], [("case", list(range(len(cases))))])
    assert [cell.error for cell in results] == recorded


def test_lockstep_matches_simulate_on_settled_runs(canonical_scenario_path, crisis_scenario_path,
                                                   monkeypatch):
    # _lockstep computes every step, so it checks simulate on runs that
    # repeat a fixed point or a cycle, whose records simulate builds mostly
    # from one period: the shipped scenarios at horizon 200, each with all
    # three strategies
    cells = []
    for path in (canonical_scenario_path, crisis_scenario_path):
        for strategy in Strategy:
            cfg = ScenarioConfig.from_file(path).with_overrides({"strategy.name": strategy.value})
            cells.append(((os.path.basename(path), strategy.value), *cfg.build()))
    computed = 0
    rk4 = engine._rk4

    def counted(*args):
        nonlocal computed
        computed += 1
        return rk4(*args)

    monkeypatch.setattr(engine, "_rk4", counted)
    expected = _scalar(cells)
    assert computed < len(cells) * 20_000 // 4
    assert [_bits(cell) for cell in engine._lockstep(cells)] == expected


@pytest.mark.parametrize("stride", [1, 7])
def test_lockstep_finishes_once_every_cell_settles(stride, canonical_scenario_path, monkeypatch):
    # an ensemble of memoryless cells stops stepping once every cell has
    # settled (these by step 1,320 of 20,000) and adds each cell's fixed
    # harvest once per sample left; every cell is still its own simulate
    base = ScenarioConfig.from_file(canonical_scenario_path)
    cells = [((strategy, price, stock), *base.with_overrides(
                 {"strategy.name": strategy, "econ.price": price, "simulation.initial_stock": stock,
                  "simulation.record_stride": stride}).build())
             for strategy in ("conservative", "ichthyocentric")
             for price in (5.0, 8.0, 12.0, 20.0, 30.0)
             for stock in (0.05, 0.5, 1.0, 2.0, 3.0, 4.0)]
    assert len(cells) >= engine._LOCKSTEP_MIN_CELLS
    expected = _scalar(cells)
    computed = 0
    rk4 = engine._rk4

    def counted(*args):
        nonlocal computed
        computed += 1
        return rk4(*args)

    monkeypatch.setattr(engine, "_rk4", counted)
    assert [_bits(cell) for cell in engine._lockstep(cells)] == expected
    assert computed < cells[0][4].time_grid[0] // 10


def test_run_group_on_both_sides_of_the_crossover(monkeypatch):
    special = _special_cells()
    ordinary = [cell for cell in special if cell[0][0] in ("crisis", "crisis-late")]
    lockstep_calls = []
    real = engine._lockstep
    monkeypatch.setattr(engine, "_lockstep", lambda cells: lockstep_calls.append(len(cells)) or real(cells))
    small = special[:engine._LOCKSTEP_MIN_CELLS - 1]
    large = (special * (engine._LOCKSTEP_MIN_CELLS // len(special) + 1))[:engine._LOCKSTEP_MIN_CELLS]
    for cells in (small, large, ordinary):
        assert [_bits(cell) for cell in engine._run_group(cells)] == _scalar(cells)
    assert lockstep_calls == [len(large)]

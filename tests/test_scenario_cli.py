"""Scenario loading, canonical serialization, and the CLI surface."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import struct
import tempfile
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from quotavia import (
    ConfigError,
    Maturity,
    Regime,
    Region,
    Sample,
    ScenarioConfig,
    Strategy,
    classify_region,
    recommendation_ceiling,
    recommendation_floor,
    total_harvest,
    unmanaged_harvest,
)
from quotavia import cli
from quotavia.cli import _parse_grid, main
from quotavia.viability import _SIGN_TOL, phase_blocks

EXPECTED_HEADER = "t,x,r,h,q1,q2,regime,region,maturity,viable_eco,viable_econ"

# sha256 of full-length outputs; simulate and phase promise byte-identical
# output, so any change to these files is a regression
SIMULATE_DIGESTS = {
    "canonical": {
        "trajectory.csv": "e5700a575750b0af70755215bf03bf05269cc1a0343d819dc9063ccb7a0697d8",
        "events.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    },
    "crisis": {
        "trajectory.csv": "1579b243c5fdb4afbf3c1460d3afcae0a39952923eec6e6e059de440f519355e",
        "events.json": "e8282d6cc081e3acce3b58e701231cbf455f4a250b1371e6d940c1bec32ff9fb",
    },
}
PHASE_DIGESTS = {
    "phase_grid.csv": "319bde3092285fd8d8cc207d2df619cd6b36c25dcdbd1c27e3e95c8a089e1845",
    "phase_levels.json": "4df859c67ba27f4134a98b092ddb8ab1ef0fa0c377970482ebca48e3dddbb723",
}
# sha256 of phase_grid.csv on canonical.ini at the extremes of the stock
# axis, where the curves overflow to inf and nan or the stock is near the
# smallest normal float
EXTREME_PHASE_DIGESTS = {
    "1e300:1e308:0:1.5:4:4": "07c574b7b393a623646f30f9d488294c66cf087127280b40de6e1c22f145c7c1",
    "1e-305:2e-305:0:1.5:50:50": "a6d192e1b971d41bf4fe83e6f03f538aa75bbb3e8b78498bff5b9a8d7d24b1b3",
}
# three strategies x 8 prices x 8 stocks, reaching the extinction corner
EXTINCTION_CORNER_AXES = (
    "strategy.name=ichthyocentric|conservative|qualitative,"
    "econ.price=0.3|1.0|3.0|10.0|30.0|100.0|300.0|3000.0,"
    "simulation.initial_stock=0.1:2.0:8,simulation.horizon=2:2:1")
EXTINCTION_CORNER_DIGEST = "1e532cf81a094b2a743c38e99e0e67b182bfca52751f5d6812f82526599a1bd6"


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def canonical(canonical_scenario_path):
    return ScenarioConfig.from_file(canonical_scenario_path)


class TestScenarioConfig:
    def test_loads_canonical(self, canonical):
        assert canonical.econ.price == 2.0
        assert canonical.recruitment.capacity == 2.0
        assert canonical.bounds.harvest_floor == 0.4
        assert canonical.strategy.strategy is Strategy.CONSERVATIVE
        assert canonical.simulation.horizon == 200.0

    def test_round_trip_is_idempotent(self, canonical):
        once = canonical.to_text()
        again = ScenarioConfig.from_text(once).to_text()
        assert once == again

    def test_unknown_key_rejected(self, canonical):
        text = canonical.to_text().replace("[econ]", "[econ]\nfrobnicate = 1")
        with pytest.raises(ConfigError, match="frobnicate"):
            ScenarioConfig.from_text(text)

    def test_unknown_section_rejected(self, canonical):
        with pytest.raises(ConfigError, match="mystery"):
            ScenarioConfig.from_text(canonical.to_text() + "\n[mystery]\nkey = 1\n")

    def test_missing_required_key_rejected(self, canonical):
        text = canonical.to_text().replace("price = 2.0\n", "")
        with pytest.raises(ConfigError, match="price"):
            ScenarioConfig.from_text(text)

    def test_invariants_revalidated(self, canonical):
        text = canonical.to_text().replace("beta_1 = 1.0", "beta_1 = -1.0")
        with pytest.raises(ConfigError, match="econ"):
            ScenarioConfig.from_text(text)

    @pytest.mark.parametrize("old, new, field", [
        ("price = 2.0", "price = inf", "[econ] price:"),
        ("kappa_1 = 1.0", "kappa_1 = nan", "[econ] kappa_1:"),
        ("stock_floor = 1.0", "stock_floor = Infinity", "[bounds] stock_floor:"),
        ("rate = 0.05", "rate = -inf", "[strategy] rate:"),
        ("horizon = 200.0", "horizon = inf", "[simulation] horizon:"),
    ])
    def test_non_finite_value_rejected(self, canonical, old, new, field):
        text = canonical.to_text().replace(old, new)
        with pytest.raises(ConfigError, match=re.escape(field)):
            ScenarioConfig.from_text(text)

    def test_step_budget_rejected(self, canonical):
        # validation only: 200 / 1e-4 = 2e6 steps is above MAX_STEPS
        text = canonical.to_text().replace("dt = 0.01", "dt = 0.0001")
        with pytest.raises(ConfigError, match=r"\[simulation\]: horizon / dt"):
            ScenarioConfig.from_text(text)
        for field, value in (("simulation.horizon", 1e9), ("simulation.dt", "1e-9")):
            section, key = field.split(".")
            with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: horizon / dt"):
                canonical.with_overrides({field: value})

    def test_zero_horizon_rejected(self, canonical):
        text = canonical.to_text().replace("horizon = 200.0", "horizon = 0.0")
        with pytest.raises(ConfigError, match="simulation"):
            ScenarioConfig.from_text(text)

    def test_overrides(self, canonical):
        changed = canonical.with_overrides(
            {"strategy.name": "qualitative", "econ.price": 3.0})
        assert changed.strategy.strategy is Strategy.QUALITATIVE
        assert changed.econ.price == 3.0
        assert changed.simulation.settings.strategy is Strategy.QUALITATIVE
        with pytest.raises(ConfigError, match="unknown field"):
            canonical.with_overrides({"econ.nope": 1.0})

    @pytest.mark.parametrize("field, value", [
        ("econ.price", "-1"),
        ("recruitment.growth", "0"),
        ("strategy.name", "foo"),
        ("strategy.initial_trend", "sideways"),
        ("strategy.initial_maturity", "old"),
        ("simulation.dt", "1.0"),
        ("econ.price", "inf"),
        ("simulation.horizon", "nan"),
        ("econ.price", float("inf")),
        ("bounds.harvest_floor", float("inf")),
        ("strategy.initial_recommendation", float("nan")),
        ("strategy.name", 5),
        ("strategy.initial_maturity", 5),
        ("strategy.initial_trend", 5),
    ])
    def test_invalid_override_names_field(self, canonical, field, value):
        section, key = field.split(".")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}:"):
            canonical.with_overrides({field: value})

    @pytest.mark.parametrize("overrides", [
        {"econ.price": 3},
        {"econ.kappa_1": 0, "econ.kappa_2": 2, "bounds.harvest_floor": 1},
        {"simulation.record_stride": 2.0, "strategy.moratorium_exit_intervals": 3.0},
        {"simulation.horizon": 50, "strategy.floor_step": 0, "strategy.rate": 1},
    ])
    def test_typed_overrides_round_trip(self, canonical, overrides):
        # a float field takes an int as a float, an int field an integral
        # float as an int, so to_text reloads to itself
        text = canonical.with_overrides(overrides).to_text()
        assert ScenarioConfig.from_text(text).to_text() == text

    @pytest.mark.parametrize("field, value", [
        ("simulation.record_stride", 2.5),
        ("strategy.moratorium_exit_intervals", True),
        ("simulation.record_stride", float("inf")),
        ("econ.price", True),
    ])
    def test_typed_override_of_wrong_kind_rejected(self, canonical, field, value):
        section, key = field.split(".")
        kind = "float" if section == "econ" else "int"
        with pytest.raises(ConfigError) as info:
            canonical.with_overrides({field: value})
        assert str(info.value) == f"[{section}] {key}: expected {kind}, got {value!r}"

    @pytest.mark.parametrize("old, key, value, message", [
        ("name = conservative", "name", "foo", "expected Strategy, got 'foo'"),
        ("initial_maturity = emerging", "initial_maturity", "old",
         "expected Maturity, got 'old'"),
        ("initial_trend = none", "initial_trend", "sideways", "expected trend, got 'sideways'"),
    ])
    def test_strategy_word_message(self, canonical, old, key, value, message):
        # the file and the override path parse a strategy word alike
        expected = f"[strategy] {key}: {message}"
        text = canonical.to_text().replace(old, f"{key} = {value}")
        with pytest.raises(ConfigError) as from_file:
            ScenarioConfig.from_text(text)
        with pytest.raises(ConfigError) as from_override:
            canonical.with_overrides({f"strategy.{key}": value})
        assert str(from_file.value) == str(from_override.value) == expected

    @pytest.mark.parametrize("overrides", [
        {"simulation.dt": 0.5, "simulation.control_interval": 0.5},
        {"simulation.control_interval": 300, "simulation.horizon": 300},
    ])
    def test_overrides_are_validated_together(self, canonical, overrides):
        # each intermediate config of one order is invalid, the result is not
        forward = canonical.with_overrides(overrides)
        backward = canonical.with_overrides(dict(reversed(overrides.items())))
        assert forward.to_text() == backward.to_text()
        for field, value in overrides.items():
            assert getattr(forward.simulation, field.split(".")[1]) == value

    def test_failed_section_names_its_overridden_keys(self, canonical):
        overrides = {"econ.price": 3.0, "simulation.dt": 0.5,
                     "simulation.control_interval": 0.2}
        for order, keys in ((overrides, "dt, control_interval"),
                            (dict(reversed(overrides.items())), "control_interval, dt")):
            with pytest.raises(ConfigError) as info:
                canonical.with_overrides(order)
            assert str(info.value) == (f"[simulation] {keys}: "
                                       "control_interval must be at least dt")

    def test_override_parse_error_comes_first(self, canonical):
        with pytest.raises(ConfigError) as info:
            canonical.with_overrides({"simulation.dt": 0.5, "econ.price": "cheap"})
        assert str(info.value) == "[econ] price: expected float, got 'cheap'"


# values for the fields whose checks read other fields, and some that do not
_OVERRIDE_POOL = {
    "simulation.dt": [0.01, 0.1, 0.5, "2.0"],
    "simulation.control_interval": [0.1, 0.5, 2.0, 300.0],
    "simulation.horizon": [0.5, 2.0, 300.0, "1e9"],
    "econ.kappa_1": [0.0, 1.0, -1.0],
    "econ.kappa_2": [0.0, 3.0],
    "econ.price": [0.5, 2.0, "-1"],
    "strategy.name": ["ichthyocentric", "conservative", "qualitative"],
    "strategy.rate": [0.05, 0.5, 0.0],
}


@st.composite
def override_sets(draw):
    fields = draw(st.lists(st.sampled_from(sorted(_OVERRIDE_POOL)),
                           min_size=2, max_size=4, unique=True))
    return {field: draw(st.sampled_from(_OVERRIDE_POOL[field])) for field in fields}


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(overrides=override_sets())
def test_override_order_does_not_matter(canonical_scenario_path, overrides):
    canonical = ScenarioConfig.from_file(canonical_scenario_path)
    outcomes = set()
    for order in itertools.permutations(overrides.items()):
        try:
            outcomes.add(canonical.with_overrides(dict(order)).to_text())
        except ConfigError:
            outcomes.add(ConfigError)
    assert len(outcomes) == 1, overrides


class TestCheckCommand:
    def test_viable_scenario_exits_zero(self, canonical_scenario_path, capsys):
        code = main(["check", "--config", canonical_scenario_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "VIABLE" in out
        assert "0.70000000000" in out       # level a
        assert "0.55278640450" in out       # level b
        assert "1.4472135954" in out        # level c
        assert "b<a" in out

    def test_unviable_scenario_exits_two(self, canonical, tmp_path, capsys):
        text = canonical.to_text().replace("harvest_floor = 0.4", "harvest_floor = 0.6")
        path = tmp_path / "tight.ini"
        path.write_text(text)
        code = main(["check", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "NOT VIABLE" in out
        assert "-0.099999999" in out

    def test_case_ordering_a_below_b(self, canonical, tmp_path, capsys):
        # condition (iii) fails and the floor level a sits below b, with a
        # ceiling/unmanaged crossing under b
        econ = {"alpha_1": 4.0, "alpha_2": 0.1, "beta_1": 5.0, "beta_2": 0.1,
                "kappa_1": 3.0, "kappa_2": 0.2, "price": 5.0}
        config = canonical.with_overrides({f"econ.{k}": v for k, v in econ.items()})
        path = tmp_path / "ordering.ini"
        path.write_text(config.to_text())
        assert main(["check", "--config", str(path)]) == 2
        assert capsys.readouterr().out == (
            "condition (i)   harvest floor attainable unmanaged: margin=33.507692307692309 OK\n"
            "condition (ii)  recruitment covers harvest floor:   margin=0.099999999999999978 OK\n"
            "condition (iii) admissible recommendation exists:   margin=-8.7692307692307683 FAIL\n"
            "verdict: NOT VIABLE\n"
            "a (floor recommendation binds above) = 0.0509803921565299\n"
            "b, c (recruitment equals harvest floor) = 0.55278640450022376, 1.4472135954997758\n"
            "case ordering: a<b\n"
            "ceiling/unmanaged crossings below b: 0.036707195546983706\n")

    def test_invalid_config_exits_one(self, canonical, tmp_path, capsys):
        text = canonical.to_text().replace("beta_1 = 1.0", "beta_1 = -1.0")
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert main(["check", "--config", str(path)]) == 1
        assert "econ" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        assert main(["check", "--config", "/no/such/file.ini"]) == 1


@pytest.mark.parametrize("command, old, new", [
    ("check", "price = 2.0", "price = inf"),
    ("simulate", "price = 2.0", "price = inf"),
    ("simulate", "horizon = 200.0", "horizon = inf"),
])
def test_non_finite_input_exits_one(canonical, tmp_path, capsys, command, old, new):
    path = tmp_path / "bad.ini"
    path.write_text(canonical.to_text().replace(old, new))
    argv = [command, "--config", str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "must be finite" in err


class TestSimulateCommand:
    def test_writes_expected_files(self, canonical, tmp_path, capsys):
        short = canonical.to_text().replace("horizon = 200.0", "horizon = 5.0")
        path = tmp_path / "short.ini"
        path.write_text(short)
        out_dir = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out_dir)]) == 0
        lines = (out_dir / "trajectory.csv").read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER
        assert len(lines) == 502  # header + 501 samples
        events = json.loads((out_dir / "events.json").read_text())
        assert isinstance(events, list)

    def test_byte_identical_reruns(self, canonical, tmp_path):
        short = canonical.to_text().replace("horizon = 200.0", "horizon = 5.0")
        path = tmp_path / "short.ini"
        path.write_text(short)
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            assert main(["simulate", "--config", str(path), "--out", str(d)]) == 0
        for name in ("trajectory.csv", "events.json"):
            first = (dirs[0] / name).read_bytes()
            second = (dirs[1] / name).read_bytes()
            assert first == second

    @pytest.mark.parametrize("scenario", sorted(SIMULATE_DIGESTS))
    def test_bytes_are_pinned(self, scenario, request, tmp_path):
        path = request.getfixturevalue(f"{scenario}_scenario_path")
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        for name, digest in SIMULATE_DIGESTS[scenario].items():
            assert sha256_of(tmp_path / name) == digest, name

    def test_unwritable_output_exits_one(self, canonical_scenario_path, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        assert main(["simulate", "--config", canonical_scenario_path,
                     "--out", str(blocker / "sub")]) == 1

    def test_negative_floor_step_exits_one(self, canonical, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(canonical.to_text().replace(
            "rate = 0.05\n", "rate = 0.05\nfloor_step = -1.0\n"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: [strategy]: floor_step must be non-negative\n"
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("events_file = events.json", "events_file = trajectory.csv",
         "trajectory_file 'trajectory.csv' and events_file 'trajectory.csv' name the same file"),
        ("events_file = events.json", "events_file = ./trajectory.csv",
         "trajectory_file 'trajectory.csv' and events_file './trajectory.csv' name the same file"),
        ("events_file = events.json", "events_file =", "events_file must not be empty"),
        ("trajectory_file = trajectory.csv", "trajectory_file =",
         "trajectory_file must not be empty"),
    ])
    def test_output_file_names_are_validated(self, canonical, tmp_path, capsys,
                                             old, new, message):
        # both files go to one directory: one name for both would overwrite the
        # trajectory with the events, an empty one names the directory itself
        path = tmp_path / "bad.ini"
        path.write_text(canonical.to_text().replace(old, new))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: [output]: {message}\n"
        assert not out.exists()
        field, _, value = new.partition(" =")
        with pytest.raises(ConfigError) as info:
            canonical.with_overrides({f"output.{field}": value.strip()})
        assert str(info.value) == f"[output] {field}: {message}"

    def test_reruns_in_one_process_write_the_same_bytes(self, crisis_scenario_path,
                                                        canonical_scenario_path, tmp_path):
        # each run formats its own values: a later run in the same process
        # writes the same bytes, and cli keeps no formatted values between runs
        runs = [("crisis", crisis_scenario_path), ("canonical", canonical_scenario_path),
                ("crisis", crisis_scenario_path)]
        for index, (scenario, path) in enumerate(runs):
            out = tmp_path / str(index)
            assert main(["simulate", "--config", path, "--out", str(out)]) == 0
            for name, digest in SIMULATE_DIGESTS[scenario].items():
                assert sha256_of(out / name) == digest, (index, name)
        assert not [name for name, value in vars(cli).items()
                    if isinstance(value, dict) and any(isinstance(key, float) for key in value)]

    def test_ichthyocentric_records_violation(self, canonical, tmp_path):
        text = canonical.to_text().replace("name = conservative",
                                           "name = ichthyocentric")
        text = text.replace("horizon = 200.0", "horizon = 5.0")
        path = tmp_path / "ich.ini"
        path.write_text(text)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        events = json.loads((tmp_path / "events.json").read_text())
        violations = [e for e in events if e["kind"] == "ViabilityViolation"]
        assert violations and violations[0]["which"] == "ecological"
        assert 0.0 < violations[0]["t"] < 5.0


# the row template trajectory_rows must reproduce, byte for byte
_REFERENCE_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s,%s,%s,%s\n"


def _reference_line(sample: Sample) -> str:
    return _REFERENCE_ROW % (*sample[:6], sample.regime.value, sample.region.value,
                             sample.maturity.value, str(sample.viable_ecological).lower(),
                             str(sample.viable_economic).lower())


def _twin(value: float) -> float:
    """A distinct float object with the same bits, NaN payload and sign too."""
    return struct.unpack("<d", struct.pack("<d", value))[0]


_SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                   1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.0, 0.1]


@st.composite
def sample_records(draw):
    """Samples whose floats come from a small pool, each use either the pool's
    object itself or a distinct object with the same bits."""
    pool = draw(st.lists(st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()),
                         min_size=1, max_size=8))

    def value():
        chosen = draw(st.sampled_from(pool))
        return _twin(chosen) if draw(st.booleans()) else chosen

    return [Sample(*(value() for _ in range(6)), draw(st.sampled_from(Regime)),
                   draw(st.sampled_from(Region)), draw(st.sampled_from(Maturity)),
                   draw(st.booleans()), draw(st.booleans()))
            for _ in range(draw(st.integers(0, 12)))]


@st.composite
def settled_records(draw):
    """Samples as :func:`sample_records` draws them, maybe followed by a
    repeating run's periodic tail: a window of one to four samples, from the
    draw or holding -0.0 values, repeated with other t, maybe with a last
    sample of its own, as a last sample off the record stride is; and the
    tail's ``(first, period)``, or None."""
    samples = draw(sample_records())
    if not draw(st.booleans()):
        return samples, None
    period = draw(st.integers(1, 4))
    if len(samples) >= period and draw(st.booleans()):
        window = samples[len(samples) - period:]
        samples = samples[:len(samples) - period]
    else:
        window = [Sample(0.0, -0.0, 0.0, -0.0, draw(st.sampled_from([0.0, -0.0, 0.25])), -0.0,
                         draw(st.sampled_from(Regime)), draw(st.sampled_from(Region)),
                         draw(st.sampled_from(Maturity)), draw(st.booleans()), draw(st.booleans()))
                  for _ in range(period)]
    times = draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=12))
    tail = [window[i % period]._replace(t=t) for i, t in enumerate(times)]
    if draw(st.booleans()):
        tail[-1] = draw(sample_records().filter(bool))[0]
    return samples + tail, (len(samples), period)


def _column(*values):
    return [Sample(0.5, v, v, v, v, v, Regime.BINDING, Region.R1_GROWING_ABOVE_FLOOR,
                   Maturity.EMERGING, True, False) for v in values]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(record=settled_records())
@hypothesis.example(record=(_column(0.0, -0.0, 0.0), None))
@hypothesis.example(record=(_column(-0.0, 0.0, -0.0), None))
@hypothesis.example(record=(_column(math.nan, _twin(math.nan), -math.nan, math.nan), None))
@hypothesis.example(record=(_column(5e-324, _twin(5e-324), -5e-324, math.inf, -math.inf), None))
@hypothesis.example(record=(_column(0.0, -0.0) + [s._replace(t=t) for s in _column(-0.0)
                                                   for t in (0.5, 0.75, -0.0, 1e300)], (2, 1)))
@hypothesis.example(record=(_column(0.0) + [s._replace(t=0.25 * i) for i, s in enumerate(
    _column(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 0.5))], (1, 2)))
def test_trajectory_rows_equal_the_row_template(record):
    samples, settled_from = record
    assert list(cli.trajectory_rows(samples, settled_from)) == [_reference_line(s) for s in samples]


class TestPhaseCommand:
    def test_single_point_grid(self, canonical_scenario_path, tmp_path):
        assert main(["phase", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--grid", "1.0:1.0:0.0:0.0:1:1"]) == 0
        lines = (tmp_path / "phase_grid.csv").read_text().splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert float(cells[2]) == pytest.approx(1 / 3)
        assert cells[3] == "binding"

    def test_grid_row_count_and_stationarity(self, canonical_scenario_path, tmp_path):
        assert main(["phase", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--grid", "0.1:2.0:0.0:1.5:20:20"]) == 0
        lines = (tmp_path / "phase_grid.csv").read_text().splitlines()
        assert len(lines) == 401
        levels = json.loads((tmp_path / "phase_levels.json").read_text())
        assert levels["a"] == pytest.approx(0.7, abs=1e-6)
        assert levels["stock_floor"] == 1.0

    def test_stationary_sign_zero(self, canonical_scenario_path, tmp_path):
        assert main(["phase", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--grid", "1.0:1.0:0.25:0.25:1:1"]) == 0
        row = (tmp_path / "phase_grid.csv").read_text().splitlines()[1].split(",")
        assert row[4] == "0"

    def test_bytes_are_pinned(self, canonical_scenario_path, tmp_path):
        assert main(["phase", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--grid", "0.1:2:0:1.5:200:200"]) == 0
        for name, digest in PHASE_DIGESTS.items():
            assert sha256_of(tmp_path / name) == digest, name

    def test_rows_stream_through_module_phase_rows(self, canonical_scenario_path,
                                                   tmp_path, monkeypatch):
        # phase looks phase_rows up at call time, so a wrapper around the
        # module name (as a tracer installs) sees every row it writes
        produce, rows = cli.phase_rows, []

        def counting(*args):
            for row in produce(*args):
                rows.append(row)
                yield row
        monkeypatch.setattr(cli, "phase_rows", counting)
        assert main(["phase", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--grid", "0.1:2:0:1.5:200:200"]) == 0
        assert len(rows) == 200 * 200
        assert sha256_of(tmp_path / "phase_grid.csv") == PHASE_DIGESTS["phase_grid.csv"]

    def test_degenerate_rectangle_rejected(self, canonical_scenario_path, tmp_path, capsys):
        assert main(["phase", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--grid", "2.0:1.0:0.0:1.0:5:5"]) == 1

    @pytest.mark.parametrize("grid", ["0.1:2:0:1:1000000000000000:2",
                                      "0.1:2:0:1:2:100000000000000000000"])
    def test_axis_numpy_cannot_allocate_is_usage_error(self, canonical_scenario_path,
                                                       tmp_path, capsys, grid):
        out = tmp_path / "out"
        assert main(["phase", "--config", canonical_scenario_path, "--out", str(out),
                     "--grid", grid]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --grid: cannot allocate NX=") and "Traceback" not in err
        assert not out.exists()

    def test_unprofitable_zone_rows(self, canonical_scenario_path, tmp_path):
        assert main(["phase", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--grid", "0.3:0.3:0.5:1.0:1:3"]) == 0
        for line in (tmp_path / "phase_grid.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[3] == "shutdown_unprofitable"
            assert float(cells[2]) == 0.0

    @pytest.mark.parametrize("grid", sorted(EXTREME_PHASE_DIGESTS))
    def test_extreme_stocks_are_pinned_and_silent(self, canonical_scenario_path, tmp_path,
                                                  capsys, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["phase", "--config", canonical_scenario_path,
                         "--out", str(tmp_path), "--grid", grid]) == 0
        assert capsys.readouterr().err == ""
        assert sha256_of(tmp_path / "phase_grid.csv") == EXTREME_PHASE_DIGESTS[grid]


def _phase_lines(cfg: ScenarioConfig, grid: str) -> list[str]:
    """The rows ``phase`` writes for ``cfg`` on ``grid``, header dropped."""
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "case.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(cfg.to_text())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["phase", "--config", path, "--out", out, "--grid", grid]) == 0
        with open(os.path.join(out, "phase_grid.csv"), encoding="utf-8") as handle:
            return handle.readlines()[1:]


# a phase_grid.csv row: "%.17g" % v == f"{v:.17g}" for every float
_PHASE_ROW = "%.17g,%.17g,%.17g,%s,%d,%.17g,%.17g,%.17g,%s\n"


def _scalar_phase_lines(cfg: ScenarioConfig, grid: str):
    """The rows of ``grid`` from one scalar solve per point, and the
    (regime, region, sign) tags they reach."""
    params, rec, bounds = cfg.econ, cfg.recruitment, cfg.bounds
    xs, rs = _parse_grid(grid)
    lines, tags = [], set()
    for x in xs:
        rate = rec.rate(x)
        curves = (unmanaged_harvest(params, x), recommendation_ceiling(params, rec, x),
                  recommendation_floor(params, bounds, x))
        for r in rs:
            out = total_harvest(params, x, r)
            gap = rate - out.h
            sign = 0 if abs(gap) <= _SIGN_TOL else (1 if gap > 0.0 else -1)
            region = classify_region(sign, out.h, r, bounds)
            lines.append(_PHASE_ROW % (x, r, out.h, out.regime.value, sign, *curves,
                                       region.value))
            tags.add((out.regime, region, sign))
    return lines, tags


# (econ, recruitment and bounds overrides of canonical.ini, grid): together
# they reach every regime, region and trend sign
PHASE_CASES = [
    ({}, "0.1:2:0:1.5:20:20"),
    ({}, "1.0:1.0:0.25:0.25:1:1"),                  # stationary: sign 0
    ({}, "1e-305:2e-305:0:1.5:5:5"),
    ({}, "1e300:1e308:0:1.5:4:4"),
    ({"econ.alpha_1": 0.5, "econ.alpha_2": 3.0, "econ.beta_2": 0.4,
      "econ.kappa_1": 2.0, "econ.kappa_2": 0.3, "econ.price": 1.5},
     "0.1:8:0:3:30:30"),                            # single groups, R4
    ({"econ.kappa_1": 1e6, "econ.kappa_2": 1e6, "econ.price": 1.0},
     f"{1 + 4e-12!r}:{1 + 4e-12!r}:0:0:1:1"),       # restricted shutdown
]


def test_phase_cases_reach_every_tag(canonical_scenario_path):
    canonical = ScenarioConfig.from_file(canonical_scenario_path)
    seen = set()
    for overrides, grid in PHASE_CASES:
        cfg = canonical.with_overrides(overrides)
        lines, tags = _scalar_phase_lines(cfg, grid)
        assert _phase_lines(cfg, grid) == lines, grid
        seen |= tags
    assert {regime for regime, _, _ in seen} == set(Regime)
    assert {region for _, region, _ in seen} == set(Region)
    assert {sign for _, _, sign in seen} == {-1, 0, 1}


_unit = st.floats(min_value=0.1, max_value=10.0)
_kappa = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=100.0))


@st.composite
def phase_cases(draw):
    """Overrides and a grid: asymmetric costs, one kappa possibly 0, and
    stock axes from near the smallest normal float up to 1e308."""
    overrides = {f"econ.{name}": draw(_unit)
                 for name in ("alpha_1", "alpha_2", "beta_1", "beta_2", "price")}
    kappas = draw(_kappa), draw(_kappa)
    hypothesis.assume(kappas != (0.0, 0.0))
    overrides.update({"econ.kappa_1": kappas[0], "econ.kappa_2": kappas[1],
                      "recruitment.growth": draw(_unit),
                      "recruitment.capacity": draw(st.floats(min_value=0.5, max_value=20.0)),
                      "bounds.harvest_floor": draw(st.floats(min_value=0.01, max_value=10.0))})
    exponent = draw(st.one_of(st.integers(-2, 1), st.integers(-305, 307)))
    x_min = draw(st.floats(min_value=1.0, max_value=9.9)) * 10.0 ** exponent
    x_max = min(x_min * draw(st.floats(min_value=1.01, max_value=10.0)), 1.79e308)
    r_min = draw(st.floats(min_value=0.0, max_value=5.0))
    r_max = r_min + draw(st.floats(min_value=0.0, max_value=5.0))
    nx, nr = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return overrides, f"{x_min!r}:{x_max!r}:{r_min!r}:{r_max!r}:{nx}:{nr}"


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(case=phase_cases())
@hypothesis.example(case=PHASE_CASES[-1])
@hypothesis.example(case=(PHASE_CASES[-1][0],   # restricted shutdown, then non-binding
                          f"{1 + 4e-12!r}:{1 + 4e-12!r}:0:1:1:2"))
def test_phase_rows_equal_scalar_solves(canonical_scenario_path, case):
    overrides, grid = case
    cfg = ScenarioConfig.from_file(canonical_scenario_path).with_overrides(overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lines = _phase_lines(cfg, grid)
    assert lines == _scalar_phase_lines(cfg, grid)[0]


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(case=phase_cases())
@hypothesis.example(case=PHASE_CASES[2])            # near the smallest normal float
@hypothesis.example(case=PHASE_CASES[3])            # curves overflow to inf and nan
def test_phase_blocks_fix_h_where_the_regime_does(canonical_scenario_path, case):
    # phase_rows formats a NON_BINDING h once per stock row and prints a
    # SHUTDOWN_UNPROFITABLE h as "0"; both hold only for these bits
    overrides, grid = case
    cfg = ScenarioConfig.from_file(canonical_scenario_path).with_overrides(overrides)
    non_binding, unprofitable = (list(Regime).index(regime) for regime in
                                 (Regime.NON_BINDING, Regime.SHUTDOWN_UNPROFITABLE))
    for block in phase_blocks(cfg.econ, cfg.recruitment, cfg.bounds, *_parse_grid(grid)):
        bits = block.h.view(np.int64)
        for row_bits, regimes in zip(bits, block.regime):
            assert len(set(row_bits[regimes == non_binding].tolist())) <= 1
        assert not bits[block.regime == unprofitable].any()   # +0.0 alone has no bit set


@pytest.mark.parametrize("count", [0, 1, cli._WRITE_LINES - 1, cli._WRITE_LINES,
                                   cli._WRITE_LINES + 1, 2 * cli._WRITE_LINES + 1])
def test_write_csv_bytes_equal_writelines(tmp_path, count):
    lines = [f"{i},{i / 7!r}\n" for i in range(count)]
    cli._write_csv(str(tmp_path / "blocks.csv"), ["i", "v"], (line for line in lines))
    with open(tmp_path / "lines.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("i,v\n")
        handle.writelines(lines)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "lines.csv").read_bytes()


def test_write_csv_streams(tmp_path):
    # bytes reach the file while the rows are still being produced
    path, line, sizes = tmp_path / "rows.csv", "x" * 99 + "\n", []

    def rows():
        for i in range(4 * cli._WRITE_LINES):
            if i == 3 * cli._WRITE_LINES:
                sizes.append(path.stat().st_size)
            yield line
    cli._write_csv(str(path), ["x"], rows())
    assert sizes[0] >= cli._WRITE_LINES * len(line)
    assert path.stat().st_size == len("x\n") + 4 * cli._WRITE_LINES * len(line)


class TestSweepCommand:
    def test_strategy_axis(self, canonical, tmp_path):
        text = canonical.to_text().replace("horizon = 200.0", "horizon = 60.0")
        path = tmp_path / "sweep.ini"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path),
                     "--axes",
                     "strategy.name=ichthyocentric|conservative|qualitative"]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        verdicts = {row.split(",")[0]: row.split(",")[1] for row in lines[1:]}
        assert verdicts == {"ichthyocentric": "violated",
                            "conservative": "viable",
                            "qualitative": "viable"}

    def test_unknown_axis_field_exits_one(self, canonical_scenario_path, tmp_path):
        assert main(["sweep", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--axes", "econ.nope=1:2:3"]) == 1

    @pytest.mark.parametrize("axes", [
        "econ.price=1|2,econ.price=5|6,simulation.horizon=1:1:1",
        "econ.price=1:2:2,simulation.horizon=1|2, econ.price =3",
    ])
    def test_repeated_axis_field_is_usage_error(self, canonical_scenario_path, tmp_path,
                                                capsys, axes):
        # the later values would silently override the earlier ones in every cell
        assert main(["sweep", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--axes", axes]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --axes econ.price: ") and "given twice" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("axes, cells", [
        # numpy cannot allocate either axis: 7.11 PiB, and above its maximum size
        ("econ.price=1:2:1000000000000000", 10**15),
        ("econ.price=1:2:100000000000000000000", 10**20),
        # every axis is within the limit, their product is not
        ("econ.price=1:2:1001,econ.alpha_1=1:2:1000", 1001000),
        ("econ.price=1|2,econ.alpha_1=1:2:500001", 1000002),
    ])
    def test_grid_above_the_cell_limit_is_usage_error(self, canonical_scenario_path,
                                                      tmp_path, capsys, axes, cells):
        out = tmp_path / "out"
        assert main(["sweep", "--config", canonical_scenario_path, "--out", str(out),
                     "--axes", axes]) == 1
        assert capsys.readouterr().err == f"error: --axes: {cells} cells exceeds the 1000000 limit\n"
        assert not out.exists()

    @pytest.mark.parametrize("axes", [
        "econ.price=-1|1",
        "strategy.name=foo|qualitative",
        "strategy.initial_trend=sideways|growing",
        "econ.price=inf|1",
        "simulation.horizon=inf:inf:1",
        "strategy.floor_step=-1|0.001",
    ])
    def test_invalid_first_value_is_config_error(self, canonical_scenario_path,
                                                 tmp_path, capsys, axes):
        assert main(["sweep", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--axes", axes]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("axes, bad", [
        ("econ.price=2.0|-1,simulation.horizon=1:1:1", "-1"),
        ("simulation.dt=0.01|1.0,simulation.horizon=1:1:1", "1.0"),
        ("econ.price=1|inf,simulation.horizon=1:1:1", "inf"),
        ("strategy.floor_step=0.001|-1,simulation.horizon=1:1:1", "-1"),
    ])
    def test_invalid_later_value_is_error_row(self, canonical_scenario_path,
                                              tmp_path, axes, bad):
        assert main(["sweep", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--axes", axes]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[2] for row in rows] == ["viable", "error: ConfigError"]
        assert rows[1][:2] == [bad, "1"] and rows[1][3:] == ["", "", ""]

    def test_cells_validate_their_overrides_together(self, canonical_scenario_path, tmp_path):
        # the first cell's dt of 0.5 is valid only with its control_interval
        # of 0.5, not with the scenario's 0.1
        axes = ("simulation.dt=0.5|0.01,simulation.control_interval=0.5:0.5:1,"
                "simulation.horizon=2:2:1")
        assert main(["sweep", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--axes", axes]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[:3] for row in rows] == [["0.5", "0.5", "2"], ["0.01", "0.5", "2"]]
        assert all(row[3] in ("viable", "violated") for row in rows)

    def test_non_integral_int_value_is_error_row(self, canonical_scenario_path, tmp_path):
        axes = "simulation.record_stride=1:2:3,simulation.horizon=1:1:1"
        assert main(["sweep", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--axes", axes]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[2] for row in rows] == ["viable", "error: ConfigError", "viable"]

    def test_sweep_bytes_are_pinned(self, canonical_scenario_path, tmp_path):
        # 18 summarized cells over all three strategies; sweep output must
        # stay byte-identical
        assert main(["sweep", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--axes",
                     "strategy.name=ichthyocentric|conservative|qualitative,"
                     "econ.price=1.5:2.5:3,recruitment.growth=0.8|1.2,"
                     "simulation.horizon=2:2:1"]) == 0
        digest = hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
        assert digest == "373144227093073da0b951a7528f20dae835f18da91795c3c84cf8641491e907"

    def test_extinction_corner_bytes_are_pinned(self, canonical_scenario_path, tmp_path):
        # 192 cells, enough for one lockstep group; the conservative cells at
        # prices 300 and 3000 are error: ValueError rows
        assert main(["sweep", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--axes", EXTINCTION_CORNER_AXES]) == 0
        assert sha256_of(tmp_path / "sweep.csv") == EXTINCTION_CORNER_DIGEST
        assert (tmp_path / "sweep.csv").read_text().count("error: ValueError") == 16

    def test_error_messages_beside_the_csv(self, canonical_scenario_path, tmp_path):
        assert main(["sweep", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--axes", EXTINCTION_CORNER_AXES]) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        errors = json.loads((tmp_path / "sweep_errors.json").read_text())
        assert len(errors) == 16
        for entry in errors:
            assert entry["error"] == "ValueError: stock must be positive"
            row = rows[1 + entry["cell"]].split(",")
            assert list(entry["axes"]) == rows[0].split(",")[:4]
            assert list(entry["axes"].values()) == row[:4]
            assert row[4] == "error: ValueError"
        assert main(["sweep", "--config", canonical_scenario_path, "--out", str(tmp_path),
                     "--axes", "econ.price=2.0|inf,simulation.horizon=1:1:1"]) == 0
        assert json.loads((tmp_path / "sweep_errors.json").read_text()) == [
            {"cell": 1, "axes": {"econ.price": "inf", "simulation.horizon": "1"},
             "error": "ConfigError: [econ] price: must be finite, got 'inf'"}]
        assert main(["sweep", "--config", canonical_scenario_path, "--out", str(tmp_path),
                     "--axes", "econ.price=2.0|2.5,simulation.horizon=1:1:1"]) == 0
        assert (tmp_path / "sweep_errors.json").read_text() == "[]\n"

    def test_no_floating_point_warnings(self, canonical_scenario_path, tmp_path, capsys):
        # a warning turned into an exception would abort the sweep or turn a
        # cell into an error row, which the digest would show
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", canonical_scenario_path,
                         "--out", str(tmp_path), "--axes", EXTINCTION_CORNER_AXES]) == 0
        assert capsys.readouterr().err == ""
        assert sha256_of(tmp_path / "sweep.csv") == EXTINCTION_CORNER_DIGEST

    def test_harvest_floor_axis_flips_at_recruitment(self, canonical, tmp_path):
        text = canonical.to_text().replace("horizon = 200.0", "horizon = 120.0")
        path = tmp_path / "floor.ini"
        path.write_text(text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path),
                     "--axes", "bounds.harvest_floor=0.45:0.55:2"]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert lines[0].split(",")[1] == "viable"
        assert lines[1].split(",")[1] == "violated"


class TestVerifyCommand:
    def test_reduced_run_passes(self, capsys):
        assert main(["verify", "--instances", "10"]) == 0
        out = capsys.readouterr().out
        assert "5/5 suites passed" in out

    def test_different_seed_still_passes(self, capsys):
        assert main(["verify", "--seed", "99", "--instances", "10"]) == 0

    @pytest.mark.parametrize("count", ["0", "-1", "-3"])
    def test_instances_below_one_is_usage_error(self, capsys, count):
        assert main(["verify", "--instances", count]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --instances: N must be at least 1\n"
        assert captured.out == ""

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["verify", "--seed", "-1", "--instances", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --seed: -1 is negative; seeds are non-negative integers\n"
        assert captured.out == ""


# sha256 of trajectory.csv/events.json of a 20-time-unit canonical run with
# both deviation costs at 0; these strategies never need the threshold
# curves, so an unmanaged run must keep working and keep its bytes
UNMANAGED_DIGESTS = {
    "qualitative": ("167af71db11e28ba00906494b6fe63d91fad38871f95ec69a3b2ee590b0238a0",
                    "6447431771178d1626dc0a47f27f1133183072697927c9465c2946e480d2451d"),
    "ichthyocentric": ("0038b9bcc57b91b705237db7d554bd34a0cc4a0db4a6dd65828cde80222c9a04",
                       "0e789fcf803ad5ba2d5fcd055c9f277258ca755fcf364f909db0632461643b37"),
}


class TestUnmanagedScenario:
    @pytest.fixture()
    def unmanaged(self, canonical):
        return (canonical.to_text().replace("kappa_1 = 1.0", "kappa_1 = 0.0")
                .replace("kappa_2 = 1.0", "kappa_2 = 0.0")
                .replace("horizon = 200.0", "horizon = 20.0"))

    @pytest.mark.parametrize("argv", [
        ["check"],
        ["phase", "--grid", "0.1:2:0:1.5:5:5"],
        ["simulate"],
    ])
    def test_threshold_curve_users_exit_one(self, unmanaged, tmp_path, capsys, argv):
        path = tmp_path / "unmanaged.ini"
        path.write_text(unmanaged)       # canonical.ini runs the conservative strategy
        out = ["--out", str(tmp_path / "out")] if argv[0] != "check" else []
        assert main([*argv, "--config", str(path), *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [econ] kappa_1, kappa_2: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("strategy", sorted(UNMANAGED_DIGESTS))
    def test_other_strategies_run(self, unmanaged, tmp_path, strategy):
        path = tmp_path / "unmanaged.ini"
        path.write_text(unmanaged.replace("name = conservative", f"name = {strategy}"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        digests = (sha256_of(tmp_path / "trajectory.csv"),
                   sha256_of(tmp_path / "events.json"))
        assert digests == UNMANAGED_DIGESTS[strategy]

    def test_sweep_cell_is_config_error(self, canonical_scenario_path, tmp_path, capsys):
        axes = "econ.kappa_1=1|0,econ.kappa_2=0:0:1,simulation.horizon=1:1:1"
        assert main(["sweep", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--axes", axes]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[3] for row in rows] == ["viable", "error: ConfigError"]
        first_unmanaged = "econ.kappa_1=0|1,econ.kappa_2=0:0:1,simulation.horizon=1:1:1"
        assert main(["sweep", "--config", canonical_scenario_path,
                     "--out", str(tmp_path / "first"), "--axes", first_unmanaged]) == 1
        assert "kappa_1, kappa_2" in capsys.readouterr().err
        assert not (tmp_path / "first").exists()


@pytest.mark.parametrize("argv", [
    ["check"],
    ["phase", "--grid", "0.1:2:0:1.5:5:5"],
    ["simulate"],
])
@pytest.mark.parametrize("betas, kappas, product", [
    ("1e-200", "1e-200", "beta_1 * beta_2"),
    ("1e-200", "1.0", "beta_1 * beta_2"),
    ("1.0", "1e-320", "beta_1 * kappa_2 + beta_2 * kappa_1"),
])
def test_underflowing_econ_products_exit_one(canonical, tmp_path, capsys, argv,
                                             betas, kappas, product):
    text = canonical.to_text()
    for key, value in (("beta", betas), ("kappa", kappas)):
        for i in (1, 2):
            text = text.replace(f"{key}_{i} = 1.0", f"{key}_{i} = {value}")
    path = tmp_path / "tiny.ini"
    path.write_text(text)
    out = ["--out", str(tmp_path / "out")] if argv[0] != "check" else []
    assert main([*argv, "--config", str(path), *out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [econ]: {product} must be a normal float")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, option, spec", [
    ("phase", "--grid", "0.1:inf:0:1.5:3:2"),
    ("phase", "--grid", "0.1:2:nan:1.5:3:2"),
    ("phase", "--grid", "nan:2:0:1.5:3:2"),
    ("phase", "--grid", "inf:inf:0:0:1:1"),
    ("sweep", "--axes", "econ.price=1:inf:2"),
    ("sweep", "--axes", "econ.price=nan:1:3"),
    ("sweep", "--axes", "econ.price=-inf:inf:2"),
])
def test_non_finite_bounds_are_usage_errors(canonical_scenario_path, tmp_path, capsys,
                                            command, option, spec):
    assert main([command, "--config", canonical_scenario_path,
                 "--out", str(tmp_path), option, spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}") and "must be finite" in err
    assert "Warning" not in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid", ["1e-315:1e-314:0:1:2:2", "5e-324:1:0:1:3:1"])
def test_phase_stock_whose_weighted_product_underflows_is_usage_error(canonical, tmp_path,
                                                                      capsys, grid):
    # the threshold curves divide by (beta_1 * kappa_2 + beta_2 * kappa_1) * x
    path = tmp_path / "cheap.ini"
    path.write_text(canonical.to_text().replace("kappa_1 = 1.0", "kappa_1 = 1e-10")
                    .replace("kappa_2 = 1.0", "kappa_2 = 1e-10"))
    out = tmp_path / "out"
    assert main(["phase", "--config", str(path), "--out", str(out), "--grid", grid]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --grid: XMIN ") and "underflows to 0" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "phase"])
@pytest.mark.parametrize("scenario, edits", [
    ("canonical", {"growth = 1.0": "growth = 1e154", "capacity = 2.0": "capacity = 1e-320",
                   "kappa_1 = 1.0": "kappa_1 = 3"}),
    ("crisis", {"beta_2 = 1.0": "beta_2 = 5e-308", "capacity = 2.0": "capacity = 1e-200",
                "kappa_2 = 1.0": "kappa_2 = 0"}),
], ids=["bracket-underflows", "weighted-bracket-underflows"])
def test_critical_levels_bracket_that_underflows_is_config_error(request, tmp_path, capsys,
                                                                 command, scenario, edits):
    # critical_levels brackets from LEVELS_BRACKET of the capacity, where the
    # threshold curves divide by (beta_1 * kappa_2 + beta_2 * kappa_1) * x
    with open(request.getfixturevalue(f"{scenario}_scenario_path"), encoding="utf-8") as handle:
        text = handle.read()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "small.ini"
    path.write_text(text)
    out = tmp_path / "out"
    grid = ["--out", str(out), "--grid", "0.1:2:0:1:5:5"] if command == "phase" else []
    assert main([command, "--config", str(path), *grid]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: [recruitment] capacity: ")
    assert "underflows to 0" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


class TestStockFloorWeightUnderflow:
    """Deviation costs of 1e-10 times a stock floor of 1e-315 underflow to
    0, and the viability check divides by that product."""

    @pytest.fixture()
    def tiny(self, canonical, tmp_path):
        path = tmp_path / "tiny.ini"
        path.write_text(canonical.to_text().replace("kappa_1 = 1.0", "kappa_1 = 1e-10")
                        .replace("kappa_2 = 1.0", "kappa_2 = 1e-10")
                        .replace("stock_floor = 1.0", "stock_floor = 1e-315"))
        return path

    @pytest.mark.parametrize("command, strategy", [
        ("check", "conservative"),
        ("simulate", "conservative"),
        ("simulate", "ichthyocentric"),
        ("simulate", "qualitative"),
    ])
    def test_check_and_simulate_exit_one(self, tiny, tmp_path, capsys, command, strategy):
        tiny.write_text(tiny.read_text().replace("name = conservative", f"name = {strategy}"))
        out = ["--out", str(tmp_path / "out")] if command == "simulate" else []
        assert main([command, "--config", str(tiny), *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [bounds] stock_floor: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_phase_runs(self, tiny, tmp_path, capsys):
        assert main(["phase", "--config", str(tiny), "--out", str(tmp_path),
                     "--grid", "0.1:2:0:1.5:5:5"]) == 0
        assert capsys.readouterr().err == ""

    def test_sweep_cell_is_config_error(self, canonical_scenario_path, tmp_path):
        axes = ("econ.kappa_1=1e-10:1e-10:1,econ.kappa_2=1e-10:1e-10:1,"
                "bounds.stock_floor=1|1e-315,simulation.horizon=1:1:1")
        assert main(["sweep", "--config", canonical_scenario_path,
                     "--out", str(tmp_path), "--axes", axes]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[4] for row in rows] == ["violated", "error: ConfigError"]
        (error,) = json.loads((tmp_path / "sweep_errors.json").read_text())
        assert error["cell"] == 1
        assert error["error"].startswith("ConfigError: [bounds] stock_floor: ")


class TestConservativeInitialStock:
    """The conservative strategy decides at t = 0 on the floor
    recommendation, which divides by the deviation weight times the stock:
    a product of 0 would raise, and a subnormal one gives r = inf."""

    @pytest.fixture()
    def cheap(self, canonical, tmp_path):
        path = tmp_path / "cheap.ini"
        path.write_text(canonical.to_text().replace("kappa_1 = 1.0", "kappa_1 = 0.1")
                        .replace("kappa_2 = 1.0", "kappa_2 = 0.1")
                        .replace("horizon = 200.0", "horizon = 1.0"))
        return path

    @pytest.mark.parametrize("stock, reason", [
        ("5e-324", "5e-324 times beta_1 * kappa_2 + beta_2 * kappa_1 underflows to 0"),
        ("1e-320", "1e-320 gives the conservative strategy a floor recommendation of inf"),
        ("1e-310", "1e-310 gives the conservative strategy a floor recommendation of inf"),
    ])
    def test_simulate_exits_one(self, cheap, tmp_path, capsys, stock, reason):
        cheap.write_text(cheap.read_text().replace("initial_stock = 1.2", f"initial_stock = {stock}"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cheap), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: [simulation] initial_stock: {reason}\n"
        assert not out.exists()

    def test_simulate_runs_where_the_floor_is_finite(self, canonical, tmp_path):
        path = tmp_path / "small.ini"
        path.write_text(canonical.to_text().replace("initial_stock = 1.2", "initial_stock = 1e-300")
                        .replace("horizon = 200.0", "horizon = 1.0"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 102 and float(rows[1].split(",")[2]) == pytest.approx(7e299)

    @pytest.mark.parametrize("strategy", ["ichthyocentric", "qualitative"])
    def test_other_strategies_run(self, cheap, tmp_path, strategy):
        cheap.write_text(cheap.read_text().replace("initial_stock = 1.2", "initial_stock = 5e-324")
                         .replace("name = conservative", f"name = {strategy}"))
        assert main(["simulate", "--config", str(cheap), "--out", str(tmp_path)]) == 0

    def test_sweep_cell_is_config_error(self, cheap, tmp_path, capsys):
        axes = "simulation.initial_stock=1.2|5e-324|1e-320|1e-300"
        assert main(["sweep", "--config", str(cheap), "--out", str(tmp_path), "--axes", axes]) == 0
        rows = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == ["violated", "error: ConfigError", "error: ConfigError",
                                            "viable"]
        errors = json.loads((tmp_path / "sweep_errors.json").read_text())
        assert [(e["cell"], e["error"].partition(" ")[2].partition(":")[0]) for e in errors] == [
            (1, "[simulation] initial_stock"), (2, "[simulation] initial_stock")]
        out = tmp_path / "first"
        assert main(["sweep", "--config", str(cheap), "--out", str(out),
                     "--axes", "simulation.initial_stock=1e-320|1.2"]) == 1
        assert capsys.readouterr().err.startswith("config error: [simulation] initial_stock: ")
        assert not out.exists()


def test_usage_error_exits_one(capsys):
    assert main(["simulate", "--nonsense"]) == 1
    assert main(["phase", "--config", "x", "--grid", "1:2:3"]) == 1


@pytest.mark.parametrize("command, options", [
    ("check", []),
    ("simulate", []),
    ("phase", ["--grid", "0.1:2:0:1:5:5"]),
    ("sweep", ["--axes", "econ.price=1:2:2"]),
])
def test_config_that_is_not_utf8_exits_one(tmp_path, capsys, command, options):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"[econ]\nalpha_1 = 1.0 # caf\xe9\n")
    out = tmp_path / "out"
    if command != "check":
        options = ["--out", str(out), *options]
    assert main([command, "--config", str(path), *options]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {path}: not UTF-8 text: ")
    assert "can't decode byte 0xe9 in position 26" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command, options, files", [
    ("simulate", ["--out", ""], ["trajectory.csv", "events.json"]),
    ("simulate", [], ["trajectory.csv", "events.json"]),      # [output] directory =
    ("phase", ["--grid", "0.1:2:0:1:3:3", "--out", ""],
     ["phase_grid.csv", "phase_levels.json"]),
    ("sweep", ["--axes", "simulation.horizon=1:1:1", "--out", ""],
     ["sweep.csv", "sweep_errors.json"]),
])
def test_empty_output_directory_is_the_working_directory(canonical, tmp_path, monkeypatch,
                                                         capsys, command, options, files):
    # os.path.join("", name) is name, so the files land where the command runs
    monkeypatch.chdir(tmp_path)
    config = canonical.with_overrides({"simulation.horizon": 1.0, "output.directory": ""})
    (tmp_path / "scenario.ini").write_text(config.to_text())
    assert main([command, "--config", "scenario.ini", *options]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(os.listdir(tmp_path)) == sorted(["scenario.ini", *files])


# ROADMAP item 8's pool of extreme values, set in 1-3 of these fields
_CONTRACT_KEYS = ["alpha_1", "alpha_2", "beta_1", "beta_2", "kappa_1", "kappa_2", "price",
                  "growth", "capacity", "stock_floor", "harvest_floor", "initial_stock"]
_CONTRACT_VALUES = ["0", "-1", "1e-320", "1e-310", "5e-308", "1e-200", "1e-10", "0.5", "1",
                    "3", "30", "3000", "1e10", "1e154", "1e200", "1e308", "inf", "nan"]


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(scenario=st.sampled_from(["canonical", "crisis"]),
                  edits=st.dictionaries(st.sampled_from(_CONTRACT_KEYS),
                                        st.sampled_from(_CONTRACT_VALUES),
                                        min_size=1, max_size=3))
def test_check_and_phase_exit_zero_one_or_two(request, contract_dir, scenario, edits):
    # the keys are unique across sections, one "key = value" line each
    with open(request.getfixturevalue(f"{scenario}_scenario_path"), encoding="utf-8") as handle:
        text = handle.read()
    for key, value in edits.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1, key
    path = contract_dir / "edited.ini"
    path.write_text(text, encoding="utf-8")
    for argv in (["check"], ["phase", "--out", str(contract_dir), "--grid", "0.1:2:0:1:5:5"]):
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*argv, "--config", str(path)])
        assert code in (0, 1, 2), (argv[0], edits)

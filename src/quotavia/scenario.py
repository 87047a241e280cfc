"""Scenario configuration: a flat, sectioned key-value format.

Strict schema: unknown sections or keys are rejected with a field
diagnostic, every value is re-validated through the domain types, and
serialization emits a canonical form (fixed order, explicit defaults) so
load -> serialize is idempotent.
"""

from __future__ import annotations

import configparser
import io
import math
import os
from dataclasses import dataclass
from enum import Enum

from .control import Strategy, StrategySettings
from .econ import EconParams, Recruitment
from .engine import ConfigError, SimConfig
from .viability import Maturity, ViabilityBounds

__all__ = ["ConfigError", "OutputSettings", "ScenarioConfig"]


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "."
    trajectory_file: str = "trajectory.csv"
    events_file: str = "events.json"

    def __post_init__(self):
        # simulate writes both files into one directory: an empty name is
        # the directory itself, and one name for both would overwrite the
        # trajectory with the events
        for name in ("trajectory_file", "events_file"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if os.path.normpath(self.trajectory_file) == os.path.normpath(self.events_file):
            raise ValueError(f"trajectory_file {self.trajectory_file!r} and events_file "
                             f"{self.events_file!r} name the same file")


_TRENDS = {"": None, "none": None, "growing": 1, "declining": -1}
_TREND_NAMES = {None: "none", 1: "growing", -1: "declining"}


def trend(text: str) -> int | None:
    """Seeded trend sign of a trend word in ``_TRENDS``, in any case."""
    try:
        return _TRENDS[text.lower()]
    except KeyError:
        raise ValueError(text) from None


# section -> key -> (parser of a string, required)
_SCHEMA: dict[str, dict[str, tuple]] = {
    "econ": {key: (float, True) for key in
             ("alpha_1", "alpha_2", "beta_1", "beta_2", "kappa_1", "kappa_2", "price")},
    "recruitment": {"growth": (float, True), "capacity": (float, True)},
    "bounds": {"stock_floor": (float, True), "harvest_floor": (float, True)},
    "strategy": {
        "name": (Strategy, True),
        "rate": (float, False),
        "floor_step": (float, False),
        "initial_recommendation": (float, False),
        "initial_maturity": (Maturity, False),
        "initial_trend": (trend, False),
        "moratorium_exit_intervals": (int, False),
    },
    "simulation": {
        "initial_stock": (float, True),
        "dt": (float, False),
        "horizon": (float, False),
        "control_interval": (float, False),
        "record_stride": (int, False),
    },
    "output": {
        "directory": (str, False),
        "trajectory_file": (str, False),
        "events_file": (str, False),
    },
}


def _parse_value(section: str, key: str, raw):
    """Typed value of one field.  A string is parsed as file input; any
    other value is taken as already typed, except that a float field takes
    an int as a float and an int field an integral float as an int (a bool
    is neither).  A float must be finite."""
    try:
        kind, _ = _SCHEMA[section][key]
    except KeyError:
        raise ConfigError(f"[{section}] {key}: unknown key") from None
    value = raw
    try:
        if isinstance(raw, str):
            value = kind(raw.strip())
        elif kind in (int, float) and isinstance(raw, (int, float)):
            if isinstance(raw, bool) or (kind is int and isinstance(raw, float)
                                         and not raw.is_integer()):
                raise ValueError(raw)
            value = kind(raw)
    except (ValueError, OverflowError):
        raise ConfigError(f"[{section}] {key}: expected {kind.__name__}, "
                          f"got {raw!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    econ: EconParams
    recruitment: Recruitment
    bounds: ViabilityBounds
    simulation: SimConfig
    output: OutputSettings = OutputSettings()

    @property
    def strategy(self) -> StrategySettings:
        """The ``[strategy]`` section, held by the simulation settings."""
        return self.simulation.settings

    @classmethod
    def from_text(cls, text: str) -> "ScenarioConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"unparseable config: {exc}") from None
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"[{section}]: unknown section")
        for section, keys in _SCHEMA.items():
            if section == "output":
                continue
            if not parser.has_section(section):
                raise ConfigError(f"[{section}]: missing section")
            for key, (_, required) in keys.items():
                if required and not parser.has_option(section, key):
                    raise ConfigError(f"[{section}] {key}: missing required key")

        values: dict[str, dict] = {}
        for section in parser.sections():
            values[section] = {key: _parse_value(section, key, raw)
                               for key, raw in parser.items(section)}
        return cls._build(values, {})

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                return cls.from_text(handle.read())
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None

    @classmethod
    def _build(cls, values: dict[str, dict], overridden: dict[str, dict]) -> "ScenarioConfig":
        """The config of ``values`` (section -> key -> typed value), each section
        validated once; a failing one is labelled with its ``overridden`` keys."""
        def wrap(section: str, factory):
            try:
                return factory()
            except ValueError as exc:
                keys = overridden.get(section)
                label = f"[{section}] {', '.join(keys)}" if keys else f"[{section}]"
                raise ConfigError(f"{label}: {exc}") from None

        econ = wrap("econ", lambda: EconParams(**values["econ"]))
        recruitment = wrap("recruitment", lambda: Recruitment(**values["recruitment"]))
        bounds = wrap("bounds", lambda: ViabilityBounds(**values["bounds"]))

        strat = dict(values["strategy"])
        settings = wrap("strategy", lambda: StrategySettings(strategy=strat.pop("name"), **strat))

        simulation = wrap("simulation", lambda: SimConfig(
            settings=settings, **values["simulation"]))
        output = wrap("output", lambda: OutputSettings(**values.get("output", {})))
        return cls(econ=econ, recruitment=recruitment, bounds=bounds,
                   simulation=simulation, output=output)

    def _values(self) -> dict[str, dict]:
        """Every field's typed value, section -> key -> value in ``_SCHEMA`` order."""
        values = {}
        for section, keys in _SCHEMA.items():
            fields = getattr(self, section)
            values[section] = {key: getattr(fields, "strategy" if key == "name" else key)
                               for key in keys}
        return values

    def to_text(self) -> str:
        """Canonical serialization: the keys of ``_SCHEMA`` in its order,
        every set value explicit."""
        buffer = io.StringIO()
        for section, fields in self._values().items():
            buffer.write(f"[{section}]\n")
            for key, value in fields.items():
                if key == "initial_trend":
                    value = _TREND_NAMES[value]
                elif value is None:
                    continue
                elif isinstance(value, Enum):
                    value = value.value
                elif _SCHEMA[section][key][0] is float:
                    value = repr(value)
                buffer.write(f"{key} = {value}\n")
            buffer.write("\n")
        return buffer.getvalue()

    def with_overrides(self, overrides: dict) -> "ScenarioConfig":
        """New config with dotted ``section.key`` fields replaced.

        Values may be strings (parsed like file input) or already typed.  All
        are parsed first, then validated together, each section once with its
        final values, so their order does not matter.  A :class:`ConfigError`
        names the field that does not parse, or the failing section and its
        overridden keys in override order (``[simulation] dt, control_interval``).
        """
        parsed: dict[str, dict] = {}
        for path, value in overrides.items():
            try:
                section, key = path.split(".", 1)
            except ValueError:
                raise ConfigError(f"{path!r}: expected section.key") from None
            if section not in _SCHEMA or key not in _SCHEMA[section]:
                raise ConfigError(f"{path!r}: unknown field")
            parsed.setdefault(section, {})[key] = _parse_value(section, key, value)
        values = {section: {**fields, **parsed.get(section, {})}
                  for section, fields in self._values().items()}
        return self._build(values, parsed)

    def build(self) -> tuple[EconParams, Recruitment, ViabilityBounds, SimConfig]:
        return self.econ, self.recruitment, self.bounds, self.simulation

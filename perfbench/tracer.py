"""Span tracing of quotavia's modules, installed from the benchmark only.

The package itself carries no instrumentation.  For a traced round the
benchmark replaces selected functions with wrappers *where the caller binds
them* (``quotavia.engine._nash_point`` is the solve the engine calls,
``quotavia.cli.simulate`` the simulation the CLI calls), records one span per
call (name, start, end, parent) in memory, and restores the originals
afterwards.  Per-layer self times and counts are computed from the spans
once the round is over.

A layer is the first component of a span name: ``cli``, ``scenario``,
``engine``, ``econ``, ``control``, ``viability``, ``verification`` and
``oracle``, the package's modules.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


class Tracer:
    """Spans in parallel arrays, plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        self.start.append(perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def dump(self, path: str) -> None:
        """Write the spans as JSON: a name table and one
        ``[name_index, start_s, end_s, parent_index]`` row per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"names": ')
            json.dump(self.names, handle)
            handle.write(', "counts": ')
            json.dump(dict(self.counts), handle)
            handle.write(', "spans": [')
            for i in range(len(self.start)):
                if i:
                    handle.write(",")
                handle.write(f"[{self.name_id[i]},{self.start[i]!r},"
                             f"{self.end[i]!r},{self.parent[i]}]")
            handle.write("]}\n")


def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    result = [e - s for s, e in zip(starts, ends)]
    for parent, kids in children.items():
        result[parent] -= covered_length(
            starts[parent], ends[parent], ((starts[k], ends[k]) for k in kids))
    return result


@dataclass
class SpanTotals:
    calls: Counter
    inclusive: Counter
    exclusive: Counter

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.exclusive.items() if k.startswith(prefix))


def totals(tracer: Tracer) -> SpanTotals:
    calls: Counter = Counter()
    inclusive: Counter = Counter()
    exclusive: Counter = Counter()
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    for idx, own in enumerate(selfs):
        name = tracer.names[tracer.name_id[idx]]
        calls[name] += 1
        inclusive[name] += tracer.end[idx] - tracer.start[idx]
        exclusive[name] += own
    return SpanTotals(calls, inclusive, exclusive)


# --- wrap points --------------------------------------------------------------

@dataclass(frozen=True)
class Hook:
    """One callee as its caller binds it: ``module`` plus a dotted attribute
    path (``ScenarioConfig.from_file`` for a class attribute).

    ``kind`` is ``span`` (one span per call; calls that raise are counted
    as ``<name>_raised``), ``rows`` (a span, and the
    ``rows`` argument is counted as it is consumed), ``generator`` (one span
    per ``next()``, items counted as ``<name>_points``) or ``count`` (no
    span; ``name`` is the counter).
    """

    module: str
    attr: str
    name: str
    kind: str = "span"
    on_result: Callable | None = None     # (tracer, result) -> None


def _count_simulation(tracer, record) -> None:
    tracer.counts["engine.samples"] += len(record.samples)
    tracer.counts["engine.events"] += len(record.events)


def _count_grid(tracer, result) -> None:
    tracer.counts["verification.harvest_curve_points"] += int(result.size)


def _count_equilibrium(tracer, result) -> None:
    tracer.counts["oracle.iterations"] += result.iterations
    tracer.counts["oracle.converged"] += bool(result.converged)


SUITES = ("nash_agreement", "viability_domain", "floor_biconditional",
          "catch_cap_biconditional", "monotonicity")

HOOKS: tuple[Hook, ...] = (
    Hook("quotavia.cli", "main", "cli.main"),
    Hook("quotavia.cli", "_write_csv", "cli.write_csv", kind="rows"),
    Hook("quotavia.scenario", "ScenarioConfig.from_file", "scenario.load"),
    Hook("quotavia.scenario", "ScenarioConfig.with_overrides", "scenario.override"),
    Hook("quotavia.cli", "simulate", "engine.simulate", on_result=_count_simulation),
    Hook("quotavia.cli", "summarize", "engine.summarize"),
    Hook("quotavia.engine", "_rk4", "engine.rk_steps", kind="count"),
    Hook("quotavia.engine", "_nash_point", "econ.nash"),
    Hook("quotavia.viability", "total_harvest", "econ.nash"),
    Hook("quotavia.verification", "total_harvest", "econ.nash"),
    Hook("quotavia.verification", "harvest_level", "econ.nash"),
    Hook("quotavia.engine", "qualitative_step", "control.decide"),
    Hook("quotavia.engine", "conservative_recommend", "control.decide"),
    Hook("quotavia.engine", "ichthyocentric_recommend", "control.decide"),
    Hook("quotavia.cli", "check_viability_domain", "viability.check"),
    Hook("quotavia.engine", "check_viability_domain", "viability.check"),
    Hook("quotavia.verification", "check_viability_domain", "viability.check"),
    Hook("quotavia.cli", "critical_levels", "viability.critical_levels"),
    Hook("quotavia.cli", "phase_rows", "viability.phase_rows", kind="generator"),
    Hook("quotavia.verification", "harvest_curve", "verification.harvest_curve",
         on_result=_count_grid),
    Hook("quotavia.verification", "viability_existence_search",
         "verification.existence_search"),
    Hook("quotavia.verification", "equilibrium", "oracle.equilibrium",
         on_result=_count_equilibrium),
    *(Hook("quotavia.verification", f"{suite}_suite", f"verification.{suite}")
      for suite in SUITES),
)


def _span_wrapper(tracer: Tracer, fn, nid: int, on_result, raised: str):
    """One span per call; a call that raises is also counted as ``raised``."""
    open_, close, counts = tracer.open, tracer.close, tracer.counts
    if on_result is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[raised] += 1
                raise
            finally:
                close(idx)
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            counts[raised] += 1
            raise
        finally:
            close(idx)
        on_result(tracer, result)
        return result
    return wrapper


def _counter_wrapper(tracer: Tracer, fn, counter: str):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[counter] += 1
        return fn(*args, **kwargs)
    return wrapper


def _generator_wrapper(tracer: Tracer, fn, nid: int, counter: str):
    """Each ``next()`` of the returned generator is one span, so the
    consumer's work between items is not charged to the producer."""
    open_, close, counts = tracer.open, tracer.close, tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def items():
            while True:
                idx = open_(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    close(idx)
                counts[counter] += 1
                yield item
        return items()
    return wrapper


def _row_counting(tracer: Tracer, fn):
    """Count the ``rows`` argument's items as ``fn`` consumes them."""
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        arguments = inspect.signature(fn).bind(*args, **kwargs).arguments
        source = arguments["rows"]

        def rows():
            for row in source:
                counts["cli.rows_written"] += 1
                yield row
        arguments["rows"] = rows()
        return fn(**arguments)
    return wrapper


def _resolve(hook: Hook):
    owner = importlib.import_module(hook.module)
    *path, leaf = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Installed:
    """Context manager: wrap every hook that exists, restore on exit.

    Hooks whose target no longer exists are skipped and listed in
    ``missing``, so the benchmark keeps running when a later change moves a
    function; the affected metrics then read 0.
    """

    def __init__(self, tracer: Tracer, hooks=HOOKS) -> None:
        self.tracer = tracer
        self.hooks = hooks
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Installed":
        for hook in self.hooks:
            try:
                owner, leaf = _resolve(hook)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            raw = vars(owner)[leaf] if isinstance(owner, type) else original
            self._saved.append((owner, leaf, raw))
            setattr(owner, leaf, self._wrap(hook, original))
        return self

    def _wrap(self, hook: Hook, fn):
        tracer = self.tracer
        if hook.kind == "count":
            return _counter_wrapper(tracer, fn, hook.name)
        nid = tracer.name_of(hook.name)
        if hook.kind == "generator":
            return _generator_wrapper(tracer, fn, nid, hook.name + "_points")
        if hook.kind == "rows":
            fn = _row_counting(tracer, fn)
        return _span_wrapper(tracer, fn, nid, hook.on_result, hook.name + "_raised")

    def __exit__(self, *exc) -> None:
        for owner, leaf, raw in reversed(self._saved):
            setattr(owner, leaf, raw)
        self._saved.clear()


# --- per-layer metrics ----------------------------------------------------------

def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced round, as ``name -> (value, unit)``.

    ``*_s`` of a named call is its inclusive time; ``*.self_s`` is the
    layer's self time (its spans minus their child spans).
    """
    t = totals(tracer)
    c = tracer.counts
    rk_steps = c["engine.rk_steps"]
    rows = c["cli.rows_written"]
    solves = t.calls["econ.nash"]
    decisions = t.calls["control.decide"]
    grid_points = c["verification.harvest_curve_points"]
    eq_calls = t.calls["oracle.equilibrium"]
    m = {
        "cli.self_s": (t.layer_self("cli"), "s"),
        "cli.ns_per_row": (_ratio(t.exclusive["cli.write_csv"], rows, 1e9), "ns"),
        "cli.rows_written": (rows, "count"),
        "cli.bytes_written": (c["cli.bytes_written"], "bytes"),
        "scenario.load_s": (t.inclusive["scenario.load"], "s"),
        "scenario.override_calls": (t.calls["scenario.override"], "count"),
        "scenario.override_s": (t.inclusive["scenario.override"], "s"),
        "engine.simulate_calls": (t.calls["engine.simulate"], "count"),
        "engine.simulate_raised": (c["engine.simulate_raised"], "count"),
        "engine.self_s": (t.layer_self("engine"), "s"),
        "engine.rk_steps": (rk_steps, "count"),
        "engine.ns_per_step": (_ratio(t.exclusive["engine.simulate"], rk_steps, 1e9), "ns"),
        "engine.samples": (c["engine.samples"], "count"),
        "engine.events": (c["engine.events"], "count"),
        "econ.nash_solves": (solves, "count"),
        "econ.nash_solves_per_step": (_ratio(solves, rk_steps), "solves/step"),
        "econ.nash_self_s": (t.exclusive["econ.nash"], "s"),
        "econ.ns_per_solve": (_ratio(t.exclusive["econ.nash"], solves, 1e9), "ns"),
        "control.decisions": (decisions, "count"),
        "control.self_s": (t.layer_self("control"), "s"),
        "control.ns_per_decision": (_ratio(t.exclusive["control.decide"], decisions, 1e9), "ns"),
        "viability.check_calls": (t.calls["viability.check"], "count"),
        "viability.check_s": (t.inclusive["viability.check"], "s"),
        "viability.phase_rows_points": (c["viability.phase_rows_points"], "count"),
        "viability.phase_rows_s": (t.inclusive["viability.phase_rows"], "s"),
        "viability.critical_levels_s": (t.inclusive["viability.critical_levels"], "s"),
        "verification.harvest_curve_calls": (t.calls["verification.harvest_curve"], "count"),
        "verification.harvest_curve_points": (grid_points, "count"),
        "verification.ns_per_grid_point": (
            _ratio(t.exclusive["verification.harvest_curve"], grid_points, 1e9), "ns"),
        "verification.existence_searches": (t.calls["verification.existence_search"], "count"),
        "verification.existence_search_s": (t.inclusive["verification.existence_search"], "s"),
        **{f"verification.{suite}_s": (t.inclusive[f"verification.{suite}"], "s")
           for suite in SUITES},
        "verification.resamples": (c["verification.resamples"], "count"),
        "oracle.equilibrium_calls": (eq_calls, "count"),
        "oracle.iterations": (c["oracle.iterations"], "count"),
        "oracle.equilibrium_s": (t.inclusive["oracle.equilibrium"], "s"),
        "oracle.converged_ratio": (_ratio(c["oracle.converged"], eq_calls), "ratio"),
    }
    return m


def op_counts(tracer: Tracer, first: int, last: int) -> Counter:
    """Span counts by name for spans ``first`` (inclusive) to ``last``."""
    counted: Counter = Counter()
    for idx in range(first, last):
        counted[tracer.names[tracer.name_id[idx]]] += 1
    return counted

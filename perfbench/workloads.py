"""The four benchmark workloads.

Each workload is a fixed *round* of ops that the benchmark repeats in one
process, one op after the other (a closed loop with one client).  An op is
one user-visible command: a ``quotavia`` CLI call made in-process through
``quotavia.cli.main``, or, for ``verify``, the five verification suites
called in sequence as ``verify`` calls them (the CLI's ``--instances``
applies one count to every suite, which would upset the suites' default
mix).  Every op's output is checked after the round; a check never aborts
the run, it counts failed units.

Why these four (``BENCHMARK.json`` records the same reasons):

* ``trajectory``: ``simulate`` on the two shipped scenarios.  Time goes to
  the engine's scalar Nash solves, the qualitative controller and the CSV
  writer.
* ``sweep``: one ``sweep`` over seed-drawn prices and initial stocks at a
  short horizon.  Per-cell fixed cost (overrides, viability check, summary)
  is a large share here and a small one in ``trajectory``.
* ``verify``: the five randomized suites, scaled down by one common factor
  so the default mix is kept.  It runs the vectorized harvest kernel and
  the oracle and never touches the engine or file writing.
* ``phase``: ``check`` then a 200x200 ``phase`` grid.  The only workload
  that runs ``phase_rows`` and the critical-level bisection, and the one
  that writes the most rows without an engine.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import math
import os
import random
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

CANONICAL = os.path.join("scenarios", "canonical.ini")
CRISIS = os.path.join("scenarios", "crisis.ini")

# sha256 of the outputs at the commit that defined the benchmark; the
# program promises byte-identical output, so any change is a failure.
DIGESTS = {
    "canonical": {
        "trajectory.csv": "e5700a575750b0af70755215bf03bf05269cc1a0343d819dc9063ccb7a0697d8",
        "events.json": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    },
    "crisis": {
        "trajectory.csv": "1579b243c5fdb4afbf3c1460d3afcae0a39952923eec6e6e059de440f519355e",
        "events.json": "e8282d6cc081e3acce3b58e701231cbf455f4a250b1371e6d940c1bec32ff9fb",
    },
    "phase": {
        "phase_grid.csv": "319bde3092285fd8d8cc207d2df619cd6b36c25dcdbd1c27e3e95c8a089e1845",
        "phase_levels.json": "4df859c67ba27f4134a98b092ddb8ab1ef0fa0c377970482ebca48e3dddbb723",
    },
}

PHASE_GRID = "0.1:2:0:1.5:200:200"

STRATEGIES = ("ichthyocentric", "conservative", "qualitative")
# Prices span the extinction corner: above roughly 250 one RK4 step of the
# conservative strategy drives the stock to zero, simulate raises
# ValueError (ROADMAP item 2) and sweep records the cell as an
# ``error: ValueError`` row.  Such a row is correct output when a
# standalone simulate of the cell raises the same; the traced run counts
# the raises as ``engine.simulate_raised``.
# The log range is cut into equal strata, one draw each, so every seed puts
# the same number of draws above the corner (the top two strata start at
# 300).
SWEEP_PRICE_RANGE = (0.3, 3000.0)
SWEEP_STOCK_RANGE = (0.1, 2.0)
SWEEP_HORIZON = 2.0
SWEEP_DRAWS = 8
SWEEP_REPRODUCED = 1          # cells of each kind (summarized, error) re-run per sweep

# Default instance counts of the suites, as ``verification.run_all`` uses
# them with its seed offsets, and the common factor that scales them down.
VERIFY_SUITES = (
    ("nash_agreement", 1000),
    ("viability_domain", 2000),
    ("floor_biconditional", 10000),
    ("catch_cap_biconditional", 10000),
    ("monotonicity", 400),
)
VERIFY_SCALE = 100


@dataclass
class OpResult:
    value: object = None          # what the op returned
    stdout: str = ""
    error: str | None = None      # exception raised by the op


@dataclass
class Op:
    """One timed command.  ``check`` returns (failed units, problems); a
    problem is an incorrect or missing output."""

    label: str
    units: int
    run: Callable[[], OpResult]
    check: Callable[[OpResult], tuple[int, list[str]]]
    outputs: list[str] = field(default_factory=list)


def cli_call(argv: list[str]) -> OpResult:
    """``quotavia.cli.main(argv)`` with its output captured.  The function
    is looked up at call time, so a traced round sees the wrapped one."""
    cli = importlib.import_module("quotavia.cli")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        rc = cli.main(argv)
    return OpResult(value=rc, stdout=out.getvalue())


def guarded(fn: Callable[[], OpResult]) -> Callable[[], OpResult]:
    def run() -> OpResult:
        try:
            return fn()
        except Exception as exc:  # counted as a failed op; the run goes on
            return OpResult(error=f"{type(exc).__name__}: {exc}")
    return run


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digest_problems(directory: str, expected: dict[str, str]) -> list[str]:
    problems = []
    for name, want in expected.items():
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            problems.append(f"{path}: missing")
        elif sha256(path) != want:
            problems.append(f"{path}: sha256 differs from the recorded digest")
    return problems


def exit_problems(label: str, result: OpResult, want_rc: int = 0) -> list[str]:
    if result.error is not None:
        return [f"{label}: raised {result.error}"]
    if result.value != want_rc:
        tail = result.stdout.strip().splitlines()[-1:] or [""]
        return [f"{label}: exit {result.value}, expected {want_rc} ({tail[0]})"]
    return []


def _steps(cfg) -> int:
    return round(cfg.simulation.horizon / cfg.simulation.dt)


class Workload:
    name = ""
    uses_seed = True
    notes: list[str] = []         # facts about the outputs, printed by the run

    def __init__(self, root: str, seed: int, out_dir: str) -> None:
        self.root = root
        self.seed = seed
        self.out = out_dir

    def path(self, relative: str) -> str:
        return os.path.join(self.root, relative)

    def setup(self) -> None:
        """Parse and validate the workload's inputs (part of ``setup_s``)."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def extra_counts(self, results: list[OpResult]) -> dict[str, int]:
        """Counts read from a traced round's op results."""
        return {}


class Trajectory(Workload):
    name = "trajectory"
    uses_seed = False

    def setup(self) -> None:
        from quotavia.scenario import ScenarioConfig
        self.steps = {label: _steps(ScenarioConfig.from_file(self.path(rel)))
                      for label, rel in (("canonical", CANONICAL), ("crisis", CRISIS))}

    def ops(self) -> list[Op]:
        ops = []
        for label, rel in (("canonical", CANONICAL), ("crisis", CRISIS)):
            directory = os.path.join(self.out, label)
            argv = ["simulate", "--config", self.path(rel), "--out", directory]
            ops.append(Op(
                label=f"simulate {label}",
                units=self.steps[label],
                run=guarded(lambda argv=argv: cli_call(argv)),
                check=self._checker(label, directory),
                outputs=[os.path.join(directory, n) for n in DIGESTS[label]],
            ))
        return ops

    def _checker(self, label, directory):
        def check(result: OpResult):
            problems = (exit_problems(f"simulate {label}", result)
                        or digest_problems(directory, DIGESTS[label]))
            return (self.steps[label] if problems else 0), problems
        return check


class Phase(Workload):
    name = "phase"
    uses_seed = False

    def setup(self) -> None:
        from quotavia.scenario import ScenarioConfig
        ScenarioConfig.from_file(self.path(CANONICAL))
        *_, nx, nr = PHASE_GRID.split(":")
        self.points = int(nx) * int(nr)

    def ops(self) -> list[Op]:
        config = self.path(CANONICAL)

        def run() -> OpResult:
            check = cli_call(["check", "--config", config])
            phase = cli_call(["phase", "--config", config, "--out", self.out,
                              "--grid", PHASE_GRID])
            return OpResult(value=(check, phase))

        def verify(result: OpResult):
            if result.error is not None:
                return self.points, [f"phase: raised {result.error}"]
            check, phase = result.value
            problems = exit_problems("check", check) + exit_problems("phase", phase)
            if not problems and "verdict: VIABLE" not in check.stdout.splitlines():
                problems.append("check: verdict is not VIABLE")
            if not problems:
                problems = digest_problems(self.out, DIGESTS["phase"])
            return (self.points if problems else 0), problems

        return [Op("check+phase", self.points, guarded(run), verify,
                   [os.path.join(self.out, n) for n in DIGESTS["phase"]])]


def stratified(rng: random.Random, lo: float, hi: float, count: int,
               log: bool = False) -> list[float]:
    """One uniform draw in each of ``count`` equal strata of [lo, hi]
    (of its logarithm when ``log``)."""
    if log:
        return [float(f"{v:.6g}") for v in
                (pow(10.0, x) for x in
                 stratified(rng, math.log10(lo), math.log10(hi), count))]
    width = (hi - lo) / count
    return [float(f"{lo + width * (i + rng.random()):.6g}") for i in range(count)]


class Sweep(Workload):
    name = "sweep"

    def __init__(self, root: str, seed: int, out_dir: str,
                 draws: int = SWEEP_DRAWS, reproduced: int = SWEEP_REPRODUCED) -> None:
        super().__init__(root, seed, out_dir)
        self.draws = draws
        self.reproduced = reproduced
        self.rng = random.Random(seed)

    def setup(self) -> None:
        from quotavia.scenario import ScenarioConfig
        self.config = self.path(CANONICAL)
        self.cfg = ScenarioConfig.from_file(self.config)
        self.prices = stratified(self.rng, *SWEEP_PRICE_RANGE, self.draws, log=True)
        self.stocks = stratified(self.rng, *SWEEP_STOCK_RANGE, self.draws)
        self.axes = ",".join([
            "strategy.name=" + "|".join(STRATEGIES),
            "econ.price=" + "|".join(repr(p) for p in self.prices),
            "simulation.initial_stock=" + "|".join(repr(s) for s in self.stocks),
            f"simulation.horizon={SWEEP_HORIZON!r}:{SWEEP_HORIZON!r}:1",
        ])
        self.cells = len(STRATEGIES) * len(self.prices) * len(self.stocks)
        # an unknown axis field is the CLI's usage error; fail in set-up instead
        self.cfg.with_overrides({"strategy.name": STRATEGIES[0],
                                 "econ.price": repr(self.prices[0]),
                                 "simulation.initial_stock": repr(self.stocks[0]),
                                 "simulation.horizon": SWEEP_HORIZON})

    def ops(self) -> list[Op]:
        argv = ["sweep", "--config", self.config, "--out", self.out, "--axes", self.axes]
        return [Op(f"sweep {self.cells} cells", self.cells,
                   guarded(lambda: cli_call(argv)), self._check,
                   [os.path.join(self.out, "sweep.csv")])]

    def _check(self, result: OpResult):
        problems = exit_problems("sweep", result)
        if problems:
            return self.cells, problems
        with open(os.path.join(self.out, "sweep.csv"), encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        header, body = rows[0], rows[1:]
        if len(body) != self.cells:
            return self.cells, [f"sweep: {len(body)} rows for {self.cells} cells"]
        verdict = header.index("verdict")
        errors = [row for row in body if row[verdict].startswith("error:")]
        good = [row for row in body if not row[verdict].startswith("error:")]
        self.notes = [f"sweep: {len(errors)} of {self.cells} cells are error rows "
                      f"({', '.join(sorted({row[verdict] for row in errors})) or 'none'}); "
                      "one sampled row of each kind is re-run as a standalone simulate"]
        failed = 0
        for kind in (good, errors):
            for row in self.rng.sample(kind, min(self.reproduced, len(kind))):
                mismatch = self._reproduce(header, row)
                if mismatch:
                    failed += 1
                    problems.append(mismatch)
        return failed, problems

    def _reproduce(self, header: list[str], row: list[str]) -> str | None:
        """Re-run one cell as a standalone ``simulate`` and compare it with
        the sweep row, string for string: the same summary, or, for an
        ``error: <type>`` row, a simulate that raises the same type."""
        overrides = {"strategy.name": row[0], "econ.price": row[1],
                     "simulation.initial_stock": row[2],
                     "simulation.horizon": SWEEP_HORIZON}
        directory = fresh_dir(os.path.join(self.out, "reproduce"))
        config = os.path.join(directory, "cell.ini")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(self.cfg.with_overrides(overrides).to_text())
        result = guarded(lambda: cli_call(["simulate", "--config", config,
                                           "--out", directory]))()
        swept = row[header.index("verdict"):]
        if swept[0].startswith("error:"):
            raised = f"error: {result.error.split(':')[0]}" if result.error else "no error"
            if raised != swept[0]:
                return f"sweep cell {row[:3]} = {swept[0]}, standalone simulate gave {raised}"
            return None
        problem = exit_problems(f"reproduce {row[:3]}", result)
        if problem:
            return problem[0]
        with open(os.path.join(directory, "trajectory.csv"), encoding="utf-8",
                  newline="") as handle:
            samples = list(csv.DictReader(handle))
        with open(os.path.join(directory, "events.json"), encoding="utf-8") as handle:
            events = json.load(handle)
        violations = [e["t"] for e in events if e["kind"] == "ViabilityViolation"]
        harvests = [float(s["h"]) for s in samples]
        standalone = ["violated" if violations else "viable",
                      f"{violations[0]:.17g}" if violations else "",
                      samples[-1]["x"],
                      f"{sum(harvests) / len(harvests):.17g}"]
        if swept != standalone:
            return f"sweep cell {row[:3]} = {swept}, standalone simulate = {standalone}"
        return None


class Verify(Workload):
    name = "verify"

    def __init__(self, root: str, seed: int, out_dir: str,
                 scale: int = VERIFY_SCALE) -> None:
        super().__init__(root, seed, out_dir)
        self.counts = [(name, offset, max(1, default // scale))
                       for offset, (name, default) in enumerate(VERIFY_SUITES)]

    def setup(self) -> None:
        import quotavia.verification  # noqa: F401  (the suites' import cost)

    def ops(self) -> list[Op]:
        units = sum(n for _, _, n in self.counts)
        return [Op(f"verify {len(self.counts)} suites", units, guarded(self._run), self._check)]

    def _run(self) -> OpResult:
        """The suites in ``run_all``'s order and seed offsets: one verify."""
        verification = importlib.import_module("quotavia.verification")
        reports = []
        for name, offset, n in self.counts:
            try:
                reports.append(getattr(verification, f"{name}_suite")(self.seed + offset, n))
            except Exception as exc:  # a failing suite; the others still run
                reports.append(f"{type(exc).__name__}: {exc}")
        return OpResult(value=reports)

    def _check(self, result: OpResult):
        if result.error is not None:
            return sum(n for _, _, n in self.counts), [f"verify: raised {result.error}"]
        failed, problems = 0, []
        for (name, _, n), report in zip(self.counts, result.value):
            if isinstance(report, str):
                problems.append(f"{name}: raised {report}")
            elif report.instances != n:
                problems.append(f"{name}: {report.instances} instances, asked for {n}")
            elif not report.passed:
                problems.append(f"{name}: {report.line()}")
            else:
                continue
            failed += n
        return failed, problems

    def extra_counts(self, results: list[OpResult]) -> dict[str, int]:
        resamples = 0
        reports = [rep for r in results if r.error is None for rep in r.value
                   if not isinstance(rep, str)]
        for report in reports:
            value = getattr(report, "resamples", None)
            if value is None:
                words = report.notes.split()
                value = int(words[0]) if "margin-resamples" in words[1:2] else 0
            resamples += value
        return {"verification.resamples": resamples}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Trajectory, Sweep, Verify, Phase)
}


@dataclass
class RoundResult:
    wall: float
    op_times: list[float]
    results: list[OpResult]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # reference samples (see reference.py): one before the first op and one
    # after each op, so op i lies between ref[i] and ref[i + 1]
    ref: list[float] = field(default_factory=list)


def run_ops(ops: list[Op], on_op=None, reference=None) -> RoundResult:
    """Run the round's ops back to back, timing each and the whole.  With a
    ``reference`` sampler the host's speed is sampled before the first op
    and after every op, outside the op times."""
    results = []
    times = []
    refs = [reference()] if reference else []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        results.append(op.run())
        times.append(time.perf_counter() - t0)
        if on_op is not None:
            on_op(op)
        if reference:
            refs.append(reference())
    return RoundResult(time.perf_counter() - start, times, results, ref=refs)


def check_round(ops: list[Op], result: RoundResult) -> RoundResult:
    """Check every op's output (untimed) and account its units."""
    for op, op_result in zip(ops, result.results):
        try:
            bad_units, problems = op.check(op_result)
        except Exception as exc:  # unreadable output: the op failed, the run goes on
            bad_units, problems = op.units, [f"{op.label}: check raised "
                                             f"{type(exc).__name__}: {exc}"]
        result.attempted += op.units
        result.failed += min(bad_units, op.units)
        result.problems += problems
    return result


def run_round(ops: list[Op], reference=None) -> RoundResult:
    return check_round(ops, run_ops(ops, reference=reference))


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path

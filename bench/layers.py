"""Layer timings of quotavia, written to ``BENCH_<label>.json``.

Usage, from the root of a checkout:

    python3 bench/layers.py --label NAME [--repeat N] [--root CHECKOUT]
    python3 bench/layers.py --compare OLD.json NEW.json [--label NAME]

The first form runs every layer once untimed, then times each layer N
times (default 5) with ``time.perf_counter``, the layers in turn, and
records the minimum and the median of the N intervals, as measured and
normalized for the host's speed with the benchmark's reference work
(``perfbench/reference.py``, timed right before and after every call).
``--root`` measures the ``src/`` and ``scenarios/`` of another checkout
(say, the parent commit) with this script, so both sides run the same
measuring code.  The second form prints, per metric, the two normalized
medians and their change, and the change of the measured minima; with
``--label`` it also writes both runs and the changes to
``BENCH_<label>.json``.  It compares normalized medians because on a
shared 2-vCPU host, whose speed switches between two levels about 1.7x
apart within seconds, the measured minimum of 15 repeats moved a layer by
up to 41% between two runs of the same code, the normalized median by up
to 13%.

Measured, one process, one thread:

* ``nash_ns_per_solve``: one ``econ._nash_point`` call on the canonical
  parameters, over a 100x100 (x, r) grid;
* ``harvest_curve_ns_per_point``: ``econ.harvest_curve`` on a 65x4096
  grid built as ``verification.viability_existence_search`` builds it,
  with asymmetric costs, so that every row block holds interior,
  non-deviating and single-group points (the grid whose output
  ``tests/test_verification.py`` pins), ``KERNEL_CALLS`` calls per repeat;
* ``harvest_curve_ns_per_cell``: the ``econ.harvest_curve`` calls of one
  ``engine.sweep`` on the benchmark's 192-cell grid (the lockstep's calls
  on per-cell parameter columns, about four per step of 200 steps),
  captured with every argument copied and replayed, per cell evaluated:
  the lockstep's fixed cost per kernel call;
* ``simulate_ns_per_step_{canonical,crisis}``: ``engine.simulate`` on the
  shipped scenario, per step of its time grid (20,000 steps; both runs
  repeat, canonical.ini on a fixed point and crisis.ini on a cycle, and
  ``simulate`` steps only to the end of the first repeated period and
  builds the rest of the record from it);
* ``simulate_ns_per_step_unsettled``: ``engine.simulate`` on canonical.ini
  at horizon 40, which ends before the run's state first repeats, so
  every step is computed and the repeat rule's lookups are in the time
  (4,000 steps);
* ``rk4_ns_per_step``: the ``engine._rk4`` calls of one crisis
  ``simulate``, captured and replayed, per call (one RK4 step: stages 2-4,
  each a Nash solve unless the stock only regrows; the replayed stages
  solve at the run's final recommendation, which their closures read).
  ``simulate`` calls ``_rk4`` only up to the end of the run's first
  repeated period, so this replays those calls, not 20,000;
* ``decision_ns_per_call``: the ``engine.qualitative_step`` calls of that
  run, captured and replayed, per call (one controller decision), each on a
  ``copy.copy`` of the state it was called with, copied before the timing;
* ``trajectory_ns_per_row``: the ``simulate`` command with the simulation
  replaced by its recorded canonical result, per ``trajectory.csv`` row
  (so it also holds the config load, ``events.json`` and the summary line);
* ``trajectory_ns_per_row_crisis``: the same on the recorded crisis result,
  whose 1,949 events make ``events.json`` weigh and whose 20-step cycle
  repeats different values than canonical's fixed point;
* ``phase_ns_per_row``: the ``phase`` command on the 200x200 grid with the
  grid's blocks (``viability.phase_blocks``) replaced by their computed
  values, per ``phase_grid.csv`` row, so it times formatting and writing
  (and also holds the config load and the critical levels);
* ``phase_200x200_s``: the whole ``phase`` command on that grid;
* ``sweep_192_s``: the whole ``sweep`` command on the benchmark's
  192-cell grid (``perfbench/workloads.py``, seed 1);
* ``override_ns_per_cell``: ``ScenarioConfig.with_overrides`` on each of
  that grid's 192 override dicts, as the ``sweep`` command calls it on the
  canonical scenario, per cell (the sweep's fixed cost per cell of building
  its scenario);
* ``sweep_ns_per_cell_step``: ``engine.sweep`` on that grid with every
  cell's inputs built beforehand, so that ``ScenarioConfig.with_overrides``
  stays outside the timing, per cell and RK4 step (192 cells of 200 steps);
* ``long_sweep_ns_per_cell_step``: the same on a longer lockstep, the
  benchmark's axes with 14 prices and 14 stocks at horizon 20 (588 cells
  of 2,000 steps), where the ensemble's fixed cost per step weighs less
  and a cell can settle; the benchmark's own sweep is too short to show
  either;
* ``settled_sweep_ns_per_cell_step``: ``engine.sweep`` on 128 memoryless
  cells of the canonical scenario (conservative and ichthyocentric, 8
  prices in 5-30, 8 stocks in 0.05-4) at horizon 40, built beforehand,
  per cell and step of the time grid (4,000 steps); every cell settles on
  a fixed point by step 1,320, after which the lockstep adds the settled
  harvests without stepping, so this times the ensemble's settled finish;
* ``cold_check_s`` and ``cold_simulate_s``: ``python -m quotavia check``
  and ``simulate`` on canonical.ini in a fresh interpreter, with
  ``PYTHONPATH`` at the measured checkout's ``src/``, from start to exit:
  what a user waits for, the interpreter's start and every import included.

This is a tool for before/after numbers, not a test; nothing in it checks
the outputs (``perfbench/run.py`` does).
"""

from __future__ import annotations

import os

# One thread per process, as in the benchmark.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from unittest import mock  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "perfbench"))
import reference  # noqa: E402
import workloads  # noqa: E402
PHASE_GRID = "0.1:2:0:1.5:200:200"
SWEEP_SEED = 1
NASH_GRID = 100
UNSETTLED_HORIZON = 40.0
LONG_SWEEP_DRAWS = 14
LONG_SWEEP_HORIZON = 20.0
SETTLED_SWEEP_AXES = ("strategy.name=conservative|ichthyocentric,econ.price=5:30:8,"
                      "simulation.initial_stock=0.05:4:8,simulation.horizon=40:40:1")
# harvest_curve calls per repeat of harvest_curve_ns_per_point: one call takes
# about 4 ms, so a brief swing of the host's speed could set a repeat's time
KERNEL_CALLS = 8


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="NAME in BENCH_NAME.json")
    parser.add_argument("--repeat", type=int, default=5, help="N of min-of-N")
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout whose src/ and scenarios/ are measured")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare is None and args.label is None:
        parser.error("--label is required unless --compare is given")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return args


def entry(times: list[float], normalized: list[float], unit: str, per: int) -> dict:
    scale = 1e9 / per if unit == "ns" else 1.0
    return {"unit": unit, "per": per,
            "min": min(times) * scale, "median": statistics.median(times) * scale,
            "normalized_min": min(normalized) * scale,
            "normalized_median": statistics.median(normalized) * scale}


def cli_main(argv: list[str]) -> None:
    from quotavia.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"quotavia {argv[0]} exited {code}")


def replayed(module, attr: str, stand_in, argv: list[str]) -> None:
    """Run the CLI with ``module.attr`` replaced by ``stand_in``."""
    with mock.patch.object(module, attr, stand_in):
        cli_main(argv)


def captured(module, names: tuple[str, ...], run) -> dict[str, list[tuple[tuple, dict]]]:
    """Positional and keyword arguments of every call that ``run()`` makes to
    each of ``module``'s ``names``, each argument copied (``copy.copy``, so
    an array's data too) before the call, or a later one, can change it."""
    calls: dict[str, list[tuple[tuple, dict]]] = {name: [] for name in names}

    def spy(name: str, real):
        def call(*args, **kwargs):
            calls[name].append((tuple(map(copy.copy, args)),
                                {key: copy.copy(value) for key, value in kwargs.items()}))
            return real(*args, **kwargs)
        return call

    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(mock.patch.object(module, name, spy(name, getattr(module, name))))
        run()
    return calls


def sweep_axes(root: str, draws: int = workloads.SWEEP_DRAWS,
               horizon: float = workloads.SWEEP_HORIZON) -> str:
    """The benchmark sweep's axes (seed 1) with ``draws`` prices and
    stocks, at ``horizon``."""
    sweep = workloads.Sweep(root, SWEEP_SEED, out_dir="", draws=draws)
    sweep.setup()
    *axes, _ = sweep.axes.split(",")    # the horizon is the last axis
    return ",".join([*axes, f"simulation.horizon={horizon!r}:{horizon!r}:1"])


def cold(root: str, argv: list[str]):
    """A call that runs ``python -m quotavia`` with ``argv`` in a fresh
    interpreter on ``root``'s sources."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    command = [sys.executable, "-m", "quotavia", *argv]
    return lambda: subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)


def prebuilt_sweep(cli, cfg, axes: str):
    """``engine.sweep``'s arguments for the ``sweep`` command on ``axes``,
    with a ``build`` that hands out inputs built here, and the RK4 steps
    of the cells that built."""
    axes = cli._parse_axes(axes)
    fields = [field for field, _ in axes]
    built, steps = {}, 0
    for combo in itertools.product(*(values for _, values in axes)):
        try:
            built[combo] = inputs = cfg.with_overrides(dict(zip(fields, combo))).build()
            steps += inputs[3].time_grid[0]
        except Exception as exc:
            built[combo] = exc

    def build(overrides: dict):
        inputs = built[tuple(overrides.values())]
        if isinstance(inputs, Exception):
            raise inputs
        return inputs
    return build, axes, steps


def measure(root: str, repeat: int) -> dict:
    """Time every layer once per repeat, the layers in turn, so that each
    layer's repeats spread over the whole run and its minimum is not left to
    one stretch of a host whose speed drifts."""
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy
    from quotavia import cli, econ, engine
    from quotavia.engine import simulate
    from quotavia.scenario import ScenarioConfig

    canonical = os.path.join(root, "scenarios", "canonical.ini")
    crisis = os.path.join(root, "scenarios", "crisis.ini")
    cfg = ScenarioConfig.from_file(canonical)
    points = [(0.1 + 1.9 * i / (NASH_GRID - 1), 1.5 * j / (NASH_GRID - 1))
              for i in range(NASH_GRID) for j in range(NASH_GRID)]

    def solves():
        solve, params = econ._nash_point, cfg.econ
        for x, r in points:
            solve(params, x, r)

    kernel_params = econ.EconParams(0.5, 3.0, 1.0, 0.4, 2.0, 0.3, 1.5)
    x_lo, capacity = 1.0, 2.0
    kernel_xs = numpy.concatenate(([x_lo], numpy.linspace(x_lo, 4.0 * capacity, 65)[1:]))
    kernel_rs = numpy.linspace(
        0.0, 3.0 * max(econ.unmanaged_harvest(kernel_params, x_lo), 1.0), 4096)

    with tempfile.TemporaryDirectory() as out:
        phase_argv = ["phase", "--config", canonical, "--out", out, "--grid", PHASE_GRID]
        record = simulate(*cfg.build())
        crisis_record = simulate(*ScenarioConfig.from_file(crisis).build())
        xs, rs = cli._parse_grid(PHASE_GRID)
        grid = list(cli.phase_blocks(cfg.econ, cfg.recruitment, cfg.bounds, xs, rs))

        def simulation(name: str, path: str, overrides: dict | None = None):
            params, rec, bounds, sim = ScenarioConfig.from_file(path).with_overrides(
                overrides or {}).build()
            return (f"simulate_ns_per_step_{name}", "ns", sim.time_grid[0],
                    lambda: simulate(params, rec, bounds, sim))

        build, axes, cell_steps = prebuilt_sweep(cli, cfg, sweep_axes(root))
        fields = [field for field, _ in axes]
        cells = [dict(zip(fields, combo))
                 for combo in itertools.product(*(values for _, values in axes))]

        def overrides():
            for cell in cells:
                cfg.with_overrides(cell)

        long_build, long_axes, long_steps = prebuilt_sweep(
            cli, cfg, sweep_axes(root, LONG_SWEEP_DRAWS, LONG_SWEEP_HORIZON))
        settled_build, settled_axes, settled_steps = prebuilt_sweep(cli, cfg, SETTLED_SWEEP_AXES)
        calls = captured(engine, ("_rk4", "qualitative_step"),
                         lambda: simulate(*ScenarioConfig.from_file(crisis).build()))
        kernel_calls = captured(engine, ("harvest_curve",),
                                lambda: engine.sweep(build, axes))["harvest_curve"]
        rk4, decide, kernel = engine._rk4, engine.qualitative_step, engine.harvest_curve
        fresh: list[tuple] = []     # the decisions' states, copied anew before each call

        def rk4_steps():
            for args, _ in calls["_rk4"]:
                rk4(*args)

        def decisions():
            for args in fresh:
                decide(*args)

        def copy_states():
            fresh[:] = [(copy.copy(state), *rest)
                        for (state, *rest), _ in calls["qualitative_step"]]

        def kernel_grid():
            for _ in range(KERNEL_CALLS):
                econ.harvest_curve(kernel_params, kernel_xs, kernel_rs)

        def lockstep_kernel():
            with numpy.errstate(all="ignore"):  # as in the lockstep
                for args, kwargs in kernel_calls:
                    kernel(*args, **kwargs)

        # (name, unit, work units per call, call)
        layers = [
            ("nash_ns_per_solve", "ns", len(points), solves),
            ("harvest_curve_ns_per_point", "ns", KERNEL_CALLS * kernel_xs.size * kernel_rs.size,
             kernel_grid),
            ("harvest_curve_ns_per_cell", "ns",
             sum(numpy.size(args[1]) for args, _ in kernel_calls), lockstep_kernel),
            simulation("canonical", canonical),
            simulation("crisis", crisis),
            simulation("unsettled", canonical, {"simulation.horizon": UNSETTLED_HORIZON}),
            ("rk4_ns_per_step", "ns", len(calls["_rk4"]), rk4_steps),
            ("decision_ns_per_call", "ns", len(calls["qualitative_step"]), decisions),
            ("trajectory_ns_per_row", "ns", len(record.samples),
             lambda: replayed(cli, "simulate", lambda *_: record,
                              ["simulate", "--config", canonical, "--out", out])),
            ("trajectory_ns_per_row_crisis", "ns", len(crisis_record.samples),
             lambda: replayed(cli, "simulate", lambda *_: crisis_record,
                              ["simulate", "--config", crisis, "--out", out])),
            ("phase_ns_per_row", "ns", len(xs) * len(rs),
             lambda: replayed(cli, "phase_blocks", lambda *_: iter(grid), phase_argv)),
            ("phase_200x200_s", "s", 1, lambda: cli_main(phase_argv)),
            ("sweep_192_s", "s", 1,
             lambda axes=sweep_axes(root): cli_main(["sweep", "--config", canonical,
                                                     "--out", out, "--axes", axes])),
            ("override_ns_per_cell", "ns", len(cells), overrides),
            ("sweep_ns_per_cell_step", "ns", cell_steps, lambda: engine.sweep(build, axes)),
            ("long_sweep_ns_per_cell_step", "ns", long_steps,
             lambda: engine.sweep(long_build, long_axes)),
            ("settled_sweep_ns_per_cell_step", "ns", settled_steps,
             lambda: engine.sweep(settled_build, settled_axes)),
            ("cold_check_s", "s", 1, cold(root, ["check", "--config", canonical])),
            ("cold_simulate_s", "s", 1,
             cold(root, ["simulate", "--config", canonical, "--out", out])),
        ]
        prepare = {"decision_ns_per_call": copy_states}
        for name, *_, call in layers:   # one untimed round: lazy imports, caches
            prepare.get(name, lambda: None)()
            call()
        times: dict[str, list[float]] = {name: [] for name, *_ in layers}
        normalized: dict[str, list[float]] = {name: [] for name, *_ in layers}
        for _ in range(repeat):
            for name, _unit, _per, call in layers:
                prepare.get(name, lambda: None)()
                before = reference.sample()
                start = time.perf_counter()
                call()
                took = time.perf_counter() - start
                times[name].append(took)
                normalized[name].append(reference.normalize(took, before, reference.sample()))

    return {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "repeat": repeat,
        "metrics": {name: entry(times[name], normalized[name], unit, per)
                    for name, unit, per, _ in layers},
    }


def compare(old: dict, new: dict, key: str) -> dict[str, float]:
    """Relative change of each metric's ``key`` value, new against old."""
    changes = {}
    for name, before in old["metrics"].items():
        after = new["metrics"].get(name)
        if after is not None and before[key] > 0.0:
            changes[name] = after[key] / before[key] - 1.0
    return changes


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write(label: str, payload: dict) -> str:
    path = f"BENCH_{label}.json"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump({"label": label, **payload}, handle, indent=2)
        handle.write("\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare is not None:
        old, new = (load(path) for path in args.compare)
        changes = compare(old, new, "normalized_median")
        measured = compare(old, new, "min")
        print(f"{'':32s} {'normalized median':>30s} {'':3s} {'change':>7s} "
              f"{'measured min':>12s}")
        for name, change in changes.items():
            before, after = old["metrics"][name], new["metrics"][name]
            print(f"{name:32s} {before['normalized_median']:12.6g} -> "
                  f"{after['normalized_median']:12.6g} {before['unit']:3s} {change:+7.1%} "
                  f"{measured[name]:+12.1%}")
        if args.label is not None:
            print("wrote", write(args.label, {"before": old, "after": new,
                                              "change_of_normalized_median": changes,
                                              "change_of_min": measured}))
        return 0
    result = measure(args.root, args.repeat)
    for name, value in result["metrics"].items():
        print(f"{name:32s} min {value['min']:12.6g} median {value['median']:12.6g} "
              f"normalized min {value['normalized_min']:12.6g} {value['unit']}")
    print("wrote", write(args.label, result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

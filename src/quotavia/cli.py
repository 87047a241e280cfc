"""Command-line surface: check, simulate, phase, sweep, verify.

All numeric output uses 17 significant digits, '.' as decimal separator and
'\\n' line endings, so repeated invocations are byte-identical.  Exit codes:
0 success (or viable verdict), 2 analytic negative verdict, 1 usage or
input error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

from .econ import Regime
from .engine import (_require_deviation_costs, _require_weighted, require_runnable, simulate,
                     summarize, sweep)
from .scenario import ConfigError, ScenarioConfig
from .verification import DEFAULT_SEED, run_all
from .viability import LEVELS_BRACKET, Region, check_viability_domain, critical_levels, phase_blocks

__all__ = ["main"]

_MAX_SWEEP_CELLS = 10 ** 6
# Lines per write of _write_csv, which streams its rows: 40,000 phase lines took 13 ms
# one at a time, 9.5 ms at 256; at 1,024 phase was no faster and held 0.4 MB more.
_WRITE_LINES = 256


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def _fmt(value: float | str) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


_BOOL = ("false", "true")


def trajectory_rows(samples, settled_from=None):
    """The ``trajectory.csv`` line of each sample, as an iterator: the bytes of
    ``"%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s,%s,%s,%s\\n"`` (with the
    enums' values and the flags as "true"/"false").

    With ``settled_from = (first, period)`` (``TrajectoryRecord.settled_from``)
    the text after t of the rows ``first`` to ``first + period - 1`` is
    formatted once, each later row but the last takes it from the row
    ``period`` before and formats t alone, and the last row is formatted in
    full.  Enum members are read through ``_value_``, the attribute ``Enum``
    documents as holding the value; ``.value`` is a descriptor call per
    member."""
    def lines(part):
        for t, x, r, h, q1, q2, regime, region, maturity, eco, econ in part:
            yield (f"{t:.17g},{x:.17g},{r:.17g},{h:.17g},{q1:.17g},{q2:.17g},"
                   f"{regime._value_},{region._value_},{maturity._value_},"
                   f"{_BOOL[eco]},{_BOOL[econ]}\n")

    if settled_from is None:
        return lines(samples)
    first, period = settled_from
    window = lines(samples[first:first + period])
    rests = itertools.cycle([line[line.index(","):] for line in window])
    tail = (f"{sample[0]:.17g}{rest}"
            for sample, rest in zip(itertools.islice(samples, first, len(samples) - 1), rests))
    return itertools.chain(lines(itertools.islice(samples, first)), tail, lines(samples[-1:]))


def _write_csv(path: str, header: list[str], rows) -> None:
    """Write the header and ``rows``, finished lines that end in newlines,
    ``_WRITE_LINES`` lines per write."""
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        while block := list(itertools.islice(rows, _WRITE_LINES)):
            handle.write("".join(block))


def _write_json(path: str, payload) -> None:
    """Write ``payload`` as indented JSON with a trailing newline, built as
    one string: ``json.dump`` would write it in one chunk per token."""
    text = json.dumps(payload, indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _make_output_dir(path: str) -> None:
    """Create the output directory ``path``.  An empty path names the working
    directory, where ``os.path.join("", name)`` writes."""
    if path:
        os.makedirs(path, exist_ok=True)


def _load(path: str) -> ScenarioConfig:
    if not os.path.exists(path):
        raise ConfigError(f"{path}: no such config file")
    return ScenarioConfig.from_file(path)


def _load_with_levels(path: str, command: str) -> ScenarioConfig:
    """The scenario at ``path``, refused where :func:`critical_levels`, which
    brackets from ``LEVELS_BRACKET`` of the capacity, is undefined."""
    cfg = _load(path)
    _require_deviation_costs(cfg.econ, command)
    cap = cfg.recruitment.capacity
    _require_weighted(cfg.econ, cap * LEVELS_BRACKET,
                      f"[recruitment] capacity: {cap!r} * {LEVELS_BRACKET!r} =")
    return cfg


def _cmd_check(args) -> int:
    cfg = _load_with_levels(args.config, "check")
    _require_weighted(cfg.econ, cfg.bounds.stock_floor, "[bounds] stock_floor:")
    verdict = check_viability_domain(cfg.econ, cfg.recruitment, cfg.bounds)
    ok = verdict.conditions
    print(f"condition (i)   harvest floor attainable unmanaged: margin={_fmt(verdict.margin_floor_attainable)} "
          f"{'OK' if ok[0] else 'FAIL'}")
    print(f"condition (ii)  recruitment covers harvest floor:   margin={_fmt(verdict.margin_recruitment)} "
          f"{'OK' if ok[1] else 'FAIL'}")
    print(f"condition (iii) admissible recommendation exists:   margin={_fmt(verdict.margin_admissible)} "
          f"{'OK' if ok[2] else 'FAIL'}")
    print(f"verdict: {'VIABLE' if verdict.viable else 'NOT VIABLE'}")
    levels = critical_levels(cfg.econ, cfg.recruitment, cfg.bounds)
    def show(v):
        return _fmt(v) if v is not None else "absent"
    print(f"a (floor recommendation binds above) = {show(levels.a)}")
    print(f"b, c (recruitment equals harvest floor) = {show(levels.b)}, {show(levels.c)}")
    print(f"case ordering: {levels.case_order.value}")
    if levels.crossings_below_b:
        joined = ", ".join(_fmt(v) for v in levels.crossings_below_b)
        print(f"ceiling/unmanaged crossings below b: {joined}")
    return 0 if verdict.viable else 2


def _cmd_simulate(args) -> int:
    cfg = _load(args.config)
    record = simulate(*cfg.build())   # a refused run raises before the directory is made
    out_dir = args.out if args.out is not None else cfg.output.directory
    _make_output_dir(out_dir)
    _write_csv(os.path.join(out_dir, cfg.output.trajectory_file),
               ["t", "x", "r", "h", "q1", "q2", "regime", "region",
                "maturity", "viable_eco", "viable_econ"],
               trajectory_rows(record.samples, record.settled_from))
    _write_json(os.path.join(out_dir, cfg.output.events_file),
                [{"t": e.t, "kind": e.kind, **e.detail} for e in record.events])
    summary = summarize(record)
    print(f"samples: {len(record.samples)}  events: {len(record.events)}  "
          f"terminal stock: {_fmt(summary.terminal_stock)}  "
          f"mean harvest: {_fmt(summary.mean_harvest)}")
    return 0


def _parse_grid(spec: str):
    import numpy as np
    parts = spec.split(":")
    if len(parts) != 6:
        raise _UsageError("--grid expects XMIN:XMAX:RMIN:RMAX:NX:NR")
    try:
        x_min, x_max, r_min, r_max = map(float, parts[:4])
        nx, nr = int(parts[4]), int(parts[5])
    except ValueError as exc:
        raise _UsageError(f"--grid: {exc}") from None
    if not all(map(math.isfinite, (x_min, x_max, r_min, r_max))):
        raise _UsageError("--grid: axis bounds must be finite")
    if nx < 1 or nr < 1:
        raise _UsageError("--grid: axis resolutions must be at least 1")
    if x_min <= 0.0:
        raise _UsageError("--grid: stock axis must be positive")
    if (nx > 1 and x_max <= x_min) or (nr > 1 and r_max < r_min) or r_min < 0.0:
        raise _UsageError("--grid: degenerate rectangle")
    try:
        xs = np.linspace(x_min, x_max, nx) if nx > 1 else np.array([x_min])
        rs = np.linspace(r_min, r_max, nr) if nr > 1 else np.array([r_min])
    except (MemoryError, ValueError) as exc:  # an axis numpy cannot allocate
        raise _UsageError(f"--grid: cannot allocate NX={nx}, NR={nr} points: {exc}") from None
    return [float(v) for v in xs], [float(v) for v in rs]


def phase_rows(params, rec, bounds, xs: list[float], rs: list[float]):
    """Yield the ``phase_grid.csv`` rows of :func:`phase_blocks` over the
    stocks ``xs`` and recommendations ``rs``, stock by stock.  Each stock's
    values and each recommendation are formatted once.  A point's h is
    formatted only where its regime leaves it open: a ``NON_BINDING`` h is
    the stock's landed free catch, one value that the kernel copies to every
    such point of the row, so its text is made once per row; a
    ``SHUTDOWN_UNPROFITABLE`` h is the kernel's +0.0, as ``phase_blocks``
    refuses negative and NaN recommendations."""
    import numpy as np
    r_text = ["%.17g," % r for r in rs]
    # a point's regime and sign as one index, 3 * regime + sign + 1
    tags = [f"{regime._value_},{sign}" for regime in Regime for sign in (-1, 0, 1)]
    regions = [f"{region._value_}\n" for region in Region]
    # "h,regime,sign" per index where the regime fixes h, else None: indices
    # 3-5 are NON_BINDING's (set per row), 6-8 SHUTDOWN_UNPROFITABLE's
    ready = [None] * 6 + [f"0,{tag}" for tag in tags[6:9]] + [None] * 3
    for block in phase_blocks(params, rec, bounds, xs, rs):
        # a row's one NON_BINDING h, which is never NaN (-inf in a row without one)
        free = block.h.max(axis=1, where=block.regime == 1, initial=-np.inf).tolist()
        for x, unmanaged, ceiling, floor, landed, hs, marks, codes in zip(
                block.x, block.unmanaged, block.ceiling, block.floor, free, block.h.tolist(),
                (3 * block.regime + block.sign + 1).tolist(), block.region.tolist()):
            head = "%.17g," % x
            tail = ",%.17g,%.17g,%.17g," % (unmanaged, ceiling, floor)
            ready[3:6] = ["%.17g,%s" % (landed, tag) for tag in tags[3:6]]
            yield from [f"{head}{r}{ready[mark] or f'{h:.17g},{tags[mark]}'}{tail}{regions[code]}"
                        for r, h, mark, code in zip(r_text, hs, marks, codes)]


def _cmd_phase(args) -> int:
    cfg = _load_with_levels(args.config, "phase")
    xs, rs = _parse_grid(args.grid)
    _require_weighted(cfg.econ, xs[0], "--grid: XMIN", _UsageError)
    _make_output_dir(args.out)
    _write_csv(os.path.join(args.out, "phase_grid.csv"),
               ["x", "r", "h", "regime", "sign_growth_minus_harvest",
                "unmanaged_harvest", "recommendation_ceiling",
                "recommendation_floor", "region"],
               phase_rows(cfg.econ, cfg.recruitment, cfg.bounds, xs, rs))
    levels = critical_levels(cfg.econ, cfg.recruitment, cfg.bounds)
    payload = {
        "a": levels.a,
        "b": levels.b,
        "c": levels.c,
        "case_order": levels.case_order.value,
        "stock_floor": cfg.bounds.stock_floor,
    }
    _write_json(os.path.join(args.out, "phase_levels.json"), payload)
    print(f"wrote {len(xs) * len(rs)} grid rows")
    return 0


def _parse_axes(spec: str) -> list[tuple[str, list]]:
    import numpy as np
    axes = []
    cells = 1   # of the axes so far, checked before linspace allocates the next
    if not spec:
        return axes
    for chunk in spec.split(","):
        if "=" not in chunk:
            raise _UsageError(f"--axes: expected FIELD=LO:HI:N or FIELD=a|b, got {chunk!r}")
        field, definition = chunk.split("=", 1)
        field = field.strip()
        if any(field == name for name, _ in axes):  # its later values would override these
            raise _UsageError(f"--axes {field}: field given twice")
        if "|" in definition:
            values = [v.strip() for v in definition.split("|")]
            count = len(values)
        else:
            parts = definition.split(":")
            if len(parts) != 3:
                raise _UsageError(f"--axes {field}: expected LO:HI:N")
            try:
                lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            except ValueError as exc:
                raise _UsageError(f"--axes {field}: {exc}") from None
            if count < 1:
                raise _UsageError(f"--axes {field}: N must be at least 1")
        cells *= count
        if cells > _MAX_SWEEP_CELLS:
            raise _UsageError(f"--axes: {cells} cells exceeds the {_MAX_SWEEP_CELLS} limit")
        if "|" not in definition:
            # a single value is LO itself, checked like any other value;
            # linspace would spread a non-finite bound into values nobody wrote
            if count > 1 and not (math.isfinite(lo) and math.isfinite(hi)):
                raise _UsageError(f"--axes {field}: LO and HI must be finite")
            values = [float(v) for v in (np.linspace(lo, hi, count) if count > 1 else [lo])]
        axes.append((field, values))
    return axes


def _sweep_row(cell) -> str:
    if cell.error is not None:  # the row names the type; CellResult keeps the message
        values = [*cell.values, f"error: {cell.error.partition(':')[0]}", "", "", ""]
    else:
        values = [*cell.values, "violated" if cell.violated else "viable",
                  cell.first_violation if cell.first_violation is not None else "",
                  cell.terminal_stock, cell.mean_harvest]
    return ",".join(_fmt(v) for v in values) + "\n"


def _cmd_sweep(args) -> int:
    cfg = _load(args.config)
    axes = _parse_axes(args.axes)
    # validate axis fields and first values up front: a bad one is a config error
    require_runnable(*cfg.with_overrides({field: values[0] for field, values in axes}).build())
    _make_output_dir(args.out)

    cells = sweep(lambda overrides: cfg.with_overrides(overrides).build(), axes)
    fields = [field for field, _ in axes]
    _write_csv(os.path.join(args.out, "sweep.csv"),
               [*fields, "verdict", "first_violation_time", "terminal_x", "mean_h"],
               map(_sweep_row, cells))
    # the full message of each error row, which sweep.csv names by type only
    _write_json(os.path.join(args.out, "sweep_errors.json"),
                [{"cell": index, "axes": dict(zip(fields, map(_fmt, cell.values))),
                  "error": cell.error}
                 for index, cell in enumerate(cells) if cell.error is not None])
    print(f"wrote {len(cells)} sweep cells")
    return 0


def _cmd_verify(args) -> int:
    if args.instances is not None and args.instances < 1:
        raise _UsageError("--instances: N must be at least 1")
    if args.seed < 0:
        raise _UsageError(f"--seed: {args.seed} is negative; seeds are non-negative integers")
    reports = run_all(seed=args.seed, instances=args.instances)
    for report in reports:
        print(report.line())
    failed = sum(not r.passed for r in reports)
    print(f"{len(reports) - failed}/{len(reports)} suites passed")
    return 0 if failed == 0 else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="quotavia",
                     description="Quota co-management viability simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="viability-domain verdict for a scenario")
    check.add_argument("--config", required=True)
    check.set_defaults(handler=_cmd_check)

    sim = sub.add_parser("simulate", help="run one closed-loop trajectory")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None)
    sim.set_defaults(handler=_cmd_simulate)

    phase = sub.add_parser("phase", help="export a phase-portrait grid")
    phase.add_argument("--config", required=True)
    phase.add_argument("--out", default=".")
    phase.add_argument("--grid", required=True,
                       help="XMIN:XMAX:RMIN:RMAX:NX:NR")
    phase.set_defaults(handler=_cmd_phase)

    swp = sub.add_parser("sweep", help="simulate over a parameter grid")
    swp.add_argument("--config", required=True)
    swp.add_argument("--out", default=".")
    swp.add_argument("--axes", required=True,
                     help="FIELD=LO:HI:N[,FIELD=a|b|c...]")
    swp.set_defaults(handler=_cmd_sweep)

    ver = sub.add_parser("verify", help="run the randomized oracle suites")
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.add_argument("--instances", type=int, default=None)
    ver.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

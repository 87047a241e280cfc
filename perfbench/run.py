"""quotavia benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: trajectory, sweep, verify, phase (see ``workloads.py`` for what
each runs and why).  The run

1. imports quotavia from ``src/`` and prepares the inputs in this process,
   then runs one untimed warm-up round;
2. repeats the workload's round for ``--seconds`` seconds, timing every
   op, and checks every output.  The host's speed is sampled before and
   after every op with a fixed reference loop, and the reported times are
   normalized by it (see ``reference.py``);
3. measures set-up time in fresh child interpreters, one at a time, each
   importing quotavia and preparing the workload's inputs (a process pays
   its imports only once, so set-up cannot be repeated in-process).  Half
   of the probes run just before the timed rounds and half just after, so
   that their median spans the run as the other metrics do;
4. with ``--trace 1``, runs three more rounds with spans recorded around
   each module's functions (see ``tracer.py``) and reports per-layer
   metrics from the first instead of end-to-end ones, plus the tracing
   overhead (median traced round minus median untraced round).

All loops run in this one process with no extra threads.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list the machine facts and
every metric by name and unit.  Outputs go to ``.perfbench_out/`` in the
checkout.
"""

from __future__ import annotations

import os

# One thread per process: the box has few cores and numpy's elementwise
# kernels gain nothing from a BLAS pool.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import reference  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    CANONICAL, CRISIS, WORKLOADS, check_round, fresh_dir, run_ops, run_round)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60
TRACED_ROUNDS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def program_present(root: str) -> list[str]:
    needed = [os.path.join("src", "quotavia", "cli.py"), CANONICAL, CRISIS]
    return [rel for rel in needed if not os.path.isfile(os.path.join(root, rel))]


def git_commit(root: str) -> str:
    """HEAD's commit read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(root: str) -> dict:
    import numpy
    try:
        with open("/proc/loadavg", encoding="utf-8") as handle:
            loadavg = handle.read().split()[:3]
    except OSError:
        loadavg = []
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": loadavg,
        "commit": git_commit(root),
        "platform": platform.platform(),
    }


def probe_setup(workload: str, seed: int, probes: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it could run the
    first op, once per probe: as measured, and normalized by the reference
    samples the probe took right before and after its set-up."""
    script = os.path.join(HERE, "probe.py")
    measured, normalized = [], []
    for _ in range(probes):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, script, ROOT, workload, str(seed)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        ready, sampling, before, after = map(float, proc.stdout.split()[-4:])
        took = ready - start - sampling
        measured.append(took)
        normalized.append(reference.normalize(took, before, after))
    return measured, normalized


def normalized_ops(rnd) -> list[float]:
    """The round's op times in seconds at the reference speed."""
    return [reference.normalize(t, rnd.ref[i], rnd.ref[i + 1])
            for i, t in enumerate(rnd.op_times)]


def end_to_end(rounds, setup: tuple[list[float], list[float]],
               labels: list[str]) -> tuple[dict, list[str]]:
    """End-to-end metrics from the normalized times (see reference.py); the
    lines also give the measured ones."""
    # Latency pools every op of the run.  On trajectory the two simulate
    # kinds take about the same time (their medians differ by about 5%
    # and their ranges overlap), so the pooled median is a real median;
    # the per-kind medians are printed so this can be checked.
    per_round = [normalized_ops(r) for r in rounds]
    op_times = [t for times in per_round for t in times]
    latency = stats.latency_summary(op_times)
    measured = stats.latency_summary([t for r in rounds for t in r.op_times])
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setup[1]), "s"),
        "wall_s": (statistics.median(sum(times) for times in per_round), "s"),
        "op_p50_s": (latency["p50"], "s"),
        "op_ptail_s": (latency["ptail"], "s"),
        "units_per_s": ((attempted - failed) / sum(op_times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = [x for r in rounds for x in r.ref]
    lines = [f"op_ptail_s is p{latency['tail_percentile']:.1f} of {latency['samples']} ops "
             f"({latency['above_tail']} above it); {len(rounds)} rounds",
             f"times are normalized: the host ran "
             f"{statistics.median(samples) / reference.REFERENCE_S:.3f}x "
             f"the reference time (median of {len(samples)} samples)",
             f"measured: setup_s {statistics.median(setup[0]):.6f} "
             f"wall_s {statistics.median(r.wall for r in rounds):.6f} "
             f"op_p50_s {measured['p50']:.6f} op_ptail_s {measured['ptail']:.6f}",
             "setup probes (s, measured): " + " ".join(f"{t:.4f}" for t in setup[0])]
    if latency["above_tail"] < stats.TAIL_MARGIN:
        lines.append(f"warning: only {latency['samples']} ops, fewer than "
                     f"{stats.TAIL_MARGIN} lie above op_ptail_s, which falls back to the median")
    if len(labels) > 1:
        lines.append("op p50 by kind (s): " + "; ".join(
            f"{label} {statistics.median(times[i] for times in per_round):.4f}"
            for i, label in enumerate(labels)))
    return metrics, lines


def traced_round(workload, ops, untraced_walls: list[float], out_dir: str):
    """Traced rounds: per-layer metrics from the first, the tracing overhead
    from the median normalized wall time of all of them."""
    tracer = tracing.Tracer()
    per_op = []

    def on_op(op) -> None:
        tracer.counts["cli.bytes_written"] += sum(
            os.path.getsize(p) for p in op.outputs if os.path.exists(p))
        per_op.append((op.label, len(tracer), dict(tracer.counts)))

    with tracing.Installed(tracer) as installed:
        results = [run_ops(ops, on_op, reference.sample)]
    for _ in range(TRACED_ROUNDS - 1):
        with tracing.Installed(tracing.Tracer()):
            results.append(run_ops(ops, reference=reference.sample))
    for result in results:
        check_round(ops, result)
    tracer.counts.update(workload.extra_counts(results[0].results))
    metrics = tracing.layer_metrics(tracer)
    traced = statistics.median(sum(normalized_ops(r)) for r in results)
    baseline = statistics.median(untraced_walls)
    metrics.update({
        "trace.wall_s": (traced, "s"),
        "trace.untraced_wall_s": (baseline, "s"),
        "trace.overhead_s": (traced - baseline, "s"),
        "trace.spans": (len(tracer), "count"),
    })
    lines = []
    prev_end, prev_counts = 0, {}
    for label, end, counts in per_op:
        spans = tracing.op_counts(tracer, prev_end, end)
        steps = counts.get("engine.rk_steps", 0) - prev_counts.get("engine.rk_steps", 0)
        lines.append(f"traced op {label}: econ.nash_solves={spans['econ.nash']} "
                     f"engine.rk_steps={steps} control.decisions={spans['control.decide']} "
                     f"spans={end - prev_end}")
        prev_end, prev_counts = end, counts
    if installed.missing:
        lines.append("hooks not found (their metrics read 0): " + ", ".join(installed.missing))
    tracer.dump(os.path.join(out_dir, "spans.json"))
    return results, metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = program_present(ROOT)
    if missing:
        print(f"perfbench: not a quotavia checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    facts = machine_facts(ROOT)
    facts.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                 trace=args.trace)
    print("facts " + json.dumps(facts))

    import quotavia.cli  # noqa: F401  (what the probes paid for)
    out_dir = fresh_dir(os.path.join(OUT, args.workload))
    workload = WORKLOADS[args.workload](ROOT, args.seed, out_dir)
    workload.setup()
    if not workload.uses_seed:
        print(f"workload {args.workload} has fixed inputs; --seed is ignored")
    ops = workload.ops()

    problems = list(run_round(ops, reference.sample).problems)  # warm-up, untimed
    probes = 0 if args.trace else SETUP_PROBES
    setup = probe_setup(args.workload, args.seed, probes // 2)
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while True:
        result = run_round(ops, reference.sample)
        rounds.append(result)
        problems += result.problems
        if time.perf_counter() >= deadline:
            break

    if args.trace:
        traced, metrics, lines = traced_round(
            workload, ops, [sum(normalized_ops(r)) for r in rounds], out_dir)
        rounds += traced
        problems += [p for r in traced for p in r.problems]
    else:
        after = probe_setup(args.workload, args.seed, probes - probes // 2)
        metrics, lines = end_to_end(rounds, (setup[0] + after[0], setup[1] + after[1]),
                                    [op.label for op in ops])
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_ratio = {failed / attempted!r} ratio ({failed} of {attempted} units)")
    for line in lines + workload.notes:
        print(line)
    for problem in dict.fromkeys(problems):
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

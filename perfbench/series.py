"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/series.py --out DIR [--workloads a,b] [--seeds 1-10] [--trace]

Runs are made one after another with the settings in ``BENCHMARK.json``.
Each run's standard output is kept as ``DIR/<workload>/seed-<n>.txt``
(``trace-seed-<n>.txt`` for traced runs), the layout ``compare.py`` reads.
For untraced runs the spread of every end-to-end metric (quartile distance
over median) is printed beside its bound.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

import stats
from compare import load_benchmark, load_runs, parse_run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread_lines(runs: dict[str, dict[int, dict]], bench: dict) -> list[str]:
    lines = []
    for workload, by_seed in sorted(runs.items()):
        lines.append(f"{workload}: {len(by_seed)} runs, "
                     f"correct {all(r['correct'] for r in by_seed.values())}, "
                     f"failed units {sum(r['failed'] for r in by_seed.values())}")
        for spec in bench["end_to_end"]:
            vals = [r["metrics"][spec["name"]]["value"] for r in by_seed.values()]
            q1, med, q3 = stats.quartiles(vals)
            spread = stats.relative_spread(vals)
            flag = "ok" if spread < spec["bound"] / 3 else (
                "WIDE" if spread < spec["bound"] else "OVER BOUND")
            lines.append(f"  {spec['name']:<12} median {med:.6g} [{q1:.6g}, {q3:.6g}] "
                         f"{spec['unit']}  spread {spread:.4f}  bound {spec['bound']}  {flag}")
    return lines


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description="Run the benchmark over several seeds.")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    prefix = "trace-seed" if args.trace else "seed"
    for workload in args.workloads.split(","):
        folder = os.path.join(args.out, workload)
        os.makedirs(folder, exist_ok=True)
        for seed in seed_list(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(int(args.trace))]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            with open(os.path.join(folder, f"{prefix}-{seed}.txt"), "w", encoding="utf-8") as handle:
                handle.write(proc.stdout)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = parse_run(proc.stdout)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    if not args.trace:
        print("\n".join(spread_lines(load_runs(args.out), bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

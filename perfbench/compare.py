"""Compare two result sets of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory written by ``series.py``: one file per run,
``<workload>/seed-<n>.txt``, holding the run's standard output.  For every
workload and end-to-end metric the comparison prints each side's median and
quartiles and a verdict by this rule:

* ``gain``: the change wins at least nine tenths of the seed-paired runs
  (ties count for neither side) and the medians differ, in the better
  direction, by more than the parent's quartile distance.  A gain is void
  when the change fails a larger share of the units it attempted than the
  parent (a faster side attempts more units in the fixed run length, so
  failed units are compared as shares, not as counts).
* ``unresolved``: the parent's quartile distance, as a share of its median,
  exceeds the metric's bound, unless every change run reads better than
  every parent run.
* ``regression``: the change's median is worse than the parent's by more
  than the bound.
* ``no regression``: otherwise.

With fewer than ``MIN_PAIRS`` seed pairs a workload gets no verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import stats

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")
MIN_PAIRS = 10


def load_benchmark(path: str = BENCHMARK) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def parse_run(text: str) -> dict:
    """The result object from a run's standard output (its last line)."""
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("empty output")
    return json.loads(lines[-1])


def load_runs(directory: str, trace: bool = False) -> dict[str, dict[int, dict]]:
    """``workload -> seed -> result`` for every run file in a result set."""
    pattern = re.compile(r"(trace-)?seed-(\d+)\.txt$")
    runs: dict[str, dict[int, dict]] = {}
    for workload in sorted(os.listdir(directory)):
        folder = os.path.join(directory, workload)
        if not os.path.isdir(folder):
            continue
        for name in os.listdir(folder):
            match = pattern.match(name)
            if not match or bool(match.group(1)) != trace:
                continue
            with open(os.path.join(folder, name), encoding="utf-8") as handle:
                runs.setdefault(workload, {})[int(match.group(2))] = parse_run(handle.read())
    return runs


def values(runs: dict[int, dict], metric: str, seeds) -> list[float]:
    return [runs[s]["metrics"][metric]["value"] for s in seeds]


def failed_share(runs: dict[int, dict], seeds) -> float:
    """Failed units over attempted units, summed over the given runs."""
    return (sum(runs[s]["failed"] for s in seeds)
            / sum(runs[s]["attempted"] for s in seeds))


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool) -> tuple[str, int]:
    """Verdict for seed-paired runs and the number of pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = stats.quartiles(parent)
    c_med = stats.quartiles(change)[1]
    improved = sign * (p_med - c_med) > 0.0
    if (wins >= 0.9 * len(parent) and improved
            and abs(c_med - p_med) > p_q3 - p_q1):
        return ("gain void: more failures" if more_failures else "gain"), wins
    if stats.relative_spread(parent) > bound:
        all_better = all(sign * (p - c) > 0.0 for p in parent for c in change)
        return ("no regression" if all_better else "unresolved"), wins
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    return ("regression" if worse > bound else "no regression"), wins


def compare(parent_dir: str, change_dir: str, bench: dict) -> list[str]:
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    lines = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        p_runs, c_runs = parent_runs[workload], change_runs[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            continue
        p_share, c_share = failed_share(p_runs, seeds), failed_share(c_runs, seeds)
        correct = all(p_runs[s]["correct"] for s in seeds), all(c_runs[s]["correct"] for s in seeds)
        lines.append(f"{workload}: {len(seeds)} seed pairs; failed share parent {p_share:.6g} "
                     f"change {c_share:.6g}; correct parent {correct[0]} change {correct[1]}")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            p_vals, c_vals = values(p_runs, name, seeds), values(c_runs, name, seeds)
            result, wins = verdict(p_vals, c_vals, spec["better"], spec["bound"],
                                   c_share > p_share)
            if len(seeds) < MIN_PAIRS:
                result = f"no verdict: fewer than {MIN_PAIRS} seed pairs"
            pq, cq = stats.quartiles(p_vals), stats.quartiles(c_vals)
            lines.append(
                f"  {name:<12} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {spec['unit']}  "
                f"wins {wins}/{len(seeds)}  bound {spec['bound']}  -> {result}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    lines = compare(args.parent, args.change, load_benchmark())
    if not lines:
        print("no workload has runs with the same seed on both sides", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

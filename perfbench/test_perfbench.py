"""Tests of the benchmark's own logic.  Run from the checkout root with

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# --- percentile choice -----------------------------------------------------------

@pytest.mark.parametrize("n", [21, 22, 50, 100, 1000])
def test_tail_has_exactly_ten_samples_above_when_enough(n):
    idx = stats.tail_index(n)
    assert n - 1 - idx == stats.TAIL_MARGIN
    assert idx >= n // 2


@pytest.mark.parametrize("n", [1, 2, 5, 10, 11, 20])
def test_tail_never_below_the_median(n):
    idx = stats.tail_index(n)
    assert idx == n // 2
    samples = [float(i) for i in range(n)]
    summary = stats.latency_summary(samples)
    assert summary["ptail"] >= summary["p50"]
    assert summary["samples"] == n


def test_latency_summary_on_shuffled_samples():
    samples = [float(v) for v in range(100, 0, -1)]     # 1..100, reversed
    summary = stats.latency_summary(samples)
    assert summary["p50"] == 50.5
    assert summary["ptail"] == 90.0                     # 91..100 lie above
    assert summary["above_tail"] == 10
    assert summary["tail_percentile"] == 90.0


def test_relative_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 10.0]
    q1, q2, q3 = stats.quartiles(values)
    assert (q3 - q1) / q2 == stats.relative_spread(values)
    assert stats.relative_spread([2.0]) == 0.0


# --- self time ------------------------------------------------------------------

def test_covered_length_merges_overlaps_and_clips():
    assert tracing.covered_length(0.0, 10.0, [(1, 3), (2, 5), (7, 8)]) == 5.0
    assert tracing.covered_length(0.0, 10.0, [(-5, 2), (9, 20)]) == 3.0
    assert tracing.covered_length(0.0, 10.0, []) == 0.0
    assert tracing.covered_length(0.0, 10.0, [(4, 4), (6, 5)]) == 0.0


def test_self_time_with_overlapping_children():
    #  span 0: [0, 10]; children 1 [1, 4] and 2 [3, 6] overlap on [3, 4];
    #  span 3 [2, 3] is a grandchild inside span 1.
    starts = [0.0, 1.0, 3.0, 2.0]
    ends = [10.0, 4.0, 6.0, 3.0]
    parents = [-1, 0, 0, 1]
    selfs = tracing.self_times(starts, ends, parents)
    assert selfs == [5.0, 2.0, 3.0, 1.0]


def test_tracer_nests_spans_and_generators():
    tracer = tracing.Tracer()
    outer, inner = tracer.name_of("a.outer"), tracer.name_of("b.inner")
    wrapped = tracing._span_wrapper(tracer, lambda: sum(range(10)), inner, None, "b.raised")
    idx = tracer.open(outer)
    assert wrapped() == 45
    tracer.close(idx)
    assert list(tracer.parent) == [-1, 0]
    assert tracer.counts["b.raised"] == 0

    def produce():
        yield 1
        yield 2
    gen = tracing._generator_wrapper(tracer, produce, inner, "b.points")()
    assert list(gen) == [1, 2]
    assert tracer.counts["b.points"] == 2
    assert len(tracer) == 5            # two items and the exhausting next()
    t = tracing.totals(tracer)
    assert t.calls["b.inner"] == 4
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    assert t.layer_self("a") == pytest.approx(durations[0] - durations[1])


def test_raising_calls_are_counted_and_their_spans_closed():
    tracer = tracing.Tracer()
    wrapped = tracing._span_wrapper(tracer, lambda: 1 / 0, tracer.name_of("b.inner"),
                                    None, "b.raised")
    with pytest.raises(ZeroDivisionError):
        wrapped()
    assert tracer.counts["b.raised"] == 1
    assert len(tracer) == 1 and tracer.end[0] >= tracer.start[0] > 0.0


def test_installed_hooks_are_restored():
    import quotavia.cli
    import quotavia.engine
    from quotavia.scenario import ScenarioConfig
    before = (quotavia.cli.main, quotavia.engine._nash_point,
              ScenarioConfig.__dict__["from_file"])
    with tracing.Installed(tracing.Tracer()) as installed:
        assert quotavia.cli.main is not before[0]
        assert installed.missing == []
    after = (quotavia.cli.main, quotavia.engine._nash_point,
             ScenarioConfig.__dict__["from_file"])
    assert after == before


def test_missing_hook_is_skipped():
    hooks = (tracing.Hook("quotavia.cli", "no_such_function", "cli.nothing"),)
    with tracing.Installed(tracing.Tracer(), hooks) as installed:
        pass
    assert installed.missing == ["quotavia.cli.no_such_function"]


# --- digests and failure accounting ------------------------------------------

def _op(units, check, error=None):
    def run():
        if error:
            raise RuntimeError(error)
        return workloads.OpResult(value=0)
    return workloads.Op("op", units, workloads.guarded(run), check)


def test_failures_are_counted_and_the_round_goes_on():
    ok = _op(5, lambda r: (0, []))
    raising = _op(7, lambda r: (7, [r.error]) if r.error else (0, []), error="boom")
    partial = _op(4, lambda r: (9, []))                 # capped at its units
    unreadable = _op(3, lambda r: {}["missing"])
    result = workloads.run_round([ok, raising, partial, unreadable])
    assert result.attempted == 19
    assert result.failed == 7 + 4 + 3
    assert result.problems == ["RuntimeError: boom", "op: check raised KeyError: 'missing'"]
    assert len(result.op_times) == 4


def test_digest_mismatch_is_a_problem(tmp_path):
    (tmp_path / "a.txt").write_bytes(b"hello\n")
    good = "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03"
    assert workloads.digest_problems(str(tmp_path), {"a.txt": good}) == []
    assert workloads.digest_problems(str(tmp_path), {"a.txt": "0" * 64})
    assert workloads.digest_problems(str(tmp_path), {"b.txt": good})


def test_sweep_checks_row_count_and_reproduces_error_rows(tmp_path):
    sweep = workloads.Sweep(ROOT, seed=3, out_dir=str(tmp_path), draws=1, reproduced=1)
    sweep.setup()
    header = ["strategy.name", "econ.price", "simulation.initial_stock",
              "simulation.horizon", "verdict", "first_violation_time", "terminal_x", "mean_h"]
    # simulate raises ValueError in the extinction corner too: a correct row
    corner = ["conservative", "3000", "1", "2", "error: ValueError", "", "", ""]
    assert sweep._reproduce(header, corner) is None
    # an error row where simulate succeeds is a wrong row
    wrong = ["ichthyocentric", "1", "1", "2", "error: ValueError", "", "", ""]
    assert "standalone simulate gave no error" in sweep._reproduce(header, wrong)
    (tmp_path / "sweep.csv").write_text(",".join(header) + "\n" + ",".join(corner) + "\n")
    failed, problems = sweep._check(workloads.OpResult(value=0))
    assert failed == sweep.cells and problems == ["sweep: 1 rows for 3 cells"]


def test_stratified_draws_cover_every_stratum():
    import random
    draws = workloads.stratified(random.Random(1), 0.3, 3000.0, 8, log=True)
    assert len(draws) == 8 and draws == sorted(draws)
    assert sum(d >= 300.0 for d in draws) >= 2


def test_op_times_are_scaled_by_the_reference_around_them():
    import run
    ref = reference.REFERENCE_S
    rnd = workloads.RoundResult(wall=5.0, op_times=[1.0, 2.0], results=[],
                                ref=[ref, 3 * ref, 2 * ref])
    # op 0 ran while the reference took twice its time, op 1 2.5 times
    assert run.normalized_ops(rnd) == pytest.approx([0.5, 0.8])
    assert reference.normalize(1.0, ref, ref) == pytest.approx(1.0)


def test_rounds_sample_the_reference_at_every_op_boundary():
    calls = []
    ops = [_op(1, lambda r: (0, [])) for _ in range(3)]
    result = workloads.run_ops(ops, reference=lambda: calls.append(1) or 0.5)
    assert result.ref == [0.5] * 4 and len(result.op_times) == 3
    assert workloads.run_ops(ops).ref == []


# --- tiny smoke runs of every workload ---------------------------------------

@pytest.mark.parametrize("name,kwargs", [
    ("trajectory", {}),
    ("phase", {}),
    ("sweep", {"draws": 2, "reproduced": 2}),
    ("verify", {"scale": 1000}),
])
def test_one_round_of_each_workload(tmp_path, name, kwargs):
    workload = workloads.WORKLOADS[name](ROOT, 5, str(tmp_path), **kwargs)
    workload.setup()
    ops = workload.ops()
    result = workloads.run_round(ops)
    assert result.problems == []
    assert result.attempted == sum(op.units for op in ops)
    assert result.failed == 0


def test_traced_verify_round_counts(tmp_path):
    workload = workloads.Verify(ROOT, 5, str(tmp_path), scale=1000)
    workload.setup()
    ops = workload.ops()
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.Installed(tracer):
            result = workloads.run_ops(ops)
        tracer.counts.update(workload.extra_counts(result.results))
        metrics = tracing.layer_metrics(tracer)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["verification.existence_searches"] == 2
    assert counts[0]["verification.harvest_curve_points"] == 2 * 65 * 4096
    assert counts[0]["engine.rk_steps"] == 0


# --- the command line ----------------------------------------------------------

def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "phase",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert time.monotonic() - start < 60
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_verdicts():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1, False)[0] == "gain"
    assert compare.verdict(parent, faster, "lower", 0.1, True)[0] == "gain void: more failures"
    assert compare.verdict(parent, slower, "lower", 0.1, False)[0] == "regression"
    assert compare.verdict(parent, parent, "lower", 0.1, False)[0] == "no regression"
    noisy = [1.0, 2.0, 0.5, 1.5, 1.0, 3.0, 0.7, 1.1, 0.9, 2.5]
    assert compare.verdict(noisy, noisy, "lower", 0.1, False)[0] == "unresolved"
    assert compare.verdict(parent, faster, "higher", 0.1, False)[0] == "regression"


def _write_set(directory, seeds, wall, attempted, failed):
    for seed in seeds:
        folder = directory / "sweep"
        folder.mkdir(parents=True, exist_ok=True)
        metrics = {m["name"]: {"value": 1.0 + 0.001 * seed, "unit": m["unit"]}
                   for m in compare.load_benchmark()["end_to_end"]}
        metrics["wall_s"]["value"] = wall * (1.0 + 0.001 * seed)
        (folder / f"seed-{seed}.txt").write_text(json.dumps(
            {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))


def _wall_line(lines):
    return next(line for line in lines if line.strip().startswith("wall_s"))


def test_faster_change_with_the_same_failure_share_is_a_gain(tmp_path):
    # A faster change runs more rounds in the fixed run length, so it
    # attempts and fails more units at the same share.
    bench = compare.load_benchmark()
    _write_set(tmp_path / "p", range(1, 11), wall=1.0, attempted=1000, failed=100)
    _write_set(tmp_path / "c", range(1, 11), wall=0.7, attempted=1400, failed=140)
    assert _wall_line(compare.compare(tmp_path / "p", tmp_path / "c", bench)).endswith("-> gain")
    _write_set(tmp_path / "w", range(1, 11), wall=0.7, attempted=1400, failed=141)
    assert _wall_line(compare.compare(tmp_path / "p", tmp_path / "w", bench)).endswith(
        "-> gain void: more failures")


def test_no_verdict_with_fewer_than_ten_pairs(tmp_path):
    bench = compare.load_benchmark()
    _write_set(tmp_path / "p", range(1, 10), wall=1.0, attempted=1000, failed=0)
    _write_set(tmp_path / "c", range(1, 10), wall=0.7, attempted=1400, failed=0)
    line = _wall_line(compare.compare(tmp_path / "p", tmp_path / "c", bench))
    assert line.endswith("-> no verdict: fewer than 10 seed pairs")


def test_result_line_is_parsed_from_the_last_line():
    text = "facts {}\nsetup_s = 1 s\n" + json.dumps(
        {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}) + "\n"
    assert compare.parse_run(text)["attempted"] == 1


def test_reported_metrics_match_benchmark_json(tmp_path):
    bench = compare.load_benchmark()
    tracer = tracing.Tracer()
    per_layer = set(tracing.layer_metrics(tracer))
    per_layer |= {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans"}
    assert per_layer == {m["name"] for m in bench["per_layer"]}
    workload = workloads.Verify(ROOT, 1, str(tmp_path), scale=1000)
    workload.setup()
    import run
    ops = workload.ops()
    metrics, lines = run.end_to_end([workloads.run_round(ops, reference.sample)],
                                    ([3.0, 2.0, 4.0], [0.3, 0.2, 0.4]),
                                    [op.label for op in ops])
    assert list(metrics) == [m["name"] for m in bench["end_to_end"]]
    assert metrics["setup_s"][0] == 0.3
    assert any(line.startswith("warning: only 1 ops") for line in lines)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)

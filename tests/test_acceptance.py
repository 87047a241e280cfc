"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS line on success (run with ``pytest -s`` or ``-v``
to see them); a failure reads as the criterion it broke.
"""

import math
import time

import pytest

from quotavia import ScenarioConfig, critical_levels, simulate
from quotavia.cli import main
from quotavia.engine import (
    EVENT_MORATORIUM_START,
    EVENT_VIOLATION,
)
from quotavia.verification import (
    nash_agreement_suite,
    viability_domain_suite,
    floor_biconditional_suite,
    catch_cap_biconditional_suite,
)


def _report(name, detail):
    print(f"PASS {name}: {detail}")


@pytest.fixture(scope="module")
def canonical(canonical_scenario_path):
    return ScenarioConfig.from_file(canonical_scenario_path)


@pytest.fixture(scope="module")
def strategy_records(canonical):
    records = {}
    elapsed = {}
    for name in ("conservative", "ichthyocentric", "qualitative"):
        cfg = canonical.with_overrides({"strategy.name": name})
        start = time.perf_counter()
        records[name] = simulate(*cfg.build())
        elapsed[name] = time.perf_counter() - start
    return records, elapsed


def test_criterion_1_nash_oracle_agreement():
    report = nash_agreement_suite(instances=1000)
    assert report.passed, report.line()
    assert report.max_error <= 1e-6
    assert report.elapsed < 30.0
    _report("criterion 1 (Nash oracle agreement)",
            f"1000 instances, max rel err {report.max_error:.2e}, {report.elapsed:.1f}s")


def test_criterion_2_viability_domain_equivalence():
    report = viability_domain_suite(instances=2000)
    assert report.passed, report.line()
    assert report.elapsed < 60.0
    _report("criterion 2 (viability-domain equivalence)",
            f"2000 instances, 0 disagreements, {report.elapsed:.1f}s")


def test_criterion_3_threshold_biconditionals():
    econ = floor_biconditional_suite(instances=10000)
    catch = catch_cap_biconditional_suite(instances=10000)
    assert econ.passed, econ.line()
    assert catch.passed, catch.line()
    combined = econ.elapsed + catch.elapsed
    assert combined < 30.0
    _report("criterion 3 (threshold biconditionals)",
            f"2 x 10000 instances, 0 disagreements, {combined:.1f}s")


def test_criterion_4_canonical_critical_levels(symmetric_params, logistic, floors):
    levels = critical_levels(symmetric_params, logistic, floors)
    b_exact = 1.0 - math.sqrt(0.2)
    c_exact = 1.0 + math.sqrt(0.2)
    assert levels.a == pytest.approx(0.7, abs=1e-6)
    assert levels.b == pytest.approx(b_exact, abs=1e-6)
    assert levels.c == pytest.approx(c_exact, abs=1e-6)
    _report("criterion 4 (canonical critical levels)",
            f"a={levels.a:.9f}, b={levels.b:.9f}, c={levels.c:.9f}")


def test_criterion_5_strategy_outcomes(strategy_records):
    records, elapsed = strategy_records
    assert sum(elapsed.values()) < 10.0

    conservative = records["conservative"]
    assert conservative.first_event(EVENT_VIOLATION) is None

    ichthyocentric = records["ichthyocentric"]
    violation = ichthyocentric.first_event(EVENT_VIOLATION)
    assert violation is not None
    assert violation.detail["which"] == "ecological"
    assert 0.0 < violation.t < 200.0

    qualitative = records["qualitative"]
    assert qualitative.first_event(EVENT_VIOLATION) is None
    late_qualitative = qualitative.mean_harvest(100.0)
    late_conservative = conservative.mean_harvest(100.0)
    assert late_qualitative > late_conservative
    _report("criterion 5 (strategy outcomes)",
            f"ecological violation at t={violation.t:.2f}; late harvest "
            f"{late_qualitative:.4f} > {late_conservative:.4f}; "
            f"{sum(elapsed.values()):.1f}s")


def test_criterion_6_crisis_recovery(crisis_scenario_path):
    record = simulate(*ScenarioConfig.from_file(crisis_scenario_path).build())
    start = record.first_event(EVENT_MORATORIUM_START)
    assert start is not None
    floor_crossing = next((s.t for s in record.samples if s.x >= 1.0), None)
    assert floor_crossing is not None
    assert floor_crossing < 200.0
    _report("criterion 6 (crisis recovery)",
            f"moratorium at t={start.t}, refloats at t={floor_crossing:.2f}")


def test_criterion_7_integrator_convergence(canonical):
    worst = 0.0
    for name in ("conservative", "ichthyocentric", "qualitative"):
        cfg = canonical.with_overrides({"strategy.name": name})
        coarse = simulate(*cfg.build()).samples[-1].x
        fine = simulate(*cfg.with_overrides({"simulation.dt": 0.005}).build()).samples[-1].x
        worst = max(worst, abs(coarse - fine) / abs(coarse))
    assert worst < 1e-6

    # an unprofitable fishery catches nothing, so the stock follows the
    # analytic logistic
    idle = canonical.with_overrides({"econ.price": 0.25, "simulation.initial_stock": 0.3,
                                     "simulation.horizon": 20.0})
    samples = simulate(*idle.build()).samples
    assert all(s.h == 0.0 for s in samples)
    x, t = samples[-1].x, samples[-1].t
    growth, capacity = idle.recruitment.growth, idle.recruitment.capacity
    exact = capacity / (1.0 + ((capacity - 0.3) / 0.3) * math.exp(-growth * t))
    analytic_err = abs(x - exact) / exact
    assert analytic_err < 1e-8
    _report("criterion 7 (integrator convergence)",
            f"max dt-halving drift {worst:.2e}, analytic logistic err {analytic_err:.2e}")


def test_criterion_8_determinism_and_verify(canonical, tmp_path, capsys):
    short = canonical.with_overrides({"simulation.horizon": 10.0})
    path = tmp_path / "short.ini"
    path.write_text(short.to_text())
    outputs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        assert main(["simulate", "--config", str(path), "--out", str(out_dir)]) == 0
        outputs.append(((out_dir / "trajectory.csv").read_bytes(),
                        (out_dir / "events.json").read_bytes()))
    assert outputs[0] == outputs[1]

    assert main(["verify"]) == 0  # full default-seed run
    _report("criterion 8 (determinism and verify)",
            "byte-identical reruns; verify exits 0 on the default seed")

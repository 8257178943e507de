"""Tests of the benchmark itself: the self-time arithmetic and a tiny run of each workload.

Run from the root of a checkout: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_of_nested_spans():
    # op [0, 10] holds a [1, 6] and b [7, 9]; a holds c [2, 3] and d [4, 5.5]
    start = [0.0, 1.0, 2.0, 4.0, 7.0]
    end = [10.0, 6.0, 3.0, 5.5, 9.0]
    parent = [-1, 0, 1, 1, 0]
    got = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(got, [10 - 5 - 2, 5 - 1 - 1.5, 1.0, 1.5, 2.0])
    # the self times of a tree add up to its root's duration
    assert got.sum() == pytest.approx(10.0)


def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 100)
    assert run.tail([float(i) for i in range(1, 1001)]) == (990.0, 99.0, 1000)
    assert run.tail([float(i) for i in range(1, 34)]) == (17.0, 50.0, 33)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_run_pass_takes_probe_time_out_of_latencies():
    class Probe:  # a speed probe whose handler "ran" 0.03 s during the op
        busy_s = 0.0

    probe = Probe()

    def op_call():
        time.sleep(0.05)
        probe.busy_s += 0.03
        return 1

    op = workloads.Op("sleep", op_call, lambda r: [], lambda r: {})
    records, wall = run.run_pass([op], probe=probe)
    assert records[0]["latency"] == pytest.approx(0.02, abs=0.015)
    assert wall == pytest.approx(records[0]["latency"], abs=0.005)


def test_speed_probe_rescales_by_reference_kernel_time():
    probe = speed.SpeedProbe()
    probe.samples = [speed.REF_KERNEL_S] * 4
    assert probe.factor() == pytest.approx(1.0)
    # the mean kernel time: half the samples twice as slow is 1.5 x as slow
    probe.samples = [2.0 * speed.REF_KERNEL_S] * 4 + [speed.REF_KERNEL_S] * 4
    assert probe.factor() == pytest.approx(1.0 / 1.5)


def test_speed_probe_local_factor_uses_samples_near_the_span():
    probe = speed.SpeedProbe()
    # kernel at reference speed until t=10, then twice as slow
    probe.times = [0.1 * i for i in range(200)]
    probe.samples = [speed.REF_KERNEL_S if t < 10.0 else 2.0 * speed.REF_KERNEL_S
                     for t in probe.times]
    assert probe.local_factor(2.0, 2.01) == pytest.approx(1.0)
    assert probe.local_factor(15.0, 15.5) == pytest.approx(0.5)
    assert 0.5 < probe.local_factor(9.9, 10.0) < 1.0
    # a span with no sample near it falls back to all samples
    assert probe.local_factor(100.0, 100.1) == pytest.approx(probe.factor())


def test_speed_probe_timer_samples_and_stops():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        probe.stop()
    count = len(probe.samples)
    assert count >= 2 and probe.busy_s == pytest.approx(sum(probe.samples))
    time.sleep(0.25)
    assert len(probe.samples) == count


def test_tracer_restores_originals_and_counts_calls(tmp_path):
    import bernfit
    import bernfit.functional

    before = (bernfit.fit_functional, bernfit.functional.estimate_covariance,
              bernfit.ClsqSolver.solve)
    data = bernfit.generate_scenario(bernfit.ScenarioSpec("B", n=30, seed=1), 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert bernfit.fit_functional is not before[0]
        tracer.run_op(0, "fit", lambda: bernfit.fit_functional(
            data, "flcm", bernfit.BasisSpec(4), bernfit.NON_INCREASING))
    finally:
        tracer.uninstall()
    assert (bernfit.fit_functional, bernfit.functional.estimate_covariance,
            bernfit.ClsqSolver.solve) == before
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["clsq.solve.calls"] == 2  # step-1 fit and the constrained GLS solve
    assert metrics["clsq.factor.calls"] == 2
    assert metrics["functional.fpca_components"] >= 1
    spans = tracer.arrays()
    assert spans["names"][0] == "op.fit" and spans["parent"][0] == -1
    assert metrics["trace.self_total_s"] == pytest.approx(spans["end"][0] - spans["start"][0])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    workload = cls("golden", 7, tmp_path)
    workload.make_inputs()
    records, wall = run.run_pass(workload.ops(0))
    run.check_records(workload, records)
    assert wall > 0 and records
    assert all(r["error"] is None for r in records), [r["error"] for r in records]
    failing = {r["op"].name for r in records if r["problems"]}
    # the fofr fits fail their own shape certificate (see CHANGES.md); nothing else may
    assert failing <= {"fit-fofr"}, failing
    assert set(workload.pooled()) <= set(run.load_reference()["stats"][name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_golden_pass_matches_reference(name, tmp_path):
    records = run.golden_pass(workloads.WORKLOADS[name], tmp_path)
    problems = run.golden_problems(name, records, run.load_reference())
    problems = [p for p in problems if "shape certificate infeasible" not in p]
    assert problems == []


def test_declared_metrics_match_benchmark_json():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_command_prints_metrics_json_last(tmp_path):
    import json
    import subprocess

    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mc-paper", "--seed", "3",
         "--seconds", "0.1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.PER_LAYER)
    # report lines carry the end-to-end metrics, fail_frac included
    assert any(line.startswith("fail_frac") for line in lines)
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    assert layer["trace.self_total_s"] + layer["trace.untraced_s"] == pytest.approx(
        layer["trace.wall_s"])

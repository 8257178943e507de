"""Benchmark of bernfit: three workloads, end-to-end metrics and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {mc-paper,large-n,cli-session}
                             --seed N --seconds S --trace {0,1}

One client runs the workload's pass (a fixed list of ops) in a closed loop,
each op starting when the previous one returns, until ``--seconds`` have
passed. Inputs come from ``--seed``. Every op's output is checked; the set-up
warm-up also replays one pass at the reference seed against the goldens in
``reference.json``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it are a readable report. The exit code is 0 only when every
check passed.

The end-to-end times in the JSON line are rescaled to the reference machine's
speed by a calibration kernel timed during the run (``speed.py``); the report
gives the raw wall-clock figures beside them.

BLAS runs on one thread and every bernfit call gets ``threads=1``; see
README.md for the metric definitions.
"""

from __future__ import annotations

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
SETUP_TRIALS = 5
MIN_SPEED_SAMPLES = 20
PROBE_TIMEOUT_S = 60
GOLDEN_RTOL, GOLDEN_ATOL = 1e-6, 1e-9

# gated end-to-end metrics; every time here is speed-rescaled (see speed.py)
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics printed in the final JSON of a traced run: the ones every
# workload in BENCHMARK.json enters. Layer times that a gated workload never
# enters (dataset, cli, sofr, qfosr, model_selection, ...) would read 0.0 on
# every run there, so they appear in the report and the trace file only.
PER_LAYER = {
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "setup.warmup_s": "s",
    "basis.eval_basis_matrix.calls": "count",
    "constraints.build_s": "s",
    "constraints.rows": "count",
    "clsq.factor.calls": "count",
    "clsq.factor.s": "s",
    "clsq.solve.calls": "count",
    "clsq.solve.s": "s",
    "clsq.solve.dual_frac": "fraction",
    "clsq.solve.dual_iters": "count",
    "clsq.solve.ridge_bumps": "count",
    "functional.build_design.s": "s",
    "functional.gram_parts.s": "s",
    "functional.whitened.s": "s",
    "functional.estimate_covariance.s": "s",
    "functional.fit.self_s": "s",
    "functional.fpca_components": "count",
    "inference.test.self_s": "s",
    "inference.ci.self_s": "s",
    "inference.draws": "count",
    "inference.draws_per_s": "1/s",
    "inference.projected_frac": "fraction",
    "simulation.failures": "count",
    "utils.spawn_rng.calls": "count",
    "utils.spawn_rng.s": "s",
    "trace.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.self_total_s": "s",
    "trace.untraced_s": "s",
}

REPORT_ONLY_UNITS = {
    "basis.design_s": "s",
    "functional.reconstruct_sparse.s": "s",
    "sofr.fit.self_s": "s",
    "sofr.design.s": "s",
    "qfosr.design.s": "s",
    "qfosr.fit.self_s": "s",
    "model_selection.cv.self_s": "s",
    "model_selection.fold_fits": "count",
    "simulation.generate.s": "s",
    "simulation.run_benchmark.self_s": "s",
    "utils.parallel_map.self_s": "s",
    "dataset.read.s": "s",
    "dataset.read.bytes": "B",
    "dataset.write.s": "s",
    "dataset.write.bytes": "B",
    "cli.run_cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.op_self_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc-paper", "large-n", "cli-session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up (import, inputs, warm-up) and report the phase times")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import bernfit from the checkout's ``src``; returns the import time."""
    src = ROOT / "src"
    if not (src / "bernfit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bernfit sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import bernfit  # noqa: F401
    import bernfit.cli  # noqa: F401

    return time.perf_counter() - t0


# ------------------------------------------------------------------ running ops


def run_pass(ops, tracer=None, pass_id: int = 0, probe=None):
    """Run a pass closed-loop; returns (records, pass wall time).

    With a running speed ``probe``, the time its handler took during an op is
    taken out of that op's latency and out of the pass time.
    """
    records = []
    busy = probe.busy_s if probe is not None else 0.0
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        error = None
        result = None
        busy0 = probe.busy_s if probe is not None else 0.0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.call()
            else:
                result = tracer.run_op(pass_id * 100000 + i, op.name, op.call)
        except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        held = (probe.busy_s - busy0) if probe is not None else 0.0
        records.append({"op": op, "result": result, "error": error,
                        "latency": t1 - t0 - held, "start": t0, "end": t1})
    held = (probe.busy_s - busy) if probe is not None else 0.0
    return records, time.perf_counter() - t_pass - held


def check_records(workload, records) -> None:
    """Attach the op's check outcome to each record; feed passing ops to the pool."""
    for rec in records:
        if rec["error"] is not None:
            rec["problems"] = [rec["error"].strip().splitlines()[-1]]
            continue
        try:
            rec["problems"] = list(rec["op"].check(rec["result"]))
            if not rec["problems"]:
                workload.observe(rec["op"], rec["result"])
        except Exception:  # noqa: BLE001 - a check that cannot run fails the op
            rec["problems"] = ["check raised: " + traceback.format_exc(limit=2).strip()]


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def golden_pass(workload_cls, workdir: Path):
    """One pass at the golden sizes and the reference seed; returns the records."""
    from workloads import REFERENCE_SEED

    workload = workload_cls("golden", REFERENCE_SEED, workdir)
    workload.make_inputs()
    records, _ = run_pass(workload.ops(0))
    check_records(workload, records)
    for rec in records:
        rec["fingerprint"] = rec["op"].fingerprint(rec["result"]) if rec["error"] is None else {}
    return records


def golden_problems(workload_name: str, records, reference: dict) -> list:
    from workloads import compare_fingerprints

    want = reference["golden"].get(workload_name)
    if want is None:
        return [f"no golden reference for {workload_name}"]
    if len(want) != len(records):
        return [f"golden pass has {len(records)} ops, reference has {len(want)}"]
    problems = []
    for rec, ref in zip(records, want):
        name = rec["op"].name
        if name != ref["name"]:
            problems.append(f"golden op {name} does not match reference op {ref['name']}")
            continue
        problems += [f"{name}: {p}" for p in rec["problems"]]
        problems += [f"{name}: {p}" for p in
                     compare_fingerprints(rec["fingerprint"], ref["fingerprint"],
                                          GOLDEN_RTOL, GOLDEN_ATOL)]
    return problems


def pooled_problems(workload, reference: dict) -> dict:
    """Pooled statistics against the reference; returns {group: [problems]}."""
    rules = reference["stats"].get(workload.name, {}) if workload.profile_name == "full" else {}
    stats = workload.pooled()
    out: dict = {}
    for group, checks in rules.items():
        got = stats.get(group)
        if got is None:
            continue  # no op of this group ran
        for stat, rule in checks.items():
            value, ref, tol = got[stat], rule["reference"], rule["tol"]
            ok = {
                "max_factor": value <= tol * ref,
                "ratio_within": ref / tol <= value <= ref * tol,
                "abs_within": abs(value - ref) <= tol,
                "at_most_plus": value <= ref + tol,
                "at_least_minus": value >= ref - tol,
            }[rule["rule"]]
            if not ok:
                out.setdefault(group, []).append(
                    f"{stat}={value:.6g} fails {rule['rule']} (reference {ref:.6g}, tol {tol})")
    return out


# ------------------------------------------------------------------ set-up


def setup(workload_name: str, seed: int, workdir: Path) -> dict:
    """Import, inputs and warm-up (the golden pass); returns the phase times."""
    import_s = import_program()
    from workloads import WORKLOADS

    cls = WORKLOADS[workload_name]
    reference = load_reference()
    t0 = time.perf_counter()
    workload = cls("full", seed, workdir / "run")
    workload.make_inputs()
    t1 = time.perf_counter()
    golden = golden_pass(cls, workdir / "golden")
    problems = golden_problems(workload_name, golden, reference)
    t2 = time.perf_counter()
    return {"workload": workload, "reference": reference, "golden_problems": problems,
            "import_s": import_s, "inputs_s": t1 - t0, "warmup_s": t2 - t1}


def setup_probe(args) -> int:
    """Set up once with the speed probe running; print the phase times and its samples.

    The probe (and so numpy and scipy.linalg) is loaded before the timer
    starts, so ``import_s`` is the import of bernfit on top of them.
    """
    from speed import SpeedProbe

    workdir = SCRATCH / f"probe-{os.getpid()}"
    probe = SpeedProbe()
    probe.start()
    try:
        try:
            state = setup(args.workload, args.seed, workdir)
        finally:
            probe.stop()
        ready = time.perf_counter()
        print(json.dumps({"ready": ready, "import_s": state["import_s"],
                          "inputs_s": state["inputs_s"], "warmup_s": state["warmup_s"],
                          "probe_busy_s": probe.busy_s, "kernel_s": probe.kernel_s(),
                          "golden_problems": state["golden_problems"]}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_trials(args) -> tuple[list, list]:
    """Set up in fresh processes; each time is spawn to ready for the first op.

    ``setup_raw_s`` is that wall time less the time the process spent in its
    speed probe; ``setup_s`` rescales it by the probe's mean kernel time.
    """
    from speed import REF_KERNEL_S

    trials, problems = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_TRIALS):
        spawn = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            problems.append(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_raw_s"] = report["ready"] - spawn - report["probe_busy_s"]
        report["setup_s"] = report["setup_raw_s"] * REF_KERNEL_S / report["kernel_s"]
        problems += report["golden_problems"]
        trials.append(report)
    return trials, problems


# ------------------------------------------------------------------ environment


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "bernfit_threads": 1,
    }


# ------------------------------------------------------------------ metrics


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(latencies: list) -> tuple[float, float, int]:
    """Highest ladder percentile with at least 10 samples above it: (value, percentile, n).

    Nearest-rank percentiles on a fixed ladder keep the choice the same for
    run lengths that differ by a pass or two; with fewer than 20 samples no
    percentile qualifies and the maximum is reported as p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n
    return ordered[-1], 100.0, n


def end_to_end(untraced_passes, trials, probe) -> tuple[dict, dict]:
    """Raw wall-clock metrics, and the gated ones with every op latency speed-rescaled.

    Returns (gated metrics, report): the gated dict is empty without a speed
    probe (a traced run has none).
    """
    records = [r for recs, _ in untraced_passes for r in recs]
    latencies = [r["latency"] for r in records]
    walls = [wall for _, wall in untraced_passes]
    tail_value, tail_pct, n = tail(latencies)
    raw = {
        "setup_s": statistics.median(t["setup_raw_s"] for t in trials),
        "wall_s": sum(walls) / len(walls),
        "ops_per_s": len(latencies) / sum(walls),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {"op_tail_percentile": tail_pct, "op_samples": n, "passes": len(walls),
              "raw": raw, "peak_rss_mb": peak_rss_mb,
              "factor": probe.factor() if probe is not None else None,
              "kernel_samples": probe.samples if probe is not None else []}
    if probe is None:
        return {}, report
    scaled = [r["latency"] * probe.local_factor(r["start"], r["end"]) for r in records]
    metrics = {
        "setup_s": statistics.median(t["setup_s"] for t in trials),
        "pass_s": sum(scaled) / len(walls),
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_s": statistics.median(scaled),
        "op_tail_s": tail(scaled)[0],
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, report


def per_layer(tracer, pairs, trials) -> dict:
    from tracing import layer_metrics

    traced_walls = [t for _, t in pairs]
    metrics = layer_metrics(tracer, len(pairs))
    metrics["setup.import_s"] = statistics.median(t["import_s"] for t in trials)
    metrics["setup.inputs_s"] = statistics.median(t["inputs_s"] for t in trials)
    metrics["setup.warmup_s"] = statistics.median(t["warmup_s"] for t in trials)
    metrics["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
    metrics["trace.wall_s"] = sum(traced_walls) / len(traced_walls)
    metrics["trace.untraced_s"] = metrics["trace.wall_s"] - metrics["trace.self_total_s"]
    return metrics


def print_report(args, env, workload, e2e, notes, attempted, failed, problems, layer) -> None:
    print(f"# bernfit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# why: " + workload.why)
    print("# environment: " + json.dumps(env, sort_keys=True))
    print("# input sizes: " + json.dumps(workload.sizes, sort_keys=True))
    print(f"# passes {notes['passes']}, op samples {notes['op_samples']}, op_tail_s is "
          f"p{notes['op_tail_percentile']:g}")
    if notes["factor"] is not None:
        print(f"# speed factor {notes['factor']:.4f} over the run (reference kernel time / "
              f"mean kernel time); gated times rescale each op by the samples near it")
        ks = notes["kernel_samples"]
        print(f"# kernel samples {len(ks)}: min {min(ks):.6f} median {statistics.median(ks):.6f} "
              f"mean {statistics.fmean(ks):.6f} s")
    rows = {f"raw.{name}": value for name, value in notes["raw"].items()}
    rows["peak_rss_mb"] = notes["peak_rss_mb"]
    rows.update(e2e)
    rows["fail_frac"] = failed / attempted if attempted else 0.0
    units = dict(END_TO_END, fail_frac="fraction", **{
        "raw.setup_s": "s", "raw.wall_s": "s", "raw.ops_per_s": "1/s", "raw.op_p50_s": "s",
        "raw.op_tail_s": "s"})
    for name, value in rows.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(f"{'attempted':36s} {attempted:14d} ops")
    print(f"{'failed':36s} {failed:14d} ops")
    for name in sorted(layer):
        unit = PER_LAYER.get(name) or REPORT_ONLY_UNITS.get(name, "")
        print(f"{name:36s} {layer[name]:14.6g} {unit}")
    for problem in problems[:20]:
        print("# FAILED CHECK: " + problem)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)

    workdir = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        state = setup(args.workload, args.seed, workdir)
        workload, reference = state["workload"], state["reference"]
        problems = list(state["golden_problems"])
        trials, probe_problems = setup_trials(args)
        problems += probe_problems
        if not trials:
            print("perfbench: every set-up probe failed", file=sys.stderr)
            for p in problems[:10]:
                print(p, file=sys.stderr)
            return 1

        tracer = probe = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        else:
            from speed import SpeedProbe

            probe = SpeedProbe()
            probe.start()
        untraced, pairs, all_records = [], [], []
        start = time.perf_counter()
        k = 0
        try:
            while k == 0 or time.perf_counter() - start < args.seconds:
                records, wall = run_pass(workload.ops(k), pass_id=k, probe=probe)
                # checked pass by pass: cli-session reads each op's output file
                check_records(workload, records)
                untraced.append((records, wall))
                all_records += records
                if tracer is not None:
                    tracer.install()
                    try:
                        traced_records, traced_wall = run_pass(workload.ops(k), tracer,
                                                               pass_id=k)
                    finally:
                        tracer.uninstall()
                    check_records(workload, traced_records)
                    all_records += traced_records
                    pairs.append((wall, traced_wall))
                k += 1
        finally:
            if probe is not None:
                probe.stop()
        if probe is not None and len(probe.samples) < MIN_SPEED_SAMPLES:
            probe.sample(MIN_SPEED_SAMPLES)  # a run too short for the timer to sample
        for group, msgs in pooled_problems(workload, reference).items():
            for rec in all_records:
                if rec["op"].group == group:
                    rec["problems"] = rec["problems"] + msgs
            problems += [f"{group}: {m}" for m in msgs]
        attempted = len(all_records)
        failed_records = [r for r in all_records if r["problems"]]
        problems += [f"{r['op'].name}: {r['problems'][0]}" for r in failed_records]
        failed = len(failed_records)
        correct = failed == 0 and not problems

        e2e, notes = end_to_end(untraced, trials, probe)
        layer = per_layer(tracer, pairs, trials) if tracer is not None else {}
        print_report(args, environment(), workload, e2e, notes, attempted, failed, problems,
                     layer)
        if tracer is not None:
            SCRATCH.mkdir(exist_ok=True)
            out = SCRATCH / f"trace-{args.workload}-{args.seed}.json"
            out.write_text(json.dumps({"layer": layer, "spans": tracer.dump()}))
            print(f"# spans written to {out.relative_to(ROOT)}")
        declared, values = (PER_LAYER, layer) if args.trace else (END_TO_END, e2e)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: their inputs, one pass of ops, and the checks.

A workload is built from a size profile and a seed. ``make_inputs`` is the
set-up step; ``ops(k)`` returns pass ``k`` as a list of ``Op`` records, each
one user-visible call into the public ``bernfit`` API or CLI. Every op
carries its own correctness check (invariants that need no reference) and a
fingerprint of its numeric output (compared with the goldens in
``reference.json`` when the pass runs at the reference seed). ``pooled``
returns statistics over all timed ops of a run, compared with the reference
statistics captured on the seed commit.

Program functions are looked up on the ``bernfit`` modules at call time, so
that the tracer's wrappers, installed at the import sites, see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import bernfit
import bernfit.cli

REFERENCE_SEED = 20220909
THREADS = 1

PROFILES = {
    "mc-paper": {
        "full": dict(n=100, imse_reps=20, coverage_reps=10, test_reps=10, ci_draws=300,
                     bootstrap_draws=200),
        "golden": dict(n=100, imse_reps=1, coverage_reps=1, test_reps=1, ci_draws=100,
                       bootstrap_draws=100),
    },
    "large-n": {
        "full": dict(n=2000, m=200, order=10, ci_draws=500, bootstrap_draws=200),
        "golden": dict(n=200, m=50, order=10, ci_draws=100, bootstrap_draws=100),
    },
    "cli-session": {
        "full": dict(n_b=200, n_a=200, n_q=300, m_q=50, ci_draws=500, bootstrap_draws=200,
                     folds=5),
        "golden": dict(n_b=60, n_a=60, n_q=80, m_q=30, ci_draws=100, bootstrap_draws=100,
                       folds=5),
    },
}

IMSE_KINDS = ("A", "B", "B_sparse", "C", "S1")


@dataclass
class Op:
    """One user-visible call, its correctness check and its output fingerprint."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    fingerprint: Callable[[Any], dict]
    group: str = ""


def stream_seeds(seed: int, key: int, count: int) -> list[int]:
    """``count`` 31-bit seeds for stream ``key`` of the workload seed."""
    state = np.random.SeedSequence([int(seed), int(key)]).generate_state(count)
    return [int(s) & 0x7FFFFFFF for s in state]


def numeric_fingerprint(obj, prefix: str = "") -> dict:
    """Summary of every numeric leaf: scalars as is, arrays by size and moments."""
    out: dict = {}
    if isinstance(obj, dict):
        for key in sorted(obj):
            out.update(numeric_fingerprint(obj[key], f"{prefix}{key}."))
        return out
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return out
    if isinstance(obj, (int, float, np.integer, np.floating)):
        out[prefix.rstrip(".")] = float(obj)
        return out
    arr = np.asarray(obj)
    if arr.dtype.kind not in "biuf":
        return out
    arr = arr.astype(float).ravel()
    name = prefix.rstrip(".")
    out[f"{name}#size"] = float(arr.size)
    if arr.size:
        out[f"{name}#sum"] = float(arr.sum())
        out[f"{name}#l2"] = float(np.sqrt(arr @ arr))
        out[f"{name}#min"] = float(arr.min())
        out[f"{name}#max"] = float(arr.max())
    return out


def compare_fingerprints(got: dict, want: dict, rtol: float, atol: float) -> list:
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            problems.append(f"fingerprint key {key} missing on one side")
            continue
        a, b = got[key], want[key]
        if not math.isclose(a, b, rel_tol=rtol, abs_tol=atol):
            problems.append(f"{key}: got {a!r}, reference {b!r}")
    return problems


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _imse_on_grid(grid, estimate, truth) -> float:
    grid = np.asarray(grid, dtype=float)
    diff = np.asarray(estimate, dtype=float) - np.asarray(truth, dtype=float)
    return float(np.trapezoid(diff**2, grid))


class Workload:
    name = ""
    why = ""

    def __init__(self, profile: str, seed: int, workdir: Path):
        self.profile_name = profile
        self.size = PROFILES[self.name][profile]
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.sizes: dict = {}

    def make_inputs(self) -> None:
        """Generate the run's inputs from the seed (the set-up step)."""

    def ops(self, pass_index: int) -> list:
        raise NotImplementedError

    def observe(self, op: Op, result) -> None:
        """Take what the pooled statistics need from a checked op result."""

    def pooled(self) -> dict:
        """Statistics over the observed ops of a run, keyed by op group."""
        return {}


# ---------------------------------------------------------------- mc-paper


class McPaper(Workload):
    name = "mc-paper"
    why = "many small paper-size problems; per-replication set-up and factorizations dominate"

    def make_inputs(self) -> None:
        s = self.size
        self.sizes = {
            "n": s["n"],
            "m": {"A": 50, "other": 40},
            "order": {"A": 4, "other": 5},
            "p": {"A": 6, "other": 12},
            "ops_per_pass": 5 * s["imse_reps"] + s["coverage_reps"] + s["test_reps"],
        }
        self._rows: dict = {}

    def ops(self, pass_index: int) -> list:
        s = self.size
        plan = [(f"imse:{kind}", kind, "imse", s["imse_reps"]) for kind in IMSE_KINDS]
        plan += [("coverage:B", "B", "coverage", s["coverage_reps"]),
                 ("test:S1", "S1", "test", s["test_reps"])]
        # round-robin over the groups, so a slow spell of the machine is shared by all
        order = [entry for r in range(max(p[3] for p in plan)) for entry in plan if r < entry[3]]
        seeds = stream_seeds(self.seed, pass_index, len(order))
        return [self._op(name, kind, mode, seed)
                for (name, kind, mode, _), seed in zip(order, seeds)]

    def _op(self, name: str, kind: str, mode: str, rep_seed: int) -> Op:
        s = self.size

        def call():
            spec = bernfit.ScenarioSpec(kind, n=s["n"], seed=rep_seed, replications=1)
            return bernfit.run_benchmark(
                spec,
                mode=mode,
                ci_draws=s["ci_draws"],
                bootstrap_draws=s["bootstrap_draws"],
                test_shape=bernfit.NON_INCREASING if mode == "test" else None,
                threads=THREADS,
            )

        return Op(name, call, self._check, self._fingerprint, group=name)

    @staticmethod
    def _check(table) -> list:
        problems = []
        # failures are counted from the table, not trusted to the harness's catcher
        if table.failures:
            problems.append(f"{table.failures} replication(s) failed inside run_benchmark")
            return problems
        rows = table.rows()
        if len(rows) != 1:
            return [f"expected 1 replication row, got {len(rows)}"]
        row = rows[0]
        values = [v for k, v in row.items() if k != "replication"]
        if not _finite(values):
            problems.append("non-finite replication metric")
        if table.mode == "imse":
            if row["imse_constrained"] < 0 or row["imse_unconstrained"] < 0:
                problems.append("negative IMSE")
        elif table.mode == "coverage":
            if not 0.0 <= row["coverage"] <= 1.0:
                problems.append("coverage outside [0, 1]")
            if not row["width"] > 0.0:
                problems.append("band width not positive")
        elif row["rejected"] not in (0, 1):
            problems.append("rejection indicator not 0/1")
        return problems

    @staticmethod
    def _fingerprint(table) -> dict:
        return numeric_fingerprint(table.rows()[0])

    def observe(self, op: Op, result) -> None:
        self._rows.setdefault(op.group, []).append(result.rows()[0])

    def pooled(self) -> dict:
        stats = {}
        for group, rows in self._rows.items():
            if group.startswith("imse:"):
                con = np.mean([r["imse_constrained"] for r in rows])
                unc = np.mean([r["imse_unconstrained"] for r in rows])
                stats[group] = {"efficiency_ratio": float(unc / con)}
            elif group.startswith("coverage:"):
                stats[group] = {"coverage_mean": float(np.mean([r["coverage"] for r in rows]))}
            else:
                stats[group] = {"rejection_rate": float(np.mean([r["rejected"] for r in rows]))}
        return stats


# ---------------------------------------------------------------- large-n


class LargeN(Workload):
    name = "large-n"
    why = "n=2000, m=200 concurrent model; per-subject Python loops in the resampling dominate"

    def make_inputs(self) -> None:
        s = self.size
        self.scenario = bernfit.ScenarioSpec("B", n=s["n"], seed=self.seed, m=s["m"])
        self._data = (0, bernfit.generate_scenario(self.scenario, 0))
        self.truth = self._data[1].meta["beta_true"]
        self.spec = bernfit.BasisSpec(s["order"])
        rows = bernfit.build_constraints(bernfit.NON_INCREASING, self.spec).n_rows
        self.sizes = {"n": s["n"], "m": s["m"], "order": s["order"], "datasets": "one per pass",
                      "p": 2 * self.spec.n_coefs, "constraint_rows": rows}
        self._imses: list = []
        self._covers: list = []

    def dataset(self, pass_index: int):
        """Replication ``pass_index`` of the scenario, made when the pass is built.

        Op times depend on the draw (how many band draws need a dual solve), so
        each pass fits a fresh one and a run's timings average over many.
        """
        if self._data[0] != pass_index:
            self._data = (pass_index, bernfit.generate_scenario(self.scenario, pass_index))
        return self._data[1]

    def ops(self, pass_index: int) -> list:
        s = self.size
        ci_seed, test_seed = stream_seeds(self.seed, pass_index, 2)
        data = self.dataset(pass_index)
        spec, shape = self.spec, bernfit.NON_INCREASING
        return [
            Op("fit_functional",
               lambda: bernfit.fit_functional(data, "flcm", spec, shape),
               self._check_fit, self._fp_fit, group="fit"),
            Op("projection_ci",
               lambda: bernfit.projection_ci(data, "flcm", spec, shape,
                                             draws=s["ci_draws"], seed=ci_seed),
               self._check_ci, self._fp_ci, group="ci"),
            Op("bootstrap_shape_test",
               lambda: bernfit.bootstrap_shape_test(data, "flcm", spec, shape,
                                                    draws=s["bootstrap_draws"], seed=test_seed),
               self._check_test, self._fp_test, group="test"),
        ]

    def _check_fit(self, fit) -> list:
        problems = []
        if not _finite(fit.beta0_coefs, fit.beta1_coefs):
            problems.append("non-finite coefficients")
        report = bernfit.check_shape(fit.beta1_coefs, bernfit.NON_INCREASING, spec=self.spec)
        if not report.feasible:
            problems.append(f"shape certificate infeasible (worst {report.worst_violation:.3e})")
        return problems

    def _check_ci(self, band) -> list:
        problems = []
        if not _finite(band.lower, band.upper):
            problems.append("non-finite band")
        elif np.any(band.lower > band.upper):
            problems.append("lower > upper somewhere in the band")
        return problems

    @staticmethod
    def _check_test(report) -> list:
        problems = []
        if not 0.0 <= report.p_value <= 1.0:
            problems.append(f"p-value {report.p_value} outside [0, 1]")
        if not report.statistic >= 0.0:
            problems.append("negative test statistic")
        if not _finite(report.bootstrap_stats):
            problems.append("non-finite bootstrap statistics")
        return problems

    @staticmethod
    def _fp_fit(fit) -> dict:
        return numeric_fingerprint({"beta0": fit.beta0_coefs, "beta1": fit.beta1_coefs,
                                    "rss_raw": fit.rss_raw, "rss_whitened": fit.rss_whitened})

    @staticmethod
    def _fp_ci(band) -> dict:
        return numeric_fingerprint({"lower": band.lower, "upper": band.upper})

    @staticmethod
    def _fp_test(report) -> dict:
        return numeric_fingerprint(report.to_json())

    def observe(self, op: Op, result) -> None:
        if op.group == "fit":
            self._imses.append(bernfit.imse(result.beta1_fn, self.truth))
        elif op.group == "ci":
            truth = np.asarray(self.truth(result.grid), dtype=float)
            self._covers.append(float(np.mean((result.lower <= truth) & (truth <= result.upper))))

    def pooled(self) -> dict:
        stats = {}
        if self._imses:
            stats["fit"] = {"imse_max": float(max(self._imses))}
        if self._covers:
            stats["ci"] = {"truth_covered_mean": float(np.mean(self._covers))}
        return stats


# ---------------------------------------------------------------- cli-session


def quantile_curves(n: int, m: int, seed: int):
    """Quantile-function responses on three predictors in [0, 1].

    Q_i(p) = 0.5 p (1 - z1) + 0.3 p^2 z2 + 0.2 p^2 z3 + shift_i + monotone noise.
    At the predictor vertex (1, 0, 0) the true quantile function is flat, so
    the monotonicity vertex conditions sit on their boundary and most band
    draws need a dual solve.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x9F05]))
    p = np.linspace(0.0, 1.0, m)
    z = rng.uniform(0.0, 1.0, size=(n, 3))
    q = (0.5 * p[None, :] * (1.0 - z[:, [0]]) + 0.3 * z[:, [1]] * p[None, :] ** 2
         + 0.2 * z[:, [2]] * p[None, :] ** 2)
    q = q + rng.normal(0.0, 0.3, size=(n, 1))
    q = q + 0.5 * np.abs(rng.standard_normal((n, m))).cumsum(axis=1) / m
    return bernfit.FunctionalDataset(
        grid=bernfit.Grid(p), ids=[f"q{i}" for i in range(n)], y_curves=q, z_scalars=z,
        z_names=["z1", "z2", "z3"],
    )


CLI_CONFIGS = {
    "flcm": {"order": 5, "shape": {"kind": "non_increasing"}},
    "ci_flcm": {"model": "flcm", "order": 5, "shape": {"kind": "non_increasing"}},
    "fofr": {"order": 6, "shape": {"kind": "bivariate_monotone"}},
    "cv": {"model": "flcm", "shape": {"kind": "non_increasing"}, "candidates": list(range(2, 11))},
    "qfosr": {"order": 8},
    "ci_qfosr": {"model": "qfosr", "order": 8, "block": 1},
    "test_sofr": {"model": "sofr", "order": 4, "shape": {"kind": "non_negative"}},
    "sofr": {"order": 4, "shape": {"kind": "non_negative"}},
}


class CliSession(Workload):
    name = "cli-session"
    why = "an analyst's CLI session on CSV files: dataset I/O, JSON output, qfosr dual solves"

    def make_inputs(self) -> None:
        s = self.size
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.qdata = quantile_curves(s["n_q"], s["m_q"], self.seed)
        self.qpath = self.workdir / "quantiles.csv"
        bernfit.write_dataset(self.qdata, self.qpath, fmt="wide_csv")
        self.configs = {}
        for key, cfg in CLI_CONFIGS.items():
            cfg = dict(cfg)
            if key.startswith("ci_"):
                cfg["draws"] = s["ci_draws"]
            if key == "test_sofr":
                cfg["bootstrap"] = s["bootstrap_draws"]
            if key == "cv":
                cfg["folds"] = s["folds"]
            path = self.workdir / f"config_{key}.json"
            path.write_text(json.dumps(cfg))
            self.configs[key] = str(path)
        q_rows = bernfit.build_quantile_monotone(3, bernfit.BasisSpec(8)).n_rows
        self.sizes = {
            "n": {"B": s["n_b"], "A": s["n_a"], "qfosr": s["n_q"]},
            "m": {"B": 40, "A": 50, "qfosr": s["m_q"]},
            "order": {"flcm": 5, "fofr": 6, "qfosr": 8, "sofr": 4},
            "p": {"flcm": 12, "fofr": 7 + 49, "qfosr": 4 * 9, "sofr": 6},
            "constraint_rows": {"qfosr": q_rows},
            "qfosr_csv_bytes": self.qpath.stat().st_size,
        }
        self._truths: dict = {}
        self._imses: dict = {}

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def ops(self, pass_index: int) -> list:
        s = self.size
        seeds = stream_seeds(self.seed, pass_index, 6)
        b, a, q = self._path("scenario_B.csv"), self._path("scenario_A.csv"), str(self.qpath)
        long_b = ["--data", b, "--format", "long_csv"]
        wide_a = ["--data", a, "--format", "wide_csv"]
        wide_q = ["--data", q, "--format", "wide_csv"]
        cfg = self.configs

        def cli(name, argv, out, check):
            argv = list(argv) + ["--out", out, "--threads", str(THREADS)]
            return Op(name, lambda: self._run(argv, out), check, self._fingerprint, group=name)

        return [
            cli("simulate:B", ["simulate", "--scenario", "B", "--n", str(s["n_b"]),
                               "--seed", str(seeds[0])], b, self._check_simulate),
            cli("simulate:A", ["simulate", "--scenario", "A", "--n", str(s["n_a"]),
                               "--seed", str(seeds[1])], a, self._check_simulate),
            cli("fit-flcm", ["fit-flcm", *long_b, "--config", cfg["flcm"]],
                self._path("fit_flcm.json"), self._check_fit),
            cli("ci:flcm", ["ci", *long_b, "--config", cfg["ci_flcm"], "--seed", str(seeds[2])],
                self._path("ci_flcm.json"), self._check_ci),
            cli("fit-fofr", ["fit-fofr", *long_b, "--config", cfg["fofr"]],
                self._path("fit_fofr.json"), self._check_fit),
            cli("cv-order", ["cv-order", *long_b, "--config", cfg["cv"], "--seed", str(seeds[3])],
                self._path("cv_order.json"), self._check_cv),
            cli("fit-qfosr", ["fit-qfosr", *wide_q, "--config", cfg["qfosr"]],
                self._path("fit_qfosr.json"), self._check_qfosr),
            cli("ci:qfosr", ["ci", *wide_q, "--config", cfg["ci_qfosr"], "--seed", str(seeds[4])],
                self._path("ci_qfosr.json"), self._check_ci),
            cli("test-shape:sofr", ["test-shape", *wide_a, "--config", cfg["test_sofr"],
                                    "--seed", str(seeds[5])],
                self._path("test_sofr.json"), self._check_test),
            cli("fit-sofr", ["fit-sofr", *wide_a, "--config", cfg["sofr"]],
                self._path("fit_sofr.json"), self._check_fit),
        ]

    @staticmethod
    def _run(argv, out):
        sink_out, sink_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            code = bernfit.cli.run_cli(argv)
        return {"code": code, "out": out, "stderr": sink_err.getvalue()}

    @staticmethod
    def _payload(result):
        if result["code"] != 0:
            return None, [f"exit code {result['code']}: {result['stderr'].strip()[:200]}"]
        out = Path(result["out"])
        if out.suffix == ".csv":  # simulate writes the dataset there and the JSON beside it
            out = Path(str(out) + ".meta.json")
        try:
            return json.loads(out.read_text()), []
        except (OSError, ValueError) as exc:
            return None, [f"unreadable output {out}: {exc}"]

    def _fingerprint(self, result) -> dict:
        payload, _ = self._payload(result)
        payload = {k: v for k, v in (payload or {}).items() if k not in ("data_file",)}
        return numeric_fingerprint(payload)

    def _check_simulate(self, result) -> list:
        payload, problems = self._payload(result)
        if problems:
            return problems
        if Path(result["out"]).stat().st_size == 0:
            problems.append("empty dataset file")
        if not _finite(payload["beta_true"]):
            problems.append("non-finite true coefficient")
        return problems

    def _check_fit(self, result) -> list:
        payload, problems = self._payload(result)
        if problems:
            return problems
        report = payload["shape_report"]
        if not report["feasible"]:
            problems.append(f"shape certificate infeasible (worst {report['worst_violation']:.3e})")
        return problems

    def _check_ci(self, result) -> list:
        payload, problems = self._payload(result)
        if problems:
            return problems
        lower, upper = np.asarray(payload["lower"]), np.asarray(payload["upper"])
        if np.any(lower > upper):
            problems.append("lower > upper somewhere in the band")
        return problems

    def _check_cv(self, result) -> list:
        payload, problems = self._payload(result)
        if problems:
            return problems
        if str(payload["chosen"]) not in payload["scores"]:
            problems.append("chosen order has no score")
        return problems

    def _check_test(self, result) -> list:
        payload, problems = self._payload(result)
        if problems:
            return problems
        if not 0.0 <= payload["p_value"] <= 1.0:
            problems.append(f"p-value {payload['p_value']} outside [0, 1]")
        return problems

    def _check_qfosr(self, result) -> list:
        payload, problems = self._payload(result)
        if problems:
            return problems
        if not payload["monotone_certificate"]["feasible"]:
            problems.append("monotone certificate infeasible")
        # predicted quantile functions of the training subjects must be non-decreasing
        coefs = np.asarray(payload["coef_blocks"], dtype=float)
        lo = np.array([r[0] for r in payload["rescale"]])
        hi = np.array([r[1] for r in payload["rescale"]])
        unit = (self.qdata.z_scalars - lo) / (hi - lo)
        p = np.linspace(0.0, 1.0, 201)
        basis = bernfit.eval_basis_matrix(p, bernfit.BasisSpec(int(payload["order"])))
        curves = (coefs[0] + unit @ coefs[1:]) @ basis.T
        drop = float(np.max(-np.diff(curves, axis=1), initial=0.0))
        if drop > 1e-8 * (1.0 + float(np.abs(curves).max())):
            problems.append(f"predicted quantile function decreases by {drop:.3e}")
        return problems

    def observe(self, op: Op, result) -> None:
        # ops of a pass are observed in order, so each fit sees its pass's simulated truth
        payload, _ = self._payload(result)
        if op.name.startswith("simulate:"):
            self._truths[op.name[-1]] = payload["beta_true"]
        elif op.name == "fit-flcm":
            imse = _imse_on_grid(payload["grid"], payload["beta1_values"], self._truths["B"])
            self._imses.setdefault(op.name, []).append(imse)
        elif op.name == "fit-sofr":
            imse = _imse_on_grid(payload["grid"], payload["beta_values"], self._truths["A"])
            self._imses.setdefault(op.name, []).append(imse)

    def pooled(self) -> dict:
        return {name: {"imse_max": float(max(v))} for name, v in self._imses.items()}


WORKLOADS = {cls.name: cls for cls in (McPaper, LargeN, CliSession)}

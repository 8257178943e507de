"""Spans around the calls into each bernfit module, recorded from outside the program.

``Tracer.install`` replaces the public functions and methods listed in
``TARGETS`` with timing wrappers at every import site inside the ``bernfit``
package (and on the classes, for methods), in this process only;
``uninstall`` puts the originals back. Spans (name, start, end, parent, op
id, counters) are kept in memory and written out at the end of the run.

A span's self time is its duration minus the durations of its direct child
spans. Ops are root spans, so the self times of all spans add up to the
summed op durations, and the traced wall time of a pass is that sum plus the
untraced remainder between ops.
"""

from __future__ import annotations

import os
import sys
import time
import weakref

import numpy as np


def _rows(args, kwargs, result):
    return {"rows": int(result.n_rows)}


def _components(args, kwargs, result):
    return {"components": int(result.n_components)}


def _draws_ci(args, kwargs, result):
    return {"draws": int(result.draws)}


def _draws_test(args, kwargs, result):
    return {"draws": int(result.bootstrap_stats.size)}


def _failures(args, kwargs, result):
    return {"failures": int(result.failures)}


def _size(path) -> int:
    try:
        return os.path.getsize(path) if path is not None else 0
    except OSError:
        return 0


def _read_bytes(args, kwargs, result):
    scalars = kwargs.get("scalars_path", args[2] if len(args) > 2 else None)
    return {"bytes": _size(args[0]) + _size(scalars)}


def _write_bytes(args, kwargs, result):
    return {"bytes": _size(args[1] if len(args) > 1 else kwargs["path"])}


def _cli_output_bytes(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" not in argv:
        return {"bytes": 0}
    out = argv[argv.index("--out") + 1]
    stem = os.path.splitext(out)[0]
    if argv and argv[0] == "simulate":
        files = [out + ".meta.json"]
    else:
        files = [out, stem + ".csv", stem + ".reps.csv"]
    return {"bytes": sum(_size(f) for f in files)}


# (module, attribute, span name, counter hook); "Class.method" patches the class
TARGETS = [
    ("bernfit.basis", "eval_basis_matrix", "basis.eval_basis_matrix", None),
    ("bernfit.basis", "sofr_design", "basis.sofr_design", None),
    ("bernfit.basis", "fofr_design", "basis.fofr_design", None),
    ("bernfit.constraints", "build_constraints", "constraints.build", _rows),
    ("bernfit.constraints", "build_quantile_monotone", "constraints.build", _rows),
    ("bernfit.clsq", "ClsqSolver.__init__", "clsq.factor", None),
    ("bernfit.clsq", "ClsqSolver.solve", "clsq.solve", None),
    ("bernfit.functional", "build_design", "functional.build_design", None),
    ("bernfit.functional", "StackedDesign.gram_parts", "functional.gram_parts", None),
    ("bernfit.functional", "StackedDesign.whitened", "functional.whitened", None),
    ("bernfit.functional", "estimate_covariance", "functional.estimate_covariance", _components),
    ("bernfit.functional", "reconstruct_sparse", "functional.reconstruct_sparse", None),
    ("bernfit.functional", "fit_functional", "functional.fit", None),
    ("bernfit.sofr", "sofr_design_matrix", "sofr.design", None),
    ("bernfit.sofr", "fit_sofr", "sofr.fit", None),
    ("bernfit.qfosr", "build_qfosr_design", "qfosr.design", None),
    ("bernfit.qfosr", "fit_qfosr", "qfosr.fit", None),
    ("bernfit.inference", "projection_ci", "inference.ci", _draws_ci),
    ("bernfit.inference", "qfosr_projection_ci", "inference.ci", _draws_ci),
    ("bernfit.inference", "bootstrap_shape_test", "inference.test", _draws_test),
    ("bernfit.inference", "bootstrap_shape_test_functional", "inference.test", _draws_test),
    ("bernfit.inference", "bootstrap_shape_test_scalar", "inference.test", _draws_test),
    ("bernfit.model_selection", "cv_select_order", "model_selection.cv", None),
    ("bernfit.simulation", "generate_scenario", "simulation.generate", None),
    ("bernfit.simulation", "run_benchmark", "simulation.run_benchmark", _failures),
    ("bernfit.utils", "spawn_rng", "utils.spawn_rng", None),
    ("bernfit.utils", "parallel_map", "utils.parallel_map", None),
    ("bernfit.dataset", "read_dataset", "dataset.read", _read_bytes),
    ("bernfit.dataset", "write_dataset", "dataset.write", _write_bytes),
    ("bernfit.cli", "run_cli", "cli.run_cli", _cli_output_bytes),
]


class Tracer:
    """In-memory span recorder with wrappers installed at the import sites."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.op_ids: list = []
        self.counters: list = []
        self._stack: list = []
        self._restore: list = []
        self._requested_ridge: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.op_id = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op_id)
        self.counters.append(None)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, name: str, fn):
        """Run one op as a root span and return its result."""
        self.op_id = op_id
        idx = self._open(f"op.{name}")
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                tracer.counters[idx] = hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _factor_hook(self, args, kwargs, result):
        ridge = kwargs.get("ridge", args[3] if len(args) > 3 else 0.0)
        self._requested_ridge[args[0]] = float(ridge)
        return None

    def _solve_hook(self, args, kwargs, sol):
        solver = args[0]
        cons = solver.constraints
        return {
            "iterations": int(sol.iterations),
            "ridge_bump": int(sol.ridge > self._requested_ridge.get(solver, 0.0)),
            "constrained": int(cons is not None and cons.n_rows > 0),
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "bernfit" or key.startswith("bernfit."))]
        for module_name, attr, span, hook in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                if span == "clsq.factor":
                    hook = self._factor_hook
                elif span == "clsq.solve":
                    hook = self._solve_hook
                new = self._wrap(orig, span, hook)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(module, attr)
            new = self._wrap(orig, span, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)
                        self._restore.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.asarray(self.names, dtype=object),
            "start": np.asarray(self.starts, dtype=float),
            "end": np.asarray(self.ends, dtype=float),
            "parent": np.asarray(self.parents, dtype=int),
            "op": np.asarray(self.op_ids, dtype=int),
        }

    def dump(self) -> list:
        t0 = self.starts[0] if self.starts else 0.0
        return [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "op": o, **(c or {})}
            for n, s, e, p, o, c in zip(self.names, self.starts, self.ends, self.parents,
                                        self.op_ids, self.counters)
        ]


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the time covered by its direct children."""
    start, end, parent = (np.asarray(a) for a in (start, end, parent))
    dur = end - start
    covered = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def _ancestor_flags(names, parent, predicate) -> np.ndarray:
    """For each span, whether some proper ancestor's name satisfies ``predicate``."""
    flags = np.zeros(len(names), dtype=bool)
    for i in range(len(names)):  # parents precede children in recording order
        p = parent[i]
        flags[i] = p >= 0 and (flags[p] or predicate(names[p]))
    return flags


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass, from the recorded spans."""
    arr = tracer.arrays()
    names, parent = arr["names"], arr["parent"]
    dur = arr["end"] - arr["start"]
    selft = self_times(arr["start"], arr["end"], parent)
    counters = tracer.counters
    passes = max(int(passes), 1)

    def is_(name):
        return names == name

    def count(name):
        return float(np.count_nonzero(is_(name))) / passes

    def self_s(*span_names):
        return float(selft[np.isin(names, span_names)].sum()) / passes

    def outermost(name):
        return is_(name) & ~_ancestor_flags(names, parent, lambda n: n == name)

    def inclusive(name):
        return float(dur[outermost(name)].sum()) / passes

    def counter_sum(mask, key):
        return float(sum((counters[i] or {}).get(key, 0) for i in np.flatnonzero(mask)))

    solves = is_("clsq.solve")
    n_solves = int(np.count_nonzero(solves))
    dual_any = float(sum(1 for i in np.flatnonzero(solves) if counters[i]["iterations"] > 0))
    in_inference = _ancestor_flags(names, parent, lambda n: n in ("inference.ci", "inference.test"))
    inference_root = np.isin(names, ("inference.ci", "inference.test")) & ~in_inference
    draws = counter_sum(inference_root, "draws")
    inference_s = float(dur[inference_root].sum())
    dual_in_draws = sum(
        1 for i in np.flatnonzero(solves & in_inference)
        if counters[i]["constrained"] and counters[i]["iterations"] > 0
    )
    in_cv = _ancestor_flags(names, parent, lambda n: n == "model_selection.cv")
    fits = np.isin(names, ("functional.fit", "sofr.fit", "qfosr.fit"))
    ops = np.char.startswith(names.astype(str), "op.") if names.size else np.zeros(0, bool)

    return {
        "basis.eval_basis_matrix.calls": count("basis.eval_basis_matrix"),
        "basis.design_s": self_s("basis.sofr_design", "basis.fofr_design"),
        "constraints.build_s": self_s("constraints.build"),
        "constraints.rows": counter_sum(outermost("constraints.build"), "rows") / passes,
        "clsq.factor.calls": count("clsq.factor"),
        "clsq.factor.s": inclusive("clsq.factor"),
        "clsq.solve.calls": count("clsq.solve"),
        "clsq.solve.s": inclusive("clsq.solve"),
        "clsq.solve.dual_frac": dual_any / n_solves if n_solves else 0.0,
        "clsq.solve.dual_iters": counter_sum(solves, "iterations") / passes,
        "clsq.solve.ridge_bumps": counter_sum(solves, "ridge_bump") / passes,
        "functional.build_design.s": inclusive("functional.build_design"),
        "functional.gram_parts.s": inclusive("functional.gram_parts"),
        "functional.whitened.s": inclusive("functional.whitened"),
        "functional.estimate_covariance.s": inclusive("functional.estimate_covariance"),
        "functional.reconstruct_sparse.s": inclusive("functional.reconstruct_sparse"),
        "functional.fit.self_s": self_s("functional.fit"),
        "functional.fpca_components": counter_sum(is_("functional.estimate_covariance"),
                                                  "components") / passes,
        "sofr.fit.self_s": self_s("sofr.fit"),
        "sofr.design.s": inclusive("sofr.design"),
        "qfosr.design.s": inclusive("qfosr.design"),
        "qfosr.fit.self_s": self_s("qfosr.fit"),
        "inference.test.self_s": self_s("inference.test"),
        "inference.ci.self_s": self_s("inference.ci"),
        "inference.draws": draws / passes,
        "inference.draws_per_s": draws / inference_s if inference_s > 0 else 0.0,
        "inference.projected_frac": dual_in_draws / draws if draws else 0.0,
        "model_selection.cv.self_s": self_s("model_selection.cv"),
        "model_selection.fold_fits": float(np.count_nonzero(fits & in_cv)) / passes,
        "simulation.generate.s": inclusive("simulation.generate"),
        "simulation.run_benchmark.self_s": self_s("simulation.run_benchmark"),
        "simulation.failures": counter_sum(is_("simulation.run_benchmark"), "failures") / passes,
        "utils.spawn_rng.calls": count("utils.spawn_rng"),
        "utils.spawn_rng.s": inclusive("utils.spawn_rng"),
        "utils.parallel_map.self_s": self_s("utils.parallel_map"),
        "dataset.read.s": inclusive("dataset.read"),
        "dataset.read.bytes": counter_sum(outermost("dataset.read"), "bytes") / passes,
        "dataset.write.s": inclusive("dataset.write"),
        "dataset.write.bytes": counter_sum(outermost("dataset.write"), "bytes") / passes,
        "cli.run_cli.self_s": self_s("cli.run_cli"),
        "cli.output_bytes": counter_sum(is_("cli.run_cli"), "bytes") / passes,
        "trace.op_self_s": float(selft[ops].sum()) / passes,
        "trace.self_total_s": float(selft.sum()) / passes,
    }

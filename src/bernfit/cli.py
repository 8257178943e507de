"""Command-line interface.

Subcommands: fit-sofr, fit-fosr, fit-flcm, fit-fofr, fit-qfosr, test-shape,
ci, cv-order, simulate, bench. Results are written as JSON (plus plot-ready
CSV alongside); diagnostics go to stderr. Exit codes: 0 success, 1 data
error or an input or output file that cannot be read or written, 2
configuration error, 3 numerical failure or an internal error (any other
exception, reported as one ``internal error: <Type>: <message>`` line).
Replications run serially; ``--threads`` is accepted and has no effect.
Every data subcommand starts with one set-up (``_setup``), which also
completes sparse covariate curves, so all of them see the same data.
Each distinct warning is printed once per run.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .basis import BasisSpec
from .constraints import MODELS, ShapeSpec, check_model, check_shape, quantile_monotone
from .dataset import read_dataset, write_dataset
from .errors import BernfitError, ConfigError, DataError, NumericalError, config_cast
from .functional import fit_functional, reconstruct_sparse
from .inference import bootstrap_shape_test, projection_ci
from .model_selection import cv_select_order
from .simulation import SCENARIO_KINDS, ScenarioSpec, generate_scenario, run_benchmark

REPORT_POINTS = 200

_FIT_MODELS = {f"fit-{model}": model for model in MODELS}


class RunConfig:
    """Validated view of the JSON configuration object."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        self.model = raw.get("model")
        self.order = None if raw.get("order") is None else config_cast(raw["order"], int, "order")
        candidates = raw.get("candidates")
        if candidates is not None and not isinstance(candidates, list):
            raise ConfigError("candidates must be a list of basis orders")
        self.candidates = (
            None if candidates is None else [config_cast(c, int, "candidates") for c in candidates]
        )
        self.pve = config_cast(raw.get("pve", 0.95), float, "pve")
        self.level = config_cast(raw.get("level", 0.95), float, "level")
        self.draws = config_cast(raw.get("draws", 500), int, "draws")
        self.bootstrap = config_cast(raw.get("bootstrap", 200), int, "bootstrap")
        self.folds = config_cast(raw.get("folds", 5), int, "folds")
        self.seed = config_cast(raw.get("seed", 0), int, "seed")
        self.block = config_cast(raw.get("block", 0), int, "block")
        self.whiten = config_cast(raw.get("whiten", True), bool, "whiten")
        self.shape = None if raw.get("shape") is None else ShapeSpec.from_json(raw["shape"])
        extra = raw.get("extra_shapes", {})
        if not isinstance(extra, dict):
            raise ConfigError("extra_shapes must map coefficient blocks to shapes")
        self.extra_shapes = {}
        for key, value in extra.items():
            # only ASCII digits name a block: int() would also read "1_0", " 1 " and "+1"
            if not (key.isascii() and key.isdigit()):
                raise ConfigError(f"extra_shapes key {key!r} is not a coefficient block number")
            self.extra_shapes[int(key)] = ShapeSpec.from_json(value)
        if not 0.0 < self.pve <= 1.0:
            raise ConfigError("pve must lie in (0, 1]")
        if not 0.0 < self.level < 1.0:
            raise ConfigError("level must lie in (0, 1)")


def _load_config(path: str | None, seed_override: int | None) -> RunConfig:
    raw = {}
    if path:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"config file is not UTF-8 text: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
    config = RunConfig(raw)
    if seed_override is not None:
        config.seed = seed_override
    return config


def _ensure_finite(obj, where="result"):
    if isinstance(obj, dict):
        for key, value in obj.items():
            _ensure_finite(value, f"{where}.{key}")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _ensure_finite(value, f"{where}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise NumericalError(f"non-finite value in output at {where}")


def _write_json(payload: dict, path: Path) -> None:
    _ensure_finite(payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(rows: list[dict], path: Path) -> None:
    if not rows:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _report_grid(domain=(0.0, 1.0)) -> np.ndarray:
    """Where reported curves are evaluated: across the basis domain."""
    return np.linspace(domain[0], domain[1], REPORT_POINTS)


def _shape_report(coefs, shape, spec) -> dict:
    if shape is None:
        return {"feasible": True, "worst_violation": 0.0, "violated_rows": []}
    report = check_shape(coefs, shape, spec=spec)
    return {
        "feasible": bool(report.feasible),
        "worst_violation": report.worst_violation,
        "violated_rows": report.violated_rows.tolist(),
    }


def _setup(args):
    """Config, model, dataset, basis (on the dataset's domain; none for cv-order) and
    the model's shape value (its ``shape_key`` entry) of a data subcommand. Sparse
    covariate curves of the models with a functional covariate are completed once
    the basis is validated."""
    config = _load_config(args.config, args.seed)
    model = _FIT_MODELS.get(args.command, config.model)
    if model is None:
        raise ConfigError(f"{args.command} needs 'model' in the config")
    check_model(model)
    row = MODELS[model]
    # test-shape refuses qfosr itself, with that reason
    if config.shape is not None and row.shape_key != "shape" and args.command != "test-shape":
        raise ConfigError(
            "qfosr always imposes quantile_monotone and takes no 'shape'; "
            "give further shapes in 'extra_shapes'"
        )
    if config.extra_shapes and row.shape_key != "extra_shapes":
        raise ConfigError(f"'extra_shapes' applies only to the qfosr model, not {model}")
    shape = getattr(config, row.shape_key) or None
    check_model(model, shape=shape)
    if config.order is None and args.command != "cv-order":
        raise ConfigError("config needs an 'order' (or 'candidates' for cv-order)")
    if not args.data:
        raise ConfigError("this subcommand needs --data")
    data = read_dataset(args.data, fmt=args.format, scalars_path=args.scalars)
    spec = None
    if args.command != "cv-order":
        spec = BasisSpec(config.order, data.domain)
        check_model(model, spec)
    if row.covariate in ("concurrent", "integrated"):
        data = reconstruct_sparse(data, pve=config.pve)
    return config, model, data, spec, shape


def _cmd_fit(args) -> dict:
    config, model, data, spec, shape = _setup(args)
    grid = _report_grid(spec.domain)
    fit = fit_functional(data, model, spec, shape, pve=config.pve, whiten_fit=config.whiten)
    slope = fit.beta1_coefs
    report = "shape_report"
    if model == "sofr":
        payload = {
            "alpha": float(fit.beta0_coefs[0]),
            "gamma": fit.beta0_coefs[1:].tolist(),
            "beta_coefs": slope.tolist(),
            "grid": grid.tolist(),
            "beta_values": fit.beta1_fn(grid).tolist(),
            "rss": fit.rss_raw,
        }
        band_rows = [
            {"t": t, "estimate": v} for t, v in zip(payload["grid"], payload["beta_values"])
        ]
    elif MODELS[model].target == "stack":
        intercept, *effects = fit.beta1_fn(grid).tolist()
        blocks = dict(zip(data.z_names, effects))
        payload = {
            "coef_blocks": slope.reshape(len(effects) + 1, -1).tolist(),
            "predictors": list(data.z_names),
            "rescale": fit.rescale.tolist(),
            "grid": grid.tolist(),
            "intercept_values": intercept,
            "effect_values": blocks,
            "rss_raw": fit.rss_raw,
            "rss_whitened": fit.rss_whitened,
        }
        band_rows = [{"p": p, "intercept": v} for p, v in zip(payload["grid"], intercept)]
        for name, values in blocks.items():
            for row, v in zip(band_rows, values):
                row[name] = v
        # the certificate covers the monotone rows of the stack
        report, shape = "monotone_certificate", quantile_monotone(len(effects))
    else:
        payload = {
            "beta0_coefs": fit.beta0_coefs.tolist(),
            "beta1_coefs": slope.tolist(),
            "rss_raw": fit.rss_raw,
            "rss_whitened": fit.rss_whitened,
        }
        if model == "fofr":
            side = np.linspace(spec.domain[0], spec.domain[1], 50)
            surface = fit.beta1_fn(side, s=side)
            payload["surface_grid"] = side.tolist()
            payload["surface_values"] = surface.tolist()
            band_rows = [
                {"s": s_val, "t": t_val, "estimate": surface[i, j]}
                for i, s_val in enumerate(side)
                for j, t_val in enumerate(side)
            ]
        else:
            payload["grid"] = grid.tolist()
            payload["beta0_values"] = fit.beta0_fn(grid).tolist()
            payload["beta1_values"] = fit.beta1_fn(grid).tolist()
            columns = (payload["grid"], payload["beta0_values"], payload["beta1_values"])
            band_rows = [{"t": t, "beta0": b0, "beta1": b1} for t, b0, b1 in zip(*columns)]
    # the fields every fit writes; the JSON is written with sorted keys
    payload.update(model=model, seed=config.seed, order=spec.order, ridge=fit.ridge_used)
    payload[report] = _shape_report(slope, shape, spec)
    return {"payload": payload, "rows": band_rows}


def _cmd_test_shape(args) -> dict:
    config, model, data, spec, shape = _setup(args)
    if config.shape is None:
        raise ConfigError("test-shape needs 'shape' in the config")
    report = bootstrap_shape_test(data, model, spec, shape, config.bootstrap, config.seed)
    payload = {"model": model, **report.to_json()}
    rows = [{"draw": i, "statistic": s} for i, s in enumerate(report.bootstrap_stats)]
    return {"payload": payload, "rows": rows}


def _cmd_ci(args) -> dict:
    config, model, data, spec, shape = _setup(args)
    band = projection_ci(
        data, model, spec, shape, level=config.level, draws=config.draws, seed=config.seed,
        eval_grid=_report_grid(spec.domain), pve=config.pve, whiten_fit=config.whiten,
        block=config.block,
    )
    payload = {"model": model, "order": spec.order, **band.to_json()}
    rows = [
        {"t": t, "lower": lo, "upper": hi}
        for t, lo, hi in zip(band.grid, band.lower, band.upper)
    ]
    return {"payload": payload, "rows": rows}


def _cmd_cv_order(args) -> dict:
    config, model, data, _, shape = _setup(args)
    result = cv_select_order(
        data,
        model,
        shape,
        candidates=config.candidates,
        folds=config.folds,
        seed=config.seed,
    )
    payload = {"model": model, **result.to_json()}
    rows = [{"order": k, "score": v} for k, v in sorted(result.scores.items())]
    return {"payload": payload, "rows": rows}


def _cmd_simulate(args) -> dict:
    spec = ScenarioSpec(args.scenario, n=args.n, seed=args.seed if args.seed is not None else 0)
    data = generate_scenario(spec, args.rep)
    out = Path(args.out or f"scenario_{args.scenario}.csv")
    fmt = "wide_csv" if MODELS[spec.model].response == "scalar" else "long_csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_dataset(data, out, fmt=fmt)
    grid = _report_grid()
    payload = {
        "scenario": spec.kind,
        "model": spec.model,
        "n": spec.n,
        "replication": args.rep,
        "seed": spec.seed,
        "data_file": str(out),
        "format": fmt,
        "grid": grid.tolist(),
        "beta_true": np.asarray(data.meta["beta_true"](grid), dtype=float).tolist(),
        "shape": data.meta["shape"].to_json(),
        "default_order": data.meta["default_order"],
    }
    return {"payload": payload, "rows": [], "json_path": Path(str(out) + ".meta.json")}


def _cmd_bench(args) -> dict:
    try:
        shape = ShapeSpec.from_json(json.loads(args.test_shape)) if args.test_shape else None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--test-shape is not valid JSON: {exc}") from None
    spec = ScenarioSpec(
        args.scenario,
        n=args.n,
        seed=args.seed if args.seed is not None else 0,
        replications=args.reps,
    )
    table = run_benchmark(
        spec,
        mode=args.mode,
        order=args.order,
        ci_draws=args.ci_draws,
        bootstrap_draws=args.bootstrap_draws,
        test_shape=shape,
    )
    return {
        "payload": table.summary(),
        "rows": [table.summary_row()],
        "extra_rows": table.rows(),
    }


_COMMANDS = {
    **dict.fromkeys(_FIT_MODELS, _cmd_fit),
    "test-shape": _cmd_test_shape,
    "ci": _cmd_ci,
    "cv-order": _cmd_cv_order,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernfit",
        description="Shape-constrained functional regression with Bernstein bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--data", help="input dataset file")
        p.add_argument("--format", default="wide_csv", choices=["wide_csv", "long_csv"])
        p.add_argument("--scalars", help="companion scalar CSV for long format")
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output JSON path")
        p.add_argument("--threads", type=int, default=None, help="accepted; has no effect")

    for name in (*_FIT_MODELS, "test-shape", "ci", "cv-order"):
        p = sub.add_parser(name)
        add_common(p)

    p = sub.add_parser("simulate")
    p.add_argument("--scenario", required=True, choices=SCENARIO_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="dataset output path")
    p.add_argument("--threads", type=int, default=None, help="accepted; has no effect")

    p = sub.add_parser("bench")
    p.add_argument("--scenario", required=True, choices=SCENARIO_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--mode", default="imse", choices=["imse", "coverage", "test"])
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--ci-draws", type=int, default=300)
    p.add_argument("--bootstrap-draws", type=int, default=200)
    p.add_argument("--test-shape", help="JSON shape for test mode")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output JSON path")
    p.add_argument("--threads", type=int, default=None, help="accepted; has no effect")
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # each distinct warning once: a filter change during the run (importing
    # scipy.special at the first benchmark summary makes one) clears Python's
    # once-per-location registry, so a repeated warning would print again; the
    # caller's filters stay in force
    shown = set()
    show = warnings.showwarning

    def show_once(message, category, filename, lineno, file=None, line=None):
        if (str(message), category) not in shown:
            shown.add((str(message), category))
            show(message, category, filename, lineno, file, line)

    with warnings.catch_warnings():
        warnings.showwarning = show_once
        return _run(args)


def _run(args) -> int:
    try:
        result = _COMMANDS[args.command](args)
        json_path = result.get("json_path")
        if json_path is None:
            json_path = Path(args.out) if args.out else Path(f"{args.command.replace('-', '_')}.json")
        _write_json(result["payload"], Path(json_path))
        if result["rows"]:
            _write_csv(result["rows"], Path(json_path).with_suffix(".csv"))
        if result.get("extra_rows"):
            _write_csv(result["extra_rows"], Path(json_path).with_suffix(".reps.csv"))
        print(str(json_path))
        return 0
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an input or output path that cannot be read or written
        print(f"input/output error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BernfitError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect: still one line, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

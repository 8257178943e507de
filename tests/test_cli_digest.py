"""Digest of the JSON and CSV that the CLI writes on small fixed datasets.

Each case runs one subcommand in process and hashes the files it writes:
every ``fit-*`` (sofr with and without scalar confounders, flcm on dense and
sparse curves), ``ci`` for sofr, fosr, flcm and qfosr blocks 0 and 1,
``test-shape`` for sofr, fosr, flcm and fofr, ``cv-order`` for all five
models, ``bench`` in each mode and ``simulate`` in both layouts. ``bench``
adds its ``.reps.csv`` to the hash, ``simulate`` its dataset and
``.meta.json``; these cases are the only check on ``MetricTable.summary``,
``summary_row`` and ``rows`` as the CLI writes them. Numbers enter the hash at 10 significant digits, with values below
1e-9 in magnitude read as 0, as in ``tests/test_model_digest.py``, so a
rounding-level difference between BLAS builds does not count while any change
to what a subcommand writes does. A refactor of the fit, band or test paths
must leave every digest unchanged; a deliberate change to an output updates
its entry here.

``python tests/test_cli_digest.py`` prints the current digests.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bernfit import FunctionalDataset, Grid, ScenarioSpec, generate_scenario, write_dataset
from bernfit.cli import run_cli

# qfosr cross-validation folds predict outside their training range
pytestmark = pytest.mark.filterwarnings("ignore:predictors outside the training range")

_NON_NEGATIVE = {"kind": "non_negative"}
_NON_INCREASING = {"kind": "non_increasing"}
_BIVARIATE = {"kind": "bivariate_monotone"}
_EXTRA = {"1": _NON_INCREASING}

# case: (subcommand, dataset, config)
_CASES = {
    "fit-sofr": ("fit-sofr", "A", {"order": 4, "shape": _NON_NEGATIVE}),
    "fit-sofr-z": ("fit-sofr", "A-z", {"order": 4, "shape": _NON_NEGATIVE}),
    "fit-fosr": ("fit-fosr", "fosr", {"order": 3, "shape": _NON_INCREASING}),
    "fit-flcm": ("fit-flcm", "B", {"order": 4, "shape": _NON_INCREASING}),
    "fit-flcm-sparse": ("fit-flcm", "B_sparse", {"order": 4, "shape": _NON_INCREASING}),
    "fit-fofr": ("fit-fofr", "B", {"order": 2, "shape": _BIVARIATE}),
    "fit-qfosr": ("fit-qfosr", "quantile", {"order": 3, "extra_shapes": _EXTRA}),
    "ci-sofr": ("ci", "A-z", {"model": "sofr", "order": 4, "shape": _NON_NEGATIVE}),
    "ci-fosr": ("ci", "fosr", {"model": "fosr", "order": 3, "shape": _NON_INCREASING}),
    "ci-flcm": ("ci", "B", {"model": "flcm", "order": 4, "shape": _NON_INCREASING}),
    "ci-qfosr-0": ("ci", "quantile", {"model": "qfosr", "order": 3, "block": 0}),
    "ci-qfosr-1": (
        "ci", "quantile", {"model": "qfosr", "order": 3, "block": 1, "extra_shapes": _EXTRA}
    ),
    "test-sofr": ("test-shape", "A", {"model": "sofr", "order": 4, "shape": _NON_NEGATIVE}),
    "test-fosr": ("test-shape", "fosr", {"model": "fosr", "order": 3, "shape": _NON_INCREASING}),
    "test-flcm": ("test-shape", "B", {"model": "flcm", "order": 4, "shape": _NON_INCREASING}),
    "test-fofr": ("test-shape", "B", {"model": "fofr", "order": 2, "shape": _BIVARIATE}),
    "cv-sofr": (
        "cv-order", "A-z", {"model": "sofr", "candidates": [2, 3, 4], "shape": _NON_NEGATIVE}
    ),
    "cv-fosr": (
        "cv-order", "fosr", {"model": "fosr", "candidates": [1, 2, 3], "shape": _NON_INCREASING}
    ),
    "cv-flcm": (
        "cv-order", "B_sparse",
        {"model": "flcm", "candidates": [2, 3, 4], "shape": _NON_INCREASING},
    ),
    "cv-fofr": ("cv-order", "B", {"model": "fofr", "candidates": [1, 2], "shape": _BIVARIATE}),
    "cv-qfosr": (
        "cv-order", "quantile", {"model": "qfosr", "candidates": [2, 3], "extra_shapes": _EXTRA}
    ),
}
# subcommands that make their own data: the arguments before --out
_SELF_CASES = {
    "bench-imse-A": ["bench", "--scenario", "A", "--n", "30", "--reps", "3", "--seed", "5"],
    "bench-imse-B": ["bench", "--scenario", "B", "--n", "20", "--reps", "3", "--seed", "5"],
    "bench-coverage-B": [
        "bench", "--scenario", "B", "--n", "20", "--reps", "2", "--seed", "5",
        "--mode", "coverage", "--ci-draws", "100",
    ],
    "bench-test-S1": [
        "bench", "--scenario", "S1", "--n", "20", "--reps", "2", "--seed", "5",
        "--mode", "test", "--bootstrap-draws", "100", "--test-shape", json.dumps(_NON_INCREASING),
    ],
    "simulate-A": ["simulate", "--scenario", "A", "--n", "20", "--seed", "5", "--rep", "1"],
    "simulate-B": ["simulate", "--scenario", "B", "--n", "20", "--seed", "5"],
}
# settings every case shares: small draw counts, fixed seeds
_COMMON = {"draws": 100, "bootstrap": 100, "folds": 3, "seed": 5}


def _datasets() -> dict:
    a = generate_scenario(ScenarioSpec("A", n=40, seed=1, m=30), 0)
    rng = np.random.default_rng(11)
    a_z = replace(a, z_scalars=rng.standard_normal((a.n_subjects, 2)), z_names=["age", "dose"])
    b = generate_scenario(ScenarioSpec("B", n=30, seed=2, m=20), 0)
    sparse = generate_scenario(ScenarioSpec("B_sparse", n=30, seed=3), 0)
    fosr = FunctionalDataset(
        grid=b.grid, ids=b.ids, x_scalar=b.x_curves.mean(axis=1), y_curves=b.y_curves
    )
    rng = np.random.default_rng(4)
    pts = np.linspace(0.0, 1.0, 15)
    z = rng.uniform(0.0, 1.0, size=(40, 2))
    q = pts * (1.0 - 0.2 * z[:, [0]]) + 0.3 * z[:, [1]] * pts**2
    q = q + 0.02 * np.abs(rng.standard_normal(q.shape)).cumsum(axis=1) / pts.size
    quantile = FunctionalDataset(
        grid=Grid(pts), ids=[f"q{i}" for i in range(40)], y_curves=q, z_scalars=z,
        z_names=["u", "v"],
    )
    return {"A": a, "A-z": a_z, "B": b, "B_sparse": sparse, "fosr": fosr, "quantile": quantile}


def _number(value: float) -> str:
    return f"{0.0 if abs(value) < 1e-9 else value:.9e}"


def _json_lines(obj, path: str = "") -> list:
    """One ``path=value`` line per leaf, keys sorted, every number at 10 digits."""
    if isinstance(obj, dict):
        return [line for key in sorted(obj) for line in _json_lines(obj[key], f"{path}.{key}")]
    if isinstance(obj, list):
        return [line for i, v in enumerate(obj) for line in _json_lines(v, f"{path}[{i}]")]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [f"{path}={_number(float(obj))}"]
    return [f"{path}={json.dumps(obj)}"]


def _csv_lines(path: Path) -> list:
    lines = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            cells = []
            for cell in row:
                try:
                    cells.append(_number(float(cell)))
                except ValueError:
                    cells.append(cell)
            lines.append(",".join(cells))
    return lines


def _invoke(argv: list, name: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):  # the path of each written file
        code = run_cli(argv)
    assert code == 0, f"{name} exited {code}"


def _outputs(json_path: Path) -> list:
    """The JSON and the CSV files written next to it; a written dataset's path
    enters by file name only."""
    payload = json.loads(json_path.read_text())
    lines = []
    if "data_file" in payload:
        data_file = Path(payload["data_file"])
        payload["data_file"] = data_file.name
        lines = ["--- data"] + _csv_lines(data_file)
    lines = _json_lines(payload) + lines
    for suffix in (".csv", ".reps.csv"):
        path = json_path.with_suffix(suffix)
        if path.exists():
            lines += [f"--- {suffix[1:]}"] + _csv_lines(path)
    return lines


def _run(workdir: Path, files: dict, name: str) -> list:
    if name in _SELF_CASES:
        argv = _SELF_CASES[name]
        if argv[0] == "simulate":  # --out names the dataset; the JSON goes beside it
            out = workdir / f"{name}.csv"
            _invoke([*argv, "--out", str(out)], name)
            return _outputs(Path(f"{out}.meta.json"))
        out = workdir / f"{name}.json"
        _invoke([*argv, "--out", str(out)], name)
        return _outputs(out)
    command, dataset, config = _CASES[name]
    config_path = workdir / f"{name}.config.json"
    config_path.write_text(json.dumps({**_COMMON, **config}))
    data_path, fmt = files[dataset]
    out = workdir / f"{name}.json"
    _invoke([command, "--data", str(data_path), "--format", fmt,
             "--config", str(config_path), "--out", str(out)], name)
    return _outputs(out)


def digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        files = {}
        for key, data in _datasets().items():
            two_curves = data.x_curves is not None and data.y_curves is not None
            fmt = "long_csv" if two_curves else "wide_csv"
            path = workdir / f"{key}.csv"
            write_dataset(data, path, fmt=fmt)
            files[key] = (path, fmt)
        return {
            name: hashlib.sha256("\n".join(_run(workdir, files, name)).encode()).hexdigest()[:16]
            for name in (*_CASES, *_SELF_CASES)
        }


EXPECTED = {
    "bench-coverage-B": "33341dc8d16111ed",
    "bench-imse-A": "0623ded3d1580195",
    "bench-imse-B": "b7b90e89c4780f60",
    "bench-test-S1": "304795e0e2c50993",
    "ci-flcm": "0ab175dd0bcb975f",
    "ci-fosr": "8f4e15e125cb8a20",
    "ci-qfosr-0": "938274c5fcf707fa",
    "ci-qfosr-1": "aaee678cc660ae64",
    "ci-sofr": "cf1ec63dc31ddf61",
    "cv-flcm": "2b97d699fd77bf2a",
    "cv-fofr": "7b4879a1f1ce4cc1",
    "cv-fosr": "7a9b309a4fd41568",
    "cv-qfosr": "6b8a8e1ce1df204c",
    "cv-sofr": "81e3656fe9348e2d",
    "fit-flcm": "718e6103a50c3f6a",
    "fit-flcm-sparse": "9a5313165e8d0a10",
    "fit-fofr": "ac8e04ddf089c9b6",
    "fit-fosr": "665fde95e34478c2",
    "fit-qfosr": "f955a2120583d821",
    "fit-sofr": "46099c6757a42ae9",
    "fit-sofr-z": "3b5782b5529e3b98",
    "simulate-A": "da051c9099a26638",
    "simulate-B": "db84c7414b14171a",
    "test-flcm": "8343e52fb0cfab95",
    "test-fofr": "a983b26ad00f7f36",
    "test-fosr": "2a0526e11648b2e5",
    "test-sofr": "62aee61a8449cb04",
}


@pytest.fixture(scope="module")
def current():
    return digests()


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_cli_output_matches_digest(current, case):
    assert current[case] == EXPECTED[case]


def test_every_case_has_a_digest(current):
    assert sorted(current) == sorted(EXPECTED)


if __name__ == "__main__":
    print(json.dumps(digests(), indent=4, sort_keys=True))

"""Digest of what every model's entry points compute on small fixed datasets.

Each group hashes the outputs of one call: the coefficients of the fits
(sofr, fosr, flcm on dense and sparse data, fofr, qfosr), the bands' lower
and upper curves (sofr, flcm, qfosr block 1), the bootstrap statistics and
p-values (sofr, flcm, fofr) and every model's cross-validation scores and
chosen order. Numbers enter the hash at 10 significant digits, with values
below 1e-9 in magnitude read as 0, so a rounding-level difference between
BLAS builds does not count while any change to what a model computes does.
A refactor of the model dispatch must leave every digest unchanged; a
deliberate change to an output updates its entry here.

``python tests/test_model_digest.py`` prints the current digests.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from bernfit import (
    NON_INCREASING,
    NON_NEGATIVE,
    BasisSpec,
    FunctionalDataset,
    Grid,
    ScenarioSpec,
    bivariate_monotone,
    bootstrap_shape_test,
    cv_select_order,
    fit_functional,
    fit_qfosr,
    fit_sofr,
    generate_scenario,
    projection_ci,
    qfosr_projection_ci,
    reconstruct_sparse,
)

_EXTRA = {1: NON_INCREASING}

# qfosr cross-validation folds predict outside their training range
pytestmark = pytest.mark.filterwarnings("ignore:predictors outside the training range")


def _datasets() -> dict:
    a = generate_scenario(ScenarioSpec("A", n=40, seed=1, m=30), 0)
    b = generate_scenario(ScenarioSpec("B", n=30, seed=2, m=20), 0)
    sparse = reconstruct_sparse(generate_scenario(ScenarioSpec("B_sparse", n=30, seed=3), 0))
    fosr = FunctionalDataset(
        grid=b.grid, ids=b.ids, x_scalar=b.x_curves.mean(axis=1), y_curves=b.y_curves
    )
    rng = np.random.default_rng(4)
    pts = np.linspace(0.0, 1.0, 15)
    z = rng.uniform(0.0, 1.0, size=(40, 2))
    q = pts * (1.0 - 0.2 * z[:, [0]]) + 0.3 * z[:, [1]] * pts**2
    q = q + 0.02 * np.abs(rng.standard_normal(q.shape)).cumsum(axis=1) / pts.size
    quantile = FunctionalDataset(
        grid=Grid(pts), ids=[f"q{i}" for i in range(40)], y_curves=q, z_scalars=z
    )
    return {"A": a, "B": b, "B_sparse": sparse, "fosr": fosr, "quantile": quantile}


def _text(values) -> str:
    v = np.asarray(values, dtype=float).ravel()
    v = np.where(np.abs(v) < 1e-9, 0.0, v)
    return " ".join(f"{x:.9e}" for x in v)


def _cv(result) -> list:
    return [str(result.chosen), _text([result.scores[k] for k in sorted(result.scores)]),
            json.dumps({str(k): v for k, v in result.skipped.items()}, sort_keys=True)]


def _groups(d: dict) -> dict:
    tensor = BasisSpec(2)
    band = dict(draws=100, seed=5)
    fits = {
        "fit-sofr": lambda: fit_sofr(d["A"], BasisSpec(4), NON_NEGATIVE),
        "fit-fosr": lambda: fit_functional(d["fosr"], "fosr", BasisSpec(3), NON_INCREASING),
        "fit-flcm-B": lambda: fit_functional(d["B"], "flcm", BasisSpec(4), NON_INCREASING),
        "fit-flcm-B_sparse": lambda: fit_functional(
            d["B_sparse"], "flcm", BasisSpec(4), NON_INCREASING
        ),
        "fit-fofr": lambda: fit_functional(d["B"], "fofr", tensor, bivariate_monotone()),
        "fit-qfosr": lambda: fit_qfosr(d["quantile"], BasisSpec(3), extra_shapes=_EXTRA),
    }
    groups = {}
    for name, call in fits.items():
        fit = call()
        groups[name] = [_text(np.concatenate([fit.beta0_coefs, fit.beta1_coefs]))]
    bands = {
        "ci-sofr": lambda: projection_ci(d["A"], "sofr", BasisSpec(4), NON_NEGATIVE, **band),
        "ci-flcm": lambda: projection_ci(d["B"], "flcm", BasisSpec(4), NON_INCREASING, **band),
        "ci-qfosr": lambda: qfosr_projection_ci(
            d["quantile"], BasisSpec(3), 1, extra_shapes=_EXTRA, **band
        ),
    }
    for name, call in bands.items():
        result = call()
        groups[name] = [_text(result.lower), _text(result.upper)]
    tests = {
        "test-sofr": (d["A"], "sofr", BasisSpec(4), NON_NEGATIVE),
        "test-flcm": (d["B"], "flcm", BasisSpec(4), NON_INCREASING),
        "test-fofr": (d["B"], "fofr", tensor, bivariate_monotone()),
    }
    for name, args in tests.items():
        report = bootstrap_shape_test(*args, draws=100, seed=6)
        groups[name] = [_text([report.statistic, report.p_value]), _text(report.bootstrap_stats)]
    cvs = {
        "cv-sofr": (d["A"], "sofr", NON_NEGATIVE, [2, 3, 4]),
        "cv-fosr": (d["fosr"], "fosr", NON_INCREASING, [1, 2, 3]),
        "cv-flcm": (d["B"], "flcm", NON_INCREASING, [2, 3, 4]),
        "cv-fofr": (d["B"], "fofr", bivariate_monotone(), [1, 2]),
        "cv-qfosr": (d["quantile"], "qfosr", _EXTRA, [2, 3]),
    }
    for name, (data, model, shape, candidates) in cvs.items():
        groups[name] = _cv(cv_select_order(data, model, shape, candidates, folds=3, seed=7))
    return groups


def digests() -> dict[str, str]:
    return {
        name: hashlib.sha256("\n".join(records).encode()).hexdigest()[:16]
        for name, records in _groups(_datasets()).items()
    }


EXPECTED = {
    "ci-flcm": "02cc36c1fdbbafd6",
    "ci-qfosr": "6f2f99a228474bb3",
    "ci-sofr": "92d69edc9c6f68df",
    "cv-flcm": "2922b3df81058193",
    "cv-fofr": "f6854433083d39da",
    "cv-fosr": "4cc7c8a8d4967e0d",
    "cv-qfosr": "0493e02d5d243136",
    "cv-sofr": "f033c0b8d5fa5906",
    "fit-flcm-B": "126d6c54a288572e",
    "fit-flcm-B_sparse": "e52923751d88a2bd",
    "fit-fofr": "06510c6aeeac7866",
    "fit-fosr": "11b996ff012e7284",
    "fit-qfosr": "2e1ec19381735534",
    "fit-sofr": "a163700008bc90e3",
    "test-flcm": "59252557df8c5071",
    "test-fofr": "ebb55ca4d883338b",
    "test-sofr": "ea426f4fe195690b",
}


@pytest.fixture(scope="module")
def current():
    return digests()


@pytest.mark.parametrize("group", sorted(EXPECTED))
def test_model_output_matches_digest(current, group):
    assert current[group] == EXPECTED[group]


def test_every_group_has_a_digest(current):
    assert sorted(current) == sorted(EXPECTED)


if __name__ == "__main__":
    print(json.dumps(digests(), indent=4, sort_keys=True))

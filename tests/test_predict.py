"""``FunctionalFit.predict`` is the fitted model's design rows times its coefficients.

``build_design`` and ``predict`` share one covariate map, so for every model a
prediction at an observed (subject, point) pair equals that pair's design row
times the coefficients, and prediction data must give the training covariates.
"""

from dataclasses import replace

import numpy as np
import pytest

from bernfit import (
    NON_DECREASING,
    NON_INCREASING,
    BasisSpec,
    DataError,
    Grid,
    ScenarioSpec,
    bivariate_monotone,
    eval_basis_matrix,
    generate_scenario,
)
from bernfit.dataset import FunctionalDataset
from bernfit.functional import build_design, fit_functional, reconstruct_sparse


def _quantile():
    rng = np.random.default_rng(4)
    pts = np.linspace(0.0, 1.0, 15)
    z = rng.uniform(0.0, 1.0, size=(40, 2))
    q = pts * (1.0 - 0.2 * z[:, [0]]) + 0.3 * z[:, [1]] * pts**2
    q = q + 0.02 * np.abs(rng.standard_normal(q.shape)).cumsum(axis=1) / pts.size
    return FunctionalDataset(grid=Grid(pts), ids=list(range(40)), y_curves=q, z_scalars=z)


def _cases() -> dict:
    """name: (data, model, spec, shape) for each model, flcm dense and sparse."""
    a = generate_scenario(ScenarioSpec("A", n=40, seed=1, m=30), 0)
    confounders = np.random.default_rng(2).normal(size=(a.n_subjects, 2))
    b = generate_scenario(ScenarioSpec("B", n=30, seed=2, m=20), 0)
    sparse = generate_scenario(ScenarioSpec("B_sparse", n=30, seed=3), 0)
    fosr = replace(b, x_scalar=b.x_curves.mean(axis=1), x_curves=None)
    return {
        "sofr": (a, "sofr", BasisSpec(4), NON_DECREASING),
        "sofr-z": (replace(a, z_scalars=confounders), "sofr", BasisSpec(4), None),
        "fosr": (fosr, "fosr", BasisSpec(3), NON_INCREASING),
        "flcm": (b, "flcm", BasisSpec(4), NON_INCREASING),
        "flcm-sparse": (sparse, "flcm", BasisSpec(4), None),
        "fofr": (reconstruct_sparse(sparse), "fofr", BasisSpec(2), bivariate_monotone()),
        "qfosr": (_quantile(), "qfosr", BasisSpec(3), {1: NON_INCREASING}),
    }


_CASES = _cases()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_prediction_is_the_design_row_times_the_coefficients(name):
    data, model, spec, shape = _CASES[name]
    fit = fit_functional(data, model, spec, shape)
    design = build_design(data, model, spec)
    rows = design.rows() @ np.concatenate([fit.beta0_coefs, fit.beta1_coefs])
    pred = fit.predict(data).reshape(data.n_subjects, -1)[design.mask]
    assert np.abs(pred - rows).max() <= 1e-12 * np.abs(rows).max()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_intercept_is_the_first_coefficient_block_on_the_response_basis(name):
    data, model, spec, shape = _CASES[name]
    fit = fit_functional(data, model, spec, shape, whiten_fit=False)
    t = np.linspace(*spec.domain, 7)
    got = fit.beta0_fn(t)
    if model == "sofr":  # one constant: alpha
        expected = np.full(t.size, fit.beta0_coefs[0])
    elif model == "qfosr":  # the intercept quantile curve, first of the stack
        expected = fit.beta1_fn(t)[0]
    else:
        expected = eval_basis_matrix(t, spec) @ fit.beta0_coefs
    assert np.array_equal(got, expected)


# per case: prediction data with too many or too few scalar covariates, or without
# the covariate, and the error it raises
_WRONG_COUNT = {
    "sofr": (lambda d: replace(d, z_scalars=np.ones((d.n_subjects, 1))),
             "prediction data needs 0 scalar covariates, as in training; it has 1"),
    "sofr-z": (lambda d: replace(d, z_scalars=d.z_scalars[:, :1], z_names=[]),
               "prediction data needs 2 scalar covariates, as in training; it has 1"),
    "fosr": (lambda d: replace(d, x_scalar=None), "fosr needs a scalar predictor per subject"),
    "flcm": (lambda d: replace(d, x_curves=None), "flcm needs a functional covariate"),
    "flcm-sparse": (lambda d: replace(d, x_curves=None), "flcm needs a functional covariate"),
    "fofr": (lambda d: replace(d, x_curves=None), "fofr needs a functional covariate"),
    "qfosr": (lambda d: replace(d, z_scalars=np.hstack([d.z_scalars, d.z_scalars]), z_names=[]),
              "prediction data needs 2 scalar covariates, as in training; it has 4"),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_wrong_covariate_count_is_a_data_error(name):
    data, model, spec, shape = _CASES[name]
    fit = fit_functional(data, model, spec, shape, whiten_fit=False)
    mutate, message = _WRONG_COUNT[name]
    with pytest.raises(DataError) as info:
        fit.predict(mutate(data))
    assert str(info.value) == message


def test_sofr_fit_without_confounders_refuses_data_with_some():
    """The confounders were once ignored silently; they have no coefficients to meet."""
    data, model, spec, shape = _CASES["sofr"]
    fit = fit_functional(data, model, spec, shape)
    with_z = replace(data, z_scalars=_CASES["sofr-z"][0].z_scalars)
    with pytest.raises(DataError, match="^prediction data needs 0 scalar covariates"):
        fit.predict(with_z)


@pytest.mark.parametrize("name", ["sofr", "fofr"])
def test_incomplete_curves_refused_as_build_design_refuses_them(name):
    data, model, spec, shape = _CASES[name]
    fit = fit_functional(data, model, spec, shape, whiten_fit=False)
    x = data.x_curves.copy()
    x[3, 2] = np.nan
    holed = replace(data, x_curves=x)
    message = (f"subject {data.ids[3]}: {model} needs complete covariate curves; "
               "complete the curves first")
    for call in (fit.predict, lambda d: build_design(d, model, spec)):
        with pytest.raises(DataError) as info:
            call(holed)
        assert str(info.value) == message

"""Tests for scalar-on-function regression."""

import numpy as np
import pytest

from bernfit import NON_DECREASING, NON_NEGATIVE, BasisSpec, DataError, Grid, fit_functional
from bernfit.basis import eval_basis_matrix, sofr_design
from bernfit.dataset import FunctionalDataset
from bernfit.sofr import fit_sofr


def make_dataset(n=60, m=50, seed=0, beta_coefs=None, order=4, noise=0.0, n_z=0):
    rng = np.random.default_rng(seed)
    pts = np.linspace(0, 1, m)
    grid = Grid(pts)
    # smooth random curves: low-order polynomial mixtures
    powers = np.vstack([pts**k for k in range(6)])
    x = rng.normal(size=(n, 6)) @ powers
    spec = BasisSpec(order)
    w = sofr_design(x, grid, spec)
    beta = np.zeros(order + 1) if beta_coefs is None else np.asarray(beta_coefs, float)
    z = rng.normal(size=(n, n_z)) if n_z else None
    gamma = np.arange(1, n_z + 1, dtype=float) if n_z else None
    y = 0.7 + w @ beta + (z @ gamma if n_z else 0.0) + noise * rng.standard_normal(n)
    data = FunctionalDataset(grid=grid, ids=[f"s{i}" for i in range(n)], x_curves=x, y_scalar=y, z_scalars=z)
    return data, spec, beta


class TestFitSofr:
    def test_constant_response_gives_zero_slope(self):
        rng = np.random.default_rng(1)
        n, m = 40, 30
        grid = Grid(np.linspace(0, 1, m))
        x = rng.normal(size=(n, m))
        data = FunctionalDataset(
            grid=grid, ids=list(range(n)), x_curves=x, y_scalar=np.full(n, 3.25)
        )
        fit = fit_functional(data, "sofr", BasisSpec(3), NON_NEGATIVE)
        assert fit.beta0_coefs[0] == pytest.approx(3.25, abs=1e-8)
        assert np.abs(fit.beta1_coefs).max() <= 1e-8
        assert fit.rss_raw == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_recovery_in_the_sieve(self):
        beta_coefs = np.array([0.1, 0.4, 0.9, 1.0, 1.3])
        data, spec, beta = make_dataset(beta_coefs=beta_coefs, noise=0.0)
        fit = fit_functional(data, "sofr", spec, NON_DECREASING)
        assert np.abs(fit.beta1_coefs - beta).max() <= 1e-6
        assert fit.beta0_coefs[0] == pytest.approx(0.7, abs=1e-6)

    def test_scalar_confounders_estimated_unconstrained(self):
        beta_coefs = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
        data, spec, _ = make_dataset(beta_coefs=beta_coefs, noise=0.0, n_z=2)
        fit = fit_functional(data, "sofr", spec, NON_NEGATIVE)
        assert np.allclose(fit.beta0_coefs[1:], [1.0, 2.0], atol=1e-6)

    def test_constrained_rss_at_least_unconstrained(self):
        data, spec, _ = make_dataset(beta_coefs=[1, 0.2, 0.1, 0.9, 2.0], noise=0.3, seed=5)
        constrained = fit_functional(data, "sofr", spec, NON_DECREASING)
        unconstrained = fit_functional(data, "sofr", spec, None)
        assert constrained.rss_raw >= unconstrained.rss_raw - 1e-10
        report_coefs = constrained.beta1_coefs
        assert np.all(np.diff(report_coefs) >= -1e-8)

    def test_intercept_affine_equivariance(self):
        data, spec, _ = make_dataset(beta_coefs=[0.2, 0.3, 0.5, 0.9, 1.1], noise=0.2, seed=9)
        fit0 = fit_functional(data, "sofr", spec, NON_DECREASING)
        shifted = FunctionalDataset(
            grid=data.grid,
            ids=data.ids,
            x_curves=data.x_curves,
            y_scalar=data.y_scalar + 10.0,
        )
        fit1 = fit_functional(shifted, "sofr", spec, NON_DECREASING)
        assert fit1.beta0_coefs[0] - fit0.beta0_coefs[0] == pytest.approx(10.0, abs=1e-7)
        assert np.abs(fit1.beta1_coefs - fit0.beta1_coefs).max() <= 1e-7

    def test_too_few_subjects(self):
        data, spec, _ = make_dataset(n=4, noise=0.0)
        with pytest.raises(DataError):
            fit_functional(data, "sofr", spec, NON_NEGATIVE)

    def test_beta1_fn_matches_coefficients(self):
        data, spec, _ = make_dataset(beta_coefs=[0, 0.5, 1, 1.5, 2], noise=0.0)
        fit = fit_functional(data, "sofr", spec, NON_DECREASING)
        t = np.linspace(0, 1, 11)
        direct = eval_basis_matrix(t, spec) @ fit.beta1_coefs
        assert np.array_equal(fit.beta1_fn(t), direct)


class TestPredictSofr:
    """A sofr fit predicts one value per subject."""

    def test_training_predictions_reproduce_rss(self):
        data, spec, _ = make_dataset(beta_coefs=[0.4, 0.5, 0.6, 1.0, 1.4], noise=0.25, seed=3)
        fit = fit_functional(data, "sofr", spec, NON_DECREASING)
        pred = fit.predict(data)
        rss = float(np.sum((data.y_scalar - pred) ** 2))
        assert rss == pytest.approx(fit.rss_raw, rel=1e-10)

    def test_zero_curves_predict_intercept(self):
        data, spec, _ = make_dataset(beta_coefs=[1, 1, 1, 1, 1], noise=0.0, seed=4)
        fit = fit_functional(data, "sofr", spec, None)
        zero = FunctionalDataset(
            grid=data.grid,
            ids=["a", "b"],
            x_curves=np.zeros((2, data.grid.n_points)),
            y_scalar=np.zeros(2),
        )
        pred = fit.predict(zero)
        assert np.allclose(pred, fit.beta0_coefs[0], atol=1e-12)


def test_fit_sofr_is_fit_functional_on_sofr():
    data, spec, _ = make_dataset(beta_coefs=[0.4, 0.5, 0.6, 1.0, 1.4], noise=0.25, seed=3, n_z=1)
    wrapped = fit_sofr(data, spec, NON_DECREASING)
    direct = fit_functional(data, "sofr", spec, NON_DECREASING)
    assert wrapped.beta0_coefs.tobytes() == direct.beta0_coefs.tobytes()
    assert wrapped.beta1_coefs.tobytes() == direct.beta1_coefs.tobytes()
    assert wrapped.predict(data).shape == (data.n_subjects,)

"""Tests for functional-response fitting, covariance estimation, and whitening."""

import numpy as np
import pytest

from bernfit import (
    NON_DECREASING,
    NON_INCREASING,
    BasisSpec,
    Grid,
    ScenarioSpec,
    TensorBasisSpec,
    bivariate_monotone,
    check_shape,
    generate_scenario,
)
from bernfit.basis import eval_basis_matrix
from bernfit.dataset import FunctionalDataset
from bernfit.functional import (
    CovarianceModel,
    estimate_covariance,
    fit_functional,
    reconstruct_sparse,
    whiten,
)


def make_flcm_dataset(n=40, m=30, seed=0, noise=0.0, beta0=None, beta1=None, order=3):
    rng = np.random.default_rng(seed)
    pts = np.linspace(0, 1, m)
    grid = Grid(pts)
    spec = BasisSpec(order)
    basis = eval_basis_matrix(pts, spec)
    b0 = np.asarray(beta0 if beta0 is not None else np.linspace(1, 2, order + 1))
    b1 = np.asarray(beta1 if beta1 is not None else np.linspace(2, 0.5, order + 1))
    x = rng.normal(size=(n, 4)) @ np.vstack([pts**k for k in range(4)])
    y = basis @ b0 + x * (basis @ b1) + noise * rng.standard_normal((n, m))
    data = FunctionalDataset(grid=grid, ids=list(range(n)), x_curves=x, y_curves=y)
    return data, spec, b0, b1


class TestUnconstrainedOls:
    def test_noiseless_recovery(self):
        data, spec, b0, b1 = make_flcm_dataset(noise=0.0)
        fit = fit_functional(data, "flcm", spec, whiten_fit=False)
        assert np.abs(fit.beta0_coefs - b0).max() <= 1e-6
        assert np.abs(fit.beta1_coefs - b1).max() <= 1e-6
        assert np.nanmax(np.abs(fit.residual_matrix)) <= 1e-6

    def test_zero_covariate_engages_ridge(self):
        data, spec, b0, _ = make_flcm_dataset(noise=0.0)
        data.x_curves = np.zeros_like(data.x_curves)
        fit = fit_functional(data, "flcm", spec, whiten_fit=False)
        assert fit.ridge_used > 0
        pts = data.grid.points
        basis = eval_basis_matrix(pts, spec)
        projected = np.linalg.lstsq(basis, data.y_curves.mean(axis=0), rcond=None)[0]
        assert np.abs(fit.beta0_coefs - projected).max() <= 1e-3

    def test_fosr_scalar_predictor(self):
        rng = np.random.default_rng(3)
        n, m, order = 30, 25, 2
        pts = np.linspace(0, 1, m)
        basis = eval_basis_matrix(pts, BasisSpec(order))
        b0 = np.array([1.0, 0.5, 2.0])
        b1 = np.array([-1.0, 0.0, 1.0])
        x = rng.normal(size=n)
        y = basis @ b0 + x[:, None] * (basis @ b1)
        data = FunctionalDataset(grid=Grid(pts), ids=list(range(n)), x_scalar=x, y_curves=y)
        fit = fit_functional(data, "fosr", BasisSpec(order), whiten_fit=False)
        assert np.abs(fit.beta1_coefs - b1).max() <= 1e-8

    def test_fofr_noiseless_recovery(self):
        rng = np.random.default_rng(4)
        n, m = 35, 20
        pts = np.linspace(0, 1, m)
        grid = Grid(pts)
        tensor = TensorBasisSpec(2, 2)
        surface = rng.uniform(0.5, 1.5, size=(3, 3))
        x = rng.normal(size=(n, 3)) @ np.vstack([pts**k for k in range(3)])
        from bernfit.basis import fofr_design

        basis0 = eval_basis_matrix(pts, BasisSpec(2))
        b0 = np.array([0.5, 1.0, 0.2])
        y = np.vstack(
            [basis0 @ b0 + fofr_design(x[i], grid, tensor, pts) @ surface.ravel() for i in range(n)]
        )
        data = FunctionalDataset(grid=grid, ids=list(range(n)), x_curves=x, y_curves=y)
        fit = fit_functional(data, "fofr", tensor=tensor, whiten_fit=False)
        assert np.abs(fit.beta1_coefs - surface.ravel()).max() <= 1e-5


class TestEstimateCovariance:
    def test_white_noise_nugget(self):
        rng = np.random.default_rng(0)
        n, m, sigma2 = 500, 40, 1.3
        grid = Grid(np.linspace(0, 1, m))
        resid = np.sqrt(sigma2) * rng.standard_normal((n, m))
        cov = estimate_covariance(resid, grid, pve=0.95)
        assert abs(cov.nugget - sigma2) / sigma2 <= 0.2

    def test_rank_one_process(self):
        rng = np.random.default_rng(1)
        n, m = 500, 30
        pts = np.linspace(0, 1, m)
        grid = Grid(pts)
        phi = np.sqrt(2.0) * np.sin(np.pi * pts)  # unit L2 norm
        resid = rng.standard_normal(n)[:, None] * phi
        cov = estimate_covariance(resid, grid, pve=0.95)
        assert cov.n_components == 1
        got = cov.eigenfunctions[0]
        w = np.zeros(m)
        w[:-1] += np.diff(pts) / 2
        w[1:] += np.diff(pts) / 2
        alignment = abs(float(np.sum(w * got * phi)))
        assert alignment >= 0.99

    def test_zero_residuals_fallback(self):
        grid = Grid(np.linspace(0, 1, 10))
        cov = estimate_covariance(np.zeros((5, 10)), grid)
        assert cov.n_components == 0
        assert cov.nugget == 0.0
        mat = cov.matrix()
        assert np.allclose(mat, 1e-8 * np.eye(10))

    def test_eigenfunction_quadrature_orthonormality(self):
        rng = np.random.default_rng(2)
        n, m = 200, 25
        pts = np.linspace(0, 1, m)
        resid = rng.standard_normal((n, 3)) @ rng.standard_normal((3, m)) + 0.1 * rng.standard_normal((n, m))
        cov = estimate_covariance(resid, Grid(pts), pve=0.99)
        w = np.zeros(m)
        w[:-1] += np.diff(pts) / 2
        w[1:] += np.diff(pts) / 2
        gram = (cov.eigenfunctions * w) @ cov.eigenfunctions.T
        assert np.abs(gram - np.eye(cov.n_components)).max() <= 1e-8

    def test_white_noise_keeps_few_small_components(self):
        rng = np.random.default_rng(7)
        n, m, sigma2 = 500, 40, 1.0
        resid = np.sqrt(sigma2) * rng.standard_normal((n, m))
        cov = estimate_covariance(resid, Grid(np.linspace(0, 1, m)), pve=0.95)
        # no smooth structure: retained eigenvalues are noise-scale relative
        # to the nugget that carries the actual variance
        assert cov.eigenvalues.sum() <= 0.3 * sigma2
        assert abs(cov.nugget - sigma2) / sigma2 <= 0.2

    def test_scenario_error_structure_recovered(self):
        # residual covariance of the concurrent-model scenario: two smooth
        # components with score variances 0.25 and 0.5625 plus a 0.25 nugget
        from bernfit import ScenarioSpec, generate_scenario

        data = generate_scenario(ScenarioSpec("B", n=400, seed=21), 0)
        spec = BasisSpec(5)
        fit = fit_functional(data, "flcm", spec, whiten_fit=False)
        cov = estimate_covariance(fit.residual_matrix, data.grid, pve=0.95)
        top2_share = cov.eigenvalues[:2].sum() / cov.eigenvalues.sum()
        assert top2_share >= 0.5
        # compare against the eigendecomposition of the true smooth kernel
        pts = data.grid.points
        true_kernel = 0.25 * np.outer(np.cos(pts), np.cos(pts)) + 0.5625 * np.outer(
            np.sin(pts), np.sin(pts)
        )
        from bernfit.basis import quadrature_weights

        w = quadrature_weights(pts)
        sw = np.sqrt(w)
        true_evals = np.linalg.eigvalsh(sw[:, None] * true_kernel * sw[None, :])[::-1]
        assert abs(cov.eigenvalues[0] - true_evals[0]) / true_evals[0] <= 0.35
        assert abs(cov.nugget - 0.25) / 0.25 <= 0.25

    def test_eigenvalues_sorted_positive(self):
        rng = np.random.default_rng(3)
        resid = rng.standard_normal((50, 20))
        cov = estimate_covariance(resid, Grid(np.linspace(0, 1, 20)))
        assert np.all(np.diff(cov.eigenvalues) <= 0)
        assert np.all(cov.eigenvalues > 0)

    def test_reconstruction_psd(self):
        rng = np.random.default_rng(4)
        resid = rng.standard_normal((60, 15))
        cov = estimate_covariance(resid, Grid(np.linspace(0, 1, 15)))
        mat = cov.matrix()
        assert np.array_equal(mat, mat.T)
        assert np.linalg.eigvalsh(mat).min() >= cov.nugget * (1 - 1e-10)


class TestWhiten:
    def test_identity_covariance_is_noop(self):
        cov = CovarianceModel.identity(np.linspace(0, 1, 8))
        block = np.arange(24.0).reshape(8, 3)
        assert np.array_equal(whiten(block, cov), block)

    def test_scaled_identity_divides(self):
        pts = np.linspace(0, 1, 6)
        cov = CovarianceModel(pts, np.empty(0), np.empty((0, 6)), nugget=4.0, pve=1.0)
        vec = np.ones(6)
        assert np.allclose(whiten(vec, cov), 0.5)

    def test_whitened_residual_covariance_near_identity(self):
        # frozen Monte Carlo oracle values for this seed: 0.33 whitened, 4.79 raw
        rng = np.random.default_rng(5)
        n, m = 500, 10
        pts = np.linspace(0, 1, m)
        phi = np.sqrt(2.0) * np.cos(np.pi * pts)
        resid = 0.7 * rng.standard_normal(n)[:, None] * phi + rng.standard_normal((n, m))
        cov = estimate_covariance(resid, Grid(pts), pve=0.99)
        s = cov.inverse_sqrt()
        sample = resid.T @ resid / n
        whitened_err = np.linalg.norm(s @ sample @ s - np.eye(m), "fro")
        raw_err = np.linalg.norm(sample - np.eye(m), "fro")
        assert whitened_err <= 0.4
        assert whitened_err <= raw_err / 10.0

    def test_inverse_sqrt_inverts_matrix(self):
        rng = np.random.default_rng(6)
        resid = rng.standard_normal((80, 12))
        cov = estimate_covariance(resid, Grid(np.linspace(0, 1, 12)))
        s = cov.inverse_sqrt()
        assert np.abs(s @ cov.matrix() @ s - np.eye(12)).max() <= 1e-8


class TestConstrainedGls:
    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_fofr_certificate_holds_under_auto_ridge(self, seed):
        # the near-singular order-6 tensor Gram engages the auto-ridge; the
        # fit must still pass the 1e-8 shape certificate (it used to miss
        # it by 2e-8 to 4e-8 on these seeds)
        data = generate_scenario(ScenarioSpec("B", n=200, seed=seed), 0)
        tensor = TensorBasisSpec(6, 6)
        fit = fit_functional(data, "fofr", tensor=tensor, shape=bivariate_monotone())
        assert fit.ridge_used > 0
        assert check_shape(fit.beta1_coefs, bivariate_monotone(), spec=tensor).feasible

    def test_feasible_unconstrained_fit_unchanged(self):
        data, spec, b0, b1 = make_flcm_dataset(beta1=[2.0, 1.5, 1.0, 0.5], noise=0.05, seed=7)
        constrained = fit_functional(data, "flcm", spec, NON_INCREASING)
        unconstrained = fit_functional(data, "flcm", spec, None)
        if np.all(np.diff(unconstrained.beta1_coefs) <= 0):
            assert np.abs(constrained.beta1_coefs - unconstrained.beta1_coefs).max() <= 1e-7

    def test_shape_certificate(self):
        data, spec, _, _ = make_flcm_dataset(beta1=[0.5, 1.0, 1.5, 2.0], noise=0.4, seed=8)
        fit = fit_functional(data, "flcm", spec, NON_DECREASING)
        report = check_shape(fit.beta1_coefs, NON_DECREASING, tol=1e-8)
        assert report.feasible

    def test_whitened_rss_ordering(self):
        data, spec, _, _ = make_flcm_dataset(beta1=[2.0, 1.0, 0.7, 0.1], noise=0.5, seed=9)
        cov_est = fit_functional(data, "flcm", spec, None).covariance
        constrained = fit_functional(data, "flcm", spec, NON_INCREASING, covariance=cov_est)
        unconstrained = fit_functional(data, "flcm", spec, None, covariance=cov_est)
        assert constrained.rss_whitened >= unconstrained.rss_whitened - 1e-9

    def test_identity_covariance_matches_raw_fit_bitwise(self):
        data, spec, _, _ = make_flcm_dataset(noise=0.3, seed=10)
        identity = CovarianceModel.identity(data.grid.points)
        whitened = fit_functional(data, "flcm", spec, NON_INCREASING, covariance=identity)
        raw = fit_functional(data, "flcm", spec, NON_INCREASING, whiten_fit=False)
        assert whitened.beta1_coefs.tobytes() == raw.beta1_coefs.tobytes()
        assert whitened.beta0_coefs.tobytes() == raw.beta0_coefs.tobytes()

    def test_bivariate_constraint_on_fofr(self):
        rng = np.random.default_rng(11)
        n, m = 30, 15
        pts = np.linspace(0, 1, m)
        grid = Grid(pts)
        tensor = TensorBasisSpec(2, 2)
        from bernfit.basis import fofr_design

        increasing = np.cumsum(np.cumsum(np.ones((3, 3)), axis=0), axis=1)
        x = rng.normal(size=(n, 3)) @ np.vstack([pts**k for k in range(3)])
        basis0 = eval_basis_matrix(pts, BasisSpec(2))
        y = np.vstack(
            [
                basis0 @ np.array([1.0, 2.0, 0.5])
                + fofr_design(x[i], grid, tensor, pts) @ increasing.ravel()
                + 0.2 * rng.standard_normal(m)
                for i in range(n)
            ]
        )
        data = FunctionalDataset(grid=grid, ids=list(range(n)), x_curves=x, y_curves=y)
        fit = fit_functional(data, "fofr", tensor=tensor, shape=bivariate_monotone())
        report = check_shape(fit.beta1_coefs, bivariate_monotone(), tol=1e-8)
        assert report.feasible


class TestSparse:
    def sparse_dataset(self, seed=0, n=120, m=30, frac_missing=0.6):
        rng = np.random.default_rng(seed)
        pts = np.linspace(0, 1, m)
        phi = np.vstack([np.ones(m), np.sqrt(2) * np.cos(np.pi * pts)])
        scores = rng.standard_normal((n, 2)) * np.array([2.0, 1.0])
        x_full = scores @ phi
        x = x_full.copy()
        for i in range(n):
            drop = rng.choice(m, size=int(frac_missing * m), replace=False)
            x[i, drop] = np.nan
        data = FunctionalDataset(
            grid=Grid(pts), ids=list(range(n)), x_curves=x, y_curves=np.zeros((n, m))
        )
        return data, x_full

    def test_dense_passthrough(self):
        data, _, _, _ = make_flcm_dataset(noise=0.1)
        assert reconstruct_sparse(data) is data

    def test_completion_correlates_with_truth(self):
        data, x_full = self.sparse_dataset(seed=1, n=200)
        completed = reconstruct_sparse(data, pve=0.95)
        mask_missing = ~np.isfinite(data.x_curves)
        truth = x_full[mask_missing]
        got = completed.x_curves[mask_missing]
        corr = np.corrcoef(truth, got)[0, 1]
        assert corr >= 0.95

    def test_observed_values_kept(self):
        data, _ = self.sparse_dataset(seed=2)
        completed = reconstruct_sparse(data)
        mask = np.isfinite(data.x_curves)
        assert np.array_equal(completed.x_curves[mask], data.x_curves[mask])

    def test_sparse_fit_uses_observed_rows(self):
        rng = np.random.default_rng(3)
        n, m, order = 60, 25, 2
        pts = np.linspace(0, 1, m)
        basis = eval_basis_matrix(pts, BasisSpec(order))
        b0 = np.array([1.0, 2.0, 1.5])
        b1 = np.array([2.0, 1.0, 0.5])
        x = rng.normal(size=(n, 3)) @ np.vstack([pts**k for k in range(3)])
        y = basis @ b0 + x * (basis @ b1)
        keep = np.zeros((n, m), dtype=bool)
        for i in range(n):
            keep[i, np.sort(rng.choice(m, size=8, replace=False))] = True
        x_sparse = np.where(keep, x, np.nan)
        y_sparse = np.where(keep, y, np.nan)
        data = FunctionalDataset(
            grid=Grid(pts), ids=list(range(n)), x_curves=x_sparse, y_curves=y_sparse
        )
        fit = fit_functional(data, "flcm", BasisSpec(order), NON_INCREASING)
        assert np.abs(fit.beta1_coefs - b1).max() <= 1e-5

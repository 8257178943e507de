"""Tests for functional-response fitting, covariance estimation, and whitening."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import subject_rows

from bernfit import (
    NON_DECREASING,
    NON_INCREASING,
    BasisSpec,
    ConfigError,
    DataError,
    Grid,
    ScenarioSpec,
    bivariate_monotone,
    bootstrap_shape_test,
    check_shape,
    generate_scenario,
    projection_ci,
)
from bernfit.basis import eval_basis_matrix, fofr_design
from bernfit.constraints import build_constraints
from bernfit.dataset import FunctionalDataset
from bernfit.functional import (
    CovarianceModel,
    _dense_covariance,
    _pairwise_covariance,
    _solve_stacked,
    build_design,
    estimate_covariance,
    fit_functional,
    reconstruct_sparse,
)


def unit_nugget(points) -> CovarianceModel:
    """The identity covariance: no components and a unit nugget."""
    pts = np.asarray(points, dtype=float)
    return CovarianceModel(pts, np.empty(0), np.empty((0, pts.size)), nugget=1.0)


def gls_fit(data, model, spec, shape, cov):
    """Coefficients and whitened RSS of the solve on the design whitened with ``cov``."""
    design = build_design(data, model, spec).whitened(cov)
    system = None
    if shape is not None:
        system = build_constraints(shape, spec).padded(design.n_free, design.n_coefs)
    sol = _solve_stacked(design, system)
    return SimpleNamespace(
        beta0_coefs=sol.beta[: design.n_free],
        beta1_coefs=sol.beta[design.n_free :],
        rss_whitened=sol.rss,
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
        assert np.nanmax(np.abs(data.y_curves - fit.predict(data))) <= 1e-6

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
        tensor = BasisSpec(2)
        surface = rng.uniform(0.5, 1.5, size=(3, 3))
        x = rng.normal(size=(n, 3)) @ np.vstack([pts**k for k in range(3)])
        from bernfit.basis import fofr_design

        basis0 = eval_basis_matrix(pts, BasisSpec(2))
        b0 = np.array([0.5, 1.0, 0.2])
        y = np.vstack(
            [basis0 @ b0 + fofr_design(x[i], grid, tensor, pts) @ surface.ravel() for i in range(n)]
        )
        data = FunctionalDataset(grid=grid, ids=list(range(n)), x_curves=x, y_curves=y)
        fit = fit_functional(data, "fofr", tensor, whiten_fit=False)
        assert np.abs(fit.beta1_coefs - surface.ravel()).max() <= 1e-5


class TestStackedDesign:
    @pytest.mark.parametrize("model", ["fosr", "flcm", "flcm-sparse", "fofr"])
    def test_rows_match_per_subject_blocks(self, model):
        # reference: the per-subject blocks [B(t_idx) | W_i] stacked in subject order
        data, spec, _, _ = make_flcm_dataset(n=12, m=15, noise=0.1, seed=7)
        pts = data.grid.points
        data.x_scalar = np.linspace(-1.0, 2.0, data.n_subjects)
        if model == "flcm-sparse":
            keep = np.random.default_rng(8).uniform(size=data.y_curves.shape) < 0.5
            keep[:, :2] = True
            data.y_curves = np.where(keep, data.y_curves, np.nan)
        design = build_design(data, model.split("-")[0], spec)
        basis = eval_basis_matrix(pts, spec)
        blocks, rows = [], []
        for i in range(data.n_subjects):
            idx = np.flatnonzero(np.isfinite(data.y_curves[i]))
            if model == "fosr":
                w = data.x_scalar[i] * basis[idx]
            elif model == "fofr":
                w = fofr_design(data.x_curves[i], data.grid, spec, pts[idx])
            else:
                w = data.x_curves[i, idx, None] * basis[idx]
            blocks.append(np.hstack([basis[idx], w]))
            rows.extend((i, j) for j in idx)
        expected = np.vstack(blocks)
        z = design.rows()
        if model == "fofr":  # its weights come from one batched quadrature
            assert np.abs(z - expected).max() <= 1e-14 * np.abs(expected).max()
        else:
            assert np.array_equal(z, expected)
        assert np.array_equal(np.column_stack(np.nonzero(design.mask)), rows)
        assert np.array_equal(design.y, data.y_curves[design.mask])
        assert design.n_free == spec.n_coefs


@pytest.mark.parametrize(
    "model, spec, covariate, message",
    [
        ("sofr", BasisSpec(3), "x_curves",
         "scalar-on-function regression needs functional covariates"),
        ("fosr", BasisSpec(2), "x_scalar", "fosr needs a scalar predictor per subject"),
        ("flcm", BasisSpec(2), "x_curves", "flcm needs a functional covariate"),
        ("fofr", BasisSpec(2), "x_curves", "fofr needs a functional covariate"),
    ],
)
def test_predict_without_the_covariate_raises_the_fit_data_error(model, spec, covariate, message):
    if model == "sofr":
        data = generate_scenario(ScenarioSpec("A", n=20, seed=1, m=20), 0)
    else:
        data, _, _, _ = make_flcm_dataset(n=15, m=12, noise=0.1)
        data.x_scalar = np.linspace(-1.0, 1.0, data.n_subjects)
    fit = fit_functional(data, model, spec)
    bare = replace(data, **{covariate: None})
    for call in (fit.predict, lambda d: build_design(d, model, spec)):
        with pytest.raises(DataError) as info:
            call(bare)
        assert str(info.value) == message


@pytest.mark.parametrize("model, spec", [("flcm", BasisSpec(2)), ("fofr", BasisSpec(2))])
def test_dataset_without_subjects_is_refused(model, spec):
    data = FunctionalDataset(grid=Grid(np.linspace(0, 1, 5)), ids=[],
                             x_curves=np.zeros((0, 5)), y_curves=np.zeros((0, 5)))
    with pytest.raises(DataError, match="the dataset has no subjects"):
        fit_functional(data, model, spec)


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

    @pytest.mark.parametrize("nugget", [0.0, 0.3, 2.5])
    def test_zero_components_whiten_by_the_floor_alone(self, nugget):
        m = 7
        cov = CovarianceModel(np.linspace(0, 1, m), np.empty(0), np.empty((0, m)), nugget)
        floor = nugget if nugget > 0 else 1e-8
        idx = np.array([[0, 2, 5], [1, 3, 6], [0, 1, 2]])
        expected = np.eye(3) / np.sqrt(floor)
        assert np.array_equal(cov.inverse_sqrt(idx), np.broadcast_to(expected, (3, 3, 3)))
        assert np.array_equal(cov.inverse_sqrt(), np.eye(m) / np.sqrt(floor))

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
        cov = estimate_covariance(data.y_curves - fit.predict(data), data.grid, pve=0.95)
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

    @pytest.mark.parametrize("n, m", [(3, 2), (40, 25), (7, 300), (2000, 200)])
    def test_dense_covariance_is_the_pairwise_formula_bit_for_bit(self, n, m):
        """Fully observed residuals skip the pair counts and the NaN masking; every
        count is n there, so the covariance must keep every bit of the general one."""
        rng = np.random.default_rng(n)
        resid = 3.0 + rng.standard_normal((n, m)) * np.linspace(0.5, 2.0, m)
        for e in (resid, np.asfortranarray(resid), resid[:, ::-1]):
            cov, counts = _pairwise_covariance(e, np.isfinite(e))
            assert np.array_equal(counts, np.full((m, m), float(n)))
            assert np.array_equal(_dense_covariance(e), cov)

    def test_reconstruction_psd(self):
        rng = np.random.default_rng(4)
        resid = rng.standard_normal((60, 15))
        cov = estimate_covariance(resid, Grid(np.linspace(0, 1, 15)))
        mat = cov.matrix()
        assert np.array_equal(mat, mat.T)
        assert np.linalg.eigvalsh(mat).min() >= cov.nugget * (1 - 1e-10)


class TestWhiten:
    def test_identity_covariance_is_noop(self):
        cov = unit_nugget(np.linspace(0, 1, 8))
        block = np.arange(24.0).reshape(8, 3)
        assert np.array_equal(cov.inverse_sqrt() @ block, block)

    def test_scaled_identity_divides(self):
        pts = np.linspace(0, 1, 6)
        cov = CovarianceModel(pts, np.empty(0), np.empty((0, 6)), nugget=4.0)
        vec = np.ones(6)
        assert np.allclose(cov.inverse_sqrt() @ vec, 0.5)

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
        tensor = BasisSpec(6)
        fit = fit_functional(data, "fofr", tensor, bivariate_monotone())
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
        report = check_shape(fit.beta1_coefs, NON_DECREASING, spec=spec)
        assert report.feasible

    def test_whitened_rss_ordering(self):
        data, spec, _, _ = make_flcm_dataset(beta1=[2.0, 1.0, 0.7, 0.1], noise=0.5, seed=9)
        cov_est = fit_functional(data, "flcm", spec, None).covariance
        constrained = gls_fit(data, "flcm", spec, NON_INCREASING, cov_est)
        unconstrained = gls_fit(data, "flcm", spec, None, cov_est)
        assert constrained.rss_whitened >= unconstrained.rss_whitened - 1e-9

    def test_identity_covariance_matches_raw_fit_bitwise(self):
        data, spec, _, _ = make_flcm_dataset(noise=0.3, seed=10)
        identity = unit_nugget(data.grid.points)
        whitened = gls_fit(data, "flcm", spec, NON_INCREASING, identity)
        raw = fit_functional(data, "flcm", spec, NON_INCREASING, whiten_fit=False)
        assert whitened.beta1_coefs.tobytes() == raw.beta1_coefs.tobytes()
        assert whitened.beta0_coefs.tobytes() == raw.beta0_coefs.tobytes()

    def test_bivariate_constraint_on_fofr(self):
        rng = np.random.default_rng(11)
        n, m = 30, 15
        pts = np.linspace(0, 1, m)
        grid = Grid(pts)
        tensor = BasisSpec(2)
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
        fit = fit_functional(data, "fofr", tensor, bivariate_monotone())
        report = check_shape(fit.beta1_coefs, bivariate_monotone(), spec=tensor)
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

    def test_batched_sparse_paths_match_per_subject_loops(self):
        # whitening and score completion batch the subjects that share a count
        # of observed points; the same arithmetic subject by subject is the reference
        data = generate_scenario(ScenarioSpec("B_sparse", n=60, seed=2), 0)
        design = build_design(data, "flcm", BasisSpec(4))
        step1 = fit_functional(data, "flcm", BasisSpec(4), whiten_fit=False)
        cov = estimate_covariance(data.y_curves - step1.predict(data), data.grid)
        assert cov.n_components > 0
        bounds = np.concatenate([[0], np.cumsum(design.mask.sum(axis=1))])
        points = np.nonzero(design.mask)[1]
        assert np.unique(np.diff(bounds)).size > 1
        gram, rhs, yty = 0.0, 0.0, 0.0
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            s = cov.inverse_sqrt(points[lo:hi])
            z_i, y_i = s @ subject_rows(design, i), s @ design.y[lo:hi]
            gram, rhs, yty = gram + z_i.T @ z_i, rhs + z_i.T @ y_i, yty + y_i @ y_i
        for got, want in zip(design.whitened(cov).gram_parts(), (gram, rhs, yty)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        completed = reconstruct_sparse(data).x_curves
        mask = np.isfinite(data.x_curves)
        assert mask.sum(axis=1).min() >= 2 and not mask.all(axis=1).any()
        x_cov = estimate_covariance(data.x_curves, data.grid)
        lam, phi = x_cov.eigenvalues, x_cov.eigenfunctions
        mu = np.nansum(data.x_curves, axis=0) / mask.sum(axis=0)
        for i in range(data.n_subjects):
            idx, missing = np.flatnonzero(mask[i]), np.flatnonzero(~mask[i])
            phi_obs = phi[:, idx]
            sigma = (phi_obs.T * lam) @ phi_obs + (x_cov.nugget + 1e-8) * np.eye(idx.size)
            scores = lam * (phi_obs @ np.linalg.solve(sigma, data.x_curves[i, idx] - mu[idx]))
            ref = mu[missing] + scores @ phi[:, missing]
            assert np.abs(completed[i, missing] - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_sparse_whitening_matches_per_subject_gls(self):
        # on a design whitened with a given covariance the unconstrained fit is the GLS estimate
        # sum_i Z_i' C_i^-1 Z_i beta = sum_i Z_i' C_i^-1 y_i, C_i the covariance
        # restricted to subject i's observed points
        rng = np.random.default_rng(4)
        n, m, order = 50, 20, 3
        pts = np.linspace(0, 1, m)
        basis = eval_basis_matrix(pts, BasisSpec(order))
        x = rng.normal(size=(n, 3)) @ np.vstack([pts**k for k in range(3)])
        y = 1.0 + x * np.cos(pts) + rng.standard_normal((n, m)).cumsum(axis=1) / 4
        keep = np.zeros((n, m), dtype=bool)
        for i in range(n):
            keep[i, np.sort(rng.choice(m, size=int(rng.integers(3, 9)), replace=False))] = True
        data = FunctionalDataset(
            grid=Grid(pts), ids=list(range(n)),
            x_curves=np.where(keep, x, np.nan), y_curves=np.where(keep, y, np.nan),
        )
        w = np.sqrt(np.gradient(pts))  # any smooth functions work for the oracle
        phis = np.vstack([np.ones(m), np.cos(np.pi * pts), pts**2]) / w
        cov = CovarianceModel(pts, np.array([2.0, 0.7, 0.2]), phis, nugget=0.3)
        fit = gls_fit(data, "flcm", BasisSpec(order), None, cov)

        p = 2 * (order + 1)
        lhs, rhs = np.zeros((p, p)), np.zeros(p)
        for i in range(n):
            idx = np.flatnonzero(keep[i])
            z_i = np.hstack([basis[idx], x[i, idx, None] * basis[idx]])
            c_inv = np.linalg.inv(cov.matrix(idx))
            lhs += z_i.T @ c_inv @ z_i
            rhs += z_i.T @ c_inv @ y[i, idx]
        expected = np.linalg.solve(lhs, rhs)
        got = np.concatenate([fit.beta0_coefs, fit.beta1_coefs])
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()

"""Tests for quantile function-on-scalar regression."""

import numpy as np
import pytest

from bernfit import (
    NON_INCREASING,
    BasisSpec,
    ConfigError,
    DataError,
    Grid,
    bivariate_monotone,
    eval_basis_matrix,
    fit_functional,
    fit_qfosr,
    projection_ci,
    qfosr_projection_ci,
    quantile_monotone,
)
from bernfit.dataset import FunctionalDataset
from bernfit.functional import build_design


def quantile_dataset(n=80, m=50, seed=0, slope=-0.2, noise=0.0, n_z=1):
    """Q_i(p) = p + x_i * slope * p (+ optional extra predictors), monotone in p."""
    rng = np.random.default_rng(seed)
    pts = np.linspace(0, 1, m)
    z = rng.uniform(0, 1, size=(n, n_z))
    q = pts[None, :] + z[:, [0]] * slope * pts[None, :]
    if n_z > 1:
        q = q + 0.3 * z[:, [1]] * pts[None, :] ** 2
    q = q + noise * np.abs(rng.standard_normal((n, m))).cumsum(axis=1) / m
    return FunctionalDataset(
        grid=Grid(pts),
        ids=list(range(n)),
        y_curves=q,
        z_scalars=z,
        z_names=[f"v{j}" for j in range(n_z)],
    )


def blocks(fit):
    """qfosr's coefficient blocks, one row per curve: the intercept, then each predictor's."""
    return fit.beta1_coefs.reshape(-1, fit.spec.n_coefs)


def predict_at(fit, z, p):
    """Predicted quantile functions at probabilities ``p`` for each row of predictors ``z``."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    grid = Grid(np.asarray(p, dtype=float))
    return fit.predict(FunctionalDataset(grid=grid, ids=list(range(len(z))), z_scalars=z))


class TestFitQfosr:
    def test_predictions_monotone_everywhere(self):
        data = quantile_dataset(noise=0.02, seed=1)
        fit = fit_functional(data, "qfosr", BasisSpec(4))
        p = np.linspace(0, 1, 200)
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.uniform(0, 1, size=1)
            pred = predict_at(fit, z, p)[0]
            assert np.all(np.diff(pred) >= -1e-10)

    def test_decreasing_predictor_effect_allowed(self):
        # the slope coefficient is negative yet predictions stay monotone
        data = quantile_dataset(slope=-0.2, noise=0.0, seed=3)
        fit = fit_functional(data, "qfosr", BasisSpec(3))
        p = np.linspace(0, 1, 100)
        effect = fit.beta1_fn(p)[1]
        assert effect.mean() < 0
        lo, hi = fit.rescale[0]
        for z in ([lo], [hi], [0.5 * (lo + hi)]):
            pred = predict_at(fit, z, np.linspace(0, 1, 500))[0]
            assert np.all(np.diff(pred) >= -1e-10)

    def test_identical_responses_reproduce_common_curve(self):
        m = 40
        pts = np.linspace(0, 1, m)
        common = 0.5 * pts + pts**2  # monotone and inside the order-5 span
        n = 30
        z = np.random.default_rng(4).uniform(0, 1, size=(n, 1))
        data = FunctionalDataset(
            grid=Grid(pts), ids=list(range(n)), y_curves=np.tile(common, (n, 1)), z_scalars=z
        )
        fit = fit_functional(data, "qfosr", BasisSpec(5), whiten_fit=False)
        assert np.abs(blocks(fit)[1]).max() <= 1e-6
        recovered = fit.beta1_fn(pts)[0]
        assert np.abs(recovered - common).max() <= 1e-6

    def test_decreasing_responses_rejected(self):
        data = quantile_dataset(noise=0.0)
        data.y_curves[3] = data.y_curves[3][::-1].copy()
        with pytest.raises(DataError, match="decreasing"):
            fit_functional(data, "qfosr", BasisSpec(3))

    def test_constant_predictor_rejected(self):
        data = quantile_dataset()
        data.z_scalars[:, 0] = 0.7
        with pytest.raises(DataError, match="constant"):
            fit_functional(data, "qfosr", BasisSpec(3))

    def test_rescale_records_round_trip(self):
        rng = np.random.default_rng(5)
        data = quantile_dataset(seed=6)
        data.z_scalars = data.z_scalars * 40 + 20  # ages, say
        fit = fit_functional(data, "qfosr", BasisSpec(3))
        lo, hi = fit.rescale[0]
        assert lo == pytest.approx(data.z_scalars.min())
        assert hi == pytest.approx(data.z_scalars.max())
        # at its training minimum a predictor adds nothing to the intercept curve
        p = np.linspace(0, 1, 7)
        assert np.allclose(predict_at(fit, [lo], p)[0], fit.beta1_fn(p)[0], atol=1e-12)

    def test_extra_shape_on_predictor_block(self):
        data = quantile_dataset(n=100, slope=-0.3, noise=0.01, seed=7)
        fit = fit_functional(data, "qfosr", BasisSpec(4), {1: NON_INCREASING})
        assert np.all(np.diff(blocks(fit)[1]) <= 1e-8)

    @pytest.mark.parametrize("block", [1, 2])
    @pytest.mark.parametrize("shape", [quantile_monotone(1), bivariate_monotone()])
    def test_extra_shape_must_be_univariate(self, block, shape):
        data = quantile_dataset(n=30, n_z=2, seed=14)
        with pytest.raises(ConfigError, match=f"block {block} must be univariate"):
            fit_functional(data, "qfosr", BasisSpec(3), {block: shape})

    def test_two_predictors_vertex_condition(self):
        data = quantile_dataset(n=120, n_z=2, noise=0.01, seed=8)
        fit = fit_functional(data, "qfosr", BasisSpec(4))
        p = np.linspace(0, 1, 200)
        deriv_basis = eval_basis_matrix(p, BasisSpec(3))
        rng = np.random.default_rng(9)
        vertex_grid = [(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)]
        interior = [tuple(rng.uniform(0, 1, 2)) for _ in range(100)]
        for x in vertex_grid + interior:
            pred_curve = blocks(fit)[0] + np.asarray(x) @ blocks(fit)[1:]
            slope = deriv_basis @ (4 * np.diff(pred_curve))
            assert slope.min() >= -1e-10


class TestQfosrBands:
    def test_band_brackets_effect_and_is_reproducible(self):
        data = quantile_dataset(n=100, slope=-0.25, noise=0.01, seed=12)
        band = projection_ci(data, "qfosr", BasisSpec(3), block=1, draws=150, seed=5)
        again = qfosr_projection_ci(data, BasisSpec(3), block=1, draws=150, seed=5)
        assert band.lower.tobytes() == again.lower.tobytes()
        assert np.all(band.lower <= band.upper)
        # the estimated decreasing effect should be inside its own band mostly
        fit = fit_functional(data, "qfosr", BasisSpec(3))
        effect = fit.beta1_fn(band.grid)[1]
        inside = (band.lower <= effect) & (effect <= band.upper)
        assert inside.mean() >= 0.8

    def test_block_out_of_range(self):
        data = quantile_dataset(seed=13)
        with pytest.raises(ConfigError, match=r"block must be in 0\.\.1"):
            qfosr_projection_ci(data, BasisSpec(3), block=5, draws=100)


class TestPredictQfosr:
    """A qfosr fit predicts one quantile curve per subject on the dataset's grid."""

    def test_fit_qfosr_is_fit_functional_on_qfosr(self):
        data = quantile_dataset(n=40, n_z=2, noise=0.01, seed=15)
        wrapped = fit_qfosr(data, BasisSpec(3), {1: NON_INCREASING}, whiten_fit=False)
        direct = fit_functional(data, "qfosr", BasisSpec(3), {1: NON_INCREASING}, whiten_fit=False)
        assert wrapped.beta1_coefs.tobytes() == direct.beta1_coefs.tobytes()
        assert wrapped.beta0_coefs.size == 0
        assert wrapped.predict(data).shape == data.y_curves.shape

    def test_training_predictions_monotone(self):
        data = quantile_dataset(noise=0.02, seed=10)
        fit = fit_functional(data, "qfosr", BasisSpec(4))
        preds = fit.predict(data)
        assert np.all(np.diff(preds, axis=1) >= -1e-9)

    def test_missing_predictors_rejected(self):
        # no predictors is the fit's own data error; too few is the covariate count's
        data = quantile_dataset(seed=11, n_z=2)
        fit = fit_functional(data, "qfosr", BasisSpec(3))
        bare = FunctionalDataset(grid=data.grid, ids=data.ids, y_curves=data.y_curves)
        with pytest.raises(DataError, match="^quantile regression needs at least one scalar"):
            fit.predict(bare)
        one = FunctionalDataset(grid=data.grid, ids=data.ids, z_scalars=data.z_scalars[:, :1])
        with pytest.raises(DataError, match="^prediction data needs 2 scalar covariates"):
            fit.predict(one)


def _per_subject_drops(y):
    """Largest drop between consecutive observed points, one subject at a time."""
    drops = []
    for row in y:
        seen = row[np.isfinite(row)]
        drops.append(float(np.max(seen[:-1] - seen[1:], initial=0.0)))
    return np.array(drops)


class TestMonotoneResponseCheck:
    """Responses must be non-decreasing across each subject's observed points."""

    @staticmethod
    def _check(y):
        y = np.asarray(y, dtype=float)
        n, m = y.shape
        data = FunctionalDataset(
            grid=Grid(np.linspace(0, 1, m)), ids=[f"s{i}" for i in range(n)], y_curves=y,
            z_scalars=np.arange(n, dtype=float)[:, None],
        )
        build_design(data, "qfosr", BasisSpec(1))

    def test_drop_across_unobserved_points_rejected(self):
        nan = np.nan
        y = [[0.0, 0.2, 0.4, 0.6], [0.0, 0.5, nan, 0.4], [0.1, nan, nan, 0.9]]
        with pytest.raises(DataError, match=r"1 subjects have decreasing .*\['s1'\]"):
            self._check(y)

    def test_unobserved_points_are_not_drops(self):
        nan = np.nan
        self._check([[nan, 0.3, nan, 0.5], [0.0, nan, 0.2, nan], [0.1, 0.1, nan, 0.9]])

    def test_short_subject_reported_before_decreasing_ones(self):
        nan = np.nan
        y = [[0.9, 0.1, 0.0], [0.0, nan, nan], [nan, 0.5, nan], [0.0, 0.5, 1.0]]
        with pytest.raises(DataError, match="subject s1: fewer than 2 observed response points"):
            self._check(y)

    def test_drop_within_tolerance_warns(self):
        with pytest.warns(UserWarning, match="1 subjects have tiny"):
            self._check([[0.0, 0.5, 0.5 - 1e-12], [0.0, 0.5, 1.0]])

    def test_matches_per_subject_reference_on_sparse_curves(self):
        rng = np.random.default_rng(21)
        y = np.cumsum(rng.uniform(-0.05, 1.0, size=(300, 12)), axis=1)
        y[rng.random(y.shape) < 0.5] = np.nan
        y[np.isfinite(y).sum(axis=1) < 2] = np.arange(12.0)
        expected = [f"s{i}" for i in np.flatnonzero(_per_subject_drops(y) > 1e-8)]
        assert expected
        with pytest.raises(DataError) as info:
            self._check(y)
        assert str(info.value) == (
            f"{len(expected)} subjects have decreasing quantile functions: {expected[:10]}"
        )

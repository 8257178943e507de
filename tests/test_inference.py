"""Tests for projection confidence bands and bootstrap shape tests."""

import numpy as np
import pytest

from bernfit import (
    CONVEX,
    NON_DECREASING,
    NON_INCREASING,
    NON_NEGATIVE,
    BasisSpec,
    ConfigError,
    DataError,
    Grid,
    ScenarioSpec,
    bootstrap_shape_test,
    bootstrap_shape_test_functional,
    bootstrap_shape_test_scalar,
    generate_scenario,
    projection_ci,
)
from bernfit.basis import eval_basis_matrix
from bernfit.dataset import FunctionalDataset


def scenario_a(n=60, rep=0, seed=1):
    return generate_scenario(ScenarioSpec("A", n=n, seed=seed), rep)


def scenario_b(n=40, rep=0, seed=2):
    return generate_scenario(ScenarioSpec("B", n=n, seed=seed), rep)


class TestProjectionCi:
    def test_reproducible_with_seed(self):
        data = scenario_a()
        a = projection_ci(data, "sofr", BasisSpec(4), NON_NEGATIVE, draws=150, seed=11)
        b = projection_ci(data, "sofr", BasisSpec(4), NON_NEGATIVE, draws=150, seed=11)
        assert a.lower.tobytes() == b.lower.tobytes()
        assert a.upper.tobytes() == b.upper.tobytes()

    def test_band_orientation_and_level_nesting(self):
        data = scenario_a()
        wide = projection_ci(data, "sofr", BasisSpec(4), NON_NEGATIVE, level=0.95, draws=200, seed=5)
        narrow = projection_ci(data, "sofr", BasisSpec(4), NON_NEGATIVE, level=0.90, draws=200, seed=5)
        assert np.all(wide.lower <= wide.upper)
        assert np.all(wide.lower <= narrow.lower + 1e-12)
        assert np.all(narrow.upper <= wide.upper + 1e-12)

    def test_never_binding_shape_matches_unconstrained_band(self):
        # tiny noise around a strongly positive coefficient: no draw ever
        # violates nonnegativity, so the projection is the identity map
        rng = np.random.default_rng(12)
        n, m, order = 80, 40, 3
        pts = np.linspace(0, 1, m)
        grid = Grid(pts)
        x = rng.normal(size=(n, 4)) @ np.vstack([pts**k for k in range(4)])
        from bernfit.basis import sofr_design

        w = sofr_design(x, grid, BasisSpec(order))
        y = 1.0 + w @ np.array([5.0, 6.0, 7.0, 8.0]) + 1e-4 * rng.standard_normal(n)
        data = FunctionalDataset(grid=grid, ids=list(range(n)), x_curves=x, y_scalar=y)
        constrained = projection_ci(data, "sofr", BasisSpec(order), NON_NEGATIVE, draws=150, seed=3)
        unconstrained = projection_ci(data, "sofr", BasisSpec(order), None, draws=150, seed=3)
        assert constrained.lower.tobytes() == unconstrained.lower.tobytes()
        assert constrained.upper.tobytes() == unconstrained.upper.tobytes()

    def test_functional_band_covers_truth_mostly(self):
        data = scenario_b(n=60)
        band = projection_ci(data, "flcm", BasisSpec(5), NON_INCREASING, draws=150, seed=7)
        truth = data.meta["beta_true"](band.grid)
        covered = (band.lower <= truth) & (truth <= band.upper)
        assert covered.mean() >= 0.8

    def test_eval_grid_override(self):
        data = scenario_a()
        grid = np.linspace(0, 1, 17)
        band = projection_ci(data, "sofr", BasisSpec(4), NON_NEGATIVE, draws=150, seed=2, eval_grid=grid)
        assert band.grid.size == 17

    def test_draw_floor(self):
        data = scenario_a()
        with pytest.raises(ConfigError):
            projection_ci(data, "sofr", BasisSpec(4), NON_NEGATIVE, draws=50)

    def test_functional_coverage_magnitude(self):
        # frozen 25-replication Monte Carlo: coverage 0.877, width 0.150 at
        # this seed, tracking the ~0.92 (0.16) scale reported for the design
        from bernfit import ScenarioSpec, run_benchmark

        table = run_benchmark(
            ScenarioSpec("B", n=100, seed=53, replications=25), mode="coverage", ci_draws=200
        )
        s = table.summary()
        assert 0.82 <= s["coverage_mean"] <= 0.99
        assert 0.10 <= s["width_mean"] <= 0.25


class TestScalarBootstrap:
    def test_feasible_noiseless_null_gives_p_one(self):
        rng = np.random.default_rng(0)
        n, m, order = 50, 40, 3
        pts = np.linspace(0, 1, m)
        grid = Grid(pts)
        x = rng.normal(size=(n, 4)) @ np.vstack([pts**k for k in range(4)])
        from bernfit.basis import sofr_design

        beta = np.array([0.5, 1.0, 1.5, 2.0])  # feasible for non-decreasing
        w = sofr_design(x, grid, BasisSpec(order))
        y = 0.3 + w @ beta
        data = FunctionalDataset(grid=grid, ids=list(range(n)), x_curves=x, y_scalar=y)
        report = bootstrap_shape_test_scalar(data, BasisSpec(order), NON_DECREASING, draws=100, seed=1)
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_statistic_nonnegative_and_p_exact_fraction(self):
        data = scenario_a(n=50)
        report = bootstrap_shape_test_scalar(data, BasisSpec(4), NON_DECREASING, draws=120, seed=4)
        assert report.statistic >= 0.0
        count = int(np.count_nonzero(report.bootstrap_stats >= report.statistic))
        assert report.p_value == count / 120
        assert report.rss_constrained >= report.rss_unconstrained

    def test_seed_reproducibility(self):
        data = scenario_a(n=50)
        a = bootstrap_shape_test_scalar(data, BasisSpec(4), NON_NEGATIVE, draws=100, seed=9)
        b = bootstrap_shape_test_scalar(data, BasisSpec(4), NON_NEGATIVE, draws=100, seed=9)
        assert a.p_value == b.p_value
        assert a.bootstrap_stats.tobytes() == b.bootstrap_stats.tobytes()

    def test_false_null_rejected(self):
        # strongly decreasing truth tested against a non-decreasing null
        rng = np.random.default_rng(5)
        n, m, order = 80, 40, 3
        pts = np.linspace(0, 1, m)
        grid = Grid(pts)
        x = rng.normal(size=(n, 4)) @ np.vstack([pts**k for k in range(4)])
        from bernfit.basis import sofr_design

        w = sofr_design(x, grid, BasisSpec(order))
        y = w @ np.array([3.0, 1.0, -1.0, -3.0]) + 0.01 * rng.standard_normal(n)
        data = FunctionalDataset(grid=grid, ids=list(range(n)), x_curves=x, y_scalar=y)
        report = bootstrap_shape_test_scalar(data, BasisSpec(order), NON_DECREASING, draws=100, seed=2)
        assert report.p_value <= 0.01


class TestFunctionalBootstrap:
    def test_duplicated_curve_feasible_null(self):
        m, order = 30, 3
        pts = np.linspace(0, 1, m)
        basis = eval_basis_matrix(pts, BasisSpec(order))
        curve_x = np.sin(2 * np.pi * pts)
        y = basis @ np.array([1.0, 1.5, 2.0, 2.5]) + curve_x * (basis @ np.array([2.0, 1.5, 1.0, 0.5]))
        n = 20
        data = FunctionalDataset(
            grid=Grid(pts),
            ids=list(range(n)),
            x_curves=np.tile(curve_x, (n, 1)) + 1e-3 * np.random.default_rng(0).standard_normal((n, m)),
            y_curves=np.tile(y, (n, 1)),
        )
        # responses identical and generated under the null: statistic ~ 0
        report = bootstrap_shape_test_functional(
            data, "flcm", BasisSpec(order), NON_INCREASING, draws=100, seed=3
        )
        assert report.statistic <= 1e-8
        assert report.p_value == 1.0

    def test_convex_null_rejected_on_concave_truth(self):
        data = scenario_b(n=25)
        report = bootstrap_shape_test_functional(data, "flcm", BasisSpec(5), CONVEX, draws=100, seed=6)
        assert report.p_value <= 0.01

    def test_true_null_not_rejected_typically(self):
        data = scenario_b(n=50)
        report = bootstrap_shape_test_functional(
            data, "flcm", BasisSpec(5), NON_INCREASING, draws=100, seed=7
        )
        assert report.p_value > 0.05

    def test_true_null_size_magnitude(self):
        # frozen 30-replication Monte Carlo at this seed: rejection rate
        # 0.067 against a truly decreasing coefficient (nominal level 0.05)
        from bernfit import ScenarioSpec, run_benchmark

        table = run_benchmark(
            ScenarioSpec("B", n=50, seed=57, replications=30),
            mode="test",
            test_shape=NON_INCREASING,
            bootstrap_draws=150,
        )
        assert table.summary()["rejection_rate"] <= 0.2

    def test_sparse_responses_rejected(self):
        data = generate_scenario(ScenarioSpec("B_sparse", n=50, seed=4), 0)
        with pytest.raises(DataError):
            bootstrap_shape_test_functional(data, "flcm", BasisSpec(5), NON_INCREASING, draws=100)

    @pytest.mark.parametrize("model", ["sofr", "flcm"])
    def test_every_name_gives_the_same_bits(self, model):
        data = scenario_a(n=50) if model == "sofr" else scenario_b(n=30)
        args = (BasisSpec(4), NON_NEGATIVE if model == "sofr" else NON_INCREASING)
        reports = [
            bootstrap_shape_test(data, model, *args, draws=100, seed=5),
            bootstrap_shape_test_functional(data, model, *args, draws=100, seed=5),
        ]
        if model == "sofr":
            reports.append(bootstrap_shape_test_scalar(data, *args, draws=100, seed=5))
        first = reports[0]
        for report in reports[1:]:
            assert report.bootstrap_stats.tobytes() == first.bootstrap_stats.tobytes()
            assert (report.statistic, report.p_value) == (first.statistic, first.p_value)
            assert report.rss_constrained == first.rss_constrained
            assert report.rss_unconstrained == first.rss_unconstrained

    def test_dispatch(self):
        data = scenario_a(n=50)
        report = bootstrap_shape_test(data, "sofr", BasisSpec(4), NON_NEGATIVE, draws=100, seed=8)
        assert 0.0 <= report.p_value <= 1.0
        with pytest.raises(ConfigError):
            bootstrap_shape_test(data, "mystery", BasisSpec(4), NON_NEGATIVE)


class TestBatchedLoops:
    def test_unshaped_band_factors_no_projector_and_is_the_percentile_band(self, monkeypatch):
        from bernfit import inference
        from bernfit.functional import build_design
        from bernfit.utils import spawn_rng

        data = scenario_b(n=30)
        spec = BasisSpec(4)
        ingredients = inference._stacked_ingredients(build_design(data, "flcm", spec), data, 0.95, True)
        factored = []

        class CountingSolver(inference.ClsqSolver):
            def __init__(self, gram, constraints=None):
                factored.append(constraints)
                super().__init__(gram, constraints)

        monkeypatch.setattr(inference, "ClsqSolver", CountingSolver)
        band = projection_ci(data, "flcm", spec, None, draws=120, seed=4)
        assert factored == [None]  # the unconstrained estimate's solver only
        beta_ur, _, delta_n = ingredients
        factor = inference._normal_factor(delta_n)
        coefs = np.array(
            [beta_ur + factor @ spawn_rng(4, b).standard_normal(beta_ur.size) for b in range(120)]
        )
        curves = coefs[:, spec.n_coefs :] @ eval_basis_matrix(band.grid, spec).T
        np.testing.assert_allclose(band.lower, np.quantile(curves, 0.025, axis=0), rtol=1e-12)
        np.testing.assert_allclose(band.upper, np.quantile(curves, 0.975, axis=0), rtol=1e-12)

    def _projector(self):
        from bernfit import ClsqSolver, build_constraints

        rng = np.random.default_rng(21)
        half = rng.normal(size=(5, 5))
        omega = half @ half.T + 2 * np.eye(5)
        return omega, ClsqSolver(omega, build_constraints(NON_DECREASING, BasisSpec(4)))

    def test_all_feasible_block_is_returned_without_a_solve(self, monkeypatch):
        from bernfit.inference import _project

        omega, projector = self._projector()
        z = np.cumsum(np.random.default_rng(22).uniform(0.1, 1.0, size=(40, 5)), axis=1)
        monkeypatch.setattr(projector, "solve_many", lambda *a: pytest.fail("solved a feasible block"))
        assert _project(z, omega, projector) is z

    def test_all_infeasible_block_matches_row_projections(self):
        from bernfit.inference import _project

        omega, projector = self._projector()
        z = -np.cumsum(np.random.default_rng(23).uniform(0.1, 1.0, size=(40, 5)), axis=1)
        out = _project(z, omega, projector)
        for row, projected in zip(z, out):
            expected = projector.solve(omega @ row).beta
            assert np.abs(projected - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())
            assert np.all(np.diff(projected) >= -1e-8)

    @pytest.mark.parametrize("negative, expected", [(True, np.inf), (False, 0.0)])
    def test_exact_unconstrained_fit_warns_once(self, monkeypatch, negative, expected):
        # a square identity design fits every response exactly (RSS 0); a nonnegativity
        # null then leaves RSS > 0 (T = inf) on a negative response and 0 (T = 0) on a
        # positive one. An exact fit leaves no residuals to resample, so the stub's
        # residuals take the response's sign: every resample keeps the observed T.
        from types import SimpleNamespace
        import warnings

        from bernfit import inference

        p = 5
        sign = -1.0 if negative else 1.0
        y = sign * np.linspace(1.0, 2.0, p)
        design = SimpleNamespace(
            n_subjects=p, n_points=1, n_free=0, n_coefs=p, rows=lambda: np.eye(p),
            gram_parts=lambda: (np.eye(p), y, float(y @ y)), residuals=lambda beta: y[::-1],
            fitted=lambda beta: beta,
        )
        monkeypatch.setattr(inference, "build_design", lambda data, model, spec: design)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = bootstrap_shape_test(None, "sofr", BasisSpec(p - 1), NON_NEGATIVE, 100, 0)
        assert report.statistic == expected
        assert np.all(report.bootstrap_stats == expected)
        assert report.p_value == 1.0
        exact = [w for w in caught if "unconstrained fit is exact" in str(w.message)]
        assert len(exact) == (1 if negative else 0)

    def test_infeasible_null_raises_and_fails_its_replication(self):
        from bernfit import InfeasibleError, combination, fixed_boundaries, run_benchmark

        null = combination(NON_NEGATIVE, fixed_boundaries(-1.0, 1.0))
        with pytest.raises(InfeasibleError):
            bootstrap_shape_test(scenario_b(n=30), "flcm", BasisSpec(4), null, draws=100)
        table = run_benchmark(
            ScenarioSpec("B", n=30, seed=3, replications=2), mode="test", order=4,
            test_shape=null, bootstrap_draws=100,
        )
        assert table.failures == 2

"""Tests for Bernstein basis evaluation and design-matrix construction."""

import re

import numpy as np
import pytest

from bernfit import BasisSpec, ConfigError, DataError, Grid
from bernfit.basis import eval_basis_matrix, fofr_design, sofr_design

from helpers import bernstein_direct


class TestEvalBasis:
    def test_endpoint_left(self):
        spec = BasisSpec(3)
        assert np.array_equal(eval_basis_matrix([0.0], spec)[0], [1.0, 0.0, 0.0, 0.0])

    def test_endpoint_right(self):
        spec = BasisSpec(3)
        assert np.array_equal(eval_basis_matrix([1.0], spec)[0], [0.0, 0.0, 0.0, 1.0])

    def test_midpoint_order_two(self):
        assert np.allclose(eval_basis_matrix([0.5], BasisSpec(2))[0], [0.25, 0.5, 0.25])

    def test_matches_binomial_form(self):
        vals = eval_basis_matrix([0.3], BasisSpec(7))[0]
        assert vals[2] == pytest.approx(bernstein_direct(0.3, 2, 7), abs=1e-14)
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [1, 5, 13, 30])
    def test_partition_of_unity(self, order):
        t = np.linspace(0.0, 1.0, 1000)
        basis = eval_basis_matrix(t, BasisSpec(order))
        assert np.all(basis >= 0.0)
        assert np.abs(basis.sum(axis=1) - 1.0).max() <= 1e-12

    def test_stable_at_high_order(self):
        basis = eval_basis_matrix(np.linspace(0, 1, 200), BasisSpec(50))
        assert np.all(np.isfinite(basis))
        assert np.abs(basis.sum(axis=1) - 1.0).max() <= 1e-11

    def test_domain_mapping(self):
        spec = BasisSpec(2, domain=(2.0, 4.0))
        assert np.allclose(eval_basis_matrix([3.0], spec)[0], [0.25, 0.5, 0.25])

    def test_outside_domain_rejected(self):
        with pytest.raises(DataError):
            eval_basis_matrix([1.5], BasisSpec(2))

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            BasisSpec(-1)
        with pytest.raises(ConfigError):
            BasisSpec(2, domain=(1.0, 1.0))

    @pytest.mark.parametrize("order", [3.0, 2.5, True, np.True_, "3", np.float64(3)],
                             ids=repr)
    def test_order_that_is_no_integer_is_refused(self, order):
        # a float order once passed and ended the fit in a bare TypeError; True fit as 1
        message = f"basis order must be a non-negative integer, got {order!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            BasisSpec(order)

    def test_numpy_integer_order_is_accepted(self):
        assert BasisSpec(np.int64(3)).n_coefs == 4


class TestBasisMatrix:
    def test_two_point_grid_order_one(self):
        mat = eval_basis_matrix(Grid(np.array([0.0, 1.0])), BasisSpec(1))
        assert np.array_equal(mat, [[1.0, 0.0], [0.0, 1.0]])

    def test_three_point_grid_order_two(self):
        mat = eval_basis_matrix(Grid(np.array([0.0, 0.5, 1.0])), BasisSpec(2))
        assert np.allclose(mat, [[1, 0, 0], [0.25, 0.5, 0.25], [0, 0, 1]])

    def test_rows_sum_to_one(self):
        mat = eval_basis_matrix(Grid(np.linspace(0, 1, 40)), BasisSpec(5))
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    def test_grid_validation(self):
        with pytest.raises(DataError):
            Grid(np.array([0.0, 0.5, 0.5]))


class TestSofrDesign:
    def test_constant_curve(self):
        grid = Grid(np.linspace(0, 1, 50))
        curves = np.ones((3, 50))
        for order in (2, 4, 7):
            w = sofr_design(curves, grid, BasisSpec(order))
            assert np.abs(w - 1.0 / (order + 1)).max() < 1e-3

    def test_zero_curve(self):
        grid = Grid(np.linspace(0, 1, 30))
        w = sofr_design(np.zeros((2, 30)), grid, BasisSpec(3))
        assert np.array_equal(w, np.zeros((2, 4)))

    def test_linear_curve_beta_integral(self):
        # exact value: int t b_k(t, N) dt = (k+1) / ((N+1)(N+2))
        grid = Grid(np.linspace(0, 1, 50))
        order = 2
        w = sofr_design(grid.points[None, :], grid, BasisSpec(order))[0]
        exact = (np.arange(order + 1) + 1) / ((order + 1) * (order + 2))
        assert np.abs(w - exact).max() < 1e-3

    def test_quadrature_order_two_convergence(self):
        order = 3
        exact = (np.arange(order + 1) + 1) / ((order + 1) * (order + 2))

        def error(m):
            grid = Grid(np.linspace(0, 1, m))
            w = sofr_design(grid.points[None, :], grid, BasisSpec(order))[0]
            return np.abs(w - exact).max()

        coarse, fine = error(40), error(80)
        assert fine <= coarse / 2.0

    def test_sparse_rows_refused(self):
        # the integral runs over the whole domain, not over a subject's observed points
        grid = Grid(np.linspace(0, 1, 20))
        curves = np.ones((2, 20))
        curves[1, [1, 2, 4, 5, 6]] = np.nan
        with pytest.raises(DataError, match="^integrated covariate curves must be complete"):
            sofr_design(curves, grid, BasisSpec(2))

    def test_single_point_subject_rejected(self):
        grid = Grid(np.linspace(0, 1, 10))
        curves = np.full((1, 10), np.nan)
        curves[0, 3] = 1.0
        with pytest.raises(DataError):
            sofr_design(curves, grid, BasisSpec(2))


class TestFofrDesign:
    def test_zero_curve(self):
        s_grid = Grid(np.linspace(0, 1, 15))
        tensor = BasisSpec(2)
        out = fofr_design(np.zeros(15), s_grid, tensor, np.linspace(0, 1, 4))
        assert np.array_equal(out, np.zeros((4, 9)))

    def test_unit_curve_order_one(self):
        s_grid = Grid(np.linspace(0, 1, 60))
        tensor = BasisSpec(1)
        t_pts = np.array([0.0, 0.5, 1.0])
        out = fofr_design(np.ones(60), s_grid, tensor, t_pts)
        basis_t = eval_basis_matrix(t_pts, BasisSpec(1))
        for k1 in range(2):
            for k2 in range(2):
                assert np.abs(out[:, 2 * k1 + k2] - 0.5 * basis_t[:, k2]).max() < 1e-3

    def test_linear_curve_k1_major_ordering(self):
        s_grid = Grid(np.linspace(0, 1, 200))
        tensor = BasisSpec(1)
        out = fofr_design(s_grid.points, s_grid, tensor, np.array([0.5]))
        expected = np.array([1 / 6, 1 / 6, 2 / 6, 2 / 6]) * 0.5
        assert np.abs(out[0] - expected).max() < 1e-3

"""Bernstein polynomial bases and regression design matrices.

All evaluation happens on [0, 1]; inputs on a general interval [a, b] are
affinely mapped on the way in. Basis values are computed with the de
Casteljau recurrence, which stays stable for orders well beyond what the
closed binomial form tolerates. One ``BasisSpec`` serves every model: a
coefficient surface (fofr) lives on its tensor square, with ``(order + 1) ** 2``
coefficients stacked k1-major.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, is_integer


@dataclass(frozen=True)
class BasisSpec:
    """Bernstein basis of a given order over a closed interval."""

    order: int
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not is_integer(self.order) or self.order < 0:
            raise ConfigError(f"basis order must be a non-negative integer, got {self.order!r}")
        a, b = self.domain
        if not a < b:
            raise ConfigError(f"domain must satisfy a < b, got [{a}, {b}]")

    @property
    def n_coefs(self) -> int:
        return self.order + 1


@dataclass(frozen=True)
class Grid:
    """Strictly increasing evaluation points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size == 0:
            raise DataError("grid points must be a non-empty 1-d array")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise DataError("grid points must be strictly increasing")

    @property
    def n_points(self) -> int:
        return self.points.size


def map_to_unit(t, domain: tuple[float, float]) -> np.ndarray:
    """Affinely map values from ``domain`` onto [0, 1], rejecting outliers."""
    a, b = domain
    u = (np.asarray(t, dtype=float) - a) / (b - a)
    # allow a whisker of roundoff from the affine map itself
    if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
        raise DataError(f"evaluation points outside the basis domain [{a}, {b}]")
    return np.clip(u, 0.0, 1.0)


def _bernstein_matrix(u: np.ndarray, order: int) -> np.ndarray:
    """All order-``order`` Bernstein values at unit-interval points ``u``.

    de Casteljau recurrence: row j holds b_0(u_j),...,b_order(u_j).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.zeros((u.size, order + 1))
    out[:, 0] = 1.0
    one_minus = 1.0 - u
    for j in range(1, order + 1):
        out[:, 1 : j + 1] = u[:, None] * out[:, :j] + one_minus[:, None] * out[:, 1 : j + 1]
        out[:, 0] *= one_minus
    return out


def eval_basis_matrix(grid, spec: BasisSpec) -> np.ndarray:
    """Matrix with row j equal to (b_0(t_j), ..., b_N(t_j)) at the points of ``grid``."""
    pts = grid.points if isinstance(grid, Grid) else np.asarray(grid, dtype=float)
    u = map_to_unit(pts, spec.domain)
    return _bernstein_matrix(u, spec.order)


def quadrature_weights(points: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for the given (increasing) points."""
    points = np.asarray(points, dtype=float)
    if points.size < 2:
        raise DataError("quadrature needs at least 2 points")
    w = np.zeros_like(points)
    gaps = np.diff(points)
    w[:-1] += gaps / 2.0
    w[1:] += gaps / 2.0
    return w


def sofr_design(curves: np.ndarray, grid: Grid, spec: BasisSpec) -> np.ndarray:
    """Row i holds the trapezoid approximations of int X_i(t) b_k(t) dt.

    ``curves`` is (n, m) and must be finite at every grid point: the integral
    runs over the whole domain, so sparse curves are completed first
    (``reconstruct_sparse``).
    """
    x = np.asarray(curves, dtype=float)
    if x.ndim != 2:
        raise DataError("curves must be a 2-d array (subjects x grid)")
    pts = grid.points
    if x.shape[1] != pts.size:
        raise DataError("curve columns do not match the grid")
    basis = eval_basis_matrix(grid, spec)
    if not np.isfinite(x).all():
        raise DataError("integrated covariate curves must be complete; complete the curves first")
    return (x * quadrature_weights(pts)) @ basis


def fofr_design(
    x_curve: np.ndarray,
    s_grid: Grid,
    spec: BasisSpec,
    t_points: np.ndarray,
) -> np.ndarray:
    """Design matrix for a coefficient surface on the tensor square of ``spec``.

    Column (k1, k2) at output row j is ``[trapezoid int X_i(s) b_k1(s) ds] * b_k2(t_j)``,
    at index ``k1 * (order + 1) + k2`` (k1-major).
    """
    weights = sofr_design(np.atleast_2d(x_curve), s_grid, spec)[0]
    basis_t = eval_basis_matrix(np.asarray(t_points, dtype=float), spec)
    return np.einsum("k,jl->jkl", weights, basis_t).reshape(basis_t.shape[0], -1)

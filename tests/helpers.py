"""Shared independent oracles for the test suite.

These deliberately avoid the library's own solution paths: closed-form
integrals, brute-force enumeration, finite differences, and grid search.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import nnls

from bernfit import FunctionalDataset, Grid


def bernstein_direct(t: float, k: int, order: int) -> float:
    """Closed binomial form C(N,k) t^k (1-t)^(N-k)."""
    return math.comb(order, k) * t**k * (1.0 - t) ** (order - k)


def enumerate_clsq(z: np.ndarray, y: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exhaustive active-set enumeration for min ||z beta - y||^2 s.t. a beta >= b.

    Solves the equality-constrained problem for every subset of rows, keeps
    candidates that are primal feasible with nonnegative multipliers, and
    returns the feasible candidate with the smallest objective.

    The consistency and multiplier cuts are relative to the size of the terms
    they compare. At a degenerate vertex (more tight rows than the rows' rank)
    the multipliers are not unique and the least-squares ones can be negative,
    so the multiplier cut asks whether any nonnegative multipliers meet
    stationarity (a small NNLS fit on the subset's rows, not the solver's
    least-distance dual). The feasibility cut stays absolute: scaling it admits
    slightly infeasible candidates whose objective undercuts the optimum.
    """
    n_rows = a.shape[0]
    p = z.shape[1]
    gram = z.T @ z
    rhs = z.T @ y
    best = None
    best_obj = np.inf
    for r in range(n_rows + 1):
        for subset in itertools.combinations(range(n_rows), r):
            idx = list(subset)
            a_sub = a[idx]
            size = p + len(idx)
            kkt = np.zeros((size, size))
            kkt[:p, :p] = gram
            kkt[:p, p:] = -a_sub.T
            kkt[p:, :p] = a_sub
            target = np.concatenate([rhs, b[idx]])
            try:
                sol, residuals, rank, _ = np.linalg.lstsq(kkt, target, rcond=None)
            except np.linalg.LinAlgError:
                continue
            beta = sol[:p]
            kkt_scale = 1.0 + np.abs(kkt).max() * np.abs(sol).max() + np.abs(target).max()
            if np.abs(kkt @ sol - target).max(initial=0.0) > 1e-9 * kkt_scale:
                continue  # inconsistent equality system for this subset
            if (a @ beta - b).min(initial=0.0) < -1e-9:
                continue
            if idx:
                gradient = gram @ beta - rhs
                stat_scale = 1.0 + np.abs(gram).max() * np.abs(beta).max() + np.abs(rhs).max()
                if nnls(a_sub.T, gradient)[1] > 1e-9 * stat_scale:
                    continue  # no nonnegative multipliers
            obj = float(np.sum((z @ beta - y) ** 2))
            if obj < best_obj - 1e-12:
                best_obj = obj
                best = beta
    assert best is not None, "enumeration found no feasible candidate"
    return best


def grid_search_projection_2d(
    z: np.ndarray, omega: np.ndarray, a: np.ndarray, b: np.ndarray, lo: float, hi: float, step: float
) -> np.ndarray:
    """Brute-force 2-d weighted projection by scanning a lattice."""
    grid = np.arange(lo, hi + step, step)
    g0, g1 = np.meshgrid(grid, grid, indexing="ij")
    points = np.column_stack([g0.ravel(), g1.ravel()])
    feasible = np.all(points @ a.T - b >= 0.0, axis=1)
    points = points[feasible]
    diffs = points - z
    values = np.einsum("ij,jk,ik->i", diffs, omega, diffs)
    return points[int(np.argmin(values))]



def _cross_moment_oracle(u_j, u_l, n: int, m: int) -> np.ndarray:
    """M_jl = sum_i u_ij u_il' as the library made it before it kept these moments."""
    if u_j is None:
        return np.full((m, m), float(n)) if u_l is None else np.broadcast_to(
            u_l.sum(axis=0), (m, m))
    return u_j.T @ u_l


def dense_moments_oracle(design) -> tuple:
    """Z'WZ, Z'Wy and y'Wy of a dense design with curves, made as the library made
    them when every call recomputed every product: y times an identity weight on
    a raw design, and every cross moment M_jl afresh. The library's
    ``gram_parts`` must equal this bit for bit."""
    n, m = design.n_subjects, design.n_points
    if design.cov is None:
        w = np.eye(m)
    else:
        s = design.cov.inverse_sqrt()
        w = s.T @ s
    b = design.basis
    y = design.y.reshape(n, m)
    wy = y @ w
    yty = float(np.vdot(y, wy))
    if design.x.ndim == 2:
        u = np.hstack([np.ones((n, 1)), design.x])
        gram = np.kron(u.T @ u, b.T @ w @ b)
        rhs = (b.T @ (wy.T @ u)).T.ravel()
        return gram, rhs, yty
    u = [None, *np.moveaxis(design.x, -1, 0)]
    k = b.shape[1]
    gram = np.empty((len(u) * k, len(u) * k))
    rhs = np.empty(len(u) * k)
    for j, u_j in enumerate(u):
        block_j = slice(j * k, (j + 1) * k)
        rhs[block_j] = b.T @ (wy if u_j is None else u_j * wy).sum(axis=0)
        for l in range(j, len(u)):
            block = b.T @ (w * _cross_moment_oracle(u_j, u[l], n, m)) @ b
            gram[block_j, l * k : (l + 1) * k] = block
            gram[l * k : (l + 1) * k, block_j] = block.T
    return gram, rhs, yty


def subject_rows(design, i: int) -> np.ndarray:
    """Subject i's design rows, one kron([1, x_it], b_t) per observed point t in
    order, built point by point from the design's x, basis and mask: the rows
    ``StackedDesign.rows`` stacks for that subject, bit for bit."""
    points = np.flatnonzero(design.mask[i])
    x = [design.x[i] if design.x.ndim == 2 else design.x[i, t] for t in points]
    return np.array([np.kron(np.concatenate([[1.0], x_t]), design.basis[t])
                     for x_t, t in zip(x, points)])


def quantile_data() -> FunctionalDataset:
    """40 nondecreasing quantile curves on 15 points with two scalar predictors."""
    rng = np.random.default_rng(4)
    pts = np.linspace(0.0, 1.0, 15)
    z = rng.uniform(0.0, 1.0, size=(40, 2))
    q = pts * (1.0 - 0.2 * z[:, [0]]) + 0.3 * z[:, [1]] * pts**2
    q = q + 0.02 * np.abs(rng.standard_normal(q.shape)).cumsum(axis=1) / pts.size
    return FunctionalDataset(grid=Grid(pts), ids=list(range(40)), y_curves=q, z_scalars=z)


def band_draws_oracle(data, model, spec, shape, draws, seed, pve=0.95, whiten_fit=True):
    """A band's projected draws as the library made them with one generator per
    draw: ``spawn_rng(seed, b)``'s normals through ``factor @`` one draw at a
    time, and ``omega @ z[j]`` row by row for the rows the projection moves."""
    from bernfit.clsq import ClsqSolver
    from bernfit.functional import build_design, shape_system
    from bernfit.inference import _normal_factor, _stacked_ingredients
    from bernfit.utils import spawn_rng

    design = build_design(data, model, spec)
    constraints = shape_system(model, spec, shape, design)
    beta_ur, omega, delta_n = _stacked_ingredients(design, data, pve, whiten_fit)
    factor = _normal_factor(delta_n)
    z = np.empty((draws, beta_ur.size))
    for b in range(draws):
        z[b] = beta_ur + factor @ spawn_rng(seed, b).standard_normal(beta_ur.size)
    if constraints is None:
        return design, z
    projector = ClsqSolver(omega, constraints)
    rows = np.flatnonzero(constraints.violations(z).max(axis=1, initial=0.0) > 0.0)
    if rows.size:
        z[rows] = projector._solve_rows(np.array([omega @ z[j] for j in rows]))[0]
    return design, z


def bootstrap_moments_oracle(data, model, spec, shape_null, draws, seed):
    """Every resample's (Z'y*, y*'y*) with the picks of ``spawn_rng(seed, b)``,
    one generator per draw, and the two solvers the test factors."""
    from bernfit.clsq import ClsqSolver
    from bernfit.functional import build_design, shape_system
    from bernfit.utils import spawn_rng

    design = build_design(data, model, spec)
    constraints = shape_system(model, spec, shape_null, design)
    gram, rhs, yty = design.gram_parts()
    solver_u, solver_c = ClsqSolver(gram, None), ClsqSolver(gram, constraints)
    n, m = design.n_subjects, design.n_points
    residuals = design.residuals(solver_u.solve(rhs, yty).beta).reshape(n, m)
    fitted = design.fitted(solver_c.solve(rhs, yty).beta).reshape(n, m)
    zt = design.rows().reshape(n, m, design.n_coefs)
    rhs_star = np.empty((draws, rhs.size))
    yty_star = np.empty(draws)
    for b in range(draws):
        pick = spawn_rng(seed, b).integers(0, n, size=n)
        if m == 1:
            y_star = fitted[:, 0] + residuals[pick, 0]
            rhs_star[b], yty_star[b] = zt[:, 0].T @ y_star, float(y_star @ y_star)
            continue
        rhs_b = np.zeros(design.n_coefs)
        yty_b = 0.0
        for i in range(n):
            y_star = fitted[i] + residuals[pick[i]]
            rhs_b += zt[i].T @ y_star
            yty_b += float(y_star @ y_star)
        rhs_star[b], yty_star[b] = rhs_b, yty_b
    return rhs_star, yty_star, solver_u, solver_c

"""Shared independent oracles for the test suite.

These deliberately avoid the library's own solution paths: closed-form
integrals, brute-force enumeration, finite differences, and grid search.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import nnls


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


def central_difference(fn, t: float, h: float = 1e-5) -> float:
    return (fn(t + h) - fn(t - h)) / (2.0 * h)

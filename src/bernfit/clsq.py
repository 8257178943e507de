"""Linearly constrained least squares.

The solver is a dual active-set method: the problem is reduced through the
Cholesky factor of the Gram matrix to a least-distance program, which is
solved by nonnegative least squares on its dual. Constraint multipliers fall
out of the dual solution, so KKT certificates come for free. Everything is
deterministic: ties in the dual pivoting resolve to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .constraints import ConstraintSystem
from .errors import InfeasibleError, NumericalError

FEASIBILITY_TOL = 1e-8

# The per-solve systems are 2 to ~60 columns wide, where the argument checks of
# scipy.linalg.solve_triangular and np.linalg.lstsq cost more than the LAPACK
# work itself, so the solver calls the two routines it needs directly.
_trtrs, _gels = get_lapack_funcs(("trtrs", "gels"), (np.empty(0),))

# squared NNLS residual below which the least-distance program counts as
# infeasible (its solution would exceed 1e10 in norm)
_ZERO_RESIDUAL2 = 1e-20


@dataclass(frozen=True)
class QpProblem:
    """Least-squares problem in normal-equation form, plus constraints.

    ``gram`` and ``rhs`` are Z'Z and Z'y; ``yty`` is y'y, needed to report
    objective values. ``ridge`` adds a Tikhonov term ridge * ||beta||^2.
    """

    gram: np.ndarray
    rhs: np.ndarray
    yty: float
    n_rows: int
    constraints: ConstraintSystem | None = None
    ridge: float = 0.0

    @classmethod
    def from_design(cls, z, y, constraints=None, ridge: float = 0.0) -> "QpProblem":
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if z.ndim != 2 or z.shape[0] != y.size:
            raise ValueError("design and response dimensions do not agree")
        if constraints is not None and constraints.coef_len != z.shape[1]:
            raise ValueError("constraint width does not match the design")
        return cls(z.T @ z, z.T @ y, float(y @ y), z.shape[0], constraints, ridge)


@dataclass
class QpSolution:
    beta: np.ndarray
    active_set: np.ndarray
    multipliers: np.ndarray
    objective: float
    rss: float
    kkt_residual: float
    ridge: float
    iterations: int


def _passive_lstsq(e: np.ndarray, f: np.ndarray, idx: np.ndarray, tol: float) -> np.ndarray | None:
    """Least-squares coefficients of f on the columns idx of e, by QR.

    None when those columns are numerically dependent: more columns than rows,
    or a diagonal entry of R within tol of zero.
    """
    if idx.size > e.shape[0]:
        return None
    qr, sol, info = _gels(e[:, idx], f, overwrite_a=1)
    if info != 0 or np.abs(np.diagonal(qr)).min() <= tol:
        return None
    return sol[: idx.size]


def _nnls(e: np.ndarray, f: np.ndarray, max_iter: int) -> tuple[np.ndarray, int]:
    """Lawson-Hanson nonnegative least squares: min ||e x - f||, x >= 0.

    As in Lawson and Hanson's NNLS, a column that would enter the passive set
    numerically dependent on it, or with a nonpositive coefficient (both only
    through roundoff), is set aside until the iterate next moves.
    """
    m, n = e.shape
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    set_aside = np.zeros(n, dtype=bool)
    grad_tol = 10.0 * np.finfo(float).eps * max(m, n) * max(np.abs(e).sum(axis=0).max(), 1.0)
    w = e.T @ f
    iters = 0
    while True:
        candidates = np.where(passive | set_aside, -np.inf, w)
        j = int(np.argmax(candidates))
        if candidates[j] <= grad_tol:
            return x, iters
        passive[j] = True
        entering = True
        while True:
            iters += 1
            if iters > max_iter:
                raise NumericalError(
                    f"nonnegative least squares failed to converge in {max_iter} iterations",
                    last_iterate=x,
                )
            idx = np.flatnonzero(passive)
            sol = _passive_lstsq(e, f, idx, grad_tol)
            if entering and (sol is None or sol[np.searchsorted(idx, j)] <= 0.0):
                passive[j] = False
                set_aside[j] = True
                break
            if sol is None:  # a subset of independent columns; only roundoff gets here
                raise NumericalError(
                    "nonnegative least squares lost the independence of its passive set",
                    last_iterate=x,
                )
            entering = False
            if sol.min(initial=np.inf) > 0.0:
                x = np.zeros(n)
                x[idx] = sol
                set_aside[:] = False
                break
            s_full = np.zeros(n)
            s_full[idx] = sol
            shrink = idx[sol <= 0.0]
            steps = x[shrink] / (x[shrink] - s_full[shrink])
            alpha = float(steps.min())
            x = x + alpha * (s_full - x)
            released = passive & (x <= 1e-14 * max(1.0, np.abs(x).max()))
            x[released] = 0.0
            passive[released] = False
        r = f - e @ x
        if r @ r <= _ZERO_RESIDUAL2:  # f is reached; the gradient below is roundoff
            return x, iters
        w = e.T @ r


def _ldp(g: np.ndarray, h: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Least distance program: min ||u|| subject to g @ u >= h.

    Returns the minimizer, the constraint multipliers, and the iteration
    count. Raises InfeasibleError when the polyhedron is (numerically) empty.
    """
    n_rows, p = g.shape
    # Fortran order, so that the column subsets handed to LAPACK need no copy
    e = np.empty((p + 1, n_rows), order="F")
    e[:p] = g.T
    e[p] = h
    f = np.zeros(p + 1)
    f[-1] = 1.0
    x, iters = _nnls(e, f, max_iter)
    r = e @ x - f
    rnorm2 = float(r @ r)
    if rnorm2 <= _ZERO_RESIDUAL2:
        raise InfeasibleError(
            "constraint system is infeasible (or its solution exceeds 1e10 in norm)",
            certificate=np.flatnonzero(x > 0),
        )
    u = -r[:p] / r[-1]
    lam = x / rnorm2
    return u, lam, iters


class ClsqSolver:
    """Factored constrained least-squares solver, reusable across responses.

    The Gram matrix and the constraint geometry are factored once; ``solve``
    then costs one triangular solve plus the dual iteration. This is the
    workhorse for bootstrap loops where only the response changes.
    """

    def __init__(
        self,
        gram: np.ndarray,
        constraints: ConstraintSystem | None = None,
        ridge: float = 0.0,
        tol: float = FEASIBILITY_TOL,
    ):
        gram = np.asarray(gram, dtype=float)
        gram = 0.5 * (gram + gram.T)
        p = gram.shape[0]
        trace = float(np.trace(gram))
        self.tol = float(tol)
        self.ridge = float(ridge)
        if p:
            min_eig = float(np.linalg.eigvalsh(gram).min())
            # auto-regularize near-singular Gram matrices and record the bump
            if min_eig < 1e-10 * max(trace, 1e-300):
                self.ridge = max(self.ridge, 1e-8 * trace if trace > 0 else 1e-8)
        self.gram = gram
        h = gram + self.ridge * np.eye(p)
        try:
            self._chol = np.linalg.cholesky(h)
        except np.linalg.LinAlgError as exc:  # indefinite input; the ridge only lifts PSD ones
            raise NumericalError(f"Gram matrix is not positive definite: {exc}") from None
        self.constraints = constraints
        self._has_equality = False
        if constraints is not None and constraints.n_rows > 0:
            eq = constraints.equality
            self._has_equality = bool(eq.any())
            # feasibility and activity are judged to tol * (1 + max|b|)
            self._scale = 1.0 + float(np.abs(constraints.b).max())
            a_ext = np.vstack([constraints.a, -constraints.a[eq]])
            b_ext = np.concatenate([constraints.b, -constraints.b[eq]])
            # ext row -> (original row, sign); equality rows appear with both signs
            self._row_map = np.concatenate([np.arange(constraints.n_rows), np.flatnonzero(eq)])
            self._row_sign = np.concatenate(
                [np.ones(constraints.n_rows), -np.ones(int(eq.sum()))]
            )
            self._a_ext = a_ext
            self._b_ext = b_ext
            self._g_ext = self._tri_solve(a_ext.T, 1).T
            self.max_iter = 50 * (p + a_ext.shape[0])
        else:
            self._a_ext = None
            self.max_iter = 50 * max(p, 1)

    def _tri_solve(self, v: np.ndarray, trans: int) -> np.ndarray:
        """Solve L x = v (trans=1) or L' x = v (trans=0) for the Cholesky factor L.

        One trtrs call on the Fortran-ordered L', which is the call
        scipy.linalg.solve_triangular makes for a C-ordered L, without its checks.
        """
        x, info = _trtrs(self._chol.T, v, lower=0, trans=trans)
        if info != 0:
            raise NumericalError(f"triangular solve failed (LAPACK info {info})")
        return x

    def _unconstrained(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = self._tri_solve(rhs, 1)
        return self._tri_solve(w, 0), w

    def _objective_parts(self, beta: np.ndarray, rhs: np.ndarray, yty: float) -> tuple[float, float]:
        rss = float(beta @ self.gram @ beta - 2.0 * rhs @ beta + yty)
        rss = max(rss, 0.0)
        return rss + self.ridge * float(beta @ beta), rss

    def _finish(
        self,
        beta: np.ndarray,
        mult: np.ndarray,
        rhs: np.ndarray,
        yty: float,
        iterations: int,
    ) -> tuple[QpSolution, bool]:
        """Solution record, and whether beta meets A beta >= b to the scaled tolerance."""
        cons = self.constraints
        objective, rss = self._objective_parts(beta, rhs, yty)
        feasible = True
        if cons is not None and cons.n_rows > 0:
            resid = cons.a @ beta - cons.b
            active = np.flatnonzero(np.abs(resid) <= self.tol * self._scale)
            violation = np.where(cons.equality, np.abs(resid), -resid) if self._has_equality else -resid
            feasible = float(violation.max()) <= self.tol * self._scale
            # stationarity in the scaling 2 Z'(Z beta - y) + 2 ridge beta = A' lambda
            stat = 2.0 * (self.gram @ beta - rhs + self.ridge * beta) - cons.a.T @ (2.0 * mult)
            multipliers = 2.0 * mult
        else:
            active = np.empty(0, dtype=int)
            multipliers = np.empty(0)
            stat = 2.0 * (self.gram @ beta - rhs + self.ridge * beta)
        kkt = float(np.abs(stat).max(initial=0.0))
        solution = QpSolution(
            beta=beta,
            active_set=active,
            multipliers=multipliers,
            objective=objective,
            rss=rss,
            kkt_residual=kkt,
            ridge=self.ridge,
            iterations=iterations,
        )
        return solution, feasible

    def _fold_multipliers(self, lam_ext: np.ndarray) -> np.ndarray:
        if not self._has_equality:  # the extended rows are the original rows
            return lam_ext
        mult = np.zeros(self.constraints.n_rows)
        np.add.at(mult, self._row_map, self._row_sign * lam_ext)
        return mult

    def _polish(self, lam_ext: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """Re-solve on the dual's active rows for a machine-precision KKT point.

        ``solve`` calls this only when the point mapped back from the LDP misses
        the KKT tolerance or violates A beta >= b, which takes an ill-conditioned
        Cholesky factor. On the benchmark's paper-size Monte Carlo and n=2000
        workloads that never happens (0 of 7579 solves in one pass of each), but
        the auto-ridged order-6 tensor Gram of a bivariate_monotone FOFR fit
        needs it to pass the 1e-8 shape certificate.
        """
        act = np.flatnonzero(lam_ext > 0)
        p = self.gram.shape[0]
        a_act = self._a_ext[act]
        size = p + act.size
        kkt = np.zeros((size, size))
        kkt[:p, :p] = self.gram + self.ridge * np.eye(p)
        kkt[:p, p:] = -a_act.T
        kkt[p:, :p] = a_act
        target = np.concatenate([rhs, self._b_ext[act]])
        sol, *_ = np.linalg.lstsq(kkt, target, rcond=None)
        beta, lam_act = sol[:p], sol[p:]
        slack = self._a_ext @ beta - self._b_ext
        if slack.min(initial=0.0) < -self.tol * self._scale or lam_act.min(initial=0.0) < -self.tol:
            return None
        lam_full = np.zeros(self._a_ext.shape[0])
        lam_full[act] = np.maximum(lam_act, 0.0)
        return beta, lam_full

    def solve(self, rhs: np.ndarray, yty: float = 0.0) -> QpSolution:
        rhs = np.asarray(rhs, dtype=float).ravel()
        beta_u, w = self._unconstrained(rhs)
        cons = self.constraints
        if cons is None or cons.n_rows == 0:
            return self._finish(beta_u, np.empty(0), rhs, yty, 0)[0]
        slack_u = self._a_ext @ beta_u - self._b_ext
        if slack_u.min(initial=0.0) >= 0.0:
            return self._finish(beta_u, np.zeros(cons.n_rows), rhs, yty, 0)[0]
        h = self._b_ext - self._g_ext @ w
        u, lam_ext, iters = _ldp(self._g_ext, h, self.max_iter)
        beta = self._tri_solve(u + w, 0)
        mult = self._fold_multipliers(lam_ext)
        sol, feasible = self._finish(beta, mult, rhs, yty, iters)
        tol_kkt = self.tol * (1.0 + float(np.abs(rhs).max(initial=0.0)))
        # an ill-conditioned factor can leave the mapped-back LDP point outside
        # the polyhedron; the KKT re-solve on the dual's active rows restores it
        if sol.kkt_residual > tol_kkt or not feasible:
            polished = self._polish(lam_ext, rhs)
            if polished is not None:
                beta_p, lam_p = polished
                mult_p = self._fold_multipliers(lam_p)
                candidate, candidate_feasible = self._finish(beta_p, mult_p, rhs, yty, iters)
                if candidate.kkt_residual < sol.kkt_residual or not feasible:
                    sol, feasible = candidate, candidate_feasible
            if not feasible:
                raise NumericalError(
                    f"constrained solve violates its constraints by more than {self.tol:.1e}",
                    last_iterate=sol.beta,
                )
            if sol.kkt_residual > tol_kkt * 100.0:
                raise NumericalError(
                    f"constrained solve left a KKT residual of {sol.kkt_residual:.3e}",
                    last_iterate=sol.beta,
                )
        return sol


def solve_clsq(problem: QpProblem, tol: float = FEASIBILITY_TOL) -> QpSolution:
    """Solve one constrained least-squares problem.

    The solution satisfies A beta >= b - tol (1 + max|b|) componentwise
    (equality rows to the same tolerance; otherwise NumericalError is
    raised), has nonnegative multipliers on active inequalities, and
    certifies stationarity through its KKT residual.
    """
    solver = ClsqSolver(problem.gram, problem.constraints, problem.ridge, tol=tol)
    return solver.solve(problem.rhs, problem.yty)

"""Linearly constrained least squares.

The solver is a dual method: the problem is reduced through the Cholesky
factor of the Gram matrix to a least-distance program, whose dual is a
nonnegative least-squares problem solved by SciPy's compiled Lawson-Hanson
NNLS. Constraint multipliers fall out of the dual solution, so KKT
certificates come for free. Everything is deterministic: the same inputs give
the same bits.

Only ``scipy.linalg`` is imported with the module. ``scipy.optimize`` takes
about a quarter of a second to import and many solves never reach the dual
(an unconstrained fit, or a feasible unconstrained minimizer), so ``_nnls``
imports it at the first dual solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .constraints import ConstraintSystem
from .errors import InfeasibleError, NumericalError

FEASIBILITY_TOL = 1e-8

# The per-solve systems are 2 to ~60 columns wide, where the argument checks of
# scipy.linalg.solve_triangular cost more than the LAPACK work itself, so the
# solver calls trtrs directly.
_trtrs = get_lapack_funcs("trtrs", (np.empty(0),))

# squared NNLS residual below which the least-distance program counts as
# infeasible (its solution would exceed 1e10 in norm)
_ZERO_RESIDUAL2 = 1e-20


@dataclass
class QpSolution:
    """A constrained least-squares solution and its KKT certificate.

    ``iterations`` is the number of positive dual variables (the active rows of
    the least-distance program), and 0 when no dual solve ran because the
    unconstrained minimizer was already feasible.
    """

    beta: np.ndarray
    active_set: np.ndarray
    multipliers: np.ndarray
    objective: float
    rss: float
    kkt_residual: float
    ridge: float
    iterations: int


def _nnls(e: np.ndarray, f: np.ndarray, max_iter: int) -> np.ndarray:
    """min ||e x - f|| subject to x >= 0, by SciPy's Lawson-Hanson NNLS."""
    from scipy.optimize import nnls

    try:
        return nnls(e, f, maxiter=max_iter)[0]
    except (RuntimeError, ValueError) as exc:  # iteration limit, or non-finite input
        raise NumericalError(f"nonnegative least squares failed: {exc}") from None


def _ldp(g: np.ndarray, h: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Least distance program: min ||u|| subject to g @ u >= h.

    Returns the minimizer, the constraint multipliers, and the number of
    positive dual variables. The minimizer is None when roundoff in a
    degenerate dual leaves a residual that cannot be mapped back (at an exact
    NNLS solution r[-1] = -||r||^2 < 0). Raises InfeasibleError when the
    polyhedron is (numerically) empty and NumericalError when the dual does not
    converge.
    """
    p = g.shape[1]
    e = np.vstack([g.T, h])
    f = np.zeros(p + 1)
    f[-1] = 1.0
    x = _nnls(e, f, max_iter)
    r = e @ x - f
    rnorm2 = float(r @ r)
    if rnorm2 <= _ZERO_RESIDUAL2:
        raise InfeasibleError(
            "constraint system is infeasible (or its solution exceeds 1e10 in norm)",
            certificate=np.flatnonzero(x > 0),
        )
    u = -r[:p] / r[-1] if r[-1] < 0.0 else None
    return u, x / rnorm2, int(np.count_nonzero(x))


class ClsqSolver:
    """Factored constrained least-squares solver, reusable across responses.

    The Gram matrix and the constraint geometry are factored once; ``solve``
    then costs one triangular solve plus the dual iteration. This is the
    workhorse for bootstrap loops where only the response changes.
    """

    def __init__(self, gram: np.ndarray, constraints: ConstraintSystem | None = None):
        gram = np.asarray(gram, dtype=float)
        gram = 0.5 * (gram + gram.T)
        p = gram.shape[0]
        trace = float(np.trace(gram))
        self.ridge = 0.0
        if p:
            min_eig = float(np.linalg.eigvalsh(gram).min())
            # auto-regularize near-singular Gram matrices and record the bump
            if min_eig < 1e-10 * max(trace, 1e-300):
                self.ridge = 1e-8 * trace if trace > 0 else 1e-8
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
            # feasibility and activity are judged to FEASIBILITY_TOL * (1 + max|b|)
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
            active = np.flatnonzero(np.abs(resid) <= FEASIBILITY_TOL * self._scale)
            violation = np.where(cons.equality, np.abs(resid), -resid) if self._has_equality else -resid
            feasible = float(violation.max()) <= FEASIBILITY_TOL * self._scale
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

        The active rows are solved as equalities for beta; nonnegative
        multipliers are then fitted to the stationarity equations by NNLS.
        ``solve`` calls this only when the point mapped back from the LDP misses
        the KKT tolerance or violates A beta >= b. On the benchmark's paper-size
        Monte Carlo and n=2000 workloads that never happens (0 of 7012 solves in
        one pass of each). An ill-conditioned Cholesky factor causes it: the
        auto-ridged order-6 tensor Gram of a bivariate_monotone FOFR fit needs
        the polish to pass the 1e-8 shape certificate. So does a degenerate
        dual, where rows that are tight at every feasible point make the
        multipliers non-unique and let NNLS return them at 1e12, with a
        mapped-back point far outside the polyhedron or with no point to map
        back at all.
        """
        act = np.flatnonzero(lam_ext > 0)
        p = self.gram.shape[0]
        a_act = self._a_ext[act]
        gram_r = self.gram + self.ridge * np.eye(p)
        kkt = np.block([[gram_r, -a_act.T], [a_act, np.zeros((act.size, act.size))]])
        target = np.concatenate([rhs, self._b_ext[act]])
        beta = np.linalg.lstsq(kkt, target, rcond=None)[0][:p]
        slack = self._a_ext @ beta - self._b_ext
        if slack.min(initial=0.0) < -FEASIBILITY_TOL * self._scale:
            return None
        lam_full = np.zeros(self._a_ext.shape[0])
        lam_full[act] = _nnls(a_act.T, gram_r @ beta - rhs, self.max_iter)
        return beta, lam_full

    def solve(self, rhs: np.ndarray, yty: float = 0.0) -> QpSolution:
        """Minimize beta' G beta - 2 rhs' beta + yty subject to the constraints.

        With G = Z'Z, rhs = Z'y and yty = y'y this is min ||Z beta - y||^2. The
        solution satisfies A beta >= b - FEASIBILITY_TOL (1 + max|b|)
        componentwise (equality rows to the same tolerance; otherwise
        NumericalError is raised), has nonnegative multipliers on active
        inequalities, and certifies stationarity through its KKT residual.
        """
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
        sol, feasible = None, False
        if u is not None:
            beta = self._tri_solve(u + w, 0)
            sol, feasible = self._finish(beta, self._fold_multipliers(lam_ext), rhs, yty, iters)
        tol_kkt = FEASIBILITY_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0)))
        # an ill-conditioned factor or a degenerate dual can leave the mapped-back
        # LDP point outside the polyhedron, or leave none; the KKT re-solve on the
        # dual's active rows restores it
        if sol is None or sol.kkt_residual > tol_kkt or not feasible:
            polished = self._polish(lam_ext, rhs)
            if polished is not None:
                beta_p, lam_p = polished
                mult_p = self._fold_multipliers(lam_p)
                candidate, candidate_feasible = self._finish(beta_p, mult_p, rhs, yty, iters)
                if not feasible or candidate.kkt_residual < sol.kkt_residual:
                    sol, feasible = candidate, candidate_feasible
            if not feasible:
                raise NumericalError(
                    "constrained solve violates its constraints by more than "
                    f"{FEASIBILITY_TOL:.1e}",
                    last_iterate=None if sol is None else sol.beta,
                )
            if sol.kkt_residual > tol_kkt * 100.0:
                raise NumericalError(
                    f"constrained solve left a KKT residual of {sol.kkt_residual:.3e}",
                    last_iterate=sol.beta,
                )
        return sol


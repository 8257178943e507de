"""Linearly constrained least squares.

The solver is a dual method: the problem is reduced through the Cholesky
factor of the Gram matrix to a least-distance program, whose dual is a
nonnegative least-squares problem solved by SciPy's compiled Lawson-Hanson
NNLS. Constraint multipliers fall out of the dual solution, so KKT
certificates come for free. Everything is deterministic: the same inputs give
the same bits.

``ClsqSolver.solve_many`` solves a block of right-hand sides against one
factorization, as the band's draws and the bootstrap's resamples need: every
unconstrained minimizer first, one product to find the infeasible ones, and
the dual only for those. ``solve`` is its one-row case with the full
certificate.

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
    then costs two triangular solves plus the dual iteration, and
    ``solve_many`` takes a whole block of responses in one call. This is the
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
        """Unconstrained minimizers of the rows of ``rhs`` and their half-solves L^{-1} rhs.

        One trtrs call per row, so every row gets the bits of a single solve: a
        multi-column solve rounds differently in the last bit. It is also
        cheaper when OpenBLAS runs on two threads (about 15 us per column
        against 2 us per call at p=12 on two cores); on one thread the
        multi-column call would be about 2 us per row cheaper.
        """
        w = np.empty_like(rhs)
        beta = np.empty_like(rhs)
        for j, r in enumerate(rhs):
            w[j] = self._tri_solve(r, 1)
            beta[j] = self._tri_solve(w[j], 0)
        return beta, w

    def _rss(self, beta: np.ndarray, rhs: np.ndarray, yty: float) -> float:
        return max(float(beta @ self.gram @ beta - 2.0 * rhs @ beta + yty), 0.0)

    def _kkt(self, beta: np.ndarray, mult: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """KKT residual of each row of ``beta`` with its multipliers (one value for 1-d input).

        The products run on columns, so a one-row block gives the bits of the
        matrix-vector products of a single solve.
        """
        # stationarity in the scaling 2 Z'(Z beta - y) + 2 ridge beta = A' lambda
        stat = 2.0 * (self.gram @ beta.T - rhs.T + self.ridge * beta.T)
        if self._a_ext is not None:
            stat = stat - self.constraints.a.T @ (2.0 * mult.T)
        return np.abs(stat).max(axis=0, initial=0.0)

    def _slack(self, beta: np.ndarray) -> np.ndarray:
        """Smallest slack in A beta >= b of each row of ``beta``; an equality row
        appears with both signs, so it contributes -|A beta - b|."""
        return (beta @ self._a_ext.T - self._b_ext).min(axis=-1)

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
        ``_dual`` calls this only when the point mapped back from the LDP misses
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
        if self._slack(beta) < -FEASIBILITY_TOL * self._scale:
            return None
        lam_full = np.zeros(self._a_ext.shape[0])
        lam_full[act] = _nnls(a_act.T, gram_r @ beta - rhs, self.max_iter)
        return beta, lam_full

    def _dual(self, rows, beta, w, rhs, mult, iters) -> np.ndarray:
        """Constrained solutions of the given rows, whose unconstrained minimizers
        are infeasible; fills their rows of ``beta``, ``mult`` and ``iters`` and
        returns their KKT residuals.

        Each row's least-distance dual is solved and mapped back; the mapped-back
        points are then certified together, and only a row that misses the
        feasibility or the KKT tolerance is polished.
        """
        lam_ext = []
        for j in rows:
            u, lam, iters[j] = _ldp(self._g_ext, self._b_ext - self._g_ext @ w[j], self.max_iter)
            lam_ext.append(lam)
            mult[j] = self._fold_multipliers(lam)
            # a dual with no point to map back leaves NaN, which fails both checks
            beta[j] = np.nan if u is None else self._tri_solve(u + w[j], 0)
        beta_rows, rhs_rows = beta[rows], rhs[rows]
        kkt = self._kkt(beta_rows, mult[rows], rhs_rows)
        feasible = self._slack(beta_rows) >= -FEASIBILITY_TOL * self._scale
        tol_kkt = FEASIBILITY_TOL * (1.0 + np.abs(rhs_rows).max(axis=1))
        # an ill-conditioned factor or a degenerate dual can leave the mapped-back
        # LDP point outside the polyhedron, or leave none; the KKT re-solve on the
        # dual's active rows restores it
        for i in (~feasible | (kkt > tol_kkt)).nonzero()[0]:
            j = rows[i]
            polished = self._polish(lam_ext[i], rhs[j])
            if polished is not None:
                beta_p, lam_p = polished
                mult_p = self._fold_multipliers(lam_p)
                kkt_p = self._kkt(beta_p, mult_p, rhs[j])
                if not feasible[i] or kkt_p < kkt[i]:
                    beta[j], mult[j], kkt[i] = beta_p, mult_p, kkt_p
                    feasible[i] = self._slack(beta_p) >= -FEASIBILITY_TOL * self._scale
            if not feasible[i]:
                raise NumericalError(
                    "constrained solve violates its constraints by more than "
                    f"{FEASIBILITY_TOL:.1e}",
                    last_iterate=None if np.isnan(beta[j]).any() else beta[j].copy(),
                )
            if kkt[i] > tol_kkt[i] * 100.0:
                raise NumericalError(
                    f"constrained solve left a KKT residual of {kkt[i]:.3e}",
                    last_iterate=beta[j].copy(),
                )
        return kkt

    def _solve_rows(self, rhs: np.ndarray) -> tuple:
        """Solutions of every row of ``rhs``, with their multipliers, dual sizes and
        the KKT residuals of the rows that went through the dual (None if none did).

        Every unconstrained minimizer comes first; one product with the extended
        constraint rows then finds the infeasible ones, and only those go
        through the dual.
        """
        k = rhs.shape[0]
        beta, w = self._unconstrained(rhs)
        mult = np.zeros((k, 0 if self.constraints is None else self.constraints.n_rows))
        iters = np.zeros(k, dtype=int)
        kkt = None
        if self._a_ext is not None:
            rows = (self._slack(beta) < 0.0).nonzero()[0]
            if rows.size:
                kkt = self._dual(rows, beta, w, rhs, mult, iters)
        return beta, mult, iters, kkt

    def solve_many(self, rhs: np.ndarray, yty=0.0) -> tuple[np.ndarray, np.ndarray]:
        """``solve`` for every row of a (k, p) block of right-hand sides.

        ``yty`` is one value per row, or one for all. Returns the (k, p)
        solutions and the (k,) residual sums of squares that k calls of
        ``solve`` give, and raises what they raise (an infeasible system raises
        InfeasibleError before any row's NumericalError).
        """
        rhs = np.array(rhs, dtype=float, ndmin=2)
        yty = np.broadcast_to(np.asarray(yty, dtype=float), rhs.shape[:1])
        beta = self._solve_rows(rhs)[0]
        rss = np.array([self._rss(b, r, y) for b, r, y in zip(beta, rhs, yty)])
        return beta, rss

    def solve(self, rhs: np.ndarray, yty: float = 0.0) -> QpSolution:
        """Minimize beta' G beta - 2 rhs' beta + yty subject to the constraints.

        With G = Z'Z, rhs = Z'y and yty = y'y this is min ||Z beta - y||^2. The
        solution satisfies A beta >= b - FEASIBILITY_TOL (1 + max|b|)
        componentwise (equality rows to the same tolerance; otherwise
        NumericalError is raised), has nonnegative multipliers on active
        inequalities, and certifies stationarity through its KKT residual.
        This is the one-row case of ``solve_many``, with the full record.
        """
        rhs = np.asarray(rhs, dtype=float).ravel()
        beta, mult, iters, kkt = self._solve_rows(rhs[None])
        beta, mult = beta[0], mult[0]
        kkt = self._kkt(beta, mult, rhs) if kkt is None else kkt[0]
        rss = self._rss(beta, rhs, yty)
        active = np.empty(0, dtype=int)
        if self._a_ext is not None:
            resid = self.constraints.a @ beta - self.constraints.b
            active = (np.abs(resid) <= FEASIBILITY_TOL * self._scale).nonzero()[0]
        return QpSolution(
            beta=beta,
            active_set=active,
            multipliers=2.0 * mult,
            objective=rss + self.ridge * float(beta @ beta),
            rss=rss,
            kkt_residual=float(kkt),
            ridge=self.ridge,
            iterations=int(iters[0]),
        )

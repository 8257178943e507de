"""Linearly constrained least squares.

The solver is a dual method: the problem is reduced through the Cholesky
factor of the Gram matrix to a least-distance program, whose dual is a
nonnegative least-squares problem (Lawson and Hanson, Solving Least Squares
Problems, ch. 23). ``_nnls`` solves a whole stack of those duals at once by
Lawson and Hanson's active-set algorithm in NumPy, with Householder-QR
subproblems. Constraint multipliers fall out of the dual solution, so KKT
certificates come for free. Everything is deterministic: the same inputs give
the same bits, and a row's bits do not depend on the block it came in.

``ClsqSolver.solve_many`` solves a block of right-hand sides against one
factorization, as the band's draws and the bootstrap's resamples need: every
unconstrained minimizer first, one product to find the infeasible ones, and
one stacked dual solve for those. ``solve`` is its one-row case with the full
certificate.

The module imports numpy and ``scipy.linalg`` only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .constraints import FEASIBILITY_TOL, ConstraintSystem
from .errors import InfeasibleError, NumericalError

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


def _lsq(cols: np.ndarray, rows: np.ndarray, passive: np.ndarray, entering=None, test=True) -> tuple:
    """Least squares of f on the passive columns of each of the problems ``rows``,
    and on the column ``entering[i]`` after them when given; ``cols[j]`` holds
    problem j's columns as rows, f last, and ``passive`` the rows' passive sets.

    Problems whose column sets have one size share one stacked Householder QR
    of [e_P f], which gives R and Q'f together, and one stacked solve. With
    ``test``, each column is tested for independence from the ones before it
    by LH's rule: its diagonal must not be lost against the norm of its part
    in their span. A dependent column is left out of the solve. Returns the
    coefficients scattered into full-width rows, the residuals f - e_P z, and
    whether the entering column (without one, every column) is independent.
    """
    m = cols.shape[2]
    z = np.zeros(passive.shape)
    resid = cols[rows, -1]  # f, the residual of no columns
    independent = np.ones(rows.size, dtype=bool)
    sizes = passive.sum(axis=1)
    if entering is not None:
        sizes += 1
    one = sizes.size == 1  # one problem: one group, and no grouping work
    for size in sizes if one else np.unique(sizes):
        group = _FIRST if one else (sizes == size).nonzero()[0]
        if size == 0 or size > m:  # no columns, or too many to be independent
            independent[group] = size == 0
            continue
        idx = np.full((group.size, size + 1), -1)
        idx[:, : size - (entering is not None)] = passive[group].nonzero()[1].reshape(group.size, -1)
        if entering is not None:
            idx[:, size - 1] = entering[group]
        a = cols[rows[group, None], idx]
        r = np.linalg.qr(a.transpose(0, 2, 1), mode="r")
        if test:
            # R is upper triangular: a column's squares above its diagonal are
            # its column sum of squares less the diagonal's
            sq = r[:, :size, :size] ** 2
            diag2 = sq.diagonal(0, 1, 2)
            unorm = np.sqrt(np.maximum(sq.sum(axis=1) - diag2, 0.0))
            dependent = unorm + 0.01 * np.sqrt(diag2) == unorm
            if dependent.any():
                at = dependent.nonzero()
                r[at[0], at[1], at[1]] = 1.0
                r[at[0], at[1], size] = 0.0
                dependent = dependent[:, -1] if entering is not None else dependent.any(axis=1)
                independent[group] = ~dependent
        try:
            z_g = np.linalg.solve(r[:, :size, :size], r[:, :size, size:]).transpose(0, 2, 1)
        except np.linalg.LinAlgError:  # an exactly zero diagonal in a passive set
            raise NumericalError("nonnegative least squares failed: singular subproblem") from None
        z[group[:, None], idx[:, :size]] = z_g[:, 0]
        resid[group] = a[:, size] - (z_g @ a[:, :size])[:, 0]
    return z, resid, independent


_FIRST = np.zeros(1, dtype=np.intp)  # the index of a one-problem group
_FIRST.setflags(write=False)
_EPS = np.finfo(float).eps


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v * v).sum(axis=1))


def _rounding(abs_cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The scale of the rounding in each problem's computed residual f - e x,
    eps || |f| + |e| |x| ||, where ``abs_cols`` holds |e| and |f| as ``_nnls``'s
    ``cols`` holds e and f. The worst case is (n + 1) times larger; this
    typical scale still grows with the coefficients, which is what tells a
    step on nearly dependent columns from a step that lowers the residual by
    little."""
    n = x.shape[1]
    size = abs_cols[:, n] + (np.abs(x)[:, None, :] @ abs_cols[:, :n])[:, 0]
    return _EPS * _norms(size)


def _nnls(e: np.ndarray, f: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """min ||e[j] x - f[j]|| subject to x >= 0 for every problem j of a (k, m, n) stack.

    Lawson and Hanson's active-set algorithm (Solving Least Squares Problems,
    ch. 23) with every problem advancing in lockstep, as in Van Benthem and
    Keenan's FC-NNLS (J. Chemometrics 18, 2004). The start, like theirs, is
    the positive part of a least-squares solution, here on the columns of
    positive dual value at x = 0 (for a least-distance dual, the violated
    rows). Each step then moves into every unfinished problem's passive set
    the column of largest positive dual value e_j'r that is independent of
    the passive columns and gets a positive coefficient, and steps back
    toward the last iterate until every passive coefficient is positive; a
    problem with no such column is solved. Each least-squares subproblem is
    solved afresh by Householder QR, for all problems with the same
    passive-set size at once; every LAPACK call sees one problem, so a
    problem's bits do not depend on the stack it came in. The residual norms
    are those of the computed iterates, whose coefficients can be far from
    exact on nearly dependent columns. Returns the (k, n) solutions and their
    (k, m) residuals f - e x. Raises NumericalError on non-finite input and
    when a problem needs more than ``max_iter`` subproblem solves.
    """
    k, m, n = e.shape
    if n == 0:  # no columns (a polish with no active rows): x is empty
        return np.zeros((k, 0)), np.array(f, dtype=float)
    # the unfinished problems, compacted whenever some finish: their ids, columns
    # as rows (f last) and their absolute values, iterates, residuals and their
    # norms, passive sets and subproblem counts
    ids = np.arange(k)
    cols = np.empty((k, n + 1, m))
    cols[:, :n] = e.transpose(0, 2, 1)
    cols[:, n] = f
    if not np.isfinite(cols).all():
        raise NumericalError("nonnegative least squares failed: non-finite input")
    abs_cols = np.abs(cols)
    guess = (cols[:, :n] @ f[:, :, None])[..., 0] > 0.0
    z, resid, independent = _lsq(cols, ids, guess)
    rnorm = _norms(resid)
    # a start that does not lower the residual beyond its rounding came from
    # nearly dependent columns, and the problem starts at 0 instead
    usable = independent & (rnorm + _rounding(abs_cols, z) < _norms(f))
    passive = guess & usable[:, None] & (z > 0.0)
    x = np.where(passive, z, 0.0)
    solves = np.ones(k, dtype=int)
    # the problems whose start dropped columns are solved again; z solves the others
    rows = (passive != guess).any(axis=1).nonzero()[0]
    if rows.size:
        z, resid[rows], _ = _lsq(cols, rows, passive[rows], test=False)
        solves[rows] += 1
    _check_solves(solves, max_iter)
    last = None
    while True:
        # the rows whose residual moved: step back toward the last iterate until
        # every passive coefficient is positive
        moved = rows
        while rows.size:
            low = passive[rows] & (z <= 0.0)
            stepped = low.any(axis=1)
            if not stepped.any():
                x[rows] = z
                break
            x[rows[~stepped]] = z[~stepped]
            rows, z, low = rows[stepped], z[stepped], low[stepped]
            xr = x[rows]
            ratio = np.full(low.shape, np.inf)
            ratio[low] = xr[low] / (xr[low] - z[low])
            xr += ratio.min(axis=1)[:, None] * (z - xr)
            xr[np.arange(rows.size), ratio.argmin(axis=1)] = 0.0
            keep = passive[rows] & (xr > 0.0)
            passive[rows] = keep
            x[rows] = np.where(keep, xr, 0.0)
            z, resid[rows], _ = _lsq(cols, rows, keep, test=False)
            solves[rows] += 1
            _check_solves(solves, max_iter)
        if moved.size:
            rnorm[moved] = _norms(resid[moved])
        stalled = False
        if last is not None:  # the start is not a step
            # every step lowers the residual in exact arithmetic; one that does
            # not lower it beyond its rounding followed rounding noise (a dual
            # value of 0 computed as positive, as at the zero residual of an
            # infeasible least-distance program, or a column dependent on the
            # passive ones to rounding), and the problem ends at its last iterate
            stalled = rnorm + _rounding(abs_cols, x) >= last[2]
            if stalled.any():
                x[stalled], resid[stalled], rnorm[stalled] = (v[stalled] for v in last)
        dual = (cols[:, :n] @ resid[:, :, None])[..., 0]
        dual[passive] = 0.0
        best = dual.argmax(axis=1)
        done = stalled | (dual[np.arange(ids.size), best] <= 0.0)
        if done.all():
            if ids.size == k:  # nothing finished before
                return x, resid
            out[ids], out_resid[ids] = x, resid
            return out, out_resid
        if done.any():
            if ids.size == k:
                out, out_resid = np.zeros((k, n)), np.empty((k, m))
            out[ids[done]], out_resid[ids[done]] = x[done], resid[done]
            going = (~done).nonzero()[0]
            ids, cols, abs_cols, x, resid = (v[going] for v in (ids, cols, abs_cols, x, resid))
            rnorm, passive, solves, dual, best = (v[going] for v in (rnorm, passive, solves, dual, best))
        last = x.copy(), resid.copy(), rnorm.copy()
        # candidates in order of dual value, until one enters or none is left
        z = np.zeros(x.shape)
        todo = np.arange(ids.size)
        entered = np.zeros(ids.size, dtype=bool)
        while True:
            z_t, r_t, independent = _lsq(cols, todo, passive[todo], best)
            solves[todo] += 1
            _check_solves(solves, max_iter)
            ok = independent & (z_t[np.arange(todo.size), best] > 0.0)
            if ok.all():  # the common case, without the bookkeeping of the rest
                passive[todo, best] = True
                entered[todo] = True
                z[todo], resid[todo] = z_t, r_t
                break
            passive[todo[ok], best[ok]] = True
            entered[todo[ok]] = True
            z[todo[ok]], resid[todo[ok]] = z_t[ok], r_t[ok]
            todo, best = todo[~ok], best[~ok]
            dual[todo, best] = 0.0
            best = dual[todo].argmax(axis=1)
            todo, best = todo[dual[todo, best] > 0.0], best[dual[todo, best] > 0.0]
            if not todo.size:
                break
        # a problem where no candidate entered keeps its residual, so the descent
        # rule ends it
        rows = entered.nonzero()[0]
        z = z[rows]


def _check_solves(solves: np.ndarray, max_iter: int) -> None:
    if solves.max() > max_iter:
        raise NumericalError(
            f"nonnegative least squares failed: more than {max_iter} subproblems"
        )


def _ldp(g: np.ndarray, h: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least distance programs: min ||u|| subject to g @ u >= h[j], for each row j of ``h``.

    All the duals are solved in one ``_nnls`` call. Returns the (k, p)
    minimizers, the (k, m) constraint multipliers, and the number of positive
    dual variables of each program. A minimizer row is NaN when roundoff in a
    degenerate dual leaves a residual r = f - e x that cannot be mapped back
    (at an exact NNLS solution r[-1] = ||r||^2 > 0). Raises InfeasibleError
    when the polyhedron is (numerically) empty and NumericalError when a dual
    does not converge.
    """
    k, p = h.shape[0], g.shape[1]
    e = np.empty((k, p + 1, g.shape[0]))
    e[:, :p] = g.T
    e[:, p] = h
    f = np.zeros((k, p + 1))
    f[:, p] = 1.0
    x, r = _nnls(e, f, max_iter)  # r = f - e x
    rnorm2 = (r * r).sum(axis=1)
    empty = rnorm2 <= _ZERO_RESIDUAL2
    if empty.any():
        raise InfeasibleError(
            "constraint system is infeasible (or its solution exceeds 1e10 in norm)",
            certificate=np.flatnonzero(x[empty.argmax()] > 0),
        )
    u = np.divide(r[:, :p], -r[:, p:], out=np.full((k, p), np.nan), where=r[:, p:] > 0.0)
    return u, x / rnorm2[:, None], (x > 0.0).sum(axis=1)


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
            # the equality rows, which the extended rows hold with both signs
            self._eq_rows = np.flatnonzero(eq)
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
        """Multipliers of the original rows from those of the extended rows (last axis)."""
        if not self._has_equality:  # the extended rows are the original rows
            return lam_ext
        mult = lam_ext[..., : self.constraints.n_rows].copy()
        mult[..., self._eq_rows] -= lam_ext[..., self.constraints.n_rows :]
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
        lam_full[act] = _nnls(a_act.T[None], (gram_r @ beta - rhs)[None], self.max_iter)[0][0]
        return beta, lam_full

    def _dual(self, rows, beta, w, rhs, mult, iters) -> np.ndarray:
        """Constrained solutions of the given rows, whose unconstrained minimizers
        are infeasible; fills their rows of ``beta``, ``mult`` and ``iters`` and
        returns their KKT residuals.

        The rows' least-distance duals are solved together and mapped back; the
        mapped-back points are then certified together, and only a row that
        misses the feasibility or the KKT tolerance is polished.
        """
        w_rows, rhs_rows = w[rows], rhs[rows]
        # h_j = b - G w_j as one matrix-vector product per row, like a single solve's
        h = self._b_ext - (self._g_ext @ w_rows[:, :, None])[..., 0]
        u, lam_ext, iters[rows] = _ldp(self._g_ext, h, self.max_iter)
        mult_rows = self._fold_multipliers(lam_ext)
        # a dual with no point to map back leaves NaN, which fails both checks; one
        # trtrs call per row, as in _unconstrained
        beta_rows = np.array([self._tri_solve(v, 0) for v in u + w_rows])
        kkt = self._kkt(beta_rows, mult_rows, rhs_rows)
        feasible = self._slack(beta_rows) >= -FEASIBILITY_TOL * self._scale
        tol_kkt = FEASIBILITY_TOL * (1.0 + np.abs(rhs_rows).max(axis=1))
        # an ill-conditioned factor or a degenerate dual can leave the mapped-back
        # LDP point outside the polyhedron, or leave none; the KKT re-solve on the
        # dual's active rows restores it
        for i in (~feasible | (kkt > tol_kkt)).nonzero()[0]:
            polished = self._polish(lam_ext[i], rhs_rows[i])
            if polished is not None:
                beta_p, lam_p = polished
                mult_p = self._fold_multipliers(lam_p)
                kkt_p = self._kkt(beta_p, mult_p, rhs_rows[i])
                if not feasible[i] or kkt_p < kkt[i]:
                    beta_rows[i], mult_rows[i], kkt[i] = beta_p, mult_p, kkt_p
                    feasible[i] = self._slack(beta_p) >= -FEASIBILITY_TOL * self._scale
            if not feasible[i]:
                raise NumericalError(
                    "constrained solve violates its constraints by more than "
                    f"{FEASIBILITY_TOL:.1e}",
                    last_iterate=None if np.isnan(beta_rows[i]).any() else beta_rows[i].copy(),
                )
            if kkt[i] > tol_kkt[i] * 100.0:
                raise NumericalError(
                    f"constrained solve left a KKT residual of {kkt[i]:.3e}",
                    last_iterate=beta_rows[i].copy(),
                )
        beta[rows], mult[rows] = beta_rows, mult_rows
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

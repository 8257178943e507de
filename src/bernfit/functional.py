"""Stacked least-squares regression: every model, through one design, fit and record.

Every model is least squares over a row-stacked design (``StackedDesign``):
one row kron([1, x], b(t)) per observed (subject, point) pair, with x = x_i
(FOSR), x_i(t) (FLCM), the integrals of x_i against the basis (FOFR, whose
slope then lives on the basis's tensor square) or qfosr's scalar predictors
min-max rescaled to [0, 1]. SOFR is FOFR's row on one point with b = 1, its
scalar confounders beside the intercept. ``build_design`` and
``FunctionalFit.predict`` take x and b from one covariate map, so a prediction
is its design row times the coefficients. The design keeps that map, not its
rows: its fitted values Z beta come from the map by the function that
``predict`` runs, so residuals build no rows. Rows are built only for a sparse
design's moments and, in the inference module, for the bootstrap's draws.

Fitting is a two-step procedure. Step 1 solves the unconstrained stacked
least-squares problem and estimates the residual covariance by functional
PCA with a white-noise nugget. Step 2 pre-whitens each subject's rows with
S, the inverse square root of that covariance, and solves the constrained
generalized least-squares problem, with the shape acting on the slope
coefficient block only (on qfosr's whole stack). Only the moments of the
whitened rows are needed: a dense design takes them from its covariate map and
W = S'S (``StackedDesign.gram_parts``), a sparse design whitens its rows
subject by subject. A one-point design (sofr) is never whitened. A dense design
makes its data-sized covariate cross moments once, in step 1, and its whitened
copy reuses them, so step 2 adds only the product y W and O(m^2 k) per
coefficient block.

``_two_step`` runs both steps; asked, it also returns step 1's unconstrained
solve as a fit of its own, so the Monte Carlo study's two arms need one design
and one raw Gram per replication.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BasisSpec, Grid, eval_basis_matrix, quadrature_weights, sofr_design
from .clsq import ClsqSolver, QpSolution
from .constraints import MODELS, ShapeSpec, build_constraints, check_model, qfosr_constraints
from .dataset import FunctionalDataset
from .errors import DataError

# added to the nugget of each subject's observed covariance in reconstruct_sparse
_SCORE_RIDGE = 1e-8
# a quantile response may decrease by this much between grid points (roundoff)
# before it is refused; smaller drops only warn
_MONOTONE_TOL = 1e-8


@dataclass
class CovarianceModel:
    """Truncated eigen-expansion of a residual covariance kernel plus nugget.

    ``eigenfunctions`` (K, m) are orthonormal under the trapezoid quadrature
    weights of ``grid_points``; ``eigenvalues`` are the matching kernel
    eigenvalues, so the reconstructed matrix is
    sum_k lambda_k phi_k phi_k' + nugget * I, floored to stay well
    conditioned.
    """

    grid_points: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    nugget: float

    @property
    def n_components(self) -> int:
        return int(self.eigenvalues.size)

    def _low_rank(self, idx=None) -> np.ndarray:
        """sum_k lambda_k phi_k phi_k' on the grid, an index subset or a stack of subsets."""
        if idx is None:
            idx = np.arange(self.grid_points.size)
        phi = np.moveaxis(self.eigenfunctions[:, idx], 0, -2)
        base = (np.swapaxes(phi, -1, -2) * self.eigenvalues) @ phi
        return 0.5 * (base + np.swapaxes(base, -1, -2))  # exact symmetry

    def _floor(self, base_trace, m: int) -> np.ndarray:
        floor = np.maximum(self.nugget, 1e-8 * (base_trace + m * self.nugget) / m)
        return np.where(floor > 0, floor, 1e-8)

    def matrix(self, idx=None) -> np.ndarray:
        """Covariance matrix on the full grid, or on each row of grid indices in ``idx``.

        ``idx`` is one index subset (giving one matrix) or a (g, k) stack of
        them (giving a (g, k, k) stack).
        """
        base = self._low_rank(idx)
        m = base.shape[-1]
        floor = self._floor(np.trace(base, axis1=-2, axis2=-1), m)
        return base + floor[..., None, None] * np.eye(m)

    def inverse_sqrt(self, idx=None) -> np.ndarray:
        """Symmetric inverse square root of ``matrix(idx)``, stacked like it."""
        evals, evecs = np.linalg.eigh(self.matrix(idx))
        return (evecs / np.sqrt(evals)[..., None, :]) @ np.swapaxes(evecs, -1, -2)


def _count_groups(counts: np.ndarray):
    """(k, indices of the entries of ``counts`` equal to k) for each distinct k."""
    for k in np.unique(counts):
        yield int(k), np.flatnonzero(counts == k)


def _cross_moment(u_j, u_l, n: int, m: int) -> np.ndarray:
    """M_jl = sum_i u_ij u_il' (m x m) of n subjects' covariates along an m-point
    grid, with None standing for u_i = 1 (only as ``u_j``, or as both)."""
    if u_j is None:
        return np.full((m, m), float(n)) if u_l is None else np.broadcast_to(
            u_l.sum(axis=0), (m, m))
    return u_j.T @ u_l


def estimate_covariance(residual_matrix, grid, pve: float = 0.95) -> CovarianceModel:
    """Functional PCA of residual curves with diagonal nugget extraction.

    The sample covariance of the residual rows is computed entry-wise from
    observed pairs; the measurement-error variance is read off as the average
    excess of the raw diagonal over an off-diagonal reconstruction of the
    smooth part (adjacent-cell interpolation on dense designs, a
    count-weighted kernel smooth of the noisy pairwise surface on sparse
    ones). Eigenpairs of the corrected matrix are kept until the cumulative
    share of (nonnegative) eigenvalues reaches ``pve``.
    """
    e = np.asarray(residual_matrix, dtype=float)
    if e.ndim != 2:
        raise DataError("residual matrix must be 2-d (subjects x grid)")
    pts = grid.points if isinstance(grid, Grid) else np.asarray(grid, dtype=float)
    n, m = e.shape
    if n < 3:
        raise DataError("covariance estimation needs at least 3 subjects")
    mask = np.isfinite(e)
    dense = bool(mask.all())
    if dense:
        cov = _dense_covariance(e)
    else:
        cov, counts = _pairwise_covariance(e, mask)
    cov = 0.5 * (cov + cov.T)

    diag = np.diag(cov).copy()
    if m < 3:
        warnings.warn("grid too short to separate a nugget; assuming none")
        smooth = diag
        nugget = 0.0
        corrected = cov.copy()
    elif dense:
        smooth = np.empty(m)
        smooth[0] = cov[0, 1]
        smooth[-1] = cov[-1, -2]
        smooth[1:-1] = 0.5 * (cov[np.arange(1, m - 1), np.arange(0, m - 2)]
                              + cov[np.arange(1, m - 1), np.arange(2, m)])
        nugget = float(np.mean(np.maximum(diag - smooth, 0.0)))
        corrected = cov.copy()
        corrected[np.diag_indices(m)] = smooth
    else:
        # pairwise cells from sparse curves are too noisy to eigendecompose
        # directly; smooth the off-diagonal surface with a count-weighted
        # Gaussian kernel before separating the nugget
        corrected = _kernel_smooth_offdiag(cov, counts, pts)
        nugget = float(np.mean(np.maximum(diag - np.diag(corrected), 0.0)))
    corrected = 0.5 * (corrected + corrected.T)

    weights = quadrature_weights(pts)
    sqrt_w = np.sqrt(weights)
    sym = sqrt_w[:, None] * corrected * sqrt_w[None, :]
    evals, evecs = np.linalg.eigh(sym)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order]
    total = float(evals.sum())
    if total <= 0.0:
        return CovarianceModel(pts, np.empty(0), np.empty((0, m)), nugget=nugget)
    share = np.cumsum(evals) / total
    k = int(np.searchsorted(share, pve) + 1)
    k = min(k, int((evals > 0).sum()))
    phis = (evecs[:, :k] / sqrt_w[:, None]).T
    # deterministic sign: largest-magnitude entry positive
    for row in phis:
        peak = row[np.argmax(np.abs(row))]
        if peak < 0:
            row *= -1.0
    return CovarianceModel(pts, evals[:k], phis, nugget=nugget)


def _pairwise_covariance(e: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance of the columns of ``e`` from the pairs observed in
    ``mask``, zero where fewer than 2 subjects observe a pair, and the pair counts."""
    counts = mask.T.astype(float) @ mask.astype(float)
    col_counts = mask.sum(axis=0)
    means = np.where(col_counts > 0, np.nansum(e, axis=0) / np.maximum(col_counts, 1), 0.0)
    centered = np.where(mask, e - means, 0.0)
    cov = (centered.T @ centered) / np.maximum(counts - 1.0, 1.0)
    cov[counts < 2] = 0.0
    return cov, counts


def _dense_covariance(e: np.ndarray) -> np.ndarray:
    """``_pairwise_covariance`` of a fully observed ``e`` (at least 2 rows), bit
    for bit: every count is n, so it needs neither the count product nor masking."""
    n = e.shape[0]
    centered = e - e.sum(axis=0) / n
    return (centered.T @ centered) / (n - 1.0)


def _kernel_smooth_offdiag(cov: np.ndarray, counts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Count-weighted Gaussian smooth of a pairwise covariance surface.

    Diagonal cells are excluded from the input so the smoothed diagonal
    estimates the smooth part only; bandwidth is a tenth of the domain span.
    """
    span = float(pts[-1] - pts[0])
    bandwidth = 0.1 * span if span > 0 else 1.0
    kernel = np.exp(-0.5 * ((pts[:, None] - pts[None, :]) / bandwidth) ** 2)
    weights = counts.copy()
    np.fill_diagonal(weights, 0.0)
    smoothed = kernel @ (cov * weights) @ kernel.T
    norm = kernel @ weights @ kernel.T
    return smoothed / np.maximum(norm, 1e-12)


@dataclass
class StackedDesign:
    """Row-stacked design: one row per observation, rows grouped by subject.

    The design keeps its covariate map, not its rows: the row of an observed
    (subject i, point t), a True entry of ``mask`` (subjects x points), is
    kron([1, x_it], b_t), with x_it = ``x[i]`` (per subject) or ``x[i, t]`` (per
    subject and point, flcm) and b_t = ``basis[t]``; ``y`` holds the observed
    responses in row order (subject-major), ``fitted`` gives Z beta from the map
    and ``rows`` builds the rows, kept nowhere. The first ``n_free``
    coefficients are unconstrained; a shape acts on the rest. In a dense design
    every subject has a row at every grid point. ``rescale`` holds the (lo, hi)
    of each scalar covariate that the rows rescale to [0, 1] (qfosr's
    predictors), one row per covariate. ``cov``, attached by ``whitened``, is the
    covariance whose inverse weights the moments of ``gram_parts`` within each
    subject. A dense design keeps the covariate cross moments that ``gram_parts``
    makes, whatever the weight, and shares them with its ``whitened`` copies.
    """

    x: np.ndarray
    basis: np.ndarray
    mask: np.ndarray
    y: np.ndarray
    n_free: int
    rescale: np.ndarray | None = None
    cov: CovarianceModel | None = None
    # a dense design's cross moments M_jl by (j, l), kept once made (``gram_parts``)
    _moments: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_subjects(self) -> int:
        return self.mask.shape[0]

    @property
    def n_points(self) -> int:
        return self.mask.shape[1]

    @property
    def n_coefs(self) -> int:
        return (self.x.shape[-1] + 1) * self.basis.shape[1]

    @property
    def dense(self) -> bool:
        return self.y.size == self.mask.size

    def rows(self) -> np.ndarray:
        """The design rows in row order (observations x coefficients), built afresh."""
        q, k = self.x.shape[-1], self.basis.shape[1]
        # a dense design broadcasts the basis over subjects; gathering basis[point]
        # would add an (N, K) temporary next to the rows
        if self.dense:
            out = np.empty((self.n_subjects, self.n_points, q + 1, k))
            x_rows = self.x[:, None] if self.x.ndim == 2 else self.x
            b_rows = self.basis
        else:
            subject, point = np.nonzero(self.mask)
            out = np.empty((subject.size, q + 1, k))
            x_rows = self.x[subject] if self.x.ndim == 2 else self.x[subject, point]
            b_rows = self.basis[point]
        out[..., 0, :] = b_rows
        np.multiply(x_rows[..., None], b_rows[..., None, :], out=out[..., 1:, :])
        return out.reshape(-1, (q + 1) * k)

    def fitted(self, beta: np.ndarray) -> np.ndarray:
        """Z beta in row order, from the covariate map (``_fitted_values``): no rows built."""
        out = _fitted_values(self.x, self.basis, beta)
        return out.ravel() if self.dense else out[self.mask]

    def residuals(self, beta: np.ndarray) -> np.ndarray:
        """y - Z beta in row order."""
        return self.y - self.fitted(beta)

    def gram_parts(self):
        """Z'WZ, Z'Wy and y'Wy of the rows, with W the inverse of ``cov`` on each
        subject's points when one is attached, else the identity.

        A dense design, sofr's one-point design included, takes them from x, the
        basis B and W = S'S (S the inverse square root of ``cov``), with no rows
        built. Block (j, l) of Z'WZ is B'(W o M_jl)B with M_jl = sum_i u_ij u_il' and
        u_i0 = 1, where u_ij is x_ij along the grid (flcm) or the constant x_ij, which
        makes the Gram (U'U) kron (B'WB) with U = [1, x]. Block j of Z'Wy is
        B' sum_i u_ij o (W y_i), and y'Wy = sum_i y_i' W y_i. Each M_jl costs
        O(n m^2) once per design, kept in ``_moments`` and shared by ``whitened``;
        a weighting then adds the product y W (none for W = I) and O(m^2 k) per
        block, against O(n m^2 p) for whitening every subject's rows. A sparse
        design builds its rows and whitens each subject's on its own points.
        """
        if not self.dense:
            z, y = self.rows(), self.y
            if self.cov is not None:
                z, y = self._whiten(z, y)
            return z.T @ z, z.T @ y, float(y @ y)
        n, m = self.n_subjects, self.n_points
        y = self.y.reshape(n, m)
        if self.cov is None:
            w, wy = np.eye(m), y  # y @ I is y, bit for bit
        else:
            s = self.cov.inverse_sqrt()
            w = s.T @ s
            wy = y @ w  # row i is W y_i; W is symmetric
        b = self.basis
        yty = float(np.vdot(y, wy))
        if self.x.ndim == 2:
            u = np.hstack([np.ones((n, 1)), self.x])
            gram = np.kron(u.T @ u, b.T @ w @ b)
            rhs = (b.T @ (wy.T @ u)).T.ravel()
            return gram, rhs, yty
        u = [None, *np.moveaxis(self.x, -1, 0)]  # None stands for u_i0 = 1
        k = b.shape[1]
        gram = np.empty((len(u) * k, len(u) * k))
        rhs = np.empty(len(u) * k)
        for j, u_j in enumerate(u):
            block_j = slice(j * k, (j + 1) * k)
            rhs[block_j] = b.T @ (wy if u_j is None else u_j * wy).sum(axis=0)
            for l in range(j, len(u)):
                if (j, l) not in self._moments:
                    self._moments[j, l] = _cross_moment(u_j, u[l], n, m)
                block = b.T @ (w * self._moments[j, l]) @ b
                gram[block_j, l * k : (l + 1) * k] = block
                gram[l * k : (l + 1) * k, block_j] = block.T
        return gram, rhs, yty

    def _whiten(self, z, y):
        """Rows ``z`` and responses ``y`` of a sparse design, each subject's whitened
        with the inverse square root of ``cov`` on its own points."""
        offsets = np.concatenate([[0], np.cumsum(self.mask.sum(axis=1))])
        points = np.nonzero(self.mask)[1]
        # one batched whitening per group of subjects with the same count of rows
        out_z, out_y = np.empty_like(z), np.empty_like(y)
        for k, subjects in _count_groups(np.diff(offsets)):
            rows = offsets[subjects, None] + np.arange(k)
            s = self.cov.inverse_sqrt(points[rows])
            out_z[rows] = s @ z[rows]
            out_y[rows] = (s @ y[rows][..., None])[..., 0]
        return out_z, out_y

    def whitened(self, cov: CovarianceModel) -> "StackedDesign":
        """The design with ``cov`` attached; ``gram_parts`` weights its moments.
        It shares the covariate cross moments this design keeps, those made before
        or after, so they are made once for both."""
        out = replace(self, cov=cov)
        out._moments = self._moments
        return out


@dataclass
class FunctionalFit:
    """One fitted model, of any of the five kinds.

    ``beta0_coefs`` are the free coefficients: the intercept curve (fosr, flcm,
    fofr), sofr's intercept followed by its scalar confounders, none for qfosr.
    ``beta1_coefs`` are those the shape acts on: the slope on ``spec`` (fofr's
    surface on its tensor square, k1-major), or qfosr's whole stack of coefficient
    curves, intercept first.
    ``shape`` is the value of the model's ``shape_key``; ``rescale`` is qfosr's
    (lo, hi) per predictor, None for the other models.
    """

    model: str
    spec: BasisSpec
    beta0_coefs: np.ndarray
    beta1_coefs: np.ndarray
    shape: ShapeSpec | dict | None
    covariance: CovarianceModel | None
    rss_raw: float
    rss_whitened: float | None
    ridge_used: float
    rescale: np.ndarray | None = None

    def beta0_fn(self, t) -> np.ndarray:
        """Intercept at points ``t``: the first coefficient block on the response's
        basis, so sofr's alpha as a constant and qfosr's intercept quantile curve."""
        mat = eval_basis_matrix(np.atleast_1d(np.asarray(t, dtype=float)),
                                _response_spec(self.model, self.spec))
        return mat @ np.concatenate([self.beta0_coefs, self.beta1_coefs])[: mat.shape[1]]

    def beta1_fn(self, t, s=None) -> np.ndarray:
        """Slope at points ``t``: surface values at (s, t) for fofr, and one row per
        coefficient curve of qfosr's stack."""
        target = MODELS[self.model].target
        if target == "surface":
            if s is None:
                raise ValueError("bivariate coefficient needs both s and t")
            bs = eval_basis_matrix(np.atleast_1d(np.asarray(s, float)), self.spec)
            bt = eval_basis_matrix(np.atleast_1d(np.asarray(t, float)), self.spec)
            return bs @ self.beta1_coefs.reshape(self.spec.n_coefs, -1) @ bt.T
        mat = eval_basis_matrix(np.atleast_1d(np.asarray(t, dtype=float)), self.spec)
        if target == "stack":
            return np.array([mat @ block for block in self.beta1_coefs.reshape(-1, mat.shape[1])])
        return mat @ self.beta1_coefs

    def predict(self, data: FunctionalDataset) -> np.ndarray:
        """What the model responds with on ``data``, its design's rows times the
        coefficients: one value per subject (sofr), otherwise one curve per subject on
        the dataset's grid (subjects x grid). ``data`` has the training covariates."""
        coefs = np.concatenate([self.beta0_coefs, self.beta1_coefs])
        x, basis, _ = _regressors(data, self.model, self.spec, self.rescale, coefs.size)
        out = _fitted_values(x, basis, coefs)
        return out[:, 0] if MODELS[self.model].response == "scalar" else out


def _fitted_values(x: np.ndarray, basis: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """The rows kron([1, x_it], b_t) times ``coefs`` at every (subject i, point t)
    of a covariate map (subjects x points): the coefficient curves on the basis,
    then the intercept curve plus x times the slope curves. O(n m q + p m), against
    O(n m p) for building the rows."""
    curves = coefs.reshape(-1, basis.shape[1]) @ basis.T
    # x is per subject, or per subject and point (flcm)
    slope = x @ curves[1:] if x.ndim == 2 else np.einsum("ijq,qj->ij", x, curves[1:])
    return curves[0] + slope


def build_design(data: FunctionalDataset, model: str, spec: BasisSpec) -> StackedDesign:
    """Row-stacked design of the requested model; rows as in the module docstring.

    ``spec`` is the slope's basis, in both s and t for fofr's surface; it also
    carries the intercept curve of a functional response.
    A scalar response (sofr) gives the one-point design of the module docstring,
    which needs at least as many subjects as coefficients.
    An integrated covariate (sofr, fofr) must be complete: ``reconstruct_sparse``
    first. A quantile response (qfosr) must not decrease, and its predictors
    must not be constant; every coefficient of its stack is constrained.
    """
    if data.n_subjects == 0:
        raise DataError("the dataset has no subjects")
    row = MODELS[model]
    if row.response == "scalar":
        x, basis0, rescale = _regressors(data, model, spec)
        if data.y_scalar is None:
            raise DataError("scalar-on-function regression needs a scalar response")
        y = data.y_scalar[:, None]
        mask = np.ones(y.shape, dtype=bool)
    else:
        if data.y_curves is None:
            raise DataError(f"model {model!r} needs functional responses")
        y, mask = data.y_curves, data.observed_mask("y")
        data._refuse(mask.sum(axis=1) < 2, "fewer than 2 observed response points")
        x, basis0, rescale = _regressors(data, model, spec)
    if row.covariate == "concurrent":
        unobserved = (mask & ~np.isfinite(data.x_curves)).any(axis=1)
        data._refuse(unobserved, "covariate unobserved at response points; "
                     "complete the curves first")
    if row.response == "quantile":
        _refuse_decreasing(data, mask)
    n_z = data.n_z if row.response == "scalar" else 0
    n_free = 0 if row.target == "stack" else (1 + n_z) * basis0.shape[1]
    design = StackedDesign(x, basis0, mask, y[mask], n_free, rescale)
    # one row per subject: fewer subjects than coefficients leave a singular Gram
    if row.response == "scalar" and data.n_subjects < design.n_coefs:
        raise DataError(f"need at least {design.n_coefs} subjects for order {spec.order}, "
                        f"got {data.n_subjects}")
    return design


def _response_spec(model: str, spec: BasisSpec) -> BasisSpec:
    """The basis b of the rows kron([1, x], b(t)): one constant for a scalar
    response, else ``spec``."""
    if MODELS[model].response == "scalar":
        return BasisSpec(0, spec.domain)
    return spec


def _regressors(data: FunctionalDataset, model: str, spec, rescale=None, n_coefs=None):
    """``model``'s covariate map: x of the rows kron([1, x], b(t)), per subject or
    per subject and point (flcm), sofr's confounders first; the basis b at the
    response's points; qfosr's (lo, hi) per predictor (its own, or ``rescale`` as
    given, warning of values outside it), else None. With a fit's ``n_coefs``, x
    must give each row that many coefficients.
    """
    row = MODELS[model]
    if row.covariate == "scalar" and data.x_scalar is None:
        raise DataError(f"{model} needs a scalar predictor per subject")
    if row.covariate in ("concurrent", "integrated") and data.x_curves is None:
        if row.response == "scalar":
            raise DataError("scalar-on-function regression needs functional covariates")
        raise DataError(f"{model} needs a functional covariate")
    if row.covariate == "scalar":
        x = data.x_scalar[:, None]
    elif row.covariate == "scalars":
        if data.n_z < 1:
            raise DataError("quantile regression needs at least one scalar predictor")
        x = data.z_scalars
        if rescale is None:
            lo, hi = x.min(axis=0), x.max(axis=0)
            constant = np.flatnonzero(hi <= lo)
            if constant.size:
                raise DataError(f"predictor {data.z_names[constant[0]]!r} is constant; drop it")
            rescale = np.column_stack([lo, hi])
    elif row.covariate == "concurrent":
        x = data.x_curves[:, :, None]
    else:  # integrated over the whole domain
        incomplete = ~np.isfinite(data.x_curves).all(axis=1)
        data._refuse(incomplete, f"{model} needs complete covariate curves; "
                     "complete the curves first")
        x = sofr_design(data.x_curves, data.grid, spec)
    if row.response == "scalar":
        x = np.hstack([data.z_scalars, x]) if data.n_z else x
        points = spec.domain[:1]
    else:
        points = data.grid.points
    basis = eval_basis_matrix(points, _response_spec(model, spec))
    if n_coefs is not None and (x.shape[-1] + 1) * basis.shape[1] != n_coefs:
        expected = data.n_z + n_coefs // basis.shape[1] - 1 - x.shape[-1]
        raise DataError(f"prediction data needs {expected} scalar covariates, as in "
                        f"training; it has {data.n_z}")
    if row.covariate == "scalars":
        lo, hi = rescale.T
        x = (x - lo) / (hi - lo)
        if x.min() < -1e-9 or x.max() > 1.0 + 1e-9:
            warnings.warn(
                "predictors outside the training range; monotonicity is only "
                "guaranteed on the training hypercube"
            )
    return x, basis, rescale


def _refuse_decreasing(data: FunctionalDataset, mask: np.ndarray) -> None:
    """Refuse quantile responses that drop between observed points by more than
    ``_MONOTONE_TOL``; warn about smaller drops."""
    # each observed point against the latest observed point before it
    prev = np.maximum.accumulate(np.where(mask, np.arange(mask.shape[1]), -1), axis=1)[:, :-1]
    y = np.where(mask, data.y_curves, 0.0)
    drops = np.take_along_axis(y, np.maximum(prev, 0), axis=1) - y[:, 1:]
    drop = np.max(drops, axis=1, where=mask[:, 1:] & (prev >= 0), initial=0.0)
    offenders = [data.ids[i] for i in np.flatnonzero(drop > _MONOTONE_TOL)]
    wiggles = [data.ids[i] for i in np.flatnonzero((drop > 0.0) & (drop <= _MONOTONE_TOL))]
    if offenders:
        raise DataError(
            f"{len(offenders)} subjects have decreasing quantile functions: {offenders[:10]}"
        )
    if wiggles:
        warnings.warn(
            f"{len(wiggles)} subjects have tiny monotonicity violations within tolerance"
        )


def shape_system(model: str, spec, shape, design: StackedDesign):
    """Rows of ``shape`` on the constrained coefficients of ``design``; None without
    a shape. qfosr always constrains its stack to monotone predictions, with the
    extra curve shapes of its ``shape`` mapping on top (``qfosr_constraints``).
    The caller has passed ``model``, ``spec`` and ``shape`` through ``check_model``."""
    if MODELS[model].target == "stack":
        return qfosr_constraints(spec, design.n_coefs // spec.n_coefs - 1, shape)
    if shape is None:
        return None
    return build_constraints(shape, spec).padded(design.n_free, design.n_coefs)


def _raw_residuals(design: StackedDesign, beta: np.ndarray) -> np.ndarray:
    """Residuals as a (subjects x grid) matrix, NaN where unobserved."""
    if design.dense:
        return design.residuals(beta).reshape(design.mask.shape)
    out = np.full(design.mask.shape, np.nan)
    out[design.mask] = design.residuals(beta)
    return out


def _prewhiten(design: StackedDesign, data, pve, whiten_fit: bool = True,
               unconstrained: bool = False):
    """Step 1 of the two-step fit: the raw moments, their unconstrained solve, OLS
    residuals and FPCA covariance. Returns the design step 2 solves on with its
    ``gram_parts``, the covariance and step 1's solution. The design stays as it is,
    with no covariance, when ``whiten_fit`` is off or it has one point per subject
    (sofr), which leaves no within-subject covariance; step 1 is then solved only
    if ``unconstrained`` asks for it (else None)."""
    parts = design.gram_parts()
    whiten = whiten_fit and design.n_points > 1
    step1 = ClsqSolver(parts[0], None).solve(*parts[1:]) if whiten or unconstrained else None
    if not whiten:
        return design, parts, None, step1
    cov = estimate_covariance(_raw_residuals(design, step1.beta), data.grid, pve)
    design = design.whitened(cov)
    return design, design.gram_parts(), cov, step1


def _record(model, spec, shape, design: StackedDesign, sol: QpSolution, cov) -> FunctionalFit:
    """The fit of ``sol``, solved on ``design`` whitened by ``cov`` (if not None)."""
    return FunctionalFit(
        model=model,
        spec=spec,
        beta0_coefs=sol.beta[: design.n_free],
        beta1_coefs=sol.beta[design.n_free :],
        shape=shape,
        covariance=cov,
        rss_raw=float(np.sum(design.residuals(sol.beta) ** 2)),
        rss_whitened=None if cov is None else sol.rss,
        ridge_used=sol.ridge,
        rescale=design.rescale,
    )


def _two_step(data, model, spec, shape, pve=0.95, whiten_fit=True, unconstrained=False):
    """``fit_functional``'s fit and, with ``unconstrained``, step 1's solve as a fit
    (else None), from one design and raw Gram. The second has the bits of
    ``fit_functional(data, model, spec, None, whiten_fit=False)`` for every model
    but qfosr, which is constrained even without a shape."""
    check_model(model, spec, shape)
    design = build_design(data, model, spec)
    constraints = shape_system(model, spec, shape, design)
    _, (gram, rhs, yty), cov, step1 = _prewhiten(design, data, pve, whiten_fit, unconstrained)
    fit = _record(model, spec, shape, design, ClsqSolver(gram, constraints).solve(rhs, yty), cov)
    return fit, _record(model, spec, None, design, step1, None) if unconstrained else None


def fit_functional(
    data: FunctionalDataset,
    model: str,
    spec: BasisSpec,
    shape: ShapeSpec | dict | None = None,
    pve: float = 0.95,
    whiten_fit: bool = True,
) -> FunctionalFit:
    """Fit any of the five models, optionally shape-constrained.

    ``spec`` is the slope's basis, as for ``build_design``, and ``shape`` the
    value of the model's ``shape_key`` (see ``check_model``): for qfosr, a
    mapping of coefficient blocks (0 = intercept, j >= 1 the j-th predictor) to
    extra curve shapes stacked on its monotone system.
    ``whiten_fit=False`` skips covariance estimation entirely and solves the
    raw stacked least-squares problem (the bootstrap-test path); otherwise
    step 1 residuals feed the FPCA covariance.
    """
    return _two_step(data, model, spec, shape, pve, whiten_fit)[0]


def reconstruct_sparse(data: FunctionalDataset, pve: float = 0.95) -> FunctionalDataset:
    """Complete sparse covariate curves on the pooled grid.

    Functional PCA of the observed covariate values yields conditional
    expectations of the principal-component scores given each subject's
    observed subset; unobserved values are filled from the truncated
    expansion while observed values are kept. Response curves are left at
    their observed points. Subjects with fewer than two observed covariate
    points are dropped with a warning.
    """
    if data.x_curves is None:
        return data
    mask = np.isfinite(data.x_curves)
    if mask.all():
        return data
    enough = mask.sum(axis=1) >= 2
    if not enough.all():
        dropped = [data.ids[i] for i in np.flatnonzero(~enough)]
        warnings.warn(f"dropping {len(dropped)} subjects with <2 covariate points: {dropped[:5]}")
        data = data.subset(np.flatnonzero(enough))
        mask = np.isfinite(data.x_curves)
    col_counts = mask.sum(axis=0)
    if np.any(col_counts == 0):
        raise DataError("pooled grid has points never observed in any covariate curve")
    mu = np.nansum(data.x_curves, axis=0) / col_counts
    cov = estimate_covariance(data.x_curves, data.grid, pve)
    lam = cov.eigenvalues
    phi = cov.eigenfunctions
    completed = data.x_curves.copy()
    m = mask.shape[1]
    # one batched score solve per group of subjects with the same count of observed points
    for k, subjects in _count_groups(mask.sum(axis=1)):
        if k == m or lam.size == 0:
            continue
        idx = np.nonzero(mask[subjects])[1].reshape(-1, k)
        missing = np.nonzero(~mask[subjects])[1].reshape(-1, m - k)
        phi_obs = np.moveaxis(phi[:, idx], 0, -2)
        sigma_obs = (np.swapaxes(phi_obs, -1, -2) * lam) @ phi_obs
        sigma_obs += (cov.nugget + _SCORE_RIDGE) * np.eye(k)
        centered = np.take_along_axis(data.x_curves[subjects], idx, axis=1) - mu[idx]
        scores = lam * (phi_obs @ np.linalg.solve(sigma_obs, centered[..., None]))[..., 0]
        phi_missing = np.moveaxis(phi[:, missing], 0, -2)
        completed[subjects[:, None], missing] = mu[missing] + (scores[:, None] @ phi_missing)[:, 0]
    out = data.subset(np.arange(data.n_subjects))
    out.x_curves = completed
    return out

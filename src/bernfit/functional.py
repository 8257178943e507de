"""Functional-response regression: FOSR, FLCM, and FOFR.

Fitting is a two-step procedure. Step 1 solves the unconstrained stacked
least-squares problem and estimates the residual covariance by functional
PCA with a white-noise nugget. Step 2 pre-whitens every block with the
inverse square root of that covariance and solves the constrained
generalized least-squares problem, with the shape acting on the slope
coefficient block only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisSpec,
    Grid,
    TensorBasisSpec,
    eval_basis_matrix,
    fofr_design,
    quadrature_weights,
)
from .clsq import QpProblem, QpSolution, solve_clsq
from .constraints import ShapeSpec, build_constraints
from .dataset import FunctionalDataset
from .errors import ConfigError, DataError

FUNCTIONAL_MODELS = ("fosr", "flcm", "fofr")


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
    pve: float

    @classmethod
    def identity(cls, grid_points) -> "CovarianceModel":
        pts = np.asarray(grid_points, dtype=float)
        return cls(pts, np.empty(0), np.empty((0, pts.size)), nugget=1.0, pve=1.0)

    @property
    def n_components(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def is_identity(self) -> bool:
        return self.n_components == 0 and self.nugget == 1.0

    def _low_rank(self, idx=None) -> np.ndarray:
        phi = self.eigenfunctions if idx is None else self.eigenfunctions[:, idx]
        if self.n_components == 0:
            m = self.grid_points.size if idx is None else len(idx)
            return np.zeros((m, m))
        base = (phi.T * self.eigenvalues) @ phi
        return 0.5 * (base + base.T)  # exact symmetry

    def _floor(self, base_trace: float, m: int) -> float:
        floor = max(self.nugget, 1e-8 * (base_trace + m * self.nugget) / m)
        return floor if floor > 0 else 1e-8

    def matrix(self, idx=None) -> np.ndarray:
        """Covariance matrix on the full grid or a subset of its indices."""
        base = self._low_rank(idx)
        m = base.shape[0]
        return base + self._floor(float(np.trace(base)), m) * np.eye(m)

    def inverse_sqrt(self, idx=None) -> np.ndarray:
        """Symmetric inverse square root of ``matrix(idx)``."""
        if self.n_components == 0:
            m = self.grid_points.size if idx is None else len(idx)
            scale = self._floor(0.0, m)
            return np.eye(m) if scale == 1.0 else np.eye(m) / np.sqrt(scale)
        evals, evecs = np.linalg.eigh(self.matrix(idx))
        return (evecs / np.sqrt(evals)) @ evecs.T


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
    counts = mask.T.astype(float) @ mask.astype(float)
    col_counts = mask.sum(axis=0)
    means = np.where(col_counts > 0, np.nansum(e, axis=0) / np.maximum(col_counts, 1), 0.0)
    centered = np.where(mask, e - means, 0.0)
    cov = (centered.T @ centered) / np.maximum(counts - 1.0, 1.0)
    cov[counts < 2] = 0.0
    cov = 0.5 * (cov + cov.T)

    diag = np.diag(cov).copy()
    if m < 3:
        warnings.warn("grid too short to separate a nugget; assuming none")
        smooth = diag
        nugget = 0.0
        corrected = cov.copy()
    elif mask.all():
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
        return CovarianceModel(pts, np.empty(0), np.empty((0, m)), nugget=nugget, pve=pve)
    share = np.cumsum(evals) / total
    k = int(np.searchsorted(share, pve) + 1)
    k = min(k, int((evals > 0).sum()))
    phis = (evecs[:, :k] / sqrt_w[:, None]).T
    # deterministic sign: largest-magnitude entry positive
    for row in phis:
        peak = row[np.argmax(np.abs(row))]
        if peak < 0:
            row *= -1.0
    return CovarianceModel(pts, evals[:k], phis, nugget=nugget, pve=pve)


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


def whiten(block, cov: CovarianceModel, idx=None):
    """Multiply a response vector or design block by the inverse-sqrt covariance."""
    if cov.is_identity:
        return np.asarray(block, dtype=float)
    return cov.inverse_sqrt(idx) @ np.asarray(block, dtype=float)


@dataclass
class StackedDesign:
    """Per-subject design blocks for one functional-response model."""

    blocks: list
    responses: list
    obs_indices: list
    n_coefs: int
    slice0: slice
    slice1: slice

    def gram_parts(self):
        p = self.n_coefs
        gram = np.zeros((p, p))
        rhs = np.zeros(p)
        yty = 0.0
        rows = 0
        for z, y in zip(self.blocks, self.responses):
            gram += z.T @ z
            rhs += z.T @ y
            yty += float(y @ y)
            rows += y.size
        return gram, rhs, yty, rows

    def whitened(self, cov: CovarianceModel, full_mask: bool) -> "StackedDesign":
        if cov.is_identity:
            return self
        if full_mask:
            s = cov.inverse_sqrt()
            blocks = [s @ z for z in self.blocks]
            responses = [s @ y for y in self.responses]
        else:
            blocks, responses = [], []
            for z, y, idx in zip(self.blocks, self.responses, self.obs_indices):
                s = cov.inverse_sqrt(idx)
                blocks.append(s @ z)
                responses.append(s @ y)
        return StackedDesign(blocks, responses, self.obs_indices, self.n_coefs, self.slice0, self.slice1)


@dataclass
class FunctionalFit:
    model: str
    basis0: BasisSpec
    basis1: BasisSpec | TensorBasisSpec
    beta0_coefs: np.ndarray
    beta1_coefs: np.ndarray
    shape: ShapeSpec | None
    covariance: CovarianceModel | None
    rss_raw: float
    rss_whitened: float | None
    residual_matrix: np.ndarray
    ridge_used: float

    def beta0_fn(self, t) -> np.ndarray:
        mat = eval_basis_matrix(np.atleast_1d(np.asarray(t, dtype=float)), self.basis0)
        return mat @ self.beta0_coefs

    def beta1_fn(self, t, s=None) -> np.ndarray:
        """Slope function at points ``t`` (surface values at (s, t) for fofr)."""
        if isinstance(self.basis1, TensorBasisSpec):
            if s is None:
                raise ValueError("bivariate coefficient needs both s and t")
            bs = eval_basis_matrix(np.atleast_1d(np.asarray(s, float)), self.basis1.spec_s)
            bt = eval_basis_matrix(np.atleast_1d(np.asarray(t, float)), self.basis1.spec_t)
            coefs = self.beta1_coefs.reshape(self.basis1.order_s + 1, self.basis1.order_t + 1)
            return bs @ coefs @ bt.T
        mat = eval_basis_matrix(np.atleast_1d(np.asarray(t, dtype=float)), self.basis1)
        return mat @ self.beta1_coefs

    def predict(self, data: FunctionalDataset) -> np.ndarray:
        """Predicted response curves (subjects x grid) on the dataset's grid."""
        pts = data.grid.points
        beta0 = self.beta0_fn(pts)
        if self.model == "fofr":
            w = np.stack([fofr_design(x, data.grid, self.basis1, pts) for x in data.x_curves])
            return beta0[None, :] + w @ self.beta1_coefs
        covariate = data.x_scalar[:, None] if self.model == "fosr" else data.x_curves
        return beta0[None, :] + covariate * self.beta1_fn(pts)[None, :]


def build_design(
    data: FunctionalDataset,
    model: str,
    spec: BasisSpec | None = None,
    tensor: TensorBasisSpec | None = None,
) -> StackedDesign:
    """Per-subject design blocks [B0 | W_i] for the requested model."""
    if model not in FUNCTIONAL_MODELS:
        raise ConfigError(f"unknown functional model {model!r}")
    if data.y_curves is None:
        raise DataError(f"model {model!r} needs functional responses")
    if model == "fofr":
        if tensor is None:
            raise ConfigError("fofr needs a tensor-product basis spec")
        spec0 = BasisSpec(tensor.order_t, tensor.domain_t)
        p1 = tensor.n_coefs
    else:
        if spec is None:
            raise ConfigError(f"model {model!r} needs a basis spec")
        spec0 = spec
        p1 = spec.n_coefs
    pts = data.grid.points
    basis0 = eval_basis_matrix(pts, spec0)
    mask = data.observed_mask("y")
    blocks, responses, obs_indices = [], [], []
    for i in range(data.n_subjects):
        idx = np.flatnonzero(mask[i])
        if idx.size < 2:
            raise DataError(f"subject {data.ids[i]}: fewer than 2 observed response points")
        b0 = basis0[idx]
        if model == "fosr":
            if data.x_scalar is None:
                raise DataError("fosr needs a scalar predictor per subject")
            w = data.x_scalar[i] * b0
        elif model == "flcm":
            if data.x_curves is None:
                raise DataError("flcm needs a functional covariate")
            x_vals = data.x_curves[i, idx]
            if not np.all(np.isfinite(x_vals)):
                raise DataError(
                    f"subject {data.ids[i]}: covariate unobserved at response points; "
                    "complete the curves first"
                )
            w = x_vals[:, None] * b0
        else:  # fofr
            if data.x_curves is None:
                raise DataError("fofr needs a functional covariate")
            if not np.all(np.isfinite(data.x_curves[i])):
                raise DataError(
                    f"subject {data.ids[i]}: fofr needs complete covariate curves; "
                    "complete the curves first"
                )
            w = fofr_design(data.x_curves[i], data.grid, tensor, pts[idx])
        blocks.append(np.hstack([b0, w]))
        responses.append(data.y_curves[i, idx])
        obs_indices.append(idx)
    p0 = spec0.n_coefs
    return StackedDesign(
        blocks, responses, obs_indices, p0 + p1, slice(0, p0), slice(p0, p0 + p1)
    )


def _solve_stacked(design: StackedDesign, constraints, ridge: float = 0.0) -> QpSolution:
    gram, rhs, yty, rows = design.gram_parts()
    return solve_clsq(QpProblem(gram, rhs, yty, rows, constraints, ridge))


def _raw_residuals(design: StackedDesign, beta: np.ndarray, n_points: int) -> np.ndarray:
    out = np.full((len(design.blocks), n_points), np.nan)
    for i, (z, y, idx) in enumerate(zip(design.blocks, design.responses, design.obs_indices)):
        out[i, idx] = y - z @ beta
    return out


def _prewhiten(design: StackedDesign, data, pve, covariance=None, ridge: float = 0.0):
    """Step 1 of the two-step fit: OLS residuals, FPCA covariance, whitened design.

    A supplied ``covariance`` skips the step-1 solve and the FPCA.
    """
    cov = covariance
    if cov is None:
        step1 = _solve_stacked(design, None, ridge)
        resid = _raw_residuals(design, step1.beta, data.grid.n_points)
        cov = estimate_covariance(resid, data.grid, pve)
    return design.whitened(cov, full_mask=data.is_dense("y")), cov


def _solve_two_step(design, data, constraints, pve, whiten_fit, covariance=None, ridge=0.0):
    """Constrained solve on the pre-whitened design, or on the raw one.

    Returns the solution and the covariance used (None without whitening);
    the solution's ``rss`` is then the whitened or the raw residual sum.
    """
    cov = None
    if whiten_fit:
        design, cov = _prewhiten(design, data, pve, covariance, ridge)
    return _solve_stacked(design, constraints, ridge), cov


def fit_functional(
    data: FunctionalDataset,
    model: str,
    spec: BasisSpec | None = None,
    shape: ShapeSpec | None = None,
    tensor: TensorBasisSpec | None = None,
    pve: float = 0.95,
    whiten_fit: bool = True,
    covariance: CovarianceModel | None = None,
    ridge: float = 0.0,
) -> FunctionalFit:
    """Fit a functional-response model, optionally shape-constrained.

    ``whiten_fit=False`` skips covariance estimation entirely and solves the
    raw stacked least-squares problem (the bootstrap-test path); otherwise
    step 1 residuals feed the FPCA covariance unless one is supplied.
    """
    design = build_design(data, model, spec=spec, tensor=tensor)
    basis1 = tensor if model == "fofr" else spec
    constraints = None
    if shape is not None:
        base = build_constraints(shape, basis1)
        constraints = base.padded(design.slice1.start, design.n_coefs)
    sol, cov = _solve_two_step(design, data, constraints, pve, whiten_fit, covariance, ridge)
    residual_matrix = _raw_residuals(design, sol.beta, data.grid.n_points)
    return FunctionalFit(
        model=model,
        basis0=BasisSpec(tensor.order_t, tensor.domain_t) if model == "fofr" else spec,
        basis1=basis1,
        beta0_coefs=sol.beta[design.slice0],
        beta1_coefs=sol.beta[design.slice1],
        shape=shape,
        covariance=cov,
        rss_raw=float(np.nansum(residual_matrix**2)),
        rss_whitened=sol.rss if whiten_fit else None,
        residual_matrix=residual_matrix,
        ridge_used=sol.ridge,
    )


def reconstruct_sparse(
    data: FunctionalDataset, pve: float = 0.95, ridge: float = 1e-8
) -> FunctionalDataset:
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
    for i in range(data.n_subjects):
        idx = np.flatnonzero(mask[i])
        missing = np.flatnonzero(~mask[i])
        if missing.size == 0 or lam.size == 0:
            continue
        phi_obs = phi[:, idx]
        sigma_obs = (phi_obs.T * lam) @ phi_obs + (cov.nugget + ridge) * np.eye(idx.size)
        centered = data.x_curves[i, idx] - mu[idx]
        scores = lam * (phi_obs @ np.linalg.solve(sigma_obs, centered))
        completed[i, missing] = mu[missing] + scores @ phi[:, missing]
    out = data.subset(np.arange(data.n_subjects))
    out.x_curves = completed
    return out

"""Quantile function-on-scalar regression with guaranteed monotone predictions.

Each subject's response is a quantile function on a shared probability grid;
all coefficient functions share one basis order, and the stacked coefficient
vector is constrained so that the predicted quantile function is
non-decreasing for every covariate combination in the unit hypercube
(predictors are min-max rescaled to [0, 1] on ingestion). Individual
coefficient functions are otherwise free, so, e.g., a decreasing predictor
effect is allowed as long as the predictions stay monotone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, eval_basis_matrix
from .constraints import ConstraintSystem, build_constraints, build_quantile_monotone
from .dataset import FunctionalDataset
from .errors import ConfigError, DataError
from .functional import CovarianceModel, StackedDesign, _solve_two_step


@dataclass
class QfosrFit:
    basis: BasisSpec
    coef_blocks: np.ndarray  # (J+1, N+1); row 0 is the intercept function
    predictor_names: list
    rescale: list  # per predictor (lo, hi) in original units
    covariance: CovarianceModel | None
    rss_raw: float
    rss_whitened: float | None
    ridge_used: float

    @property
    def n_predictors(self) -> int:
        return self.coef_blocks.shape[0] - 1

    def coefficient_fn(self, block: int, p) -> np.ndarray:
        """Evaluate coefficient function ``block`` (0 = intercept) at ``p``."""
        mat = eval_basis_matrix(np.atleast_1d(np.asarray(p, dtype=float)), self.basis)
        return mat @ self.coef_blocks[block]

    def rescaled(self, z_row) -> np.ndarray:
        z_row = np.asarray(z_row, dtype=float).ravel()
        if z_row.size != self.n_predictors:
            raise DataError(f"expected {self.n_predictors} predictor values")
        out = np.empty_like(z_row)
        for j, (lo, hi) in enumerate(self.rescale):
            out[j] = (z_row[j] - lo) / (hi - lo)
        if out.min() < -1e-9 or out.max() > 1.0 + 1e-9:
            warnings.warn(
                "predictors outside the training range; monotonicity is only "
                "guaranteed on the training hypercube"
            )
        return out

    def predict_quantiles(self, z_row, p) -> np.ndarray:
        """Predicted quantile function at probabilities ``p`` (original units)."""
        x = self.rescaled(z_row)
        mat = eval_basis_matrix(np.atleast_1d(np.asarray(p, dtype=float)), self.basis)
        stacked = self.coef_blocks[0] + x @ self.coef_blocks[1:]
        return mat @ stacked


def _validate_monotone_responses(data: FunctionalDataset, tol: float) -> None:
    mask = np.isfinite(data.y_curves)
    offenders = []
    wiggles = []
    for i in range(data.n_subjects):
        idx = np.flatnonzero(mask[i])
        if idx.size < 2:
            raise DataError(f"subject {data.ids[i]}: fewer than 2 quantile points")
        drop = float(np.max(-np.diff(data.y_curves[i, idx]), initial=0.0))
        if drop > tol:
            offenders.append(data.ids[i])
        elif drop > 0.0:
            wiggles.append(data.ids[i])
    if offenders:
        raise DataError(
            f"{len(offenders)} subjects have decreasing quantile functions: {offenders[:10]}"
        )
    if wiggles:
        warnings.warn(
            f"{len(wiggles)} subjects have tiny monotonicity violations within tolerance"
        )


def build_qfosr_design(data: FunctionalDataset, spec: BasisSpec, monotone_tol: float = 1e-8):
    """Design blocks [B0 | x1 B0 | ... | xJ B0] plus the rescale records."""
    if data.y_curves is None:
        raise DataError("quantile regression needs functional responses")
    if data.z_scalars is None or data.z_scalars.shape[1] < 1:
        raise DataError("quantile regression needs at least one scalar predictor")
    _validate_monotone_responses(data, monotone_tol)
    z = data.z_scalars
    n, j_count = z.shape
    rescale = []
    z_unit = np.empty_like(z)
    for j in range(j_count):
        lo, hi = float(z[:, j].min()), float(z[:, j].max())
        if hi <= lo:
            raise DataError(f"predictor {data.z_names[j]!r} is constant; drop it")
        rescale.append((lo, hi))
        z_unit[:, j] = (z[:, j] - lo) / (hi - lo)

    pts = data.grid.points
    basis = eval_basis_matrix(pts, spec)
    mask = np.isfinite(data.y_curves)
    p_block = spec.n_coefs
    total = p_block * (j_count + 1)
    blocks, responses, obs_indices = [], [], []
    for i in range(n):
        idx = np.flatnonzero(mask[i])
        b0 = basis[idx]
        row = [b0] + [z_unit[i, j] * b0 for j in range(j_count)]
        blocks.append(np.hstack(row))
        responses.append(data.y_curves[i, idx])
        obs_indices.append(idx)
    design = StackedDesign(
        blocks, responses, obs_indices, total, slice(0, p_block), slice(p_block, total)
    )
    return design, rescale


def qfosr_constraints(
    spec: BasisSpec, n_predictors: int, extra_shapes: dict | None = None
) -> ConstraintSystem:
    """Monotonicity system plus any per-block extra shapes, deduplicated."""
    p_block = spec.n_coefs
    total = p_block * (n_predictors + 1)
    systems = [build_quantile_monotone(n_predictors, spec)]
    for block_index, shape in (extra_shapes or {}).items():
        block = int(block_index)
        if not 0 <= block <= n_predictors:
            raise ConfigError(f"extra shape block {block} is outside 0..{n_predictors}")
        base = build_constraints(shape, spec)
        systems.append(base.padded(block * p_block, total))
    return ConstraintSystem.vstack(systems).dedup()


def fit_qfosr(
    data: FunctionalDataset,
    spec: BasisSpec,
    extra_shapes: dict | None = None,
    pve: float = 0.95,
    whiten_fit: bool = True,
    monotone_tol: float = 1e-8,
) -> QfosrFit:
    """Fit quantile functions on scalar predictors under the monotone guarantee.

    ``extra_shapes`` maps a coefficient block index (0 = intercept, j >= 1 the
    j-th predictor) to an additional univariate shape stacked on top of the
    monotonicity system, e.g. a decreasing restriction on one predictor's
    effect.
    """
    design, rescale = build_qfosr_design(data, spec, monotone_tol)
    j_count = data.z_scalars.shape[1]
    constraints = qfosr_constraints(spec, j_count, extra_shapes)
    sol, cov = _solve_two_step(design, data, constraints, pve, whiten_fit)
    rss_raw = 0.0
    for zb, y in zip(design.blocks, design.responses):
        rss_raw += float(np.sum((y - zb @ sol.beta) ** 2))
    return QfosrFit(
        basis=spec,
        coef_blocks=sol.beta.reshape(j_count + 1, spec.n_coefs),
        predictor_names=list(data.z_names),
        rescale=rescale,
        covariance=cov,
        rss_raw=rss_raw,
        rss_whitened=sol.rss if whiten_fit else None,
        ridge_used=sol.ridge,
    )


def predict_qfosr(fit: QfosrFit, data: FunctionalDataset) -> np.ndarray:
    """Predicted quantile curves on the dataset's probability grid."""
    if data.z_scalars is None or data.z_scalars.shape[1] != fit.n_predictors:
        raise DataError("prediction data must carry the training predictors")
    pts = data.grid.points
    mat = eval_basis_matrix(pts, fit.basis)
    out = np.empty((data.n_subjects, pts.size))
    for i in range(data.n_subjects):
        x = fit.rescaled(data.z_scalars[i])
        stacked = fit.coef_blocks[0] + x @ fit.coef_blocks[1:]
        out[i] = mat @ stacked
    return out

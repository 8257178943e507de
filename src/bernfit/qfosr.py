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
from .constraints import ConstraintSystem, build_constraints, build_quantile_monotone, check_model
from .dataset import FunctionalDataset
from .errors import ConfigError, DataError
from .functional import CovarianceModel, StackedDesign, _solve_two_step

# a response quantile function may decrease by this much between grid points
# (roundoff) before it is refused; smaller drops only warn
_MONOTONE_TOL = 1e-8


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

    def rescaled(self, z) -> np.ndarray:
        """Predictor values on the unit scale: one row, or one row per subject."""
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.n_predictors:
            raise DataError(f"expected {self.n_predictors} predictor values")
        lo, hi = np.asarray(self.rescale).T
        out = (z - lo) / (hi - lo)
        if out.min() < -1e-9 or out.max() > 1.0 + 1e-9:
            warnings.warn(
                "predictors outside the training range; monotonicity is only "
                "guaranteed on the training hypercube"
            )
        return out

    def predict_quantiles(self, z, p) -> np.ndarray:
        """Quantile functions at probabilities ``p`` for each row of predictors ``z``."""
        mat = eval_basis_matrix(np.atleast_1d(np.asarray(p, dtype=float)), self.basis)
        return (self.coef_blocks[0] + self.rescaled(z) @ self.coef_blocks[1:]) @ mat.T


def _validate_monotone_responses(data: FunctionalDataset) -> None:
    mask = np.isfinite(data.y_curves)
    short = np.flatnonzero(mask.sum(axis=1) < 2)
    if short.size:
        raise DataError(f"subject {data.ids[short[0]]}: fewer than 2 quantile points")
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


def build_qfosr_design(data: FunctionalDataset, spec: BasisSpec):
    """Design rows kron([1, x_1, ..., x_J], b(p)) plus the rescale records.

    The predictors x_j are min-max rescaled to [0, 1].
    """
    if data.y_curves is None:
        raise DataError("quantile regression needs functional responses")
    if data.z_scalars is None or data.z_scalars.shape[1] < 1:
        raise DataError("quantile regression needs at least one scalar predictor")
    _validate_monotone_responses(data)
    z = data.z_scalars
    lo, hi = z.min(axis=0), z.max(axis=0)
    constant = np.flatnonzero(hi <= lo)
    if constant.size:
        raise DataError(f"predictor {data.z_names[constant[0]]!r} is constant; drop it")
    basis = eval_basis_matrix(data.grid.points, spec)
    mask = np.isfinite(data.y_curves)
    design = StackedDesign.assemble((z - lo) / (hi - lo), basis, mask, data.y_curves, spec.n_coefs)
    return design, list(zip(lo.tolist(), hi.tolist()))


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
        if shape.target != "curve":
            raise ConfigError(f"extra shape of block {block} must be univariate, got {shape.kind!r}")
        base = build_constraints(shape, spec)
        systems.append(base.padded(block * p_block, total))
    return ConstraintSystem.vstack(systems).dedup()


def fit_qfosr(
    data: FunctionalDataset,
    spec: BasisSpec,
    extra_shapes: dict | None = None,
    pve: float = 0.95,
    whiten_fit: bool = True,
) -> QfosrFit:
    """Fit quantile functions on scalar predictors under the monotone guarantee.

    ``extra_shapes`` maps a coefficient block index (0 = intercept, j >= 1 the
    j-th predictor) to an additional univariate shape stacked on top of the
    monotonicity system, e.g. a decreasing restriction on one predictor's
    effect.
    """
    check_model("qfosr", spec)
    design, rescale = build_qfosr_design(data, spec)
    j_count = data.z_scalars.shape[1]
    constraints = qfosr_constraints(spec, j_count, extra_shapes)
    sol, cov = _solve_two_step(design, data, constraints, pve, whiten_fit)
    resid = design.residuals(sol.beta)
    return QfosrFit(
        basis=spec,
        coef_blocks=sol.beta.reshape(j_count + 1, spec.n_coefs),
        predictor_names=list(data.z_names),
        rescale=rescale,
        covariance=cov,
        rss_raw=float(resid @ resid),
        rss_whitened=sol.rss if whiten_fit else None,
        ridge_used=sol.ridge,
    )


def predict_qfosr(fit: QfosrFit, data: FunctionalDataset) -> np.ndarray:
    """Predicted quantile curves on the dataset's probability grid."""
    if data.z_scalars is None or data.z_scalars.shape[1] != fit.n_predictors:
        raise DataError("prediction data must carry the training predictors")
    return fit.predict_quantiles(data.z_scalars, data.grid.points)

"""Shape-constrained scalar-on-function regression.

The functional predictor is integrated against the basis to produce one
design row per subject (``build_design``'s one-point design); the intercept
and any scalar confounders stay unconstrained while the basis block carries
the shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, eval_basis_matrix, sofr_design
from .constraints import ShapeSpec, check_model
from .dataset import FunctionalDataset
from .errors import DataError
from .functional import StackedDesign, _solve_stacked, build_design, shape_system


@dataclass
class SofrFit:
    alpha: float
    gamma: np.ndarray
    beta_coefs: np.ndarray
    basis: BasisSpec
    shape: ShapeSpec | None
    rss: float
    ridge_used: float

    def beta_fn(self, t) -> np.ndarray:
        """Evaluate the fitted coefficient function at points ``t``."""
        mat = eval_basis_matrix(np.atleast_1d(np.asarray(t, dtype=float)), self.basis)
        return mat @ self.beta_coefs


def sofr_design_matrix(data: FunctionalDataset, spec: BasisSpec) -> StackedDesign:
    """The one-point design ``build_design(data, "sofr", spec)``; kept for callers by name."""
    return build_design(data, "sofr", spec)


def fit_sofr(
    data: FunctionalDataset,
    spec: BasisSpec,
    shape: ShapeSpec | None = None,
) -> SofrFit:
    """Fit the model Y = alpha + Z gamma + int X(t) beta(t) dt + eps.

    ``shape=None`` gives the unconstrained fit used as the comparison
    baseline; otherwise the basis-coefficient block is constrained to the
    requested shape (the intercept and confounders never are).
    """
    check_model("sofr", spec, shape)
    design = build_design(data, "sofr", spec)
    n = design.n_subjects
    if n < design.n_coefs:  # the intercept, the confounders and the basis block
        raise DataError(f"need at least {design.n_coefs} subjects for order {spec.order}, got {n}")
    sol = _solve_stacked(design, shape_system("sofr", spec, shape, design))
    residuals = design.residuals(sol.beta)
    return SofrFit(
        alpha=float(sol.beta[0]),
        gamma=sol.beta[1 : design.n_free],
        beta_coefs=sol.beta[design.n_free :],
        basis=spec,
        shape=shape,
        rss=float(residuals @ residuals),
        ridge_used=sol.ridge,
    )


def predict_sofr(fit: SofrFit, data: FunctionalDataset) -> np.ndarray:
    """Predictions alpha + Z gamma + W beta with W built as in training."""
    w = sofr_design(data.x_curves, data.grid, fit.basis)
    out = fit.alpha + w @ fit.beta_coefs
    if fit.gamma.size:
        if data.z_scalars is None or data.z_scalars.shape[1] != fit.gamma.size:
            raise DataError("prediction data is missing the scalar covariates used in training")
        out = out + data.z_scalars @ fit.gamma
    return out

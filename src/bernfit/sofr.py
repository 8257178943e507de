"""Shape-constrained scalar-on-function regression.

The functional predictor is integrated against the basis to produce one
design row per subject; the intercept and any scalar confounders stay
unconstrained while the basis-coefficient block carries the shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, eval_basis_matrix, map_to_unit, sofr_design
from .constraints import ShapeSpec, check_model
from .dataset import FunctionalDataset
from .errors import DataError
from .functional import StackedDesign, _solve_stacked, shape_system


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
    """One design row [1 | Z | W] per subject: covariates [z_i, w_i] with basis 1.

    W is the constrained block; its columns are the trapezoid integrals of
    each curve against the basis.
    """
    if data.x_curves is None:
        raise DataError("scalar-on-function regression needs functional covariates")
    if data.y_scalar is None:
        raise DataError("scalar-on-function regression needs a scalar response")
    w = sofr_design(data.x_curves, data.grid, spec)
    x = w if data.z_scalars is None else np.hstack([data.z_scalars, w])
    return StackedDesign.assemble(
        x, np.ones((1, 1)), np.ones((data.n_subjects, 1), dtype=bool),
        data.y_scalar[:, None], 1 + data.n_z,
    )


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
    design = sofr_design_matrix(data, spec)
    n = design.n_subjects
    if n < spec.order + 2 + data.n_z:
        raise DataError(
            f"need at least {spec.order + 2 + data.n_z} subjects for order {spec.order}, got {n}"
        )
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
    map_to_unit(data.grid.points, fit.basis.domain)  # validates the domain
    w = sofr_design(data.x_curves, data.grid, fit.basis)
    out = fit.alpha + w @ fit.beta_coefs
    if fit.gamma.size:
        if data.z_scalars is None or data.z_scalars.shape[1] != fit.gamma.size:
            raise DataError("prediction data is missing the scalar covariates used in training")
        out = out + data.z_scalars @ fit.gamma
    return out

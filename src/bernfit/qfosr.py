"""Quantile function-on-scalar regression under the names the benchmark tracer patches.

qfosr is a row of ``functional.build_design``: its predictors are min-max
rescaled to [0, 1], and ``fit_functional(data, "qfosr", spec, extra_shapes)``
constrains the stacked coefficient curves so that every predicted quantile
function on the predictor hypercube is non-decreasing. These wrappers keep
its older entry points by name.
"""

from __future__ import annotations

from .basis import BasisSpec
from .dataset import FunctionalDataset
from .functional import FunctionalFit, StackedDesign, build_design, fit_functional


def build_qfosr_design(data: FunctionalDataset, spec: BasisSpec) -> StackedDesign:
    """``build_design(data, "qfosr", spec)``; the predictors' ranges are its ``rescale``."""
    return build_design(data, "qfosr", spec)


def fit_qfosr(
    data: FunctionalDataset,
    spec: BasisSpec,
    extra_shapes: dict | None = None,
    pve: float = 0.95,
    whiten_fit: bool = True,
) -> FunctionalFit:
    """``fit_functional(data, "qfosr", spec, extra_shapes, pve, whiten_fit)``."""
    return fit_functional(data, "qfosr", spec, extra_shapes, pve, whiten_fit)

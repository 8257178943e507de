"""Scalar-on-function regression under the names the benchmark tracer patches.

SOFR is the one-point case of ``functional.build_design``'s integrated design
and is fitted by ``fit_functional(data, "sofr", ...)``; these wrappers keep its
older entry points by name.
"""

from __future__ import annotations

from .basis import BasisSpec
from .constraints import ShapeSpec
from .dataset import FunctionalDataset
from .functional import FunctionalFit, StackedDesign, build_design, fit_functional


def sofr_design_matrix(data: FunctionalDataset, spec: BasisSpec) -> StackedDesign:
    """``build_design(data, "sofr", spec)``."""
    return build_design(data, "sofr", spec)


def fit_sofr(
    data: FunctionalDataset, spec: BasisSpec, shape: ShapeSpec | None = None
) -> FunctionalFit:
    """``fit_functional(data, "sofr", spec, shape)``."""
    return fit_functional(data, "sofr", spec, shape)

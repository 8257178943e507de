"""Shape-constrained estimation for functional regression with Bernstein bases."""

from .basis import (
    BasisSpec,
    Grid,
    eval_basis_matrix,
    fofr_design,
    sofr_design,
)
from .constraints import (
    CONCAVE,
    CONVEX,
    NON_DECREASING,
    NON_INCREASING,
    NON_NEGATIVE,
    NON_POSITIVE,
    ConstraintSystem,
    ShapeSpec,
    bivariate_monotone,
    build_constraints,
    build_quantile_monotone,
    check_shape,
    combination,
    fixed_boundaries,
    partial_convex,
    quantile_monotone,
)
from .clsq import ClsqSolver, QpSolution
from .dataset import FunctionalDataset, read_dataset, write_dataset
from .errors import BernfitError, ConfigError, DataError, InfeasibleError, NumericalError
from .functional import (
    CovarianceModel,
    FunctionalFit,
    estimate_covariance,
    fit_functional,
    reconstruct_sparse,
)
from .inference import (
    CiBand,
    TestReport,
    bootstrap_shape_test,
    bootstrap_shape_test_functional,
    bootstrap_shape_test_scalar,
    projection_ci,
    qfosr_projection_ci,
)
from .model_selection import CvResult, cv_select_order
from .qfosr import fit_qfosr
from .simulation import (
    MetricTable,
    ScenarioSpec,
    generate_scenario,
    imse,
    run_benchmark,
)
from .sofr import fit_sofr

__all__ = [
    "BasisSpec",
    "Grid",
    "eval_basis_matrix",
    "sofr_design",
    "fofr_design",
    "ShapeSpec",
    "ConstraintSystem",
    "build_constraints",
    "build_quantile_monotone",
    "check_shape",
    "combination",
    "fixed_boundaries",
    "bivariate_monotone",
    "partial_convex",
    "quantile_monotone",
    "NON_NEGATIVE",
    "NON_POSITIVE",
    "NON_DECREASING",
    "NON_INCREASING",
    "CONVEX",
    "CONCAVE",
    "QpSolution",
    "ClsqSolver",
    "BernfitError",
    "DataError",
    "ConfigError",
    "NumericalError",
    "InfeasibleError",
    "FunctionalDataset",
    "read_dataset",
    "write_dataset",
    "CovarianceModel",
    "FunctionalFit",
    "estimate_covariance",
    "fit_functional",
    "reconstruct_sparse",
    "CiBand",
    "TestReport",
    "bootstrap_shape_test",
    "bootstrap_shape_test_scalar",
    "bootstrap_shape_test_functional",
    "projection_ci",
    "qfosr_projection_ci",
    "CvResult",
    "cv_select_order",
    "fit_qfosr",
    "MetricTable",
    "ScenarioSpec",
    "generate_scenario",
    "imse",
    "run_benchmark",
    "fit_sofr",
]

__version__ = "0.1.0"

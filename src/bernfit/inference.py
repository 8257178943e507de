"""Projection-based confidence intervals and residual-bootstrap shape tests.

The interval construction samples from the large-sample normal law of the
unconstrained estimator, projects every draw onto the constraint polyhedron
in the Gram-weighted norm, and reads off pointwise quantiles of the
projected coefficient functions. The estimator covariance is the
heteroskedasticity-robust sandwich for scalar responses and the model-based
generalized-least-squares covariance after pre-whitening for functional
responses (whitened errors have unit covariance by construction).

The tests compare constrained (null) and unconstrained residual sums of
squares through T = (RSS_c - RSS_u) / RSS_u, with the null distribution
rebuilt by resampling residuals: individual residuals for scalar responses,
whole residual curves for functional responses (no pre-whitening on that
path, so the resampled curves carry the original within-curve covariance).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, TensorBasisSpec, eval_basis_matrix
from .clsq import ClsqSolver
from .constraints import ShapeSpec, build_constraints
from .dataset import FunctionalDataset
from .errors import ConfigError, DataError
from .functional import StackedDesign, _prewhiten, build_design
from .sofr import sofr_design_matrix
from .utils import spawn_rng


@dataclass
class CiBand:
    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    draws: int
    seed: int

    def to_json(self) -> dict:
        return {
            "grid": self.grid.tolist(),
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
            "level": self.level,
            "draws": self.draws,
            "seed": self.seed,
        }


@dataclass
class TestReport:
    statistic: float
    p_value: float
    rss_constrained: float
    rss_unconstrained: float
    bootstrap_stats: np.ndarray
    seed: int

    def to_json(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "rss_constrained": self.rss_constrained,
            "rss_unconstrained": self.rss_unconstrained,
            "bootstrap_stats": self.bootstrap_stats.tolist(),
            "seed": self.seed,
        }


def _normal_factor(cov: np.ndarray) -> np.ndarray:
    """Square root of a covariance that may be PSD only up to roundoff."""
    cov = 0.5 * (cov + cov.T)
    evals, evecs = np.linalg.eigh(cov)
    floor = -1e-10 * max(float(np.abs(evals).max()), 1e-300)
    if evals.min() < floor:
        warnings.warn("draw covariance has negative eigenvalues; clipping to zero")
    return evecs * np.sqrt(np.maximum(evals, 0.0))


def _stacked_ingredients(design: StackedDesign, data: FunctionalDataset, pve, whiten_fit):
    """Unconstrained estimate of a stacked design with its draw covariance.

    After pre-whitening the errors have unit covariance by construction, so
    the model-based GLS covariance applies; on the raw design the errors stay
    correlated within a subject and the subject-level sandwich is used (with
    one row per subject, as for SOFR, that is the HC0 sandwich).
    """
    if whiten_fit:
        design, _ = _prewhiten(design, data, pve)
    n = design.n_subjects
    gram, rhs, _ = design.gram_parts()
    beta_ur = ClsqSolver(gram, None).solve(rhs).beta
    omega = gram / n
    if whiten_fit:
        return beta_ur, omega, np.linalg.inv(gram)
    scores = design.z * design.residuals(beta_ur)[:, None]
    scores = np.add.reduceat(scores, design.subject_bounds()[:-1], axis=0)
    omega_inv = np.linalg.inv(omega)
    return beta_ur, omega, omega_inv @ (scores.T @ scores / n) @ omega_inv / n


def _project(z: np.ndarray, omega: np.ndarray, projector: ClsqSolver) -> np.ndarray:
    """Omega-norm projection of ``z`` onto the projector's constraint polyhedron.

    Feasible points come back unchanged, which makes the projection
    idempotent; otherwise argmin_{A beta >= b} (beta - z)' omega (beta - z)
    is the constrained least-squares solution with Gram omega and rhs omega z.
    """
    cons = projector.constraints
    if cons is None or cons.worst_violation(z) <= 0.0:
        return z
    return projector.solve(omega @ z).beta


def _projection_band(
    beta_ur, omega, delta_n, constraints, spec, offset, grid, level, draws, seed
) -> CiBand:
    """Draw around ``beta_ur``, project each draw, read off pointwise quantiles.

    The band is for the coefficient function of ``spec`` whose coefficients
    start at ``offset`` in the stacked vector.
    """
    projector = ClsqSolver(omega, constraints)
    factor = _normal_factor(delta_n)
    grid = np.asarray(grid, dtype=float)
    basis = eval_basis_matrix(grid, spec)
    block_slice = slice(offset, offset + spec.n_coefs)
    curves = np.empty((draws, grid.size))
    for b in range(draws):
        z_b = beta_ur + factor @ spawn_rng(seed, b).standard_normal(beta_ur.size)
        curves[b] = basis @ _project(z_b, omega, projector)[block_slice]
    alpha = 1.0 - level
    return CiBand(
        grid=grid,
        lower=np.quantile(curves, alpha / 2.0, axis=0),
        upper=np.quantile(curves, 1.0 - alpha / 2.0, axis=0),
        level=level,
        draws=draws,
        seed=seed,
    )


def _check_band_args(level: float, draws: int) -> None:
    if not 0.0 < level < 1.0:
        raise ConfigError("level must be in (0, 1)")
    if draws < 100:
        raise ConfigError("use at least 100 draws")


def projection_ci(
    data: FunctionalDataset,
    model: str,
    spec: BasisSpec,
    shape: ShapeSpec | None = None,
    level: float = 0.95,
    draws: int = 500,
    seed: int = 0,
    eval_grid=None,
    pve: float = 0.95,
    whiten_fit: bool = True,
) -> CiBand:
    """Pointwise confidence band for the (possibly constrained) coefficient.

    With ``shape=None`` the projection is the identity and the band is the
    plain percentile band of the normal draws.
    """
    _check_band_args(level, draws)
    if model == "fofr":
        raise ConfigError("confidence bands for bivariate coefficients are not supported")
    if model == "sofr":
        design = sofr_design_matrix(data, spec)
        whiten_fit = False  # one row per subject: the sandwich is HC0
    elif model in ("fosr", "flcm"):
        design = build_design(data, model, spec)
    else:
        raise ConfigError(f"unknown model {model!r}")
    beta_ur, omega, delta_n = _stacked_ingredients(design, data, pve, whiten_fit)
    offset = design.n_free
    constraints = None
    if shape is not None:
        constraints = build_constraints(shape, spec).padded(offset, beta_ur.size)
    grid = eval_grid if eval_grid is not None else data.grid.points
    return _projection_band(
        beta_ur, omega, delta_n, constraints, spec, offset, grid, level, draws, seed
    )


def qfosr_projection_ci(
    data: FunctionalDataset,
    spec: BasisSpec,
    block: int,
    level: float = 0.95,
    draws: int = 500,
    seed: int = 0,
    extra_shapes: dict | None = None,
    eval_grid=None,
    pve: float = 0.95,
    whiten_fit: bool = True,
) -> CiBand:
    """Pointwise band for one quantile-regression coefficient function.

    ``block`` picks the curve: 0 is the intercept, j >= 1 the j-th predictor
    effect (on the rescaled [0, 1] predictor). Draws around the unconstrained
    estimator are projected onto the monotonicity polyhedron (plus any extra
    per-block shapes) before the quantiles are read off.
    """
    from .qfosr import build_qfosr_design, qfosr_constraints

    _check_band_args(level, draws)
    design, _ = build_qfosr_design(data, spec)
    j_count = data.z_scalars.shape[1]
    if not 0 <= block <= j_count:
        raise ConfigError(f"block must be in 0..{j_count}")
    beta_ur, omega, delta_n = _stacked_ingredients(design, data, pve, whiten_fit)
    constraints = qfosr_constraints(spec, j_count, extra_shapes)
    grid = eval_grid if eval_grid is not None else data.grid.points
    return _projection_band(
        beta_ur, omega, delta_n, constraints, spec, block * spec.n_coefs, grid, level, draws, seed
    )


def _statistic(rss_c: float, rss_u: float) -> float:
    if rss_u <= 0.0:
        if rss_c > 0.0:
            warnings.warn("unconstrained fit is exact; test statistic set to infinity")
            return float("inf")
        return 0.0
    return max(0.0, (rss_c - rss_u) / rss_u)


def _bootstrap_test(design, shape_null, coef_spec, resampler, draws: int, seed: int) -> TestReport:
    """Residual bootstrap of T = (RSS_c - RSS_u) / RSS_u around the null fit.

    ``resampler(beta_u, beta_c)`` returns a function of a generator that
    rebuilds the moments (Z'y*, y*'y*) of one bootstrap response; the
    constrained and unconstrained solvers are factored once and re-solved
    per draw.
    """
    constraints = build_constraints(shape_null, coef_spec).padded(design.n_free, design.n_coefs)
    gram, rhs, yty = design.gram_parts()
    solver_u = ClsqSolver(gram, None)
    solver_c = ClsqSolver(gram, constraints)
    sol_u = solver_u.solve(rhs, yty)
    sol_c = solver_c.solve(rhs, yty)
    t_obs = _statistic(sol_c.rss, sol_u.rss)
    moments = resampler(sol_u.beta, sol_c.beta)
    stats_boot = np.empty(draws)
    for b in range(draws):
        rhs_star, yty_star = moments(spawn_rng(seed, b))
        rss_u = solver_u.solve(rhs_star, yty_star).rss
        rss_c = solver_c.solve(rhs_star, yty_star).rss
        stats_boot[b] = _statistic(rss_c, rss_u)
    p_value = float(np.count_nonzero(stats_boot >= t_obs)) / draws
    return TestReport(
        statistic=t_obs,
        p_value=p_value,
        rss_constrained=sol_c.rss,
        rss_unconstrained=sol_u.rss,
        bootstrap_stats=stats_boot,
        seed=seed,
    )


def bootstrap_shape_test_scalar(
    data: FunctionalDataset,
    spec: BasisSpec,
    shape_null: ShapeSpec,
    draws: int = 200,
    seed: int = 0,
) -> TestReport:
    """Residual bootstrap test of a shape null for scalar responses.

    Residuals come from the unconstrained fit; bootstrap responses are
    rebuilt around the constrained (null) fitted values, and the statistic
    is recomputed on each resample.
    """
    if draws < 100:
        raise ConfigError("use at least 100 bootstrap draws")
    design = sofr_design_matrix(data, spec)
    z, n = design.z, design.n_subjects

    def resampler(beta_u, beta_c):
        residuals = design.residuals(beta_u)
        fitted_null = z @ beta_c

        def moments(rng):
            y_star = fitted_null + residuals[rng.integers(0, n, size=n)]
            return z.T @ y_star, float(y_star @ y_star)

        return moments

    return _bootstrap_test(design, shape_null, spec, resampler, draws, seed)


def bootstrap_shape_test_functional(
    data: FunctionalDataset,
    model: str,
    spec: BasisSpec | TensorBasisSpec,
    shape_null: ShapeSpec,
    draws: int = 200,
    seed: int = 0,
) -> TestReport:
    """Residual bootstrap test for functional responses.

    Whole residual curves are resampled with replacement so the bootstrap
    errors keep the within-curve covariance; both fits are raw stacked least
    squares without pre-whitening for the same reason. Requires densely
    observed responses.
    """
    if draws < 100:
        raise ConfigError("use at least 100 bootstrap draws")
    if not data.is_dense("y"):
        raise DataError("the functional shape test needs densely observed responses")
    design = build_design(data, model, spec)
    n, m = design.n_subjects, design.n_points
    # per-subject views made once: the draw loop indexes them n times per draw
    zt_list = list(design.z.reshape(n, m, design.n_coefs).transpose(0, 2, 1))

    def resampler(beta_u, beta_c):
        resid_curves = list(design.residuals(beta_u).reshape(n, m))
        fitted_null = list((design.z @ beta_c).reshape(n, m))

        def moments(rng):
            pick = rng.integers(0, n, size=n)
            rhs_star = np.zeros(design.n_coefs)
            yty_star = 0.0
            for i in range(n):
                y_star = fitted_null[i] + resid_curves[pick[i]]
                rhs_star += zt_list[i] @ y_star
                yty_star += float(y_star @ y_star)
            return rhs_star, yty_star

        return moments

    return _bootstrap_test(design, shape_null, spec, resampler, draws, seed)


def bootstrap_shape_test(
    data: FunctionalDataset,
    model: str,
    spec: BasisSpec | TensorBasisSpec,
    shape_null: ShapeSpec,
    draws: int = 200,
    seed: int = 0,
) -> TestReport:
    """Dispatch to the scalar or functional bootstrap by model kind."""
    if model == "sofr":
        return bootstrap_shape_test_scalar(data, spec, shape_null, draws=draws, seed=seed)
    if model in ("fosr", "flcm", "fofr"):
        return bootstrap_shape_test_functional(data, model, spec, shape_null, draws, seed)
    raise ConfigError(f"unknown model {model!r}")

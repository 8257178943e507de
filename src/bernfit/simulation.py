"""Synthetic data generators and the Monte Carlo benchmark harness.

Five named scenarios cover the estimation settings the package targets:

A         scalar-on-function, nonnegative coefficient 0.1 sin(pi t)
B         concurrent model, decreasing coefficient 5 cos(pi t)
B_sparse  scenario B observed at 5-10 random points per subject
C         concurrent model, increasing concave coefficient 5 sin(pi t / 2)
S1        scenario B design with the constant coefficient 2.5 on the
          boundary of the decreasing constraint set

Covariate processes are score expansions in polynomials orthonormalized in
the empirical inner product on the scenario grid; every draw is keyed by
(seed, replication, role) so replications regenerate bit-identically in any
execution order.

``scipy.stats`` is imported inside ``MetricTable.summary``, the one place that
uses it (its two t-tests): importing it takes about half a second, which
every CLI call would otherwise pay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import Grid, quadrature_weights
from .constraints import (
    CONCAVE,
    NON_DECREASING,
    NON_INCREASING,
    NON_NEGATIVE,
    ShapeSpec,
    combination,
)
from .dataset import FunctionalDataset
from .errors import BernfitError, ConfigError, InfeasibleError
from .utils import parallel_map, spawn_rng

# stream roles within one replication
_SCORES, _XI, _NOISE, _SPARSITY = 0, 1, 2, 3

SCENARIO_KINDS = ("A", "B", "B_sparse", "C", "S1")


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    n: int
    seed: int = 0
    replications: int = 1
    m: int | None = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario {self.kind!r}; choose from {SCENARIO_KINDS}")
        if self.n < 10:
            raise ConfigError("scenarios need n >= 10")
        if self.replications < 1:
            raise ConfigError("need at least one replication")

    @property
    def grid_size(self) -> int:
        if self.m is not None:
            return self.m
        return 50 if self.kind == "A" else 40

    @property
    def model(self) -> str:
        return "sofr" if self.kind == "A" else "flcm"

    @property
    def default_order(self) -> int:
        return 4 if self.kind == "A" else 5

    @property
    def shape(self) -> ShapeSpec:
        if self.kind == "A":
            return NON_NEGATIVE
        if self.kind == "C":
            return combination(NON_DECREASING, CONCAVE)
        return NON_INCREASING


def orthonormal_polynomials(points: np.ndarray, count: int) -> np.ndarray:
    """Rows are polynomials of degree 0..count-1 with unit Euclidean norm
    over ``points`` and mutually orthogonal there (the usual orthogonal
    regression-polynomial construction on a grid).

    Shifted Legendre columns are re-orthonormalized by QR, which preserves
    degrees and makes the grid Gram exactly the identity.
    """
    points = np.asarray(points, dtype=float)
    vander = np.polynomial.legendre.legvander(2.0 * points - 1.0, count - 1)
    q, r = np.linalg.qr(vander)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T


def _true_coefficients(kind: str):
    if kind == "A":
        return None, lambda t: 0.1 * np.sin(np.pi * np.asarray(t, dtype=float))
    if kind in ("B", "B_sparse"):
        return (
            lambda t: 8.0 * np.sin(np.pi * np.asarray(t, dtype=float)),
            lambda t: 5.0 * np.cos(np.pi * np.asarray(t, dtype=float)),
        )
    if kind == "C":
        return (
            lambda t: 3.0 * np.cos(np.pi * np.asarray(t, dtype=float)),
            lambda t: 5.0 * np.sin(0.5 * np.pi * np.asarray(t, dtype=float)),
        )
    # S1: scenario-B design with a boundary-case constant coefficient
    return (
        lambda t: 8.0 * np.sin(np.pi * np.asarray(t, dtype=float)),
        lambda t: np.full_like(np.asarray(t, dtype=float), 2.5),
    )


def generate_scenario(spec: ScenarioSpec, replication: int = 0) -> FunctionalDataset:
    """One synthetic dataset; (seed, replication) determines it completely."""
    m = spec.grid_size
    pts = np.linspace(0.0, 1.0, m)
    beta0_fn, beta1_fn = _true_coefficients(spec.kind)
    meta = {
        "scenario": spec.kind,
        "model": spec.model,
        "replication": replication,
        "beta_true": beta1_fn,
        "beta0_true": beta0_fn,
        "shape": spec.shape,
        "default_order": spec.default_order,
    }
    if spec.kind == "A":
        k = 20
        phis = orthonormal_polynomials(pts, k)
        sds = np.sqrt(np.arange(k, 0, -1, dtype=float))
        scores = spawn_rng(spec.seed, replication, _SCORES).standard_normal((spec.n, k)) * sds
        x = scores @ phis
        w = quadrature_weights(pts)
        signal = (x * w) @ beta1_fn(pts)
        eps = 0.05 * spawn_rng(spec.seed, replication, _NOISE).standard_normal(spec.n)
        y = 0.15 + signal + eps
        return FunctionalDataset(
            grid=Grid(pts), ids=[f"s{i}" for i in range(spec.n)], x_curves=x, y_scalar=y, meta=meta
        )

    k = 5
    phis = orthonormal_polynomials(pts, k)
    sds = np.sqrt(np.arange(k, 0, -1, dtype=float))
    scores = spawn_rng(spec.seed, replication, _SCORES).standard_normal((spec.n, k)) * sds
    x = scores @ phis
    xi = spawn_rng(spec.seed, replication, _XI).standard_normal((spec.n, 2)) * np.array([0.5, 0.75])
    noise = 0.5 * spawn_rng(spec.seed, replication, _NOISE).standard_normal((spec.n, m))
    errors = xi[:, [0]] * np.cos(pts) + xi[:, [1]] * np.sin(pts) + noise
    y = beta0_fn(pts) + x * beta1_fn(pts) + errors
    if spec.kind == "B_sparse":
        rng = spawn_rng(spec.seed, replication, _SPARSITY)
        keep = np.zeros((spec.n, m), dtype=bool)
        for i in range(spec.n):
            m_i = int(rng.integers(5, 11))
            keep[i, np.sort(rng.choice(m, size=m_i, replace=False))] = True
        x = np.where(keep, x, np.nan)
        y = np.where(keep, y, np.nan)
    return FunctionalDataset(
        grid=Grid(pts), ids=[f"s{i}" for i in range(spec.n)], x_curves=x, y_curves=y, meta=meta
    )


def imse(beta_hat, beta_true) -> float:
    """Trapezoid integral of the squared estimation error over [0, 1] at 200 points."""
    t = np.linspace(0.0, 1.0, 200)
    diff = np.asarray(beta_hat(t), dtype=float) - np.asarray(beta_true(t), dtype=float)
    return float(np.trapezoid(diff**2, t))


@dataclass
class MetricTable:
    """Per-replication benchmark metrics with paper-style summaries."""

    scenario: str
    n: int
    mode: str
    imse_constrained: np.ndarray = field(default_factory=lambda: np.empty(0))
    imse_unconstrained: np.ndarray = field(default_factory=lambda: np.empty(0))
    coverage: np.ndarray = field(default_factory=lambda: np.empty(0))
    width: np.ndarray = field(default_factory=lambda: np.empty(0))
    rejections: np.ndarray = field(default_factory=lambda: np.empty(0))
    replication_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    failures: int = 0
    seed: int = 0

    def summary(self) -> dict:
        out: dict = {
            "scenario": self.scenario,
            "n": self.n,
            "mode": self.mode,
            "replications": int(max(self.imse_constrained.size, self.coverage.size, self.rejections.size)),
            "failures": self.failures,
            "seed": self.seed,
        }
        if self.imse_constrained.size:
            con, unc = self.imse_constrained, self.imse_unconstrained
            out.update(
                {
                    "imse_constrained_mean": float(con.mean()),
                    "imse_constrained_sd": float(con.std(ddof=1)) if con.size > 1 else 0.0,
                    "imse_unconstrained_mean": float(unc.mean()),
                    "imse_unconstrained_sd": float(unc.std(ddof=1)) if unc.size > 1 else 0.0,
                }
            )
            if con.mean() > 0:
                out["efficiency_ratio"] = float(unc.mean() / con.mean())
            if con.size > 1:
                from scipy import stats

                paired = stats.ttest_rel(con, unc)
                welch = stats.ttest_ind(con, unc, equal_var=False)
                out["p_value_paired"] = float(paired.pvalue)
                # unpaired comparison, reported for comparability with two-sample summaries
                out["p_value_two_sample"] = float(welch.pvalue)
        if self.coverage.size:
            out["coverage_mean"] = float(self.coverage.mean())
            out["width_mean"] = float(self.width.mean())
        if self.rejections.size:
            out["rejection_rate"] = float(self.rejections.mean())
        return out

    def summary_row(self) -> dict:
        """One flat row in the layout of the published comparison tables."""
        s = self.summary()
        if self.mode == "imse":
            return {
                "scenario": self.scenario,
                "n": self.n,
                "constrained_mean": s.get("imse_constrained_mean", ""),
                "constrained_sd": s.get("imse_constrained_sd", ""),
                "unconstrained_mean": s.get("imse_unconstrained_mean", ""),
                "unconstrained_sd": s.get("imse_unconstrained_sd", ""),
                "p_value_two_sample": s.get("p_value_two_sample", ""),
                "p_value_paired": s.get("p_value_paired", ""),
            }
        if self.mode == "coverage":
            return {
                "scenario": self.scenario,
                "n": self.n,
                "coverage_mean": s.get("coverage_mean", ""),
                "width_mean": s.get("width_mean", ""),
            }
        rate = s.get("rejection_rate", "")
        return {"scenario": self.scenario, "n": self.n, "rejection_rate": rate}

    def rows(self) -> list[dict]:
        rows = []
        for r, label in enumerate(self.replication_ids):
            row: dict = {"replication": int(label)}
            if self.imse_constrained.size:
                row["imse_constrained"] = float(self.imse_constrained[r])
                row["imse_unconstrained"] = float(self.imse_unconstrained[r])
            if self.coverage.size:
                row["coverage"] = float(self.coverage[r])
                row["width"] = float(self.width[r])
            if self.rejections.size:
                row["rejected"] = int(self.rejections[r])
            rows.append(row)
        return rows


def run_benchmark(
    spec: ScenarioSpec,
    mode: str = "imse",
    order: int | None = None,
    ci_draws: int = 300,
    bootstrap_draws: int = 200,
    test_shape: ShapeSpec | None = None,
    threads: int = 1,
) -> MetricTable:
    """Monte Carlo benchmark over ``spec.replications`` datasets.

    ``mode`` selects the protocol: paired constrained/unconstrained IMSE under
    the scenario's shape, 95% pointwise interval coverage of the true
    coefficient, or bootstrap shape-test rejections of ``test_shape`` at the
    5% level. Replications run serially; ``threads`` is accepted and has no
    effect.
    """
    from .inference import bootstrap_shape_test, projection_ci
    from .functional import fit_functional, reconstruct_sparse
    from .basis import BasisSpec

    if mode not in ("imse", "coverage", "test"):
        raise ConfigError(f"unknown benchmark mode {mode!r}")
    if mode == "test" and test_shape is None:
        raise ConfigError("test mode needs the null shape to test")
    order = order if order is not None else spec.default_order
    shape = spec.shape
    basis = BasisSpec(order)

    def one_replication(rep: int):
        data = reconstruct_sparse(generate_scenario(spec, rep))  # complete data comes back as is
        beta_true = data.meta["beta_true"]
        if mode == "imse":
            # the unconstrained arm is the plain stacked least-squares fit,
            # mirroring the off-the-shelf baselines it stands in for
            con = fit_functional(data, spec.model, basis, shape)
            unc = fit_functional(data, spec.model, basis, None, whiten_fit=False)
            return imse(con.beta1_fn, beta_true), imse(unc.beta1_fn, beta_true)
        if mode == "coverage":
            band = projection_ci(
                data, spec.model, basis, shape, draws=ci_draws, seed=spec.seed + 7919 * (rep + 1)
            )
            truth = np.asarray(beta_true(band.grid), dtype=float)
            covered = (band.lower <= truth) & (truth <= band.upper)
            return float(covered.mean()), float((band.upper - band.lower).mean())
        report = bootstrap_shape_test(
            data,
            spec.model,
            basis,
            test_shape,
            draws=bootstrap_draws,
            seed=spec.seed + 104729 * (rep + 1),
        )
        return int(report.p_value <= 0.05)

    outcomes = parallel_map(_Catcher(one_replication), range(spec.replications))
    ok = [rep for rep, outcome in enumerate(outcomes) if outcome is not None]
    results = [outcomes[rep] for rep in ok]
    table = MetricTable(scenario=spec.kind, n=spec.n, mode=mode, seed=spec.seed)
    table.replication_ids = np.asarray(ok, dtype=int)
    table.failures = len(outcomes) - len(ok)
    if mode == "imse":
        arr = np.asarray(results, dtype=float).reshape(-1, 2)
        table.imse_constrained = arr[:, 0]
        table.imse_unconstrained = arr[:, 1]
    elif mode == "coverage":
        arr = np.asarray(results, dtype=float).reshape(-1, 2)
        table.coverage = arr[:, 0]
        table.width = arr[:, 1]
    else:
        table.rejections = np.asarray(results, dtype=int)
    return table


class _Catcher:
    """Wrap a replication worker so isolated failures are counted, not fatal.

    Only the errors the CLI maps to exit codes count as replication
    failures. Of the configuration errors only an infeasible constraint
    system depends on the replication's data; any other one would fail every
    replication alike, so it propagates, as does anything else (a bug).
    """

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, rep):
        try:
            return self.fn(rep)
        except InfeasibleError:
            return None
        except ConfigError:
            raise
        except (BernfitError, np.linalg.LinAlgError):
            return None

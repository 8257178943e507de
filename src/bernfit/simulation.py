"""Synthetic data generators and the Monte Carlo benchmark harness.

Five named scenarios cover the estimation settings the package targets:

A         scalar-on-function, nonnegative coefficient 0.1 sin(pi t)
B         concurrent model, decreasing coefficient 5 cos(pi t)
B_sparse  scenario B observed at 5-10 random points per subject
C         concurrent model, increasing concave coefficient 5 sin(pi t / 2)
S1        scenario B design with the constant coefficient 2.5 on the
          boundary of the decreasing constraint set

Covariate processes are score expansions in polynomials orthonormalized in
the empirical inner product on the scenario grid, made once per grid size and
score count and shared read-only; every draw is keyed by
(seed, replication, role) so replications regenerate bit-identically in any
execution order.

``run_benchmark`` measures each replication into one record (or counts it as
a failure when it fails on its own data); ``MetricTable`` keeps the records,
which the CLI writes as ``.reps.csv``, and summarizes them by mode.

The summary's paired and Welch t-tests are computed with NumPy; their
p-values come from ``scipy.special.stdtr``, imported at the first summary,
so a bare import loads neither it nor ``scipy.stats``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .basis import Grid, quadrature_weights
from .constraints import (
    CONCAVE,
    MODELS,
    NON_DECREASING,
    NON_INCREASING,
    NON_NEGATIVE,
    ShapeSpec,
    combination,
)
from .dataset import FunctionalDataset
from .errors import BernfitError, ConfigError, InfeasibleError, is_integer
from .utils import parallel_map, spawn_rng

# stream roles within one replication
_SCORES, _XI, _NOISE, _SPARSITY = 0, 1, 2, 3

SCENARIO_KINDS = ("A", "B", "B_sparse", "C", "S1")
# the fewest and most grid points a B_sparse subject keeps
_SPARSE_POINTS = (5, 10)


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
        for name in ("n", "seed", "replications", "m"):
            value = getattr(self, name)
            if name == "m" and value is None:
                continue
            if not is_integer(value):
                raise ConfigError(f"scenario {name} must be an integer, got {value!r}")
        if self.n < 10:
            raise ConfigError("scenarios need n >= 10")
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        # the covariate's score functions need as many grid points, and a sparse
        # subject draws its points from the grid without replacement
        fewest = max(self.n_scores, _SPARSE_POINTS[1] if self.kind == "B_sparse" else 0)
        if self.grid_size < fewest:
            raise ConfigError(
                f"scenario {self.kind} needs m >= {fewest} grid points, got {self.grid_size}"
            )

    @property
    def grid_size(self) -> int:
        if self.m is not None:
            return self.m
        return 50 if self.kind == "A" else 40

    @property
    def n_scores(self) -> int:
        """How many score functions the covariate curves expand in."""
        return 20 if self.kind == "A" else 5

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


@functools.lru_cache(maxsize=16)
def _covariate_basis(m: int, count: int) -> np.ndarray:
    """``orthonormal_polynomials`` on the scenario grid of ``m`` points, made once
    per (m, count) and shared, so it is read-only."""
    phis = orthonormal_polynomials(np.linspace(0.0, 1.0, m), count)
    phis.flags.writeable = False
    return phis


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
    k = spec.n_scores
    phis = _covariate_basis(m, k)
    sds = np.sqrt(np.arange(k, 0, -1, dtype=float))
    scores = spawn_rng(spec.seed, replication, _SCORES).standard_normal((spec.n, k)) * sds
    x = scores @ phis
    if spec.kind == "A":
        w = quadrature_weights(pts)
        signal = (x * w) @ beta1_fn(pts)
        eps = 0.05 * spawn_rng(spec.seed, replication, _NOISE).standard_normal(spec.n)
        y = 0.15 + signal + eps
        return FunctionalDataset(
            grid=Grid(pts), ids=[f"s{i}" for i in range(spec.n)], x_curves=x, y_scalar=y, meta=meta
        )

    xi = spawn_rng(spec.seed, replication, _XI).standard_normal((spec.n, 2)) * np.array([0.5, 0.75])
    noise = 0.5 * spawn_rng(spec.seed, replication, _NOISE).standard_normal((spec.n, m))
    errors = xi[:, [0]] * np.cos(pts) + xi[:, [1]] * np.sin(pts) + noise
    y = beta0_fn(pts) + x * beta1_fn(pts) + errors
    if spec.kind == "B_sparse":
        rng = spawn_rng(spec.seed, replication, _SPARSITY)
        keep = np.zeros((spec.n, m), dtype=bool)
        for i in range(spec.n):
            m_i = int(rng.integers(_SPARSE_POINTS[0], _SPARSE_POINTS[1] + 1))
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


def _t_pvalue(t: float, df: float) -> float:
    """Two-sided p-value of Student's t statistic ``t`` on ``df`` degrees of freedom."""
    from scipy.special import stdtr

    return float(2.0 * stdtr(df, -abs(t)))


def _paired_t_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """p-value of the paired t-test of a against b (``scipy.stats.ttest_rel``)."""
    d = a - b
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero spread gives t = ±inf or nan
        t = d.mean() / np.sqrt(d.var(ddof=1) / d.size)
    return _t_pvalue(t, d.size - 1)


def _welch_t_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """p-value of Welch's unequal-variance t-test (``scipy.stats.ttest_ind``,
    ``equal_var=False``)."""
    vn1, vn2 = a.var(ddof=1) / a.size, b.var(ddof=1) / b.size
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (vn1 + vn2) ** 2 / (vn1**2 / (a.size - 1) + vn2**2 / (b.size - 1))
        t = (a.mean() - b.mean()) / np.sqrt(vn1 + vn2)
    # zero variances leave df undefined, and then t is ±inf or nan for any df
    return _t_pvalue(t, 1.0 if np.isnan(df) else df)


@dataclass
class MetricTable:
    """One record per replication that ran, with paper-style summaries.

    A record is ``{"replication": rep, **values}``; the values are
    ``imse_constrained`` and ``imse_unconstrained`` in imse mode, ``coverage``
    and ``width`` in coverage mode and ``rejected`` (0 or 1) in test mode.
    ``failures`` counts the replications that failed on their own data and
    left no record.
    """

    scenario: str
    n: int
    mode: str
    records: list[dict] = field(default_factory=list)
    failures: int = 0
    seed: int = 0

    def column(self, name: str) -> np.ndarray:
        return np.array([record[name] for record in self.records], dtype=float)

    def summary(self) -> dict:
        """Means and spreads of the records' values. With more than one
        replication, imse mode adds paired and two-sample t-test p-values; when
        every paired difference is 0 (the shape never binds, so the two arms
        are the same fit) the paired p-value is 1.0, where the t statistic
        would be 0/0."""
        out: dict = {
            "scenario": self.scenario,
            "n": self.n,
            "mode": self.mode,
            "replications": len(self.records),
            "failures": self.failures,
            "seed": self.seed,
        }
        if not self.records:
            return out
        if self.mode == "imse":
            con, unc = self.column("imse_constrained"), self.column("imse_unconstrained")
            for arm, values in (("constrained", con), ("unconstrained", unc)):
                out[f"imse_{arm}_mean"] = float(values.mean())
                out[f"imse_{arm}_sd"] = float(values.std(ddof=1)) if values.size > 1 else 0.0
            if con.mean() > 0:
                out["efficiency_ratio"] = float(unc.mean() / con.mean())
            if con.size > 1:
                paired = 1.0 if np.array_equal(con, unc) else _paired_t_pvalue(con, unc)
                out["p_value_paired"] = paired
                # unpaired comparison, reported for comparability with two-sample summaries
                out["p_value_two_sample"] = _welch_t_pvalue(con, unc)
        elif self.mode == "coverage":
            out["coverage_mean"] = float(self.column("coverage").mean())
            out["width_mean"] = float(self.column("width").mean())
        else:
            out["rejection_rate"] = float(self.column("rejected").mean())
        return out

    def summary_row(self) -> dict:
        """One flat row in the layout of the published comparison tables; a
        statistic the summary leaves out is blank."""
        s = self.summary()
        if self.mode == "imse":
            arms = ("imse_constrained", "imse_unconstrained")
            keys = [f"{arm}_{stat}" for arm in arms for stat in ("mean", "sd")]
            keys += ["p_value_two_sample", "p_value_paired"]
        elif self.mode == "coverage":
            keys = ["coverage_mean", "width_mean"]
        else:
            keys = ["rejection_rate"]
        row = {key.removeprefix("imse_"): s.get(key, "") for key in keys}
        return {"scenario": self.scenario, "n": self.n, **row}

    def rows(self) -> list[dict]:
        return [dict(record) for record in self.records]


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
    5% level. Each imse replication is fitted once: its unconstrained arm is
    the constrained fit's step-1 solve (sofr: the unconstrained solve of the same
    design and Gram), with the bits of ``fit_functional(data, model, spec, None,
    whiten_fit=False)``. A setting that would fail every replication alike (a
    sofr scenario with fewer subjects than coefficients, among others) is a
    ConfigError before the first replication. Replications run serially;
    ``threads`` is accepted and has no effect.
    """
    from .inference import bootstrap_shape_test, projection_ci
    from .functional import _two_step, reconstruct_sparse
    from .basis import BasisSpec

    if mode not in ("imse", "coverage", "test"):
        raise ConfigError(f"unknown benchmark mode {mode!r}")
    if mode == "test" and test_shape is None:
        raise ConfigError("test mode needs the null shape to test")
    if mode == "test" and spec.kind == "B_sparse":
        # every replication would fail the shape test's dense-response check alike
        raise ConfigError(
            f"the shape test needs densely observed responses; {spec.kind} has sparse ones"
        )
    order = order if order is not None else spec.default_order
    shape = spec.shape
    basis = BasisSpec(order)
    if MODELS[spec.model].response == "scalar" and spec.n < basis.n_coefs + 1:
        # every replication would fail the one-point design's subject count alike
        raise ConfigError(f"scenario {spec.kind} needs n >= {basis.n_coefs + 1} subjects "
                          f"for order {order}, got {spec.n}")

    def one_replication(rep: int) -> dict | None:
        """The replication's record, or None when it fails on its own data.

        Only the errors the CLI maps to exit codes count as replication
        failures. Of the configuration errors only an infeasible constraint
        system depends on the replication's data; any other one would fail
        every replication alike, so it propagates, as does anything else (a
        bug).
        """
        try:
            # complete data comes back as is
            data = reconstruct_sparse(generate_scenario(spec, rep))
            beta_true = data.meta["beta_true"]
            if mode == "imse":
                # the unconstrained arm is the plain stacked least-squares fit,
                # mirroring the off-the-shelf baselines it stands in for; it is the
                # constrained fit's step 1 (sofr: its design's unconstrained solve)
                con, unc = _two_step(data, spec.model, basis, shape, unconstrained=True)
                values = {
                    "imse_constrained": imse(con.beta1_fn, beta_true),
                    "imse_unconstrained": imse(unc.beta1_fn, beta_true),
                }
            elif mode == "coverage":
                seed = spec.seed + 7919 * (rep + 1)
                band = projection_ci(data, spec.model, basis, shape, draws=ci_draws, seed=seed)
                truth = np.asarray(beta_true(band.grid), dtype=float)
                covered = (band.lower <= truth) & (truth <= band.upper)
                values = {
                    "coverage": float(covered.mean()),
                    "width": float((band.upper - band.lower).mean()),
                }
            else:
                seed = spec.seed + 104729 * (rep + 1)
                report = bootstrap_shape_test(
                    data, spec.model, basis, test_shape, draws=bootstrap_draws, seed=seed
                )
                values = {"rejected": int(report.p_value <= 0.05)}
        except InfeasibleError:
            return None
        except ConfigError:
            raise
        except (BernfitError, np.linalg.LinAlgError):
            return None
        return {"replication": rep, **values}

    outcomes = parallel_map(one_replication, range(spec.replications))
    records = [record for record in outcomes if record is not None]
    return MetricTable(
        spec.kind, spec.n, mode, records, failures=len(outcomes) - len(records), seed=spec.seed
    )

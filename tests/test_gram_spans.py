"""A design keeps its covariate map, and builds rows only a bounded span of subjects at a time.

``StackedDesign.gram_parts`` takes a dense design's moments from x, the basis and
the whitening weight, with no rows built; a sparse or one-point design sums its
rows' products span by span, and the residuals y - Z beta are row products of
one span at a time for every design. Many spans give the one-span sums and
residuals up to rounding. The moments match per-subject sums over whitened rows
for every model, raw and whitened.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bernfit import (
    NON_INCREASING,
    BasisSpec,
    FunctionalDataset,
    Grid,
    ScenarioSpec,
    generate_scenario,
    projection_ci,
    reconstruct_sparse,
)
from bernfit import functional
from bernfit.functional import CovarianceModel, build_design, estimate_covariance, fit_functional

ROOT = Path(__file__).resolve().parents[1]


def _relative_gap(got, want) -> float:
    return float(np.abs(np.asarray(got) - want).max() / np.abs(want).max())


@pytest.mark.parametrize("span_values", [1, 1500])
@pytest.mark.parametrize("kind", ["B", "B_sparse"])
def test_many_spans_give_the_one_span_sums(monkeypatch, kind, span_values):
    data = generate_scenario(ScenarioSpec(kind, n=60, seed=4), 0)
    spec = BasisSpec(5)
    design = build_design(data, "flcm", spec)
    one_fit = fit_functional(data, "flcm", spec, NON_INCREASING)
    designs = (design, design.whitened(one_fit.covariance))
    assert len(list(design._spans())) == 1
    one_span = [d.gram_parts() for d in designs]
    beta = np.concatenate([one_fit.beta0_coefs, one_fit.beta1_coefs])
    one_residuals = design.residuals(beta)

    monkeypatch.setattr(functional, "_SPAN_VALUES", span_values)
    spans = list(design._spans())
    assert len(spans) >= 3
    bounds = design.subject_bounds()
    assert [span[0] for span in spans] == [0] + [span[1] for span in spans[:-1]]
    assert spans[-1][1] == design.n_subjects  # whole subjects, each once, in order
    assert all((lo, hi) == (bounds[first], bounds[last]) for first, last, lo, hi in spans)
    rows = np.vstack([design.rows(first, last) for first, last, _, _ in spans])
    assert np.array_equal(rows, design.rows())
    assert _relative_gap(design.residuals(beta), one_residuals) <= 1e-12
    for d, want in zip(designs, one_span):
        for got_part, want_part in zip(d.gram_parts(), want):
            assert _relative_gap(got_part, want_part) <= 1e-12
    fit = fit_functional(data, "flcm", spec, NON_INCREASING)
    for got, want in ((fit.beta0_coefs, one_fit.beta0_coefs), (fit.beta1_coefs, one_fit.beta1_coefs)):
        assert _relative_gap(got, want) <= 1e-10


def _quantile_data() -> FunctionalDataset:
    rng = np.random.default_rng(4)
    pts = np.linspace(0.0, 1.0, 15)
    z = rng.uniform(0.0, 1.0, size=(40, 2))
    q = pts * (1.0 - 0.2 * z[:, [0]]) + 0.3 * z[:, [1]] * pts**2
    q = q + 0.02 * np.abs(rng.standard_normal(q.shape)).cumsum(axis=1) / pts.size
    return FunctionalDataset(grid=Grid(pts), ids=list(range(40)), y_curves=q, z_scalars=z)


def _dense_cases() -> dict:
    b = generate_scenario(ScenarioSpec("B", n=30, seed=2, m=20), 0)
    fosr = FunctionalDataset(grid=b.grid, ids=b.ids, x_scalar=b.x_curves.mean(axis=1),
                             y_curves=b.y_curves)
    return {
        "sofr": (generate_scenario(ScenarioSpec("A", n=40, seed=1, m=30), 0), BasisSpec(4)),
        "fosr": (fosr, BasisSpec(3)),
        "flcm": (b, BasisSpec(4)),
        "fofr": (b, BasisSpec(2)),
        "qfosr": (_quantile_data(), BasisSpec(3)),
    }


_DENSE = _dense_cases()


@pytest.mark.parametrize("whiten", [False, True], ids=["raw", "whitened"])
@pytest.mark.parametrize("model", sorted(_DENSE))
def test_moments_are_per_subject_sums_of_whitened_rows(model, whiten):
    # oracle: (S z_i)'(S z_i), (S z_i)'(S y_i) and |S y_i|^2 summed over subjects,
    # S the inverse square root of the covariance (the identity on a raw design)
    data, spec = _DENSE[model]
    design = build_design(data, model, spec)
    assert design.dense
    m = design.n_points
    s = np.eye(m)
    if whiten:
        if m == 1:  # one point: the covariance is a variance
            cov = CovarianceModel(np.asarray(spec.domain[:1]), np.empty(0), np.empty((0, 1)), nugget=2.5)
        else:
            cov = estimate_covariance(data.y_curves - data.y_curves.mean(axis=0), data.grid)
            assert cov.n_components > 0
        design = design.whitened(cov)
        s = cov.inverse_sqrt()
    gram, rhs, yty = 0.0, 0.0, 0.0
    for i in range(design.n_subjects):
        z_i, y_i = s @ design.rows(i, i + 1), s @ design.y[i * m : (i + 1) * m]
        gram, rhs, yty = gram + z_i.T @ z_i, rhs + z_i.T @ y_i, yty + y_i @ y_i
    got = design.gram_parts()
    for got_part, want_part in zip(got, (gram, rhs, yty)):
        assert _relative_gap(got_part, want_part) <= 1e-12


def test_sparse_moments_are_the_products_of_the_whole_rows():
    # a sparse design keeps the span walk over its rows: within one span its raw
    # moments are the products of the row-stacked matrix, bit for bit, as they were
    # when the design stored that matrix (whitened, see test_functional's
    # per-subject oracle of the batched sparse whitening)
    data = reconstruct_sparse(generate_scenario(ScenarioSpec("B_sparse", n=30, seed=3), 0))
    design = build_design(data, "flcm", BasisSpec(4))
    assert not design.dense
    z, y = design.rows(), design.y
    for got, want in zip(design.gram_parts(), (z.T @ z, z.T @ y, float(y @ y))):
        assert np.array_equal(got, want)


def test_fit_and_band_hold_no_design_rows(monkeypatch):
    # a dense design's moments need no rows, and its residuals need one span's rows
    # at a time: with spans of 20000 values, so that the design spans many (a design
    # within one span keeps its rows), the fit and the band peak far below the
    # n*m*p*8 bytes of its rows. The band is unconstrained, as the projection's
    # working set scales with the draws and the constraint rows, not the design.
    n, m, spec = 400, 50, BasisSpec(10)
    data = generate_scenario(ScenarioSpec("B", n=n, seed=1, m=m), 0)
    rows_bytes = n * m * 2 * spec.n_coefs * 8
    monkeypatch.setattr(functional, "_SPAN_VALUES", 20000)
    calls = {
        "fit": lambda: fit_functional(data, "flcm", spec, NON_INCREASING),
        "band": lambda: projection_ci(data, "flcm", spec, None, draws=100, seed=1),
    }
    for name, call in calls.items():
        call()  # first-call allocations (caches, imports) stay out of the peak
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * rows_bytes, name


def test_every_golden_design_of_the_benchmark_fits_in_one_span(monkeypatch):
    # a golden design summed over several spans would move its moments in the
    # last bits, which can flip the band's eigenvector signs against the reference
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import workloads

    profiles = workloads.PROFILES
    designs = []  # (dataset, model, slope basis)
    for size in profiles["mc-paper"].values():
        for kind in workloads.IMSE_KINDS:
            scenario = ScenarioSpec(kind, n=size["n"], seed=workloads.REFERENCE_SEED)
            designs.append((generate_scenario(scenario, 0), scenario.model,
                            BasisSpec(scenario.default_order)))
    golden = profiles["large-n"]["golden"]
    scenario = ScenarioSpec("B", n=golden["n"], seed=workloads.REFERENCE_SEED, m=golden["m"])
    designs.append((generate_scenario(scenario, 0), "flcm", BasisSpec(golden["order"])))
    configs = workloads.CLI_CONFIGS
    for size in profiles["cli-session"].values():
        b = generate_scenario(ScenarioSpec("B", n=size["n_b"], seed=workloads.REFERENCE_SEED), 0)
        a = generate_scenario(ScenarioSpec("A", n=size["n_a"], seed=workloads.REFERENCE_SEED), 0)
        q = workloads.quantile_curves(size["n_q"], size["m_q"], workloads.REFERENCE_SEED)
        designs += [
            (b, "flcm", BasisSpec(configs["flcm"]["order"])),
            (b, "flcm", BasisSpec(max(configs["cv"]["candidates"]))),
            (b, "fofr", BasisSpec(configs["fofr"]["order"])),
            (q, "qfosr", BasisSpec(configs["qfosr"]["order"])),
            (a, "sofr", BasisSpec(configs["sofr"]["order"])),
        ]
    for data, model, spec in designs:
        design = build_design(data, model, spec)
        assert design.y.size * design.n_coefs <= functional._SPAN_VALUES, (model, spec)

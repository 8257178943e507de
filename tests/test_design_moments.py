"""A design keeps its covariate map, and builds rows only for a sparse design's moments.

``StackedDesign.gram_parts`` takes a dense design's moments, sofr's one-point
design included, from x, the basis and the whitening weight, with no rows
built; a sparse design builds its rows once and whitens them subject by subject.
The residuals y - Z beta of every design come from the covariate map
(``StackedDesign.fitted``), and so do the sandwich's per-subject scores
(``inference._scores``). Each is checked against rows built point by point
(``helpers.subject_rows``): the moments against per-subject sums over whitened
rows, the residuals against y minus the rows times the coefficients and the
scores against per-subject sums of the rows times the residuals, for every
model, raw and whitened.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from helpers import quantile_data, subject_rows

from bernfit import (
    NON_INCREASING,
    NON_NEGATIVE,
    BasisSpec,
    FunctionalDataset,
    ScenarioSpec,
    bivariate_monotone,
    generate_scenario,
    projection_ci,
    reconstruct_sparse,
)
from bernfit import functional, inference
from bernfit.functional import CovarianceModel, build_design, estimate_covariance, fit_functional


def _relative_gap(got, want) -> float:
    return float(np.abs(np.asarray(got) - want).max() / np.abs(want).max())


def _oracle_rows(design) -> np.ndarray:
    return np.vstack([subject_rows(design, i) for i in range(design.n_subjects)])


def _dense_cases() -> dict:
    b = generate_scenario(ScenarioSpec("B", n=30, seed=2, m=20), 0)
    fosr = FunctionalDataset(grid=b.grid, ids=b.ids, x_scalar=b.x_curves.mean(axis=1),
                             y_curves=b.y_curves)
    return {
        "sofr": (generate_scenario(ScenarioSpec("A", n=40, seed=1, m=30), 0), BasisSpec(4)),
        "fosr": (fosr, BasisSpec(3)),
        "flcm": (b, BasisSpec(4)),
        "fofr": (b, BasisSpec(2)),
        "qfosr": (quantile_data(), BasisSpec(3)),
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
        z_i, y_i = s @ subject_rows(design, i), s @ design.y[i * m : (i + 1) * m]
        gram, rhs, yty = gram + z_i.T @ z_i, rhs + z_i.T @ y_i, yty + y_i @ y_i
    got = design.gram_parts()
    for got_part, want_part in zip(got, (gram, rhs, yty)):
        assert _relative_gap(got_part, want_part) <= 1e-12


_RESIDUAL_CASES = {
    **_DENSE,
    "flcm-B_sparse": (
        reconstruct_sparse(generate_scenario(ScenarioSpec("B_sparse", n=30, seed=3), 0)),
        BasisSpec(4),
    ),
}


@pytest.mark.parametrize("whiten", [False, True], ids=["raw", "whitened"])
@pytest.mark.parametrize("name", sorted(_RESIDUAL_CASES))
def test_residuals_are_the_response_less_the_rows_times_the_coefficients(name, whiten):
    # the residuals are raw on a whitened design too: its covariance only weights
    # the moments
    data, spec = _RESIDUAL_CASES[name]
    model = name.split("-")[0]
    fit = fit_functional(data, model, spec)
    beta = np.concatenate([fit.beta0_coefs, fit.beta1_coefs])
    design = build_design(data, model, spec)
    if whiten:
        cov = fit.covariance
        if cov is None:  # one point: the covariance is a variance
            cov = CovarianceModel(np.asarray(spec.domain[:1]), np.empty(0), np.empty((0, 1)),
                                  nugget=2.5)
        design = design.whitened(cov)
    want = design.y - _oracle_rows(design) @ beta
    assert _relative_gap(design.residuals(beta), want) <= 1e-13


@pytest.mark.parametrize("name", ["flcm-B_sparse", "sofr"])
def test_sparse_and_one_point_moments_are_the_products_of_the_whole_rows(name):
    # a sparse design's raw moments are the products of its row-stacked matrix,
    # bit for bit, as they were when the design stored that matrix (whitened, see
    # test_functional's per-subject oracle of the batched sparse whitening); so
    # are sofr's closed-form moments, whose basis is the one value 1
    data, spec = _RESIDUAL_CASES[name]
    design = build_design(data, name.split("-")[0], spec)
    assert design.dense == (name == "sofr")
    z, y = _oracle_rows(design), design.y
    for got, want in zip(design.gram_parts(), (z.T @ z, z.T @ y, float(y @ y))):
        assert np.array_equal(got, want)


_SCORE_CASES = {
    **_DENSE,
    "flcm-S1": (generate_scenario(ScenarioSpec("S1", n=30, seed=2, m=20), 0), BasisSpec(4)),
    # not completed: x is NaN off the observed points
    "flcm-B_sparse": (generate_scenario(ScenarioSpec("B_sparse", n=30, seed=3), 0), BasisSpec(4)),
}


@pytest.mark.parametrize("name", sorted(_SCORE_CASES))
def test_scores_are_per_subject_sums_of_the_rows_times_the_residuals(name):
    # the sandwich's scores Z_i' r_i, from the covariate map, against the rows
    data, spec = _SCORE_CASES[name]
    model = name.split("-")[0]
    fit = fit_functional(data, model, spec, whiten_fit=False)
    beta = np.concatenate([fit.beta0_coefs, fit.beta1_coefs])
    design = build_design(data, model, spec)
    terms = _oracle_rows(design) * design.residuals(beta)[:, None]
    starts = np.concatenate([[0], np.cumsum(design.mask.sum(axis=1))[:-1]])
    want = np.add.reduceat(terms, starts, axis=0)
    got = inference._scores(design, beta)
    if model == "sofr":  # one point and b = 1: the same products and no sums
        assert np.array_equal(got, want)
        return
    assert _relative_gap(got, want) <= 1e-12
    # each side rounds at most twice per product and m - 1 times in its sum
    bound = 2 * (design.n_points + 2) * np.finfo(float).eps
    assert (np.abs(got - want) <= bound * np.add.reduceat(np.abs(terms), starts, axis=0)).all()


# the dense designs, each under a shape it takes
_SHAPES = {"sofr": NON_NEGATIVE, "fosr": NON_INCREASING, "flcm": NON_INCREASING,
           "fofr": bivariate_monotone(), "qfosr": {1: NON_INCREASING}}


@pytest.mark.parametrize("whiten", [True, False], ids=["whitened", "raw"])
@pytest.mark.parametrize("model", sorted(_SHAPES))
def test_dense_fit_and_band_never_build_design_rows(monkeypatch, model, whiten):
    # moments, step-1 residuals, rss_raw and the sandwich's scores of a dense
    # design all come from its covariate map; fofr has no band, and sofr's one
    # point is never whitened
    data, spec = _DENSE[model]

    def refuse(*args, **kwargs):
        raise AssertionError("design rows built")

    monkeypatch.setattr(functional.StackedDesign, "rows", refuse)
    fit = fit_functional(data, model, spec, _SHAPES[model], whiten_fit=whiten)
    assert (fit.covariance is not None) == (whiten and model != "sofr")
    assert np.isfinite(fit.rss_raw)
    if model != "fofr":
        band = projection_ci(data, model, spec, _SHAPES[model], draws=100, seed=1,
                             whiten_fit=whiten)
        assert np.isfinite(band.lower).all()


def test_fit_and_band_hold_no_design_rows():
    # a dense design's moments, residuals and scores need no rows: the fit and
    # the bands, whitened or not, peak far below the n*m*p*8 bytes of its rows.
    # The bands are unconstrained, as the projection's working set scales with
    # the draws and the constraint rows, not the design.
    n, m, spec = 400, 50, BasisSpec(10)
    data = generate_scenario(ScenarioSpec("B", n=n, seed=1, m=m), 0)
    rows_bytes = n * m * 2 * spec.n_coefs * 8
    calls = {
        "fit": lambda: fit_functional(data, "flcm", spec, NON_INCREASING),
        "band": lambda: projection_ci(data, "flcm", spec, None, draws=100, seed=1),
        "band-raw": lambda: projection_ci(data, "flcm", spec, None, draws=100, seed=1,
                                          whiten_fit=False),
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

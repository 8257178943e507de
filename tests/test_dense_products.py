"""A dense fit or band makes each data-sized product once, with the same bits.

A dense design keeps the covariate cross moments M_jl that ``gram_parts`` makes
and shares them with its whitened copy, takes y itself as W y on a raw design,
and reshapes its residuals instead of scattering them. The band projects its
draws through the solver's solutions alone and reads both of its ends from one
quantile call. None of this may move a bit: the moments equal the oracle that
recomputes every product (``helpers.dense_moments_oracle``) exactly, raw and
whitened, for every dense model with curves.
"""

from __future__ import annotations

import numpy as np
import pytest
from helpers import dense_moments_oracle, quantile_data

from bernfit import (
    NON_INCREASING,
    BasisSpec,
    FunctionalDataset,
    ScenarioSpec,
    bivariate_monotone,
    generate_scenario,
    projection_ci,
    reconstruct_sparse,
)
from bernfit import functional, inference
from bernfit.functional import _raw_residuals, build_design, fit_functional


def _cases() -> dict:
    """(dataset, model, slope basis, shape) of each dense design with curves."""
    b = generate_scenario(ScenarioSpec("B", n=30, seed=2, m=20), 0)
    fosr = FunctionalDataset(grid=b.grid, ids=b.ids, x_scalar=b.x_curves.mean(axis=1),
                             y_curves=b.y_curves)
    cases = {
        "fosr": (fosr, "fosr", BasisSpec(3), NON_INCREASING),
        "fofr": (b, "fofr", BasisSpec(2), bivariate_monotone()),
        "qfosr": (quantile_data(), "qfosr", BasisSpec(3), {1: NON_INCREASING}),
    }
    for kind in ("B", "C", "S1"):
        scenario = ScenarioSpec(kind, n=40, seed=5)
        cases[f"flcm-{kind}"] = (generate_scenario(scenario, 0), "flcm",
                                 BasisSpec(scenario.default_order), scenario.shape)
    return cases


_CASES = _cases()


@pytest.mark.parametrize("name", sorted(_CASES))
def test_moments_equal_the_recomputing_oracle_bit_for_bit(name):
    # the raw moments first, as a fit makes them; the whitened copy then reuses
    # the raw design's cross moments
    data, model, spec, shape = _CASES[name]
    cov = fit_functional(data, model, spec, shape).covariance
    assert cov is not None
    design = build_design(data, model, spec)
    assert design.dense and design.n_points > 1
    for d in (design, design.whitened(cov)):
        gram, rhs, yty = d.gram_parts()
        want_gram, want_rhs, want_yty = dense_moments_oracle(d)
        assert np.array_equal(gram, want_gram)
        assert np.array_equal(rhs, want_rhs)
        assert yty == want_yty


def test_a_whitened_copy_made_first_shares_the_moments_it_makes():
    data, model, spec, shape = _CASES["flcm-B"]
    cov = fit_functional(data, model, spec, shape).covariance
    design = build_design(data, model, spec)
    whitened = design.whitened(cov)
    got = whitened.gram_parts()
    assert sorted(design._moments) == [(0, 0), (0, 1), (1, 1)]
    for got_part, want_part in zip(got, dense_moments_oracle(whitened)):
        assert np.array_equal(got_part, want_part)
    for got_part, want_part in zip(design.gram_parts(), dense_moments_oracle(design)):
        assert np.array_equal(got_part, want_part)


def _count_cross_moments(monkeypatch) -> list:
    calls = []
    cross_moment = functional._cross_moment

    def counted(*args):
        calls.append(args)
        return cross_moment(*args)

    monkeypatch.setattr(functional, "_cross_moment", counted)
    return calls


@pytest.mark.parametrize("call", ["fit", "band"])
def test_a_whitened_flcm_fit_or_band_makes_each_cross_moment_once(monkeypatch, call):
    # flcm's U = [1, x] has the blocks (0, 0), (0, 1) and (1, 1): three moments,
    # made by the raw step and reused by the whitened one
    data, model, spec, shape = _CASES["flcm-B"]
    calls = _count_cross_moments(monkeypatch)
    if call == "fit":
        assert fit_functional(data, model, spec, shape).covariance is not None
    else:
        projection_ci(data, model, spec, shape, draws=100, seed=1)
    assert len(calls) == 3


def test_dense_residuals_are_the_reshaped_residuals():
    data, model, spec, shape = _CASES["flcm-B"]
    fit = fit_functional(data, model, spec, shape)
    beta = np.concatenate([fit.beta0_coefs, fit.beta1_coefs])
    design = build_design(data, model, spec)
    got = _raw_residuals(design, beta)
    assert np.array_equal(got, design.residuals(beta).reshape(design.n_subjects, design.n_points))
    assert np.isfinite(got).all()


def test_sparse_residuals_are_nan_exactly_off_the_mask():
    data = reconstruct_sparse(generate_scenario(ScenarioSpec("B_sparse", n=30, seed=3), 0))
    spec = BasisSpec(4)
    fit = fit_functional(data, "flcm", spec, NON_INCREASING)
    beta = np.concatenate([fit.beta0_coefs, fit.beta1_coefs])
    design = build_design(data, "flcm", spec)
    assert not design.dense
    got = _raw_residuals(design, beta)
    assert np.array_equal(np.isnan(got), ~design.mask)
    assert np.array_equal(got[design.mask], design.residuals(beta))


def test_projected_draws_are_the_solutions_solve_many_gives(monkeypatch):
    # the draw block of a coverage replication of scenario B at paper size
    seen = []
    project = inference._project

    def recorded(z, omega, projector):
        out = project(z, omega, projector)
        seen.append((z, omega, projector, out))
        return out

    monkeypatch.setattr(inference, "_project", recorded)
    scenario = ScenarioSpec("B", n=100, seed=1)
    projection_ci(generate_scenario(scenario, 0), "flcm", BasisSpec(scenario.default_order),
                  scenario.shape, draws=300, seed=2)
    (z, omega, projector, out), = seen
    rows = np.flatnonzero(projector.constraints.violations(z).max(axis=1, initial=0.0) > 0.0)
    assert rows.size > 0
    want = projector.solve_many([omega @ z[j] for j in rows])[0]
    assert np.array_equal(out[rows], want)
    kept = np.setdiff1d(np.arange(z.shape[0]), rows)
    assert np.array_equal(out[kept], z[kept])

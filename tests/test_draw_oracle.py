"""Bands and bootstrap tests seeded in one pass draw the bits of one generator per draw.

``projection_ci`` and ``bootstrap_shape_test`` take draw b's generator from
``spawn_rngs(seed, draws)``, and the band forms its draws and the projection's
right-hand sides with stacked matrix-vector products. The oracles in
``helpers`` keep the per-draw loops these replaced: ``spawn_rng(seed, b)`` for
every draw, ``factor @`` one draw at a time, ``omega @ z[j]`` row by row. Every
draw, band end and bootstrap statistic must equal the oracle's exactly, and
neither function may call ``spawn_rng`` at all.
"""

from __future__ import annotations

import numpy as np
import pytest
from helpers import band_draws_oracle, bootstrap_moments_oracle, quantile_data

from bernfit import (
    NON_INCREASING,
    NON_NEGATIVE,
    BasisSpec,
    FunctionalDataset,
    ScenarioSpec,
    bivariate_monotone,
    bootstrap_shape_test,
    generate_scenario,
    projection_ci,
)
from bernfit import inference, utils
from bernfit.basis import eval_basis_matrix
from bernfit.inference import _statistics


def _b():
    return generate_scenario(ScenarioSpec("B", n=40, seed=2), 0)


def _fosr():
    b = _b()
    return FunctionalDataset(grid=b.grid, ids=b.ids, x_scalar=b.x_curves.mean(axis=1),
                             y_curves=b.y_curves)


def _sofr():
    return generate_scenario(ScenarioSpec("A", n=60, seed=1), 0)


# name: (dataset, model, basis, shape, band keywords)
_BANDS = {
    "flcm-B": (_b, "flcm", BasisSpec(5), NON_INCREASING, {}),
    "flcm-B-raw": (_b, "flcm", BasisSpec(5), NON_INCREASING, {"whiten_fit": False}),
    "fosr": (_fosr, "fosr", BasisSpec(3), NON_INCREASING, {}),
    "sofr": (_sofr, "sofr", BasisSpec(4), NON_NEGATIVE, {}),
    "qfosr-1": (quantile_data, "qfosr", BasisSpec(3), {1: NON_INCREASING}, {"block": 1}),
}

_TESTS = {
    "flcm-S1": (lambda: generate_scenario(ScenarioSpec("S1", n=40, seed=5), 0), "flcm",
                BasisSpec(5), NON_INCREASING),
    "fosr": (_fosr, "fosr", BasisSpec(3), NON_INCREASING),
    "fofr": (_b, "fofr", BasisSpec(2), bivariate_monotone()),
    "sofr": (_sofr, "sofr", BasisSpec(4), NON_NEGATIVE),
}


def _count_spawn_rng(monkeypatch) -> list:
    calls = []
    spawn_rng = utils.spawn_rng

    def counted(*args):
        calls.append(args)
        return spawn_rng(*args)

    monkeypatch.setattr(utils, "spawn_rng", counted)
    monkeypatch.setattr(inference, "spawn_rng", counted, raising=False)
    return calls


@pytest.mark.parametrize("name", sorted(_BANDS))
def test_band_equals_the_per_draw_oracle_bit_for_bit(monkeypatch, name):
    make, model, spec, shape, kwargs = _BANDS[name]
    data = make()
    seen = []
    project = inference._project

    def recorded(z, omega, projector):
        out = project(z, omega, projector)
        seen.append((z.copy(), out))
        return out

    monkeypatch.setattr(inference, "_project", recorded)
    calls = _count_spawn_rng(monkeypatch)
    band = projection_ci(data, model, spec, shape, draws=200, seed=3, **kwargs)
    assert calls == []
    monkeypatch.undo()

    whiten = {"whiten_fit": kwargs.get("whiten_fit", True)}
    design, want = band_draws_oracle(data, model, spec, shape, 200, 3, **whiten)
    (_, got), = seen
    assert np.array_equal(got, want)
    offset = design.n_free + kwargs.get("block", 0) * spec.n_coefs
    curves = want[:, offset : offset + spec.n_coefs] @ eval_basis_matrix(band.grid, spec).T
    alpha = 1.0 - band.level
    lower, upper = np.quantile(curves, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0)
    assert np.array_equal(band.lower, lower)
    assert np.array_equal(band.upper, upper)


def test_some_band_draws_are_projected():
    # the oracle comparison covers the projection only if some draws move
    make, model, spec, shape, _ = _BANDS["flcm-B"]
    data = make()
    design, z = band_draws_oracle(data, model, spec, None, 200, 3)
    _, projected = band_draws_oracle(data, model, spec, shape, 200, 3)
    assert 0 < np.count_nonzero((z != projected).any(axis=1)) < 200


@pytest.mark.parametrize("name", sorted(_TESTS))
def test_bootstrap_equals_the_per_draw_oracle_bit_for_bit(monkeypatch, name):
    make, model, spec, shape = _TESTS[name]
    data = make()
    calls = _count_spawn_rng(monkeypatch)
    report = bootstrap_shape_test(data, model, spec, shape, draws=150, seed=2)
    assert calls == []
    monkeypatch.undo()

    rhs_star, yty_star, solver_u, solver_c = bootstrap_moments_oracle(data, model, spec, shape,
                                                                      150, 2)
    rss_u = solver_u.solve_many(rhs_star, yty_star)[1]
    rss_c = solver_c.solve_many(rhs_star, yty_star)[1]
    want = _statistics(rss_c, rss_u)
    assert np.array_equal(report.bootstrap_stats, want)
    assert report.p_value == np.count_nonzero(want >= report.statistic) / 150

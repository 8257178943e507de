"""The finite-sample fact behind the paper's first claim, checked through ``fit_functional``.

For an unwhitened fit, RSS(beta) = RSS(beta_u) + ||beta - beta_u||_G^2 with G the
Gram matrix Z'Z of the stacked design, so the constrained estimate beta_c is the
G-norm projection of the unconstrained estimate beta_u onto the feasible set K.
A projection onto a convex set satisfies <beta_u - beta_c, c - beta_c>_G <= 0 for
every c in K, which gives

    ||beta_u - c||_G^2 >= ||beta_c - c||_G^2 + ||beta_u - beta_c||_G^2,

and in particular ||beta_c - c||_G <= ||beta_u - c||_G: the constrained estimate
is never farther from a feasible truth than the unconstrained one, which is why
it is consistent whenever the unconstrained one is. Here c is the free block of
beta_u followed by the Bernstein coefficients f(k/N) of the scenario's true
slope f; the Bernstein operator preserves non-negativity, monotonicity and
concavity, so c lies in K (the test checks it). Scenario A is sofr, whose
one-point design is never whitened; B and C are flcm with ``whiten_fit=False``.
Only fits where the auto-ridge stayed off (``ridge_used == 0``) count, since a
ridge changes the Gram the projection is taken in.

Tolerance. The inequality is exact for the exact estimates; what the test
computes differs from it in two ways.
(i) Rounding of each quadratic form d'Gd of length p: at most
    gamma_2p |d|'|G||d| with gamma_2p ~ 2 p eps (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.5), summed over the three
    forms into ``2 p eps * sum_d |d|'|G||d|``.
(ii) The estimates come from backward-stable solves of systems with the
    Gram G, so each is off by at most about e = kappa(G) p eps max|beta|
    (Euclidean norm), and an error e moves ||d||_G^2 by at most
    2 ||d||_G ||e||_G <= 2 ||d||_G sqrt(lambda_max(G)) e. Both estimates enter
    every form, which doubles it: ``4 sqrt(lambda_max) e * sum_d ||d||_G``.
The tolerance is the sum of (i) and (ii). On these 24 problems it came to
between 1e-9 and 2e-6 of the gap ||beta_u - c||_G^2 - ||beta_c - c||_G^2
where a constraint is active, so a constrained estimate off by more than that
fails. Where the two sides of the second inequality tie (no active
constraint, or a truth on the face beta_c lies on) the computed sides differed
by at most 0.05 p eps sum_d |d|'|G||d|, well inside (i).
"""

from __future__ import annotations

import numpy as np
import pytest

from bernfit import BasisSpec, ScenarioSpec, check_shape, fit_functional, generate_scenario
from bernfit.functional import build_design

_EPS = np.finfo(float).eps
_SCENARIOS = {"A": "sofr", "B": "flcm", "C": "flcm"}
_REPS = range(8)


@pytest.mark.parametrize("rep", _REPS)
@pytest.mark.parametrize("kind", sorted(_SCENARIOS))
def test_constrained_fit_is_no_farther_from_a_feasible_truth(kind, rep):
    model = _SCENARIOS[kind]
    scenario = ScenarioSpec(kind, n=100, seed=11)
    data = generate_scenario(scenario, rep)
    spec, shape = BasisSpec(scenario.default_order), scenario.shape
    con = fit_functional(data, model, spec, shape, whiten_fit=False)
    unc = fit_functional(data, model, spec, None, whiten_fit=False)
    if con.ridge_used or unc.ridge_used:
        pytest.skip("the auto-ridge changed the Gram")
    gram = build_design(data, model, spec).gram_parts()[0]
    beta_u = np.concatenate([unc.beta0_coefs, unc.beta1_coefs])
    beta_c = np.concatenate([con.beta0_coefs, con.beta1_coefs])
    truth = np.asarray(data.meta["beta_true"](np.arange(spec.order + 1) / spec.order))
    assert check_shape(truth, shape, spec).feasible
    assert check_shape(con.beta1_coefs, shape, spec).feasible
    c = np.concatenate([unc.beta0_coefs, truth])

    d_u, d_c, d = beta_u - c, beta_c - c, beta_u - beta_c
    far_u, far_c, moved = (float(v @ gram @ v) for v in (d_u, d_c, d))
    p = gram.shape[0]
    abs_forms = sum(float(np.abs(v) @ np.abs(gram) @ np.abs(v)) for v in (d_u, d_c, d))
    evals = np.linalg.eigvalsh(gram)
    error = evals[-1] / evals[0] * p * _EPS * max(np.linalg.norm(beta_u), np.linalg.norm(beta_c))
    g_norms = sum(np.sqrt(max(form, 0.0)) for form in (far_u, far_c, moved))
    tol = 2 * p * _EPS * abs_forms + 4 * np.sqrt(evals[-1]) * error * g_norms

    assert far_c <= far_u + tol
    assert far_u - far_c >= moved - tol

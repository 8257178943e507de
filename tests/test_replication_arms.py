"""Each imse replication is fitted once, with the bits of two separate fits.

``run_benchmark``'s imse mode takes both arms from one call of the two-step fit:
the unconstrained arm is the constrained fit's step-1 solve (sofr, which is
never whitened, solves it on the same design and Gram). Its records must equal
the two-call oracle's (``helpers.imse_arms_oracle``) exactly, and a curve
replication must build one design, one raw Gram and one step-1 solver, where the
two calls made two of each. ``generate_scenario`` builds its covariate basis once
per grid: a shared read-only array with the bits of ``orthonormal_polynomials``.
"""

from __future__ import annotations

import numpy as np
import pytest
from helpers import imse_arms_oracle

from bernfit import (
    BasisSpec,
    ConfigError,
    ScenarioSpec,
    fit_functional,
    generate_scenario,
    reconstruct_sparse,
    run_benchmark,
)
from bernfit import clsq, functional, simulation

_KINDS = ("A", "B", "B_sparse", "C", "S1")


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("seed, n", [(0, 30), (4, 60), (9, 100)])
def test_imse_records_equal_the_two_call_oracle(kind, seed, n):
    spec = ScenarioSpec(kind, n=n, seed=seed, replications=4)
    table = run_benchmark(spec)
    assert table.rows() == imse_arms_oracle(spec)
    assert table.failures == spec.replications - len(table.records)


def test_a_failing_replication_leaves_no_record_on_either_path():
    # replication 0 fails on its own data; the oracle skips the same one
    spec = ScenarioSpec("B_sparse", n=40, seed=16, replications=4)
    table = run_benchmark(spec)
    assert table.failures == 1
    assert table.rows() == imse_arms_oracle(spec)


@pytest.mark.parametrize("kind", _KINDS)
def test_both_fits_equal_fit_functional_field_by_field(kind):
    spec = ScenarioSpec(kind, n=50, seed=2)
    data = reconstruct_sparse(generate_scenario(spec, 0))
    basis = BasisSpec(spec.default_order)
    con, unc = functional._two_step(data, spec.model, basis, spec.shape, unconstrained=True)
    want = (fit_functional(data, spec.model, basis, spec.shape),
            fit_functional(data, spec.model, basis, None, whiten_fit=False))
    for got, expected in zip((con, unc), want):
        for name, value in vars(expected).items():
            if name == "covariance":
                assert (value is None) == (getattr(got, name) is None)
                if value is not None:
                    for part, want_part in zip(vars(got.covariance).values(), vars(value).values()):
                        assert np.array_equal(part, want_part)
            elif isinstance(value, np.ndarray):
                assert np.array_equal(getattr(got, name), value)
            else:
                assert getattr(got, name) == value
    assert functional._two_step(data, spec.model, basis, spec.shape)[1] is None


def _count(monkeypatch, owner, name, counts, key, when=lambda *a, **k: True):
    """Wrap ``owner.name`` so each call that ``when`` accepts adds one to ``counts[key]``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        if when(*args, **kwargs):
            counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("kind", _KINDS)
def test_one_design_one_raw_gram_and_one_step1_solver_per_replication(monkeypatch, kind):
    counts = dict.fromkeys(("design", "raw_gram", "step1"), 0)
    _count(monkeypatch, functional, "build_design", counts, "design")
    _count(monkeypatch, functional.StackedDesign, "gram_parts", counts, "raw_gram",
           lambda design: design.cov is None)
    _count(monkeypatch, clsq.ClsqSolver, "__init__", counts, "step1",
           lambda solver, gram, constraints=None: constraints is None)
    spec = ScenarioSpec(kind, n=40, seed=1, replications=3)
    table = run_benchmark(spec)
    assert table.failures == 0
    reps = spec.replications
    # sofr's constrained fit has no step 1; its unconstrained arm factors the Gram
    # once more, as before
    assert counts == {"design": reps, "raw_gram": reps, "step1": reps}


def test_covariate_basis_made_once_per_grid_and_read_only(monkeypatch):
    simulation._covariate_basis.cache_clear()
    made = []
    original = simulation.orthonormal_polynomials
    monkeypatch.setattr(simulation, "orthonormal_polynomials",
                        lambda points, count: made.append(points.size) or original(points, count))
    for m in (23, 31):
        for rep in range(3):
            generate_scenario(ScenarioSpec("B", n=12, seed=rep, m=m), rep)
    assert made == [23, 31]
    for m, count in ((23, 5), (31, 5)):
        phis = simulation._covariate_basis(m, count)
        assert not phis.flags.writeable
        assert np.array_equal(phis, original(np.linspace(0.0, 1.0, m), count))
        with pytest.raises(ValueError):
            phis[0, 0] = 1.0


@pytest.mark.parametrize("mode", ["imse", "coverage"])
def test_a_sofr_scenario_with_fewer_subjects_than_coefficients_is_refused(monkeypatch, mode):
    # order 12 gives sofr 14 coefficients; every replication would fail alike
    monkeypatch.setattr(simulation, "generate_scenario",
                        lambda *args: pytest.fail("a replication ran"))
    with pytest.raises(ConfigError, match="needs n >= 14 subjects for order 12, got 10"):
        run_benchmark(ScenarioSpec("A", n=10, replications=2), mode=mode, order=12)

"""Tests for the constrained least-squares solver and the band's weighted projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernfit import (
    NON_DECREASING,
    NON_NEGATIVE,
    BasisSpec,
    ClsqSolver,
    ConstraintSystem,
    InfeasibleError,
    NumericalError,
    build_constraints,
    fixed_boundaries,
)

from bernfit.inference import _project

from helpers import enumerate_clsq, grid_search_projection_2d


def solve(z, y, system=None):
    """Constrained least squares min ||z beta - y||^2 through the solver's normal equations."""
    return ClsqSolver(z.T @ z, system).solve(z.T @ y, y @ y)


def random_problem(rng, n_rows=12, p=None, r=None):
    p = p if p is not None else int(rng.integers(2, 7))
    r = r if r is not None else int(rng.integers(1, 7))
    z = rng.normal(size=(n_rows, p))
    y = rng.normal(size=n_rows)
    a = rng.normal(size=(r, p))
    b = rng.normal(scale=0.5, size=r)
    # keep the region nonempty: shift rhs below a random interior point
    interior = rng.normal(size=p)
    b = np.minimum(b, a @ interior - rng.uniform(0.1, 1.0, size=r))
    return z, y, a, b


class TestSolveClsq:
    def test_unconstrained_reduces_to_ols(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(20, 4))
        y = rng.normal(size=20)
        sol = solve(z, y)
        expected = np.linalg.lstsq(z, y, rcond=None)[0]
        assert np.allclose(sol.beta, expected, atol=1e-10)
        assert sol.kkt_residual <= 1e-8 * (1 + np.abs(z.T @ y).max())

    def test_coordinatewise_clipping(self):
        z = np.eye(2)
        y = np.array([-3.0, 5.0])
        system = build_constraints(NON_NEGATIVE, BasisSpec(1))
        sol = solve(z, y, system)
        assert np.allclose(sol.beta, [0.0, 5.0], atol=1e-10)
        assert np.array_equal(sol.active_set, [0])
        assert sol.multipliers[0] > 0
        assert sol.multipliers[1] == pytest.approx(0.0, abs=1e-10)

    def test_matches_enumeration_on_monotone_problem(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(30, 6))
        y = rng.normal(size=30)
        system = build_constraints(NON_DECREASING, BasisSpec(5))
        sol = solve(z, y, system)
        oracle = enumerate_clsq(z, y, system.a, system.b)
        assert np.sum((z @ sol.beta - y) ** 2) == pytest.approx(
            np.sum((z @ oracle - y) ** 2), abs=1e-8
        )

    def test_oracle_equivalence_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(200):
            z, y, a, b = random_problem(rng)
            system = ConstraintSystem(a, b)
            sol = solve(z, y, system)
            oracle = enumerate_clsq(z, y, a, b)
            obj_solver = float(np.sum((z @ sol.beta - y) ** 2))
            obj_oracle = float(np.sum((z @ oracle - y) ** 2))
            assert obj_solver == pytest.approx(obj_oracle, abs=1e-8), f"trial {trial}"
            assert sol.kkt_residual <= 1e-8, f"trial {trial}"
            assert (a @ sol.beta - b).min() >= -1e-8, f"trial {trial}"

    def test_kkt_certificate_contents(self):
        rng = np.random.default_rng(5)
        z, y, a, b = random_problem(rng, p=5, r=4)
        system = ConstraintSystem(a, b)
        sol = solve(z, y, system)
        assert sol.multipliers.min() >= -1e-8
        slack = a @ sol.beta - b
        assert np.abs(sol.multipliers * slack).max() <= 1e-6

    def test_equality_rows(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        system = build_constraints(fixed_boundaries(1.0, -2.0), BasisSpec(3))
        sol = solve(z, y, system)
        assert sol.beta[0] == pytest.approx(1.0, abs=1e-8)
        assert sol.beta[-1] == pytest.approx(-2.0, abs=1e-8)

    def test_inconsistent_equalities_detected(self):
        z = np.eye(3)
        y = np.zeros(3)
        a = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        b = np.array([0.0, 1.0])
        system = ConstraintSystem(a, b, equality=np.array([True, True]))
        with pytest.raises(InfeasibleError) as excinfo:
            solve(z, y, system)
        assert len(excinfo.value.certificate) > 0

    def test_rss_ordering(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z, y, a, b = random_problem(rng)
            system = ConstraintSystem(a, b)
            constrained = solve(z, y, system)
            unconstrained = solve(z, y)
            assert constrained.objective >= unconstrained.objective - 1e-10
            feasible = (a @ unconstrained.beta - b).min() >= 0
            if feasible:
                assert constrained.objective == pytest.approx(unconstrained.objective, abs=1e-10)

    def test_determinism(self):
        rng = np.random.default_rng(8)
        z, y, a, b = random_problem(rng)
        system = ConstraintSystem(a, b)
        first = solve(z, y, system)
        second = solve(z, y, system)
        assert first.beta.tobytes() == second.beta.tobytes()
        assert first.multipliers.tobytes() == second.multipliers.tobytes()

    def test_rank_deficient_gram_gets_ridge(self):
        z = np.ones((10, 3))  # rank one
        y = np.arange(10.0)
        sol = solve(z, y)
        assert sol.ridge > 0
        assert np.all(np.isfinite(sol.beta))

    def test_solver_reuse_across_responses(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(40, 5))
        system = build_constraints(NON_DECREASING, BasisSpec(4))
        solver = ClsqSolver(z.T @ z, system)
        for _ in range(5):
            y = rng.normal(size=40)
            fresh = solve(z, y, system)
            reused = solver.solve(z.T @ y, float(y @ y))
            assert np.allclose(fresh.beta, reused.beta, atol=1e-12)
            assert fresh.rss == pytest.approx(reused.rss, abs=1e-9)


def small_problem(rng, p, n_eq, n_ineq, rank, tight, infeasible):
    """Constrained problem on 12 observations with a rank-``rank`` design and
    n_eq equality plus n_ineq inequality rows that all hold at a random point,
    the inequalities with slack 0 when ``tight``. ``infeasible`` ("inequality"
    or "equality") appends a contradictory pair of rows of that kind."""
    z = rng.normal(size=(12, rank)) @ rng.normal(size=(rank, p))
    y = rng.normal(size=12)
    a = rng.normal(size=(n_eq + n_ineq, p))
    point = rng.normal(size=p)
    slack = np.zeros(n_ineq) if tight else rng.uniform(0.0, 1.0, n_ineq)
    b = a @ point - np.concatenate([np.zeros(n_eq), slack])
    equality = np.arange(a.shape[0]) < n_eq
    if infeasible is not None:
        row = rng.normal(size=p)
        a = np.vstack([a, row, -row])
        b = np.concatenate([b, [1.0, 0.5] if infeasible == "inequality" else [1.0, -0.5]])
        equality = np.concatenate([equality, [infeasible == "equality"] * 2])
    return z, y, ConstraintSystem(a, b, equality)


@st.composite
def small_problems(draw):
    """Small constrained problems: p <= 6, at most 8 rows, some equality rows,
    some rank-deficient Grams (auto-ridge) and some with a contradictory pair of rows."""
    p = draw(st.integers(1, 6))
    n_eq = draw(st.integers(0, min(2, p - 1)))
    n_ineq = draw(st.integers(1 - min(n_eq, 1), 8 - n_eq))
    rank = draw(st.integers(1, p)) if draw(st.booleans()) else p
    tight = draw(st.booleans())
    infeasible = draw(st.sampled_from([None, "inequality", "equality"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z, y, system = small_problem(rng, p, n_eq, n_ineq, rank, tight, infeasible)
    return z, y, system, rank < p, infeasible is not None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_problems())
def test_solver_properties_against_enumeration(problem):
    z, y, system, rank_deficient, infeasible = problem
    if infeasible:
        with pytest.raises(InfeasibleError) as excinfo:
            solve(z, y, system)
        assert len(excinfo.value.certificate) > 0
        return
    sol = solve(z, y, system)
    assert (sol.ridge > 0) == rank_deficient
    eq = system.equality
    scale = 1.0 + np.abs(system.b).max()
    resid = system.a @ sol.beta - system.b
    assert np.abs(resid[eq]).max(initial=0.0) <= 1e-8 * scale
    assert resid[~eq].min(initial=0.0) >= -1e-8 * scale
    assert sol.multipliers[~eq].min(initial=0.0) >= -1e-8
    assert sol.kkt_residual <= 1e-8 * (1.0 + np.abs(z.T @ y).max())
    # brute force on the ridged problem, each equality row as a pair of inequalities
    z_aug = np.vstack([z, np.sqrt(sol.ridge) * np.eye(z.shape[1])])
    y_aug = np.concatenate([y, np.zeros(z.shape[1])])
    oracle = enumerate_clsq(
        z_aug, y_aug, np.vstack([system.a, -system.a[eq]]), np.concatenate([system.b, -system.b[eq]])
    )
    best = float(np.sum((z_aug @ oracle - y_aug) ** 2))
    assert abs(sol.objective - best) <= 1e-9 * max(best, 1.0)


def test_no_stalls_on_rank_deficient_or_infeasible_problems():
    # the problems of the property test where a dual solver is most likely to
    # stall: 3000 with a rank-deficient Gram (auto-ridged) and 3000 infeasible
    # ones; a NumericalError from either kind fails the test
    rng = np.random.default_rng(20220909)
    for infeasible in (None, "inequality", "equality"):
        for _ in range(3000 if infeasible is None else 1500):
            p = int(rng.integers(2 if infeasible is None else 1, 7))
            n_eq = int(rng.integers(0, min(2, p - 1) + 1))
            n_ineq = int(rng.integers(1 - min(n_eq, 1), 9 - n_eq))
            rank = int(rng.integers(1, p + (infeasible is not None)))
            z, y, system = small_problem(rng, p, n_eq, n_ineq, rank, rng.random() < 0.5, infeasible)
            if infeasible is None:
                sol = solve(z, y, system)
                assert sol.ridge > 0
                worst = system.violations(sol.beta).max(initial=0.0)
                assert worst <= 1e-8 * (1.0 + np.abs(system.b).max())
            else:
                with pytest.raises(InfeasibleError) as excinfo:
                    solve(z, y, system)
                assert len(excinfo.value.certificate) > 0


@pytest.mark.filterwarnings("error")
def test_tight_problems_solve_cleanly():
    # every inequality is tight at one point, so the feasible set can be that
    # point alone and the LDP dual degenerate; roundoff then once left a dual
    # residual that divided by zero when mapped back (problem 565 of this seed)
    rng = np.random.default_rng(11)
    for _ in range(3000):
        p = int(rng.integers(1, 7))
        n_eq = int(rng.integers(0, min(2, p - 1) + 1))
        n_ineq = int(rng.integers(1 - min(n_eq, 1), 9 - n_eq))
        z, y, system = small_problem(rng, p, n_eq, n_ineq, p, True, None)
        sol = solve(z, y, system)
        worst = system.violations(sol.beta).max(initial=0.0)
        assert worst <= 1e-8 * (1.0 + np.abs(system.b).max())
        assert sol.kkt_residual <= 1e-8 * (1.0 + np.abs(z.T @ y).max())


def test_iteration_limit_is_a_numerical_error():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(30, 6))
    # a zigzag under a monotone shape: the dual's start (its violated rows)
    # does not settle it, and it needs three subproblems, so a limit of two
    # is hit inside the iteration
    y = z @ np.array([5.0, 0.0, 4.0, 1.0, 3.0, 2.0])
    solver = ClsqSolver(z.T @ z, build_constraints(NON_DECREASING, BasisSpec(5)))
    solver.max_iter = 3
    assert solver.solve(z.T @ y, y @ y).iterations > 1
    solver.max_iter = 2
    with pytest.raises(NumericalError, match="nonnegative least squares"):
        solver.solve(z.T @ y, y @ y)


def _first_error(call):
    try:
        call()
    except Exception as exc:
        return type(exc)
    return None


def assert_block_matches_rows(solver, rhs, yty):
    """solve_many agrees with one solve per row: betas and RSS to 1e-12
    relative, or the same exception class as the first row that raises."""
    many_error = _first_error(lambda: solver.solve_many(rhs, yty))
    row_error = None
    for r, v in zip(rhs, yty):
        row_error = _first_error(lambda: solver.solve(r, v))
        if row_error is not None:
            break
    assert many_error is row_error
    if many_error is not None:
        return
    beta, rss = solver.solve_many(rhs, yty)
    for j, (r, v) in enumerate(zip(rhs, yty)):
        sol = solver.solve(r, v)
        assert np.abs(beta[j] - sol.beta).max() <= 1e-12 * max(1.0, np.abs(sol.beta).max())
        assert abs(rss[j] - sol.rss) <= 1e-12 * max(1.0, sol.rss)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_problems(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_solve_many_matches_solve_per_row(problem, k, seed):
    # the property test's problems: auto-ridged Grams, equality rows and
    # infeasible systems, each with a block of k responses around its own
    z, y, system, _, _ = problem
    rng = np.random.default_rng(seed)
    ys = y + rng.normal(scale=rng.uniform(0.0, 3.0), size=(k, y.size))
    solver = ClsqSolver(z.T @ z, system)
    rhs = np.array([z.T @ v for v in ys])
    assert_block_matches_rows(solver, rhs, np.array([v @ v for v in ys]))


def test_solve_many_matches_solve_through_the_polish(monkeypatch):
    # a degenerate whitened FOFR bivariate_monotone problem whose duals need the KKT polish
    from bernfit import ScenarioSpec, bivariate_monotone, generate_scenario
    from bernfit.functional import _prewhiten, build_design, shape_system

    data = generate_scenario(ScenarioSpec("B", n=60, seed=0, m=20), 0)
    spec = BasisSpec(5)
    design, (gram, rhs, yty), _, _ = _prewhiten(build_design(data, "fofr", spec), data, 0.95)
    solver = ClsqSolver(gram, shape_system("fofr", spec, bivariate_monotone(), design))
    polished = []
    polish = ClsqSolver._polish
    monkeypatch.setattr(
        ClsqSolver, "_polish", lambda self, *a: polished.append(1) or polish(self, *a)
    )
    rng = np.random.default_rng(3)
    block = rhs + rng.normal(scale=0.01 * np.abs(rhs).max(), size=(6, rhs.size))
    block[0] = rhs
    assert_block_matches_rows(solver, block, np.full(6, yty))
    assert polished


def band_project(z, omega, system):
    """The confidence band's projection step: omega-norm projection onto the polyhedron,
    of a one-row block."""
    block = np.asarray(z, dtype=float)[None]
    return _project(block, omega, ClsqSolver(omega, system))[0]


class TestProjectOmega:
    def test_feasible_point_unchanged(self):
        system = build_constraints(NON_NEGATIVE, BasisSpec(2))
        z = np.array([0.5, 1.0, 2.0])
        out = band_project(z, np.eye(3), system)
        assert np.array_equal(out, z)

    def test_scalar_clip(self):
        system = build_constraints(NON_NEGATIVE, BasisSpec(0))
        out = band_project(np.array([-2.0]), np.eye(1), system)
        assert out[0] == pytest.approx(0.0, abs=1e-10)

    def test_weighted_projection_against_grid_search(self):
        system = build_constraints(NON_DECREASING, BasisSpec(1))
        omega = np.diag([1.0, 4.0])
        z = np.array([1.0, 0.0])
        out = band_project(z, omega, system)
        assert np.allclose(out, [0.2, 0.2], atol=1e-8)
        oracle = grid_search_projection_2d(z, omega, system.a, system.b, -1.0, 2.0, 1e-3)
        assert np.abs(out - oracle).max() <= 2e-3

    def test_idempotent(self):
        rng = np.random.default_rng(10)
        system = build_constraints(NON_DECREASING, BasisSpec(4))
        omega_half = rng.normal(size=(5, 5))
        omega = omega_half @ omega_half.T + 5 * np.eye(5)
        for _ in range(20):
            z = rng.normal(scale=3.0, size=5)
            once = band_project(z, omega, system)
            twice = band_project(once, omega, system)
            assert np.abs(once - twice).max() <= 1e-10

    def test_contraction_toward_feasible_points(self):
        rng = np.random.default_rng(11)
        system = build_constraints(NON_DECREASING, BasisSpec(3))
        for _ in range(500):
            omega_half = rng.normal(size=(4, 4))
            omega = omega_half @ omega_half.T + 2 * np.eye(4)
            z = rng.normal(scale=2.0, size=4)
            feasible = np.cumsum(rng.uniform(0, 1, 4)) + rng.normal()
            projected = band_project(z, omega, system)

            def omega_norm(v):
                return float(v @ omega @ v)

            assert omega_norm(projected - feasible) <= omega_norm(z - feasible) + 1e-9

    def test_non_spd_rejected(self):
        system = build_constraints(NON_NEGATIVE, BasisSpec(1))
        omega = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NumericalError):
            band_project(np.array([-1.0, -1.0]), omega, system)


class TestScaleRobustness:
    def test_large_scale_problem(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(50, 4)) * 100
        y = rng.normal(size=50) * 1e3
        system = build_constraints(NON_DECREASING, BasisSpec(3))
        sol = solve(z, y, system)
        assert (system.a @ sol.beta).min() >= -1e-8
        assert sol.kkt_residual <= 1e-8 * (1 + np.abs(z.T @ y).max())

    def test_many_constraint_rows(self):
        rng = np.random.default_rng(13)
        order = 8
        z = rng.normal(size=(60, order + 1))
        y = rng.normal(size=60)
        from bernfit import combination, CONCAVE

        system = build_constraints(combination(NON_DECREASING, CONCAVE, NON_NEGATIVE), BasisSpec(order))
        sol = solve(z, y, system)
        assert system.violations(sol.beta).max(initial=0.0) <= 1e-8

"""Differential tests of the in-house batched NNLS against SciPy's.

``clsq._nnls`` solves a stack of nonnegative least-squares problems by Lawson
and Hanson's algorithm; ``scipy.optimize.nnls`` is an independent
implementation of the same algorithm, one problem per call. The residual
norm of an NNLS problem is unique even where its solution is not, so every
problem compares residuals; solutions are compared where they are unique.
"""

import numpy as np
import pytest
from scipy.optimize import nnls

from bernfit import (
    BasisSpec,
    ClsqSolver,
    ConstraintSystem,
    InfeasibleError,
    NumericalError,
    ScenarioSpec,
    bivariate_monotone,
    check_shape,
    fit_functional,
    generate_scenario,
)
from bernfit import clsq


def scipy_nnls(e, f, max_iter):
    """The contract of ``clsq._nnls``, one ``scipy.optimize.nnls`` call per problem."""
    out = []
    for e_j, f_j in zip(e, f):
        try:
            out.append(nnls(e_j, f_j, maxiter=max_iter)[0])
        except (RuntimeError, ValueError) as exc:
            raise NumericalError(f"nonnegative least squares failed: {exc}") from None
    x = np.array(out)
    return x, f - (e @ x[:, :, None])[..., 0]


def residual_norms(e, f, x):
    return np.linalg.norm((e @ x[:, :, None])[..., 0] - f, axis=1)


def assert_kkt(e, f, x, rtol):
    """x >= 0 solves min ||e x - f|| over x >= 0: the dual e'(f - e x) is 0 on the
    positive coefficients and at most 0 on the others, to ``rtol`` of its scale."""
    assert x.min() >= 0.0
    dual = (np.swapaxes(e, 1, 2) @ (f - (e @ x[:, :, None])[..., 0])[:, :, None])[..., 0]
    size = np.abs(f).sum(axis=1) + (np.abs(e) @ x[:, :, None])[..., 0].sum(axis=1)
    tol = rtol * (1.0 + np.abs(e).max(axis=(1, 2)) * size)[:, None]
    worst = np.where(x > 0.0, np.abs(dual), dual)
    np.testing.assert_array_less(worst, np.broadcast_to(tol, x.shape))


def random_stack(rng, k, m, n, rank=None):
    e = rng.normal(size=(k, m, n))
    if rank is not None:
        e = rng.normal(size=(k, m, rank)) @ rng.normal(size=(k, rank, n))
    return e * rng.uniform(0.1, 10.0, size=(k, 1, 1)), rng.normal(size=(k, m))


@pytest.mark.parametrize("m, n", [(1, 1), (3, 8), (8, 3), (6, 6), (13, 5), (23, 10), (40, 60)])
def test_random_problems_match_scipy(m, n):
    rng = np.random.default_rng(100 * m + n)
    e, f = random_stack(rng, 60, m, n)
    x, resid = clsq._nnls(e, f, 1000)
    ref = scipy_nnls(e, f, 1000)[0]
    # no worse than SciPy's residual (a wrong reference cannot fail the test),
    # and optimal by its own KKT certificate, which fixes x where it is unique
    scale = 1.0 + np.linalg.norm(f, axis=1)
    gap = residual_norms(e, f, x) - residual_norms(e, f, ref)
    np.testing.assert_array_less(gap, 1e-11 * scale)
    assert_kkt(e, f, x, 1e-12)
    direct = f - (e @ x[:, :, None])[..., 0]
    np.testing.assert_allclose(resid, direct, rtol=0.0, atol=1e-12 * scale.max())


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_rank_deficient_problems_reach_the_same_residual(rank):
    # dependent columns: the solution is not unique, the residual is
    rng = np.random.default_rng(rank)
    e, f = random_stack(rng, 80, 9, 7, rank=rank)
    x = clsq._nnls(e, f, 1000)[0]
    scale = 1.0 + np.linalg.norm(f, axis=1)
    gap = residual_norms(e, f, x) - residual_norms(e, f, scipy_nnls(e, f, 1000)[0])
    np.testing.assert_array_less(gap, 1e-10 * scale)
    assert_kkt(e, f, x, 1e-12)
    # LH keeps the passive columns independent
    for e_j, x_j in zip(e, x):
        assert np.linalg.matrix_rank(e_j[:, x_j > 0]) == np.count_nonzero(x_j)


def test_infeasible_least_distance_duals_reach_zero_residual():
    # g u >= h with the contradictory rows u_0 >= 1 and -u_0 >= 0.5 (u_0 <= -0.5):
    # e_last lies in the dual cone, so both solvers find a zero residual
    rng = np.random.default_rng(7)
    g = np.vstack([np.eye(3)[:1], -np.eye(3)[:1], rng.normal(size=(4, 3))])
    h = np.concatenate([[1.0, 0.5], rng.normal(size=4)])
    e = np.vstack([g.T, h])[None]
    f = np.eye(4)[3][None]
    for x in (clsq._nnls(e, f, 1000)[0], scipy_nnls(e, f, 1000)[0]):
        assert residual_norms(e, f, x)[0] ** 2 <= 1e-20
    with pytest.raises(InfeasibleError) as excinfo:
        ClsqSolver(np.eye(3), ConstraintSystem(g, h)).solve(np.zeros(3))
    assert set(excinfo.value.certificate) >= {0, 1}


def test_a_step_below_the_residual_rounding_still_enters():
    # a least-distance dual of a large-n band draw (scenario B, n=2000, m=200,
    # order 10, non_increasing; the nonzero block of its G): its last column
    # enters with a coefficient of 1.9e-8 and lowers the residual norm by only
    # 10 ulps, yet leaving it out moves the mapped-back point 1e-8 outside
    # the polyhedron, so a descent rule at the worst-case rounding bound
    # failed the band
    g = np.array([
        [0.49077492187170885, -1.5830607211635939, 1.8131829878485495, -2.221999683487234,
         2.44028167462231, -2.512685092984246, 2.413985799928534, -2.206957770031466,
         1.8585846955754088, -1.4383130061958553, 0.691994298952922],
        [0.0, 1.337734289316502, -3.9664119056674, 6.8643776337104425, -9.885642944696597,
         12.218673604958063, -13.340393091894212, 13.399527593590323, -11.959930479850373,
         9.603649494139475, -4.716489532478506],
        [0.0, 0.0, 2.403555823707414, -8.913060772805817, 18.857605673275575,
         -30.120062604192462, 38.857499633417035, -43.83617656321964, 42.32798903140607,
         -35.508225150521554, 17.830341548294328],
        [0.0, 0.0, 0.0, 4.0431580597199765, -17.660697159586093, 41.3612896223542,
         -67.48450726675033, 88.64751445099164, -94.7117954879375, 83.95979440767873,
         -43.324500479786145],
        [0.0, 0.0, 0.0, 0.0, 6.461926645035919, -30.643626614639636, 71.52949112194996,
         -116.4282770554234, 142.1041810561743, -135.50993980975113, 72.41120532884233],
        [0.0, 0.0, 0.0, 0.0, 0.0, 9.510297286383805, -43.52474234659295, 98.72154941072229,
         -145.4569419670676, 153.35787395228462, -85.95243963564577],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 11.710916823799389, -50.319614643658845,
         99.6355545427715, -121.87358109442879, 73.10289459924992],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 11.886940569767669, -42.518565103155176,
         66.29223508523167, -44.128109031518726],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 8.829915461283314, -23.081235828198533,
         18.241932729603654],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.115812629514439, -4.8788771374384226],
    ])
    h = np.array([0.083811254014587, -1.0451930404103038, 0.5844334612197883,
        -5.206143265178923, 3.6065584134519213, -7.321456850036952, 2.2916074637553265,
        -2.8591543230338345, -0.07727063530936107, -0.047250833411020716])
    e = np.vstack([g.T, h])[None]
    f = np.eye(g.shape[1] + 1)[-1][None]
    x = clsq._nnls(e, f, 1000)[0]
    assert x[0, -1] > 0.0
    assert_kkt(e, f, x, 1e-12)
    gap = residual_norms(e, f, x) - residual_norms(e, f, scipy_nnls(e, f, 1000)[0])
    assert gap[0] <= 1e-14


def test_a_problem_does_not_depend_on_its_stack():
    rng = np.random.default_rng(11)
    e, f = random_stack(rng, 40, 13, 5)
    x = clsq._nnls(e, f, 1000)[0]
    for j in (0, 17, 39):
        assert clsq._nnls(e[j : j + 1], f[j : j + 1], 1000)[0][0].tobytes() == x[j].tobytes()
        assert clsq._nnls(e[j::-1], f[j::-1], 1000)[0][0].tobytes() == x[j].tobytes()


def test_no_columns_give_an_empty_solution():
    f = np.random.default_rng(1).normal(size=(2, 4))
    x, resid = clsq._nnls(np.zeros((2, 4, 0)), f, 10)
    assert x.shape == (2, 0)
    assert np.array_equal(resid, f)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_a_numerical_error(bad):
    e, f = random_stack(np.random.default_rng(0), 3, 4, 3)
    e[1, 2, 0] = bad
    with pytest.raises(NumericalError, match="nonnegative least squares"):
        clsq._nnls(e, f, 1000)


def test_iteration_cap_is_a_numerical_error(monkeypatch):
    lsq, calls = clsq._lsq, []
    monkeypatch.setattr(clsq, "_lsq", lambda *args, **kw: calls.append(1) or lsq(*args, **kw))

    def subproblems(e, f):
        # one problem: one subproblem per least-squares call; the cap is tight
        calls.clear()
        clsq._nnls(e, f, 1000)
        need = len(calls)
        clsq._nnls(e, f, need)
        with pytest.raises(NumericalError, match=f"more than {need - 1} subproblems"):
            clsq._nnls(e, f, need - 1)
        return need

    # more columns than rows: the start settles none of these problems, so a
    # cap one below what a problem solves is hit inside the iteration, at a
    # step back (problem 0, whose last subproblem is one) or at a candidate's
    # entry (problem 1)
    e, f = random_stack(np.random.default_rng(5), 30, 8, 20)
    need = [subproblems(e[j : j + 1], f[j : j + 1]) for j in range(4)]
    assert min(need) > 3
    # the cap is per problem: a stack needs what its neediest problem needs
    clsq._nnls(e[:4], f[:4], max(need))
    with pytest.raises(NumericalError, match=f"more than {max(need) - 1} subproblems"):
        clsq._nnls(e[:4], f[:4], max(need) - 1)
    # problems the start settles, in its one solve and with its re-solve
    e, f = random_stack(np.random.default_rng(5), 30, 12, 12)
    assert [subproblems(e[j : j + 1], f[j : j + 1]) for j in (0, 4)] == [1, 2]


def test_degenerate_fofr_dual_matches_scipy_in_beta_and_certificate(monkeypatch):
    # the bivariate_monotone FOFR duals are degenerate: their multipliers are not
    # unique (rows tight at every feasible point), so only the fit and its shape
    # certificate are compared
    data = generate_scenario(ScenarioSpec("B", n=40, seed=0, m=20), 0)
    spec, shape = BasisSpec(3), bivariate_monotone()
    fit = fit_functional(data, "fofr", spec, shape)
    monkeypatch.setattr(clsq, "_nnls", scipy_nnls)
    ref = fit_functional(data, "fofr", spec, shape)
    for f in (fit, ref):
        assert check_shape(f.beta1_coefs, shape, spec).feasible
    scale = np.abs(ref.beta1_coefs).max()
    np.testing.assert_allclose(fit.beta1_coefs, ref.beta1_coefs, rtol=0.0, atol=1e-7 * scale)
    np.testing.assert_allclose(fit.beta0_coefs, ref.beta0_coefs, rtol=0.0, atol=1e-7 * scale)

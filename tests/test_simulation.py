"""Tests for scenario generation and benchmark metrics."""

import warnings

import numpy as np
import pytest
from scipy import stats

from bernfit import (
    CONVEX,
    NON_INCREASING,
    ConfigError,
    DataError,
    InfeasibleError,
    ScenarioSpec,
    generate_scenario,
    imse,
    run_benchmark,
)
from bernfit.simulation import MetricTable, orthonormal_polynomials


class TestOrthonormalPolynomials:
    def test_grid_gram_is_identity(self):
        pts = np.linspace(0, 1, 50)
        phis = orthonormal_polynomials(pts, 20)
        gram = phis @ phis.T
        assert np.abs(gram - np.eye(20)).max() <= 1e-6

    def test_degrees_increase(self):
        pts = np.linspace(0, 1, 40)
        phis = orthonormal_polynomials(pts, 5)
        # a degree-(k-1) polynomial has k-1 sign changes at most; check leading rows
        assert np.allclose(phis[0], phis[0][0])  # constant
        assert np.all(np.diff(phis[1]) > 0) or np.all(np.diff(phis[1]) < 0)  # linear

    def test_deterministic(self):
        pts = np.linspace(0, 1, 30)
        a = orthonormal_polynomials(pts, 8)
        b = orthonormal_polynomials(pts, 8)
        assert a.tobytes() == b.tobytes()


class TestGenerateScenario:
    def test_score_variances_match(self):
        spec = ScenarioSpec("A", n=10000, seed=0)
        data = generate_scenario(spec, 0)
        phis = orthonormal_polynomials(data.grid.points, 20)
        scores = data.x_curves @ phis.T  # recover scores by orthonormality
        assert abs(scores[:, 0].var() - 20.0) / 20.0 <= 0.05

    def test_error_process_variance_at_zero(self):
        spec = ScenarioSpec("B", n=10000, seed=1)
        data = generate_scenario(spec, 0)
        pts = data.grid.points
        beta0 = 8 * np.sin(np.pi * pts)
        beta1 = 5 * np.cos(np.pi * pts)
        errors = data.y_curves - beta0 - data.x_curves * beta1
        var0 = errors[:, 0].var()
        # 0.25 cos^2(0) + 0.5625 sin^2(0) + 0.25 = 0.5
        assert abs(var0 - 0.5) / 0.5 <= 0.10

    def test_replications_regenerate_bit_identically(self):
        spec = ScenarioSpec("B", n=25, seed=3)
        first = generate_scenario(spec, 4)
        again = generate_scenario(spec, 4)
        assert first.x_curves.tobytes() == again.x_curves.tobytes()
        assert first.y_curves.tobytes() == again.y_curves.tobytes()

    def test_replications_differ(self):
        spec = ScenarioSpec("A", n=25, seed=3)
        a = generate_scenario(spec, 0)
        b = generate_scenario(spec, 1)
        assert a.y_scalar.tobytes() != b.y_scalar.tobytes()

    def test_sparse_observation_counts(self):
        spec = ScenarioSpec("B_sparse", n=200, seed=5)
        data = generate_scenario(spec, 0)
        counts = np.isfinite(data.y_curves).sum(axis=1)
        assert counts.min() >= 5 and counts.max() <= 10
        assert np.array_equal(np.isfinite(data.y_curves), np.isfinite(data.x_curves))

    def test_s1_constant_coefficient(self):
        spec = ScenarioSpec("S1", n=20, seed=6)
        data = generate_scenario(spec, 0)
        t = np.linspace(0, 1, 7)
        assert np.allclose(data.meta["beta_true"](t), 2.5)

    def test_grid_sizes(self):
        assert generate_scenario(ScenarioSpec("A", n=10, seed=0), 0).grid.n_points == 50
        assert generate_scenario(ScenarioSpec("C", n=10, seed=0), 0).grid.n_points == 40

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            ScenarioSpec("Z", n=50)
        with pytest.raises(ConfigError):
            ScenarioSpec("A", n=5)

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            ("B", dict(m=4), "scenario B needs m >= 5 grid points, got 4"),
            ("A", dict(m=19), "scenario A needs m >= 20 grid points, got 19"),
            ("C", dict(m=0), "scenario C needs m >= 5 grid points, got 0"),
            ("B_sparse", dict(m=8), "scenario B_sparse needs m >= 10 grid points, got 8"),
            ("B", dict(n=10.5), "scenario n must be an integer, got 10.5"),
            ("B", dict(m=50.5), "scenario m must be an integer, got 50.5"),
            ("B", dict(replications=2.0), "scenario replications must be an integer, got 2.0"),
            ("B", dict(seed=1.5), "scenario seed must be an integer, got 1.5"),
            ("S1", dict(seed=True), "scenario seed must be an integer, got True"),
            ("A", dict(n="40"), "scenario n must be an integer, got '40'"),
        ],
    )
    def test_spec_refuses_what_generate_scenario_cannot_build(self, kind, fields, message):
        # each of these used to pass validation and fail in generate_scenario or
        # run_benchmark with a bare ValueError or TypeError
        with pytest.raises(ConfigError) as info:
            ScenarioSpec(kind, **{"n": 20, **fields})
        assert str(info.value) == message

    @pytest.mark.parametrize("kind, m", [("A", 20), ("B", 5), ("B_sparse", 10), ("S1", 5)])
    def test_smallest_grid_each_scenario_takes_builds(self, kind, m):
        data = generate_scenario(ScenarioSpec(kind, n=12, seed=np.int64(3), m=m), 0)
        assert data.grid.n_points == m


class TestImse:
    def test_exact_match_is_zero(self):
        fn = lambda t: np.sin(t)
        assert imse(fn, fn) == 0.0

    def test_constant_offset(self):
        base = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        shifted = lambda t: np.full_like(np.asarray(t, dtype=float), 0.3)
        assert imse(shifted, base) == pytest.approx(0.09, abs=1e-12)

    def test_linear_versus_zero(self):
        line = lambda t: np.asarray(t, dtype=float)
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        assert imse(line, zero) == pytest.approx(1.0 / 3.0, abs=1e-4)


class TestRunBenchmark:
    def test_scenario_a_magnitudes_at_larger_n(self):
        # frozen from a 50-replication run: constrained 0.257e-3, which sits
        # at the scale reported for this design (~0.2e-3 at n=100)
        table = run_benchmark(ScenarioSpec("A", n=100, seed=51, replications=50), mode="imse")
        s = table.summary()
        assert 0.1e-3 <= s["imse_constrained_mean"] <= 0.4e-3
        assert s["imse_constrained_mean"] < s["imse_unconstrained_mean"]

    def test_imse_mode_efficiency_ordering(self):
        table = run_benchmark(ScenarioSpec("A", n=50, seed=7, replications=20), mode="imse")
        s = table.summary()
        assert s["imse_constrained_mean"] < s["imse_unconstrained_mean"]
        assert table.column("imse_constrained").size == 20
        assert s["p_value_paired"] < 0.05

    def test_rows_align_with_replications(self):
        table = run_benchmark(ScenarioSpec("A", n=50, seed=7, replications=5), mode="imse")
        rows = table.rows()
        assert len(rows) == 5
        assert {"replication", "imse_constrained", "imse_unconstrained"} <= set(rows[0])

    def test_threads_do_not_change_results(self):
        spec = ScenarioSpec("A", n=50, seed=7, replications=8)
        serial = run_benchmark(spec, mode="imse", threads=1)
        threaded = run_benchmark(spec, mode="imse", threads=4)
        for name in ("imse_constrained", "imse_unconstrained"):
            assert serial.column(name).tobytes() == threaded.column(name).tobytes()

    def test_identical_arms_give_paired_p_value_one(self):
        # the nonnegativity constraint never binds here, so both arms are the same fit
        table = run_benchmark(ScenarioSpec("A", n=100, seed=10, replications=2), mode="imse")
        con, unc = table.column("imse_constrained"), table.column("imse_unconstrained")
        assert con.tobytes() == unc.tobytes()
        s = table.summary()
        assert s["p_value_paired"] == 1.0
        assert s["p_value_two_sample"] == 1.0
        assert table.summary_row()["p_value_paired"] == 1.0

    def test_only_replication_failing_is_counted(self):
        # this sparse draw leaves a pooled grid point unobserved, a data error
        spec = ScenarioSpec("B_sparse", n=40, seed=16, replications=1)
        for mode in ("imse", "coverage"):
            table = run_benchmark(spec, mode=mode, ci_draws=100)
            assert table.failures == 1
            assert table.rows() == []
            assert table.summary()["replications"] == 0
            assert table.summary_row()["scenario"] == "B_sparse"

    def test_shape_test_on_sparse_responses_is_refused_up_front(self, monkeypatch):
        import bernfit.simulation as simulation

        monkeypatch.setattr(simulation, "generate_scenario", lambda *a: pytest.fail("ran"))
        with pytest.raises(ConfigError, match="needs densely observed responses"):
            run_benchmark(
                ScenarioSpec("B_sparse", n=30, replications=3), mode="test",
                test_shape=NON_INCREASING, bootstrap_draws=100,
            )

    def test_rows_carry_true_replication_labels(self):
        # replication 0 fails (as above); the survivors keep their own indices
        table = run_benchmark(ScenarioSpec("B_sparse", n=40, seed=16, replications=3), mode="imse")
        assert table.failures == 1
        assert [row["replication"] for row in table.rows()] == [1, 2]

    def test_programming_errors_propagate(self, monkeypatch):
        import bernfit.simulation as simulation

        def broken(spec, replication):
            if replication == 0:
                raise DataError("unusable replication")
            return 1 / 0

        monkeypatch.setattr(simulation, "generate_scenario", broken)
        with pytest.raises(ZeroDivisionError):
            run_benchmark(ScenarioSpec("B", n=20, seed=0, replications=2), mode="imse")

    @pytest.mark.parametrize(
        "options",
        [{"mode": "coverage", "ci_draws": 50}, {"mode": "test", "order": 1, "test_shape": CONVEX}],
    )
    def test_configuration_errors_propagate(self, options):
        # too few band draws, or a shape the basis order cannot carry, fails
        # every replication alike: it is the caller's error, not a failed replication
        with pytest.raises(ConfigError):
            run_benchmark(ScenarioSpec("B", n=30, seed=0, replications=3), **options)

    def test_infeasible_replication_is_counted(self, monkeypatch):
        import bernfit.simulation as simulation

        generate = simulation.generate_scenario

        def infeasible_first(spec, replication):
            if replication == 0:
                raise InfeasibleError("constraint system is infeasible")
            return generate(spec, replication)

        monkeypatch.setattr(simulation, "generate_scenario", infeasible_first)
        table = run_benchmark(ScenarioSpec("A", n=30, seed=0, replications=2), mode="imse")
        assert table.failures == 1
        assert [row["replication"] for row in table.rows()] == [1]

    def test_test_mode_requires_null(self):
        with pytest.raises(ConfigError):
            run_benchmark(ScenarioSpec("A", n=50, seed=7, replications=2), mode="test")


_RNG = np.random.default_rng(20)
T_TEST_ARMS = {
    "n=2": ([1.0, 2.5], [1.5, 2.0]),
    "n=20": (_RNG.gamma(2.0, size=20), _RNG.gamma(2.0, size=20)),
    "equal arms": ([1.0, 2.0, 3.5], [1.0, 2.0, 3.5]),
    "constant difference": ([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]),
    "zero variance": ([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]),
    "zero variance, equal arms": ([1.0, 1.0], [1.0, 1.0]),
    "one arm of zero variance": ([1.0, 1.0, 1.0], [2.0, 3.0, 2.5]),
}


@pytest.mark.parametrize("case", sorted(T_TEST_ARMS))
def test_summary_t_tests_match_scipy_stats(case):
    con, unc = (np.asarray(arm, dtype=float) for arm in T_TEST_ARMS[case])
    with warnings.catch_warnings():  # SciPy warns of the degenerate cases
        warnings.simplefilter("ignore")
        paired = stats.ttest_rel(con, unc).pvalue
        welch = stats.ttest_ind(con, unc, equal_var=False).pvalue
    records = [
        {"replication": rep, "imse_constrained": c, "imse_unconstrained": u}
        for rep, (c, u) in enumerate(zip(con, unc))
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = MetricTable(scenario="B", n=10, mode="imse", records=records).summary()
    # all-equal arms: the paired t statistic is 0/0 and the summary reports 1.0
    paired = 1.0 if np.array_equal(con, unc) else paired
    np.testing.assert_allclose(s["p_value_paired"], paired, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(s["p_value_two_sample"], welch, rtol=1e-12, atol=0.0)

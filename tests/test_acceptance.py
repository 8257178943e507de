"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values and enforcing its runtime budget.

Run standalone with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np

from bernfit import (
    CONVEX,
    NON_DECREASING,
    NON_NEGATIVE,
    BasisSpec,
    ClsqSolver,
    ConstraintSystem,
    ScenarioSpec,
    bivariate_monotone,
    build_constraints,
    check_shape,
    fit_functional,
    fixed_boundaries,
    generate_scenario,
    partial_convex,
    run_benchmark,
)
from bernfit.basis import eval_basis_matrix
from bernfit.constraints import NON_INCREASING
from bernfit.functional import CovarianceModel, _solve_stacked, build_design
from bernfit.inference import _project

from helpers import enumerate_clsq


def report(criterion, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[{status}] {criterion}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert passed, detail
    assert elapsed < budget, f"{criterion} exceeded its runtime budget"


class TestAcceptance:
    def test_criterion_01_constraint_matrix_goldens(self):
        start = time.time()
        ok = True
        details = []
        for order in range(2, 7):
            p = order + 1
            spec = BasisSpec(order)
            nd = build_constraints(NON_DECREASING, spec)
            expected_nd = -np.eye(order, p) + np.eye(order, p, 1)
            ok &= np.array_equal(nd.a, expected_nd) and nd.n_rows == order
            ok &= np.linalg.matrix_rank(nd.a) == order
            cx = build_constraints(CONVEX, spec)
            expected_cx = np.eye(order - 1, p) - 2 * np.eye(order - 1, p, 1) + np.eye(order - 1, p, 2)
            ok &= np.array_equal(cx.a, expected_cx) and np.linalg.matrix_rank(cx.a) == order - 1
            nn = build_constraints(NON_NEGATIVE, spec)
            ok &= np.array_equal(nn.a, np.eye(p)) and np.linalg.matrix_rank(nn.a) == p
            fb = build_constraints(fixed_boundaries(1.0, 2.0), spec)
            sel = np.zeros((2, p))
            sel[0, 0] = 1.0
            sel[1, -1] = 1.0
            ok &= np.array_equal(fb.a, sel) and fb.equality.all()
            ok &= np.linalg.matrix_rank(fb.a) == 2
            tensor = BasisSpec(order)
            bm = build_constraints(bivariate_monotone(), tensor)
            ok &= bm.n_rows == 2 * order * (order + 1)
            pc = build_constraints(partial_convex(), tensor)
            ok &= pc.n_rows == 2 * (order**2 - 1)
            details.append(f"N={order} ok")
        report(
            "criterion 1 constraint goldens",
            ok,
            "catalog matrices, row counts, and ranks match for N=2..6",
            time.time() - start,
            1.0,
        )

    def test_criterion_02_qp_oracle_equivalence(self):
        start = time.time()
        rng = np.random.default_rng(42)
        worst_gap = 0.0
        worst_kkt = 0.0
        for _ in range(200):
            p = int(rng.integers(2, 7))
            r = int(rng.integers(1, 7))
            z = rng.normal(size=(12, p))
            y = rng.normal(size=12)
            a = rng.normal(size=(r, p))
            interior = rng.normal(size=p)
            b = np.minimum(
                rng.normal(scale=0.5, size=r), a @ interior - rng.uniform(0.1, 1.0, size=r)
            )
            sol = ClsqSolver(z.T @ z, ConstraintSystem(a, b)).solve(z.T @ y, y @ y)
            oracle = enumerate_clsq(z, y, a, b)
            gap = abs(
                float(np.sum((z @ sol.beta - y) ** 2)) - float(np.sum((z @ oracle - y) ** 2))
            )
            worst_gap = max(worst_gap, gap)
            worst_kkt = max(worst_kkt, sol.kkt_residual)
        passed = worst_gap <= 1e-8 and worst_kkt <= 1e-8
        report(
            "criterion 2 qp oracle equivalence",
            passed,
            f"200 instances: max objective gap {worst_gap:.2e}, max KKT residual {worst_kkt:.2e}",
            time.time() - start,
            10.0,
        )

    def test_criterion_03_scenario_a_reproduction(self):
        start = time.time()
        table = run_benchmark(ScenarioSpec("A", n=50, seed=7, replications=200), mode="imse")
        s = table.summary()
        con = 1000 * s["imse_constrained_mean"]
        unc = 1000 * s["imse_unconstrained_mean"]
        p = s["p_value_paired"]
        passed = 0.25 <= con <= 0.60 and 0.40 <= unc <= 0.90 and con < unc and p < 0.01
        report(
            "criterion 3 scenario A",
            passed,
            f"IMSEx1000 constrained {con:.3f} in [0.25,0.60], unconstrained {unc:.3f} in [0.40,0.90], paired p {p:.1e}",
            time.time() - start,
            300.0,
        )

    def test_criterion_04_scenario_b_reproduction(self):
        start = time.time()
        table = run_benchmark(ScenarioSpec("B", n=50, seed=11, replications=200), mode="imse")
        s = table.summary()
        con = 100 * s["imse_constrained_mean"]
        ratio = s["efficiency_ratio"]
        passed = 0.30 <= con <= 0.70 and ratio >= 2.5
        report(
            "criterion 4 scenario B",
            passed,
            f"IMSEx100 constrained {con:.3f} in [0.30,0.70], efficiency ratio {ratio:.2f} >= 2.5",
            time.time() - start,
            900.0,
        )

    def test_criterion_05_scenario_c_reproduction(self):
        start = time.time()
        table = run_benchmark(ScenarioSpec("C", n=25, seed=13, replications=100), mode="imse")
        s = table.summary()
        ratio = s["efficiency_ratio"]
        passed = ratio >= 3.0
        report(
            "criterion 5 scenario C",
            passed,
            f"efficiency ratio {ratio:.2f} >= 3 "
            f"(constrained IMSEx1000 {1000 * s['imse_constrained_mean']:.1f}, "
            f"unconstrained {1000 * s['imse_unconstrained_mean']:.1f})",
            time.time() - start,
            600.0,
        )

    def test_criterion_06_projection_ci_coverage(self):
        start = time.time()
        table = run_benchmark(
            ScenarioSpec("A", n=100, seed=23, replications=100), mode="coverage", ci_draws=300
        )
        s = table.summary()
        cov = s["coverage_mean"]
        passed = 0.90 <= cov <= 0.99
        report(
            "criterion 6 coverage",
            passed,
            f"average pointwise coverage {cov:.4f} in [0.90,0.99] (width {s['width_mean']:.3f})",
            time.time() - start,
            900.0,
        )

    def test_criterion_07_test_size_and_power(self):
        start = time.time()
        size = run_benchmark(
            ScenarioSpec("A", n=50, seed=37, replications=100),
            mode="test",
            test_shape=NON_NEGATIVE,
            bootstrap_draws=200,
        ).summary()["rejection_rate"]
        power = run_benchmark(
            ScenarioSpec("A", n=100, seed=41, replications=100),
            mode="test",
            test_shape=NON_DECREASING,
            bootstrap_draws=200,
        ).summary()["rejection_rate"]
        passed = 0.00 <= size <= 0.11 and power >= 0.70
        report(
            "criterion 7 test size and power",
            passed,
            f"size {size:.3f} in [0.00,0.11] under the true null, power {power:.3f} >= 0.70",
            time.time() - start,
            1800.0,
        )

    def test_criterion_08_functional_test_trivial_power(self):
        start = time.time()
        rate = run_benchmark(
            ScenarioSpec("B", n=25, seed=43, replications=50),
            mode="test",
            test_shape=CONVEX,
            bootstrap_draws=200,
        ).summary()["rejection_rate"]
        passed = rate == 1.0
        report(
            "criterion 8 functional trivial power",
            passed,
            f"rejection rate {rate:.3f} == 1.0 for the convex null",
            time.time() - start,
            600.0,
        )

    def test_criterion_09_sparse_design_reproduction(self):
        start = time.time()
        table = run_benchmark(ScenarioSpec("B_sparse", n=100, seed=17, replications=100), mode="imse")
        s = table.summary()
        con = 100 * s["imse_constrained_mean"]
        unc = 100 * s["imse_unconstrained_mean"]
        passed = 0.6 <= con <= 1.4 and con < unc
        report(
            "criterion 9 sparse design",
            passed,
            f"IMSEx100 constrained {con:.3f} in [0.6,1.4] and below unconstrained {unc:.3f}",
            time.time() - start,
            900.0,
        )

    def test_criterion_10_property_suites(self):
        start = time.time()
        rng = np.random.default_rng(0)
        ok = True

        # partition of unity and derivative consistency
        t = np.linspace(0, 1, 1000)
        for order in (1, 7, 19, 30):
            basis = eval_basis_matrix(t, BasisSpec(order))
            ok &= bool(np.all(basis >= 0)) and np.abs(basis.sum(axis=1) - 1).max() <= 1e-12
        # the non-decreasing rows are the first differences: order times them gives
        # the derivative's coefficients in the order - 1 basis
        for order in (3, 6, 10):
            beta = rng.normal(size=order + 1)
            gamma = order * build_constraints(NON_DECREASING, BasisSpec(order)).a @ beta
            for tt in np.linspace(0.05, 0.95, 20):
                h = 1e-5
                ends = eval_basis_matrix([tt - h, tt + h], BasisSpec(order)) @ beta
                fd = float(ends[1] - ends[0]) / (2 * h)
                deriv = float(eval_basis_matrix([tt], BasisSpec(order - 1))[0] @ gamma)
                ok &= abs(deriv - fd) <= 1e-5

        # projection idempotence and contraction, 500 random cases
        system = build_constraints(NON_DECREASING, BasisSpec(3))
        for _ in range(500):
            half = rng.normal(size=(4, 4))
            omega = half @ half.T + 2 * np.eye(4)
            z = rng.normal(scale=2.0, size=4)
            feasible = np.cumsum(rng.uniform(0, 1, 4)) + rng.normal()
            projector = ClsqSolver(omega, system)
            proj = _project(z[None], omega, projector)[0]
            twice = _project(proj[None], omega, projector)[0]
            ok &= np.abs(proj - twice).max() <= 1e-10
            d_proj = proj - feasible
            d_z = z - feasible
            ok &= float(d_proj @ omega @ d_proj) <= float(d_z @ omega @ d_z) + 1e-9

        # RSS ordering and shape certificates on fitted datasets
        for rep in range(3):
            data = generate_scenario(ScenarioSpec("A", n=50, seed=5), rep)
            con = fit_functional(data, "sofr", BasisSpec(4), NON_NEGATIVE)
            unc = fit_functional(data, "sofr", BasisSpec(4), None)
            ok &= con.rss_raw >= unc.rss_raw - 1e-10
            ok &= check_shape(con.beta1_coefs, NON_NEGATIVE, spec=BasisSpec(4)).feasible
            fdata = generate_scenario(ScenarioSpec("B", n=40, seed=5), rep)
            fcon = fit_functional(fdata, "flcm", BasisSpec(5), NON_INCREASING)
            func = fit_functional(fdata, "flcm", BasisSpec(5), None, whiten_fit=False)
            ok &= fcon.rss_raw >= 0 and check_shape(
                fcon.beta1_coefs, NON_INCREASING, spec=BasisSpec(5)
            ).feasible

        # whitening-identity reduction, bitwise
        pts = fdata.grid.points
        identity = CovarianceModel(pts, np.empty(0), np.empty((0, pts.size)), nugget=1.0)
        design = build_design(fdata, "flcm", BasisSpec(5))
        system = build_constraints(NON_INCREASING, BasisSpec(5))
        system = system.padded(design.n_free, design.n_coefs)
        w_beta = _solve_stacked(design.whitened(identity), system).beta
        r_fit = fit_functional(fdata, "flcm", BasisSpec(5), NON_INCREASING, whiten_fit=False)
        ok &= w_beta[design.n_free :].tobytes() == r_fit.beta1_coefs.tobytes()

        # determinism across thread counts
        spec = ScenarioSpec("A", n=50, seed=9, replications=6)
        serial = run_benchmark(spec, mode="imse", threads=1)
        threaded = run_benchmark(spec, mode="imse", threads=4)
        column = "imse_constrained"
        ok &= serial.column(column).tobytes() == threaded.column(column).tobytes()

        report(
            "criterion 10 property suites",
            ok,
            "basis, projection, ordering, certificate, whitening, and threading properties hold",
            time.time() - start,
            60.0,
        )

    def test_criterion_11_boundary_case_coverage(self):
        start = time.time()
        table = run_benchmark(
            ScenarioSpec("S1", n=100, seed=29, replications=100), mode="coverage", ci_draws=300
        )
        s = table.summary()
        cov = s["coverage_mean"]
        passed = 0.88 <= cov <= 0.99
        report(
            "criterion 11 boundary-case coverage",
            passed,
            f"coverage {cov:.4f} in [0.88,0.99] for the constant coefficient on the constraint boundary",
            time.time() - start,
            600.0,
        )

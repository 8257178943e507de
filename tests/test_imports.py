"""bernfit never imports scipy.stats or scipy.optimize.

Every CLI subcommand is a fresh process, and those two subpackages take about
three quarters of a second to import between them. bernfit solves its
nonnegative least-squares duals itself and computes its t-tests with NumPy
and ``scipy.special``, so neither subpackage is loaded by the import, a dual
solve, a KKT polish, a benchmark summary or a shape-constrained CLI run. The
check runs in a fresh interpreter, since the test session has long since
imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys

import bernfit, bernfit.cli


def check(step):
    loaded = [name for name in ("scipy.stats", "scipy.optimize") if name in sys.modules]
    assert not loaded, f"loaded by {step}: {loaded}"


check("the import of bernfit")

import numpy as np

from bernfit import ClsqSolver, ConstraintSystem, MetricTable

# beta >= 0 cuts off the unconstrained minimizer (-1, -2), so the solve needs the dual
solver = ClsqSolver(np.eye(2), ConstraintSystem(np.eye(2), np.zeros(2)))
solution = solver.solve(np.array([-1.0, -2.0]))
assert solution.iterations > 0, solution
assert np.allclose(solution.beta, 0.0, atol=1e-12), solution.beta
check("a dual solve")

# both rows active: the re-solve gives beta = 0 and fits the multipliers by NNLS
beta, lam = solver._polish(np.ones(2), np.array([-1.0, -2.0]))
assert np.allclose(beta, 0.0, atol=1e-12), beta
assert np.allclose(lam, [1.0, 2.0], atol=1e-12), lam
check("a KKT polish")

arms = [(1.0, 1.5), (2.0, 2.5), (3.5, 3.0)]
records = [
    {"replication": rep, "imse_constrained": con, "imse_unconstrained": unc}
    for rep, (con, unc) in enumerate(arms)
]
summary = MetricTable(scenario="B", n=10, mode="imse", records=records).summary()
assert 0.0 <= summary["p_value_paired"] <= 1.0, summary
assert 0.0 <= summary["p_value_two_sample"] <= 1.0, summary
check("MetricTable.summary")

argv = ["bench", "--scenario", "B", "--n", "20", "--reps", "2", "--seed", "5", "--out", sys.argv[1]]
assert bernfit.cli.run_cli(argv) == 0
check("bernfit bench (non-increasing fits and their summary)")
print("ok")
"""


def test_scipy_stats_and_optimize_are_never_imported(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path / "bench.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "ok"

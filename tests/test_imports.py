"""A bare import of bernfit loads numpy and scipy.linalg, not scipy.stats or scipy.optimize.

Every CLI subcommand is a fresh process, and those two subpackages take about
three quarters of a second to import between them. They are imported where
they are used: ``scipy.stats`` in ``MetricTable.summary`` and
``scipy.optimize`` at the first dual solve of ``ClsqSolver``. The check runs
in a fresh interpreter, since the test session has long since imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys

import bernfit, bernfit.cli

deferred = ("scipy.stats", "scipy.optimize")
loaded = [name for name in deferred if name in sys.modules]
assert not loaded, f"loaded by the import of bernfit: {loaded}"

import numpy as np

from bernfit import ClsqSolver, ConstraintSystem, MetricTable

arms = [(1.0, 1.5), (2.0, 2.5), (3.5, 3.0)]
records = [
    {"replication": rep, "imse_constrained": con, "imse_unconstrained": unc}
    for rep, (con, unc) in enumerate(arms)
]
table = MetricTable(scenario="B", n=10, mode="imse", records=records)
summary = table.summary()
assert 0.0 <= summary["p_value_paired"] <= 1.0, summary
assert 0.0 <= summary["p_value_two_sample"] <= 1.0, summary
assert "scipy.stats" in sys.modules

# beta >= 0 cuts off the unconstrained minimizer (-1, -2), so the solve needs the dual
solver = ClsqSolver(np.eye(2), ConstraintSystem(np.eye(2), np.zeros(2)))
solution = solver.solve(np.array([-1.0, -2.0]))
assert solution.iterations > 0, solution
assert np.allclose(solution.beta, 0.0, atol=1e-12), solution.beta
assert "scipy.optimize" in sys.modules
print("ok")
"""


def test_bare_import_defers_scipy_stats_and_optimize():
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"

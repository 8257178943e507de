"""The README's library quick start runs as written.

The fenced python block under "## Library quick start" is executed with the
names it leaves to the reader: ``ids``, ``x`` and ``y`` from scenario B (whose
grid is the block's ``np.linspace(0, 1, 40)``) and ``qdata``, a small
two-predictor quantile dataset. Every fit, band and test it makes must hold only
finite numbers, so a documented call that goes stale fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

import bernfit
from bernfit import CiBand, FunctionalDataset, FunctionalFit, Grid, ScenarioSpec, generate_scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL)[1]


def _quantile_data() -> FunctionalDataset:
    rng = np.random.default_rng(3)
    pts = np.linspace(0.0, 1.0, 12)
    z = rng.uniform(0.0, 1.0, size=(30, 2))
    q = pts * (1.0 - 0.2 * z[:, [0]]) + 0.3 * z[:, [1]] * pts**2
    return FunctionalDataset(grid=Grid(pts), ids=list(range(30)), y_curves=q, z_scalars=z)


def _numbers(result) -> list:
    """The numeric fields of a fit, band or test record."""
    return [
        np.asarray(value, dtype=float) for value in vars(result).values()
        if isinstance(value, (float, int, np.ndarray)) and not isinstance(value, bool)
    ]


def test_readme_quick_start_runs_and_every_result_is_finite():
    data = generate_scenario(ScenarioSpec("B", n=60, seed=1), 0)
    assert np.array_equal(data.grid.points, np.linspace(0, 1, 40))
    names = {"ids": data.ids, "x": data.x_curves, "y": data.y_curves, "qdata": _quantile_data()}
    exec(compile(_quick_start(), str(README), "exec"), names)
    results = [v for v in names.values() if isinstance(v, (FunctionalFit, CiBand, bernfit.TestReport))]
    assert len(results) == 6
    assert {fit.model for fit in results if isinstance(fit, FunctionalFit)} == {
        "flcm", "fofr", "qfosr"
    }
    for result in results:
        for values in _numbers(result):
            assert np.isfinite(values).all(), result

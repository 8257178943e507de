"""One-line wrappers that stay only because the benchmark tracer patches them by name.

``perfbench/tracing.py`` looks each name of its ``TARGETS`` up with ``getattr``,
and CI checks that every one exists. The names below no longer hold code of
their own: each forwards to the one fit, design or band path. The list fails
when a name leaves ``TARGETS``, so the change that stops tracing it deletes
the wrapper too, and when a wrapper grows a body of its own.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# (module, wrapper, what it forwards to)
WRAPPERS = [
    ("bernfit.sofr", "sofr_design_matrix", 'build_design(data, "sofr", spec)'),
    ("bernfit.sofr", "fit_sofr", 'fit_functional(data, "sofr", ...)'),
    ("bernfit.qfosr", "build_qfosr_design", 'build_design(data, "qfosr", spec)'),
    ("bernfit.qfosr", "fit_qfosr", 'fit_functional(data, "qfosr", ...)'),
    ("bernfit.inference", "qfosr_projection_ci", 'projection_ci(data, "qfosr", ...)'),
    ("bernfit.inference", "bootstrap_shape_test_scalar", 'bootstrap_shape_test(data, "sofr", ...)'),
]


def _traced_names() -> set:
    """(module, attribute) of every entry of ``TARGETS``, read without importing perfbench."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts}
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def _function(module: str, name: str) -> ast.FunctionDef:
    path = ROOT / "src" / Path(*module.split(".")).with_suffix(".py")
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"{module} defines no {name}")


@pytest.mark.parametrize("module, name, target", WRAPPERS, ids=[w[1] for w in WRAPPERS])
def test_wrapper_is_still_traced(module, name, target):
    assert (module, name) in _traced_names(), (
        f"{module}.{name} is no longer traced; delete the wrapper (it forwards to {target})"
    )


@pytest.mark.parametrize("module, name, target", WRAPPERS, ids=[w[1] for w in WRAPPERS])
def test_wrapper_only_forwards(module, name, target):
    body = _function(module, name).body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    assert len(body) == 1 and isinstance(body[0], ast.Return)
    assert isinstance(body[0].value, ast.Call)
    assert ast.unparse(body[0].value.func) == target.split("(")[0]

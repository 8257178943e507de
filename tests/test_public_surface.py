"""``bernfit.__all__`` is exactly what ``__init__.py`` imports, once each.

A name deleted from a module but left in ``__all__`` (or imported and never
listed) fails here rather than at a user's ``from bernfit import *``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import bernfit

INIT = Path(__file__).resolve().parents[1] / "src" / "bernfit" / "__init__.py"


def _imported_names() -> list:
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]


def test_all_has_no_duplicates():
    assert len(set(bernfit.__all__)) == len(bernfit.__all__)


def test_every_name_in_all_resolves():
    missing = [name for name in bernfit.__all__ if not hasattr(bernfit, name)]
    assert not missing


def test_all_is_what_the_package_imports():
    assert sorted(bernfit.__all__) == sorted(_imported_names())


def test_removed_names_stay_removed():
    for name in ("eval_basis", "derivative_coeffs", "TensorBasisSpec"):
        assert name not in bernfit.__all__
        assert not hasattr(bernfit, name)
        assert not hasattr(bernfit.basis, name)
    assert not hasattr(bernfit.ConstraintSystem, "worst_violation")

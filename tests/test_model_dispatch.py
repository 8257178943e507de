"""The model table is the one place for what each model is.

Outside ``constraints.py``, which holds ``MODELS``, every comparison of a
model name with a string literal in ``src/bernfit`` is listed below with why
it stays: each picks an output format, not a fact about the model. A new
comparison fails this test; read the fact from the model's ``MODELS`` row
instead, or list the line here with its reason. A removed one fails it too,
so the list stays current.
"""

from __future__ import annotations

import ast
from pathlib import Path

from bernfit.constraints import MODELS

SRC = Path(__file__).resolve().parents[1] / "src" / "bernfit"

# (file, stripped source line, why the branch stays)
ALLOWED = [
    ("cli.py", 'if model == "sofr":', "fit-sofr writes sofr's alpha, gamma and beta"),
    ("cli.py", 'if model == "fofr":', "fit-fofr writes its surface on a 50 x 50 grid"),
]


def _strings(node: ast.AST) -> list:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [value for element in node.elts for value in _strings(element)]
    return []


def _comparisons(text: str) -> list:
    """Stripped source lines of the comparisons in ``text`` with a model-name literal."""
    lines = text.splitlines()
    return [
        lines[node.lineno - 1].strip()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Compare)
        and any(name in MODELS for side in (node.left, *node.comparators) for name in _strings(side))
    ]


def test_model_name_comparisons_are_the_listed_ones():
    found = sorted(
        (path.name, line)
        for path in SRC.glob("*.py")
        if path.name != "constraints.py"
        for line in _comparisons(path.read_text(encoding="utf-8"))
    )
    assert found == sorted((path, line) for path, line, _ in ALLOWED)


def test_the_scan_finds_names_in_tuples_and_skips_other_literals():
    text = 'if model in ("sofr", "flcm"):\n    pass\nok = kind == "convex"\n'
    assert _comparisons(text) == ['if model in ("sofr", "flcm"):']

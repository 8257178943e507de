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


# (file, function): the input checks that may ask whether a value is a basis spec
SPEC_CHECKS = {("constraints.py", "check_model"), ("constraints.py", "build_constraints")}


def _spec_class_reads(text: str) -> tuple:
    """Reads of ``spec_s``/``spec_t`` (as attributes or through ``getattr``) in
    ``text``, and the enclosing functions of its ``isinstance`` calls on a class
    whose name ends in ``BasisSpec``."""
    tree = ast.parse(text)
    reads = [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ("spec_s", "spec_t"))
        or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
            and any(s in ("spec_s", "spec_t") for arg in node.args for s in _strings(arg)))
    ]
    checks = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2
                    and any(getattr(n, "id", "").endswith("BasisSpec")
                            for n in ast.walk(node.args[1]))):
                checks.append(func.name)
    return reads, checks


def test_no_code_dispatches_on_the_basis_spec_class():
    # every model takes a BasisSpec; a surface is read from the model's target
    reads, checks = [], set()
    for path in SRC.glob("*.py"):
        file_reads, file_checks = _spec_class_reads(path.read_text(encoding="utf-8"))
        reads += [(path.name, line) for line in file_reads]
        checks |= {(path.name, name) for name in file_checks}
    assert not reads
    assert checks == SPEC_CHECKS


def test_the_spec_scan_finds_attribute_getattr_and_isinstance_reads():
    text = (
        "def f(spec):\n"
        "    a = spec.spec_s\n"
        "    b = getattr(spec, 'spec_t', spec)\n"
        "    return isinstance(spec, TensorBasisSpec)\n"
    )
    assert _spec_class_reads(text) == ([2, 3], ["f"])

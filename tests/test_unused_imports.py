"""No module of ``src/bernfit`` imports a name it never uses.

``__init__.py`` is exempt: it imports to re-export (``tests/test_public_surface.py``
checks it against ``__all__``). A name counts as used when it appears as a
bare name anywhere in the module, annotations included.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bernfit"


def _unused_imports(text: str) -> list:
    """Names bound by the imports in ``text`` that no other node uses."""
    tree = ast.parse(text)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in set(bound) if name not in used)


def test_no_module_has_an_unused_import():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for unused in [_unused_imports(path.read_text(encoding="utf-8"))]
        if unused
    }
    assert found == {}


def test_the_scan_finds_what_is_unused():
    text = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\nfrom .basis import Grid, BasisSpec\n"
        "def f(g: Grid) -> None:\n    return np.zeros(1)\n"
    )
    assert _unused_imports(text) == ["BasisSpec", "os"]

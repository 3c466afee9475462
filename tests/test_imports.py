"""Every name that src/egns imports is used.

No linter runs on this code, so an import left behind by a deletion would
otherwise go unnoticed.  Names listed in a module's __all__ count as used
(re-exports); __future__ imports are skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "egns"


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_scan_finds_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nfrom typing import Tuple, Optional\n"
        "__all__ = ['Tuple']\n"
        "def f(x: Optional[int]):\n    return np.zeros(x)\n"
    )
    assert _unused_imports(tree) == [(2, "os")]

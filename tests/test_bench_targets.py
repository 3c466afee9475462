"""The traced benchmark run wraps the library attributes listed in
bench/child.py TARGETS; each one must still exist.  The file is parsed,
not imported, so this test neither runs nor changes the benchmark."""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def _targets():
    tree = ast.parse(CHILD.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{CHILD} defines no TARGETS")


def _resolve(dotted):
    """A module path, or a module path whose last component is a class."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        mod, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


def test_traced_benchmark_targets_resolve():
    targets = _targets()
    assert targets
    for owner, attr, _span in targets:
        assert callable(getattr(_resolve(owner), attr, None)), f"{owner}.{attr}"

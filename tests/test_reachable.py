"""Every function, class, method and property of src/egns is used.

A public module-level function or class, or a public method or property
of such a class, counts as used when its name is referenced outside its
own definition, in src/egns or in bench/*.py.  So does a private one: a
module-level function or a method of a module-level class whose name has
a leading underscore and is not a dunder.
The benchmark names the entry points it traces as strings, so string
constants count in bench/.  Names listed in __all__ do not count: a
module exporting a name does not use it.  The files are parsed, not
imported.

Code that only bench/ reaches is pinned by name, so that what the
benchmark's span table alone keeps alive stays visible and cannot grow
unnoticed.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "egns").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# oracles the tests check the library against; no command needs them
TEST_ORACLES = {"interpolate", "energy_norm", "export_mesh"}

# reached from bench/ alone; no command needs them
BENCH_ONLY = {"apply_dirichlet"}


def _public_defs(tree):
    """(qualified name, node) of public definitions and class members."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{m.name}", m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]
    return found


def _private_defs(tree):
    """(qualified name, node) of private functions and class methods."""
    def private(node):
        if not isinstance(node, ast.FunctionDef):
            return False
        return node.name.startswith("_") and not (
            node.name.startswith("__") and node.name.endswith("__"))

    found = [(node.name, node) for node in tree.body if private(node)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{m.name}", m) for m in node.body if private(m)]
    return found


def _references(tree, skip=None, strings=False):
    """Names a tree references, leaving out the subtree `skip`.

    An attribute of a name bound by `import` is a module member, not a
    use of a class member of the same name: np.zeros does not count.
    """
    modules = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    stack, names = [tree], set()
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _unreached(src_trees, bench_trees, defs=_public_defs):
    """Names of defs that src/egns does not reference: (unreached by
    bench/ too, reached from bench/ alone)."""
    bench_refs = set().union(*(_references(t, strings=True) for t in bench_trees))
    whole = {module: _references(tree) for module, tree in src_trees.items()}
    unreached, bench_only = [], []
    for module, tree in src_trees.items():
        others = set().union(*(r for m, r in whole.items() if m != module))
        for name, node in defs(tree):
            if node.name not in others | _references(tree, skip=node):
                found = bench_only if node.name in bench_refs else unreached
                found.append(f"{module}.{name}")
    return sorted(unreached), sorted(bench_only)


@functools.cache
def _scan(defs=_public_defs):
    src = {p.stem: ast.parse(p.read_text()) for p in SRC}
    return _unreached(src, [ast.parse(p.read_text()) for p in BENCH], defs)


def _last(names):
    return {name.rsplit(".", 1)[1] for name in names}


def test_public_code_is_reached():
    found = _scan()[0]
    assert _last(found) == TEST_ORACLES and len(found) == len(TEST_ORACLES), found


def test_code_only_the_benchmark_reaches_is_pinned():
    found = _scan()[1]
    assert _last(found) == BENCH_ONLY and len(found) == len(BENCH_ONLY), found


def test_private_code_is_reached():
    assert _scan(_private_defs)[0] == []


def test_scan_finds_an_unreached_function():
    src = {
        "a": ast.parse(
            "__all__ = ['f', 'g', 'h', 'k']\n"
            "def f(n):\n    return f(n - 1) if n else 0\n"
            "def g():\n    return 1\n"
            "class h:\n"
            "    def used(self):\n        return self.used\n"
            "    @property\n    def size(self):\n        return 0\n"
            "    def grown(self):\n        return self.size + 1\n"
            "    def __len__(self):\n        return 0\n"
            "    @classmethod\n    def zeros(cls):\n        return cls()\n"
            "def k():\n    pass\n"
            "def _private():\n    pass\n"
            "def _helper():\n    return 2\n"
            "class _P:\n"
            "    def _dead(self):\n        return self._dead\n"
            "    def _live(self):\n        return _helper()\n"
            "    def __init__(self):\n        self._live()\n"
        ),
        "b": ast.parse(
            "import numpy as np\nfrom a import g, h\nx = h(g()).grown() + np.zeros(3)\n"
        ),
    }
    bench = [ast.parse("TARGETS = [('a', 'k', 'span')]\n")]
    # f and h.used reference only themselves; f is otherwise named in
    # __all__ alone; np.zeros is numpy's, not h.zeros; only the benchmark
    # names k
    assert _unreached(src, bench) == (["a.f", "a.h.used", "a.h.zeros"], ["a.k"])
    # _P._dead references only itself and no one calls _private; dunders
    # and private classes are not checked
    assert _unreached(src, bench, _private_defs) == (["a._P._dead", "a._private"], [])

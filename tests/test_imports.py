"""Every name a module imports is used in that module.

A refactor that moves code between modules easily leaves an import
behind. The guard reads each module of src/cat0 (but __init__.py, which
imports to re-export) and of tests/ with ast alone: a name counts as
used where it is read (a Name node) or is a function parameter, so a
pytest fixture imported from another module counts where a test takes
it as a parameter.
"""

import ast
import os

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "cat0")


def _unused_imports(tree):
    """(name, line) of each name the module imports and never reads, in import order."""
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [((a.asname or a.name.split(".")[0]), node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
    return sorted((name, line) for name, line in imported if name not in used)


def _modules():
    for folder, skip in ((SRC, "__init__.py"), (TESTS, None)):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py") and name != skip:
                yield os.path.join(folder, name)


def test_every_imported_name_is_used():
    stray = []
    for path in _modules():
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        stray += [(os.path.basename(path), name, line) for name, line in _unused_imports(tree)]
    assert stray == []


def test_the_guard_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from operator import add, mul as times\n"
        "import json as j\n"
        "from conftest import rng\n"
        "def f(rng):\n"
        "    return add(os.sep, 1)\n"
    )
    assert _unused_imports(tree) == [("j", 4), ("times", 3)]

"""Static checks on the package source, with the standard library's ast only."""

import ast
from pathlib import Path

import pytest

import weylcheck

SRC = Path(weylcheck.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported.append((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def _top_level_names(tree):
    """(statement index, name) of every top-level function, class and
    assigned name of a module."""
    for k, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield k, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from ((k, n.id) for n in ast.walk(target) if isinstance(n, ast.Name))


def unread_names(modules, readers=()):
    """The "module.name" of each top-level name of the modules ({module:
    source}) that no statement of the modules or the readers (sources)
    reads, as a name or as an attribute, but the statement defining it."""
    reads = {}
    for label, source in [*modules.items(), *enumerate(readers)]:
        for k, node in enumerate(ast.parse(source).body):
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    reads.setdefault(n.id, set()).add((label, k))
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    reads.setdefault(n.attr, set()).add((label, k))
    return [f"{label}.{name}" for label, source in modules.items()
            for k, name in _top_level_names(ast.parse(source))
            if not reads.get(name, set()) - {(label, k)}]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "embedsolve.py", "intrinsic.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_imports():
    source = ("from typing import Callable, Optional\n"
              "import numpy as np\n"
              "from .errors import DomainError, IntegrationError\n"
              "def f(x: Optional[int]):\n"
              "    raise IntegrationError(np.pi)\n")
    assert unused_imports(source) == ["Callable", "DomainError"]


def test_no_unread_names():
    modules = {path.stem: path.read_text() for path in MODULES}
    assert unread_names(modules, [path.read_text() for path in TESTS]) == []


def test_detects_unread_names():
    module = ("LIMIT: int = 3\n"
              "UNUSED = 4\n"
              "def helper(x):\n"
              "    return helper(x - 1) if x else LIMIT\n"
              "class Used:\n"
              "    pass\n"
              "def main():\n"
              "    return Used()\n")
    reader = "import m\nm.main()\n"
    assert unread_names({"m": module}, [reader]) == ["m.UNUSED", "m.helper"]

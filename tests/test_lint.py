"""Static checks on the package source, with the standard library's ast only."""

import ast
from pathlib import Path

import pytest

import weylcheck

SRC = Path(weylcheck.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


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

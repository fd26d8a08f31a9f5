"""Module boundaries inside the package: a module uses only the public names
of its siblings, so each private helper has one home and one set of callers,
and imports only names it uses, so a deletion leaves no import behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cyclolog"


def private_sibling_imports(source: str):
    """(line, module, name) of every relative import of an underscore-prefixed
    name; a dunder such as ``__version__`` is public."""
    return [
        (node.lineno, node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_from_a_sibling(path):
    assert private_sibling_imports(path.read_text()) == []


def test_the_check_sees_a_private_sibling_import():
    source = (
        "from . import __version__\n"
        "from .scans import _classify_l, scan\n"
        "def f():\n"
        "    from . import _x\n"
    )
    assert private_sibling_imports(source) == [(2, "scans", "_classify_l"), (4, None, "_x")]


def unused_imports(source: str):
    """(line, name) of every name a module imports and never reads, a name
    inside a string annotation counting as read; a ``__future__`` import
    binds no name."""
    tree = ast.parse(source)
    imported, used, annotations = [], set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
    for text in (n.value for a in annotations for n in ast.walk(a) if isinstance(n, ast.Constant)):
        if isinstance(text, str):
            used.update(n.id for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp, sys\n"
        "from typing import Optional, Tuple\n"
        "from .kernel import Real, hypot\n"
        "def f(x: Optional['Real']) -> 'Tuple[int]':\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == [(2, "os"), (2, "osp"), (4, "hypot")]

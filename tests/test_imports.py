"""Module boundaries inside the package: a module uses only the public names
of its siblings, so each private helper has one home and one set of callers."""

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

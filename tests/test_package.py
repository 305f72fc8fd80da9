"""The package's public surface."""

import ast
from pathlib import Path

import pytest

import fssa

_MODULES = sorted(p for p in Path(fssa.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_every_export_resolves():
    # A name left in __all__ after its definition is deleted breaks
    # `from fssa import *`; this catches it in the ordinary test run.
    for name in fssa.__all__:
        getattr(fssa, name)
    assert len(set(fssa.__all__)) == len(fssa.__all__)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # No lint tool runs here, so an import that outlives its last use would
    # stay. This also keeps each name perfbench traces called where it is
    # imported: a module that stops calling one must drop its import.
    tree = ast.parse(path.read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []

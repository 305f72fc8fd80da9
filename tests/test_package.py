"""The package's public surface."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import fssa
import fssa.protocol

_MODULES = sorted(p for p in Path(fssa.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_every_export_resolves():
    # A name left in __all__ after its definition is deleted breaks
    # `from fssa import *`; this catches it in the ordinary test run.
    for name in fssa.__all__:
        getattr(fssa, name)
    assert len(set(fssa.__all__)) == len(fssa.__all__)


def test_import_loads_only_the_protocol():
    # The top level keeps the roles and their parameters; the simulator, the
    # bench CLI and their dependencies load only when imported by name.
    assert sorted(fssa.__all__) == ["Client", "Params", "Server", "plan_parameters"]
    assert fssa.plan_parameters is fssa.protocol.plan_parameters  # read by perfbench
    src = str(Path(fssa.__file__).parent.parent)
    heavy = ["fssa.sim", "fssa.bench", "yaml", "concurrent.futures"]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import fssa; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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

"""The package's public surface."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fssa
import fssa.protocol

_MODULES = sorted(p for p in Path(fssa.__file__).parent.glob("*.py") if p.name != "__init__.py")
_ROOT = Path(__file__).parents[1]
_PYPROJECT = _ROOT / "pyproject.toml"


def _imports(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


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
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in _imports(tree)
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_dependencies_are_the_third_party_imports():
    # A package imported but not declared is missing after a clean install;
    # one declared but never imported is installed for nothing.
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads(_PYPROJECT.read_text())["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in declared}
    imported = set()
    for path in [*_MODULES, Path(fssa.__file__)]:
        for node in _imports(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif node.level == 0:  # not a relative import from within fssa
                imported.add(node.module.split(".")[0])
    third_party = {m.lower() for m in imported - set(sys.stdlib_module_names) - {"fssa"}}
    assert sorted(third_party) == sorted(declared)


def test_every_public_definition_has_a_program_caller():
    # A function or class that only tests call is a test oracle, and belongs
    # in tests/_oracles.py. A name counts as used when some module of the
    # package, a demo or perfbench names it: as a name, an attribute, an
    # import, or a string (perfbench looks call sites up by attribute name).
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(_PYPROJECT.read_text())["project"]["scripts"].values()
    used = {target.split(":")[1] for target in scripts}
    for path in [*_MODULES, Path(fssa.__file__), *(_ROOT / "demos").glob("*.py"),
                 *(_ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    public = [
        f"{path.stem}.{node.name}"
        for path in _MODULES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert [name for name in public if name.split(".")[1] not in used] == []

"""Source guards: the per-step modules stay pure-Python scalar code (none of
battery, grid and optimizer imports numpy), the control-loop modules import
without the CLI, no module finds roots through ``np.roots``, the line
grammars stay in linefmt (no other module imports a tokenizer), and the
optimizer's set-point tolerance only sets the status flags."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bessctl

PACKAGE = Path(bessctl.__file__).parent


def imported_names(path):
    """Dotted name of every import: ``a.b`` for ``import a.b`` and ``a.b.c``
    for ``from a.b import c``."""
    tree = ast.parse(path.read_text("utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", ["battery.py", "grid.py", "optimizer.py"])
def test_per_step_module_does_not_import_numpy(module):
    numpy_imports = [
        name for name in imported_names(PACKAGE / module) if name.split(".")[0] == "numpy"
    ]
    assert numpy_imports == []


def test_control_loop_imports_without_the_cli():
    # The package __init__ re-exports nothing, so these load neither click
    # nor simctl.
    script = (
        "import sys\n"
        "import bessctl.optimizer, bessctl.capability, bessctl.battery, bessctl.grid\n"
        "print(sorted({'click', 'bessctl.simctl'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert result.stdout == "[]\n"


def numpy_reads(path, attr):
    """``alias.attr`` reads in the module, alias bound by ``import numpy``,
    plus ``from numpy import attr``."""
    tree = ast.parse(path.read_text("utf-8"), str(path))
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            yield f"{node.value.id}.{attr}:{node.lineno}"
    yield from (name for name in imported_names(path) if name == f"numpy.{attr}")


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_reads_numpy_roots(module):
    # poly_real_roots builds the companion matrix np.roots would build.
    assert list(numpy_reads(PACKAGE / module, "roots")) == []


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "linefmt.py")
)
def test_only_linefmt_imports_tokenize(module):
    tokenizers = [
        name for name in imported_names(PACKAGE / module) if name.split(".")[-1] == "tokenize"
    ]
    assert tokenizers == []


def readers_of(path, name):
    """Qualified names of the functions that read the global ``name``."""
    tree = ast.parse(path.read_text("utf-8"), str(path))
    readers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            readers.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return readers


def test_point_tol_only_sets_the_status_flags():
    # A projection stays inside its cell, so neither the projection nor the
    # step's voltage bounds may lean on the set-point tolerance.
    assert readers_of(PACKAGE / "optimizer.py", "_POINT_TOL") == {"SetpointController.solve_step"}

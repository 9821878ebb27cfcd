"""Source guards: the per-step modules stay pure-Python scalar code (none of
battery, grid and optimizer imports numpy), the control-loop modules import
without the CLI, no module finds roots through ``np.roots`` or eigenvalues
through ``np.linalg.eigvals`` (capability alone calls the LAPACK gufunc
behind it), the optimizer leaves the cap cubic's overflow to capability,
the line grammars stay in linefmt (no other module imports a tokenizer),
the optimizer's set-point tolerance only sets the status flags, the
per-step value types are NamedTuples rather than dataclasses,
a step calls the layer functions through the optimizer's globals and
builds its records without their constructors, the optimizer never
imports fractions, the battery functions a step calls and the step itself
build no lists, and no module silences a lint rule with ``# noqa``."""

import ast
import dataclasses
import os
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import bessctl
from bessctl.battery import TtcState
from bessctl.capability import Cell
from bessctl.optimizer import ControlRecord, Probe, ProjectionProblem

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
    # The package __init__ re-exports nothing, so these load neither the
    # CLI's argparse nor simctl, and the projection breaks a cross-cell tie
    # in integers, without fractions.
    script = (
        "import sys\n"
        "import bessctl.optimizer, bessctl.capability, bessctl.battery, bessctl.grid\n"
        "print(sorted({'argparse', 'bessctl.simctl', 'fractions'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert result.stdout == "[]\n"


def test_cli_imports_without_click():
    script = "import sys\nimport bessctl.simctl\nprint('click' in sys.modules)\n"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert result.stdout == "False\n"


def numpy_names(path):
    """``name:line`` for every numpy name the module imports or reads, the
    name resolved through its import: under ``import numpy as np``,
    ``np.linalg.eigvals`` reads ``numpy.linalg.eigvals`` (and
    ``numpy.linalg``)."""
    tree = ast.parse(path.read_text("utf-8"), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.split(".")[0] == "numpy":
                    bound[alias.asname] = alias.name
                elif alias.name.split(".")[0] == "numpy":  # import numpy.linalg binds numpy
                    bound["numpy"] = "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                yield f"{node.module}.{alias.name}:{node.lineno}"
    for node in ast.walk(tree):
        attrs = []
        value = node
        while isinstance(value, ast.Attribute):
            attrs.append(value.attr)
            value = value.value
        if attrs and isinstance(value, ast.Name) and value.id in bound:
            yield ".".join([bound[value.id], *reversed(attrs)]) + f":{node.lineno}"


def numpy_reads(path, name):
    return [read for read in numpy_names(path) if read.rsplit(":", 1)[0] == name]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_reads_numpy_roots(module):
    # poly_real_roots builds the companion matrix np.roots would build.
    assert numpy_reads(PACKAGE / module, "numpy.roots") == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_reads_numpy_eigvals(module):
    # poly_real_roots calls the gufunc behind np.linalg.eigvals directly.
    assert numpy_reads(PACKAGE / module, "numpy.linalg.eigvals") == []


def test_optimizer_leaves_the_cap_cubic_to_capability():
    # capability.cubic_real_roots alone decides how the cubic is solved, its
    # overflow retry included; the optimizer only calls it.
    names = [name.rsplit(".", 1)[-1] for name in imported_names(PACKAGE / "optimizer.py")]
    assert {"CompanionOverflowError", "poly_real_roots"}.isdisjoint(names)


def test_only_capability_imports_the_eigenvalue_gufunc():
    gufunc = "numpy.linalg._umath_linalg"
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        if any(read.rsplit(":", 1)[0].startswith(gufunc) for read in numpy_names(path))
    }
    assert importers == {"capability.py"}


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


@pytest.mark.parametrize("value_type", [TtcState, ProjectionProblem, ControlRecord, Probe, Cell])
def test_per_step_value_types_are_not_dataclasses(value_type):
    # A frozen dataclass sets each field through object.__setattr__ and then
    # runs __post_init__, a large share of a cheap step.
    assert not dataclasses.is_dataclass(value_type)
    assert issubclass(value_type, tuple)


def local_names(path, qualname):
    """Names bound inside the function ``qualname`` or a function nested in it."""
    table = symtable.symtable(path.read_text("utf-8"), str(path), "exec")
    for part in qualname.split("."):
        table = next(t for t in table.get_children() if t.get_name() == part)
    names, tables = set(), [table]
    while tables:
        table = tables.pop()
        names |= {s.get_name() for s in table.get_symbols() if s.is_local()}
        tables += table.get_children()
    return names


@pytest.mark.parametrize("name", ["project", "dc_power_bounds", "solve_vdc", "predict_vac", "ttc_step"])
def test_solve_step_calls_the_layers_through_module_globals(name):
    # The benchmark tracer times each layer by replacing these globals, and
    # tests count calls through them: a step that called an alias or an
    # unchecked core would lose those spans without an error.
    step = "SetpointController.solve_step"
    readers = readers_of(PACKAGE / "optimizer.py", name)
    assert any(r == step or r.startswith(step + ".") for r in readers), readers
    assert name not in local_names(PACKAGE / "optimizer.py", step)


def function_def(path, name):
    tree = ast.parse(path.read_text("utf-8"), str(path))
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


@pytest.mark.parametrize("name", ["dc_power_bounds", "_into_window", "ttc_step"])
def test_battery_step_functions_build_no_lists(name):
    # Lists of caps under min and max took about half of dc_power_bounds;
    # scalar comparisons return the same bits (see test_battery's
    # TestScalarRewrite).
    node = function_def(PACKAGE / "battery.py", name)
    lists = [
        f"{type(n).__name__}:{n.lineno}"
        for n in ast.walk(node)
        if isinstance(n, (ast.List, ast.ListComp))
    ]
    assert lists == []


def test_optimizer_never_imports_fractions():
    # A tie imported fractions, and with it decimal, inside a control step.
    names = imported_names(PACKAGE / "optimizer.py")
    assert [name for name in names if name.split(".")[0] == "fractions"] == []


@pytest.mark.parametrize("value_type", ["ControlRecord", "Probe"])
def test_solve_step_does_not_call_the_record_constructors(value_type):
    # Their generated __new__ is a Python frame per value; the step builds
    # them with tuple.__new__, which NamedTuples do not check either.
    node = function_def(PACKAGE / "optimizer.py", "solve_step")
    calls = [
        n.lineno
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == value_type
    ]
    assert calls == []


def test_solve_step_builds_no_lists_or_comprehensions():
    # The assumption loop decides each AC range inline; a per-step list of
    # those answers, zipped against the table in every DC range, cost more
    # than the comparisons it saved.  Walking solve_step covers probe too.
    node = function_def(PACKAGE / "optimizer.py", "solve_step")
    built = [
        f"{type(n).__name__}:{n.lineno}"
        for n in ast.walk(node)
        if isinstance(n, (ast.List, ast.ListComp, ast.DictComp, ast.SetComp, ast.GeneratorExp))
    ]
    assert built == []


def test_no_module_carries_a_noqa_marker():
    # A name imported only so that tests can read it is an unused import
    # that lint flags; tests import it from its defining module instead.
    marked = [
        f"{path.relative_to(PACKAGE)}:{number}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(path.read_text("utf-8").splitlines(), 1)
        if "# noqa" in line
    ]
    assert marked == []

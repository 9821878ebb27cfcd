"""Import guards: the per-step modules stay pure-Python scalar code (neither
imports numpy), and the line grammars stay in linefmt (no other module
imports a tokenizer)."""

import ast
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


@pytest.mark.parametrize("module", ["grid.py", "optimizer.py"])
def test_per_step_module_does_not_import_numpy(module):
    numpy_imports = [
        name for name in imported_names(PACKAGE / module) if name.split(".")[0] == "numpy"
    ]
    assert numpy_imports == []


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "linefmt.py")
)
def test_only_linefmt_imports_tokenize(module):
    tokenizers = [
        name for name in imported_names(PACKAGE / module) if name.split(".")[-1] == "tokenize"
    ]
    assert tokenizers == []

"""The per-step modules stay pure-Python scalar code: neither imports numpy."""

import ast
from pathlib import Path

import pytest

import bessctl

PACKAGE = Path(bessctl.__file__).parent


def imported_modules(path):
    tree = ast.parse(path.read_text("utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            yield node.module


@pytest.mark.parametrize("module", ["grid.py", "optimizer.py"])
def test_per_step_module_does_not_import_numpy(module):
    numpy_imports = [
        name for name in imported_modules(PACKAGE / module) if name.split(".")[0] == "numpy"
    ]
    assert numpy_imports == []

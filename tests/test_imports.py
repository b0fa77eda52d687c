"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import staircase_lab

PACKAGE = Path(staircase_lab.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def _imported_names(tree):
    """The names the module's imports bind, but not ``from __future__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def _used_names(tree):
    """Every ``ast.Name`` id, also inside string constants that parse
    as an expression, such as string annotations and ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = _imported_names(tree)
    assert imported  # the scan sees the module's imports
    unused = imported - _used_names(tree)
    assert not unused, f"{module}.py imports {sorted(unused)} but never uses them"


def test_the_scan_flags_an_unused_import():
    tree = ast.parse("from typing import List, Optional\n"
                     "import numpy as np\n"
                     "x: 'List[int]' = np.zeros(1)\n")
    assert _imported_names(tree) - _used_names(tree) == {"Optional"}

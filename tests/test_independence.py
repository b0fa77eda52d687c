"""The two routes behind each exact answer must not share code."""

import ast
from pathlib import Path

import pytest

import staircase_lab

PACKAGE = Path(staircase_lab.__file__).parent


def _imported_modules(name):
    """The package modules that ``name`` imports, by their short names."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:  # from . import a, b
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("staircase_lab."):
                found.add(node.module.split(".")[1])
            elif node.module == "staircase_lab":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("staircase_lab."))
    return found


@pytest.mark.parametrize("module, forbidden", [
    # the oracle checks the counting engine and the samplers
    ("enumeration", {"dpcount", "sampler", "moments"}),
    # the generator solve and the tableaux route check each other
    ("asep", {"enumeration", "dpcount", "sampler"}),
])
def test_reference_routes_import_none_of_what_they_check(module, forbidden):
    imported = _imported_modules(module)
    assert "core" in imported  # the scan sees the module's own imports
    assert not imported & forbidden

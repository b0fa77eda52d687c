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


def _call_closure(module, root):
    """The module-level functions and classes of ``module`` that the
    function ``root`` names, directly or through one another."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reached, todo = set(), [root]
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Name) and node.id in defs and node.id not in reached:
                reached.add(node.id)
                todo.append(node.id)
    return reached


#: The two steady-state routes in ``asep`` and the functions each one
#: alone may reach; they share only the integer rates.
ASEP_ROUTES = {
    "steady_state_via_generator": {"_transitions", "_check_irreducible", "_inverse_mod",
                                   "_reconstruct", "_balanced"},
    "steady_state_via_tableaux": {"_column_weights", "_accumulate", "_add"},
}


@pytest.mark.parametrize("route, other", [
    ("steady_state_via_generator", "steady_state_via_tableaux"),
    ("steady_state_via_tableaux", "steady_state_via_generator"),
])
def test_asep_routes_reach_none_of_each_other_s_functions(route, other):
    reached = _call_closure("asep", route)
    assert "_integer_rates" in reached  # the scan follows the route's own calls
    assert ASEP_ROUTES[route] <= reached
    assert not reached & ASEP_ROUTES[other]

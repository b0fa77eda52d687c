"""The two routes behind each exact answer must not share code."""

import ast
import inspect
import re
from pathlib import Path
from typing import NamedTuple

import pytest

import staircase_lab

PACKAGE = Path(staircase_lab.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
TESTS = Path(__file__).parent


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


@pytest.mark.parametrize("module, witness, forbidden", [
    # the oracle checks the counting engine and the samplers
    ("enumeration", "core", {"dpcount", "sampler", "moments"}),
    # the generator solve and the tableaux route check each other
    ("asep", "core", {"enumeration", "dpcount", "sampler"}),
    # the counting kernel checks the closed forms, and they check it
    ("dpcount", "core", {"formulas", "enumeration", "moments", "sampler", "asep"}),
    ("formulas", "core", {"dpcount", "enumeration", "moments", "sampler", "asep"}),
    # the column growth checks the counting kernel and the generator solve
    ("growth", "pmf", {"asep", "dpcount", "sampler", "enumeration", "moments", "formulas",
                       "constraints", "_rules", "_budget"}),
])
def test_reference_routes_import_none_of_what_they_check(module, witness, forbidden):
    imported = _imported_modules(module)
    assert witness in imported  # the scan sees the module's own imports
    assert not imported & forbidden


def _scope(module):
    """The module-level functions and classes of ``module`` by name, and
    the names it imports from other package modules, as (module, name)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    imported = {alias.asname or alias.name: (node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                for alias in node.names}
    return defs, imported


def _call_closure(module, root):
    """The functions and classes that the function ``root`` of ``module``
    names, directly or through one another, across the package's
    modules: those of ``module`` by name, and those of another module
    ``m``, imported by name or read as the attribute ``m.f``, as the
    string ``"m.f"``."""
    scopes = {name: _scope(name) for name in MODULES}
    reached, todo = set(), [(module, root)]
    while todo:
        where, name = todo.pop()
        defs, imported = scopes[where]
        if name not in defs:  # a constant, read but not followed
            continue
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name) and node.id in defs:
                target = (where, node.id)
            elif isinstance(node, ast.Name) and node.id in imported:
                target = imported[node.id]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in MODULES):
                target = (node.value.id, node.attr)
            else:
                continue
            label = target[1] if target[0] == module else ".".join(target)
            if label not in reached:
                reached.add(label)
                todo.append(target)
    return reached


def test_chain_draws_reach_no_counting_pass():
    reached = _call_closure("sampler", "sample_many")
    # the scan follows the draws into the names they import
    assert {"_sample_chain", "_sample_enum", "_rules.ScaledWeights", "_budget.get"} <= reached
    assert not reached & {"dpcount._sweep", "dpcount._masses_crt"}


def test_the_rules_module_imports_no_route():
    # the fill rules and the integer measure sit below every route
    assert _imported_modules("_rules") == {"measure"}
    assert not _imported_modules("sampler") & {"dpcount", "enumeration", "constraints"}


def test_the_oracle_and_the_kernel_share_no_object_of_the_rules():
    oracle = set().union(*(_call_closure("enumeration", name)
                           for name in staircase_lab._HOMES["enumeration"]))
    assert {name for name in oracle if name.startswith("_rules.")} == {"_rules._column_configs"}
    for root in ("statistic_pmf", "event_prob", "conditional_cell_law"):
        reached = _call_closure("dpcount", root)
        # the scan follows the kernel into the rules it reads
        assert {"_rules.ScaledWeights", "_rules._MOVES"} <= reached, root
        assert "_rules._column_configs" not in reached, root


#: The two steady-state routes in ``asep`` and the functions each one
#: alone may reach; they share only the integer rates.
ASEP_ROUTES = {
    "steady_state_via_generator": {"_chain", "_transitions", "_check_irreducible",
                                   "_inverse_mod", "_reconstruct", "_balanced"},
    "steady_state_via_tableaux": {"growth.type_laws", "growth._column_weights"},
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


#: The moment route of the second-diagonal laws and convergence rows:
#: the public moments and the helpers that ``exact_statistic_pmf`` and
#: ``convergence_report`` call on diagonal 2.
SECOND_DIAG_MOMENT_ROUTE = ("factorial_moments_second_diag", "_moment_numerators",
                            "_tuple_sum_heads", "_invert", "_masses", "_refuse_negative",
                            "_first_order", "_tv_from_moments", "_enclose")


@pytest.mark.parametrize("root", SECOND_DIAG_MOMENT_ROUTE)
def test_the_second_diagonal_moment_route_reaches_no_counting_code(root):
    branches = (_call_closure("moments", "exact_statistic_pmf")
                | _call_closure("moments", "convergence_report"))
    # the scan sees the counting engine where the moments do call it
    assert "dpcount.statistic_pmf" in branches
    assert set(SECOND_DIAG_MOMENT_ROUTE[1:]) <= branches
    reached = _call_closure("moments", root)
    assert not {name for name in reached if name.startswith("dpcount.")}


def test_moments_reaches_the_counting_kernel_from_one_function():
    tree = ast.parse((PACKAGE / "moments.py").read_text())
    naming = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
              for inner in ast.walk(node)
              if isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name)
              and inner.value.id == "dpcount"}
    assert naming == {"exact_statistic_pmf"}


# ----------------------------------------------------------------------
# the ledger of routes

class Route(NamedTuple):
    second: str  # a public name, or how the tests compute the answer
    sizes: tuple  # the sizes n where ``test`` compares the two
    test: str  # "file::function" under tests/


#: For each exact public name, its second route and where the tests
#: compare the two.  ``exact_statistic_pmf``'s row is its moment route,
#: for A2, B2 and X2; it hands the other statistics to ``statistic_pmf``.
ROUTES = {
    "partition_closed": Route("brute_partition", tuple(range(1, 7)) + (8,),
                              "test_enumeration.py::test_brute_partition_matches_closed_form"),
    "brute_partition": Route("partition_closed", tuple(range(1, 7)) + (8,),
                             "test_enumeration.py::test_brute_partition_matches_closed_form"),
    "count_tableaux": Route("(n + 1)!", tuple(range(1, 9)),
                            "test_acceptance.py::test_c01_partition_identities"),
    "constrained_partition": Route(
        "partition_closed", (1, 2, 3, 5, 6),
        "test_dpcount.py::test_diagonal_factors_match_fractions_and_oracle"),
    "event_prob": Route("oracle_event_prob", (3, 4, 5),
                        "test_dpcount.py::test_random_constraint_sets_match_oracle"),
    "oracle_event_prob": Route("event_prob", (3, 4, 5),
                               "test_dpcount.py::test_random_constraint_sets_match_oracle"),
    "conditional_cell_law": Route("box_law", (5, 6, 7),
                                  "test_dpcount.py::test_conditional_cell_law_marginal_and_errors"),
    "box_law": Route("event_prob", (13,),
                     "test_dpcount.py::test_box_law_matches_dp_beyond_enumeration"),
    "second_diag_joint_alpha": Route(
        "event_prob", (12, 17),
        "test_dpcount.py::test_diagonal_events_match_closed_forms_beyond_enumeration"),
    "second_diag_joint_nonempty": Route(
        "event_prob", (12, 17),
        "test_dpcount.py::test_diagonal_events_match_closed_forms_beyond_enumeration"),
    "third_diag_main_term": Route(
        "factorial_moments_third_diag", (20,),
        "test_moments.py::test_third_diag_main_moments_match_main_term_sums"),
    "factorial_moments_second_diag": Route(
        "oracle_statistic_pmf", (2, 4, 5, 7),
        "test_moments.py::test_second_diag_moments_match_oracle"),
    "factorial_moments_third_diag": Route(
        "oracle_statistic_pmf", (3, 5, 7),
        "test_moments.py::test_third_diag_exact_moments_match_oracle"),
    "pmf_from_factorial_moments": Route("Pmf.factorial_moment", (2, 5, 9, 30, 100, 200),
                                        "test_moments.py::test_inversion_round_trips"),
    "exact_statistic_pmf": Route(
        "statistic_pmf", (6, 10, 12),
        "test_moments.py::test_inverted_second_diag_law_matches_counting_engine"),
    "statistic_pmf": Route(
        "oracle_statistic_pmf", (1, 2, 3, 5, 6),
        "test_dpcount.py::test_diagonal_factors_match_fractions_and_oracle"),
    "oracle_statistic_pmf": Route(
        "statistic_pmf", (1, 2, 3, 5, 6),
        "test_dpcount.py::test_diagonal_factors_match_fractions_and_oracle"),
    "tv_to_poisson": Route("a per-point sum in mpmath interval arithmetic",
                           (1, 2, 3, 5, 16, 31, 64, 128, 256),
                           "test_moments.py::test_tv_matches_per_point_route"),
    "steady_state_via_generator": Route(
        "steady_state_via_tableaux", (9, 10),
        "test_asep.py::test_alpha_delta_reading_matches_generator_at_the_largest_sizes"),
    "steady_state_via_tableaux": Route(
        "steady_state_via_generator", (9, 10),
        "test_asep.py::test_alpha_delta_reading_matches_generator_at_the_largest_sizes"),
}

#: Further comparisons for a name of ``ROUTES``, beside its row there.
MORE_ROUTES = {
    "event_prob": Route("steady_state_via_generator", tuple(range(1, 9)) + (10,),
                        "test_dpcount.py::test_ssep_steady_state_is_the_main_diagonal_law"),
    "steady_state_via_tableaux": Route(
        "event_prob", tuple(range(1, 9)) + (10,),
        "test_dpcount.py::test_ssep_steady_state_is_the_main_diagonal_law"),
}

#: Exact public names with one route, and why.
ONE_ROUTE = {
    "parse_rational": "it reads a number from text and computes no law",
    "cross_validate": "it is the comparison of the two steady-state routes: the "
                      "generator certifies first, accepting a tableaux law that balances "
                      "every state of the irreducible chain, and solves only on a miss",
    "convergence_report": "it tabulates laws that have rows above: second-diagonal rows "
                          "come from the moment numerators up to a doubling order, "
                          "equal to the factorial moments and tv_to_poisson of "
                          "exact_statistic_pmf's whole law at n up to 1024 "
                          "(test_moments.py::test_second_diagonal_rows_match_the_law_route), "
                          "third-diagonal rows from statistic_pmf's law; both are pinned "
                          "by digests",
}

#: A public function is exact when it returns an exact value or law.
_EXACT_RETURN = re.compile(r"\b(Fraction|Pmf|BoxLaw|JointValue|MainTerm)\b")


def _exact_public_names():
    names = set()
    for name in staircase_lab.__all__:
        obj = getattr(staircase_lab, name)
        if inspect.isfunction(obj) and _EXACT_RETURN.search(
                str(inspect.signature(obj).return_annotation)):
            names.add(name)
    return names


def test_every_exact_public_name_is_in_the_ledger():
    exact = _exact_public_names()
    assert {"statistic_pmf", "box_law", "pmf_from_factorial_moments"} <= exact
    assert not set(ROUTES) & set(ONE_ROUTE)
    assert set(MORE_ROUTES) <= set(ROUTES)
    assert exact <= set(ROUTES) | set(ONE_ROUTE), "add these to ROUTES or ONE_ROUTE"
    assert set(ROUTES) | set(ONE_ROUTE) <= set(staircase_lab.__all__)


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_each_ledger_row_names_a_test_that_exists(name):
    for route in filter(None, (ROUTES[name], MORE_ROUTES.get(name))):
        file, function = route.test.split("::")
        tree = ast.parse((TESTS / file).read_text())
        assert function in {node.name for node in tree.body
                            if isinstance(node, ast.FunctionDef)}
        assert route.second != name and route.sizes == tuple(sorted(set(route.sizes)))


def _readme_routes_paragraph():
    readme = (TESTS.parent / "README.md").read_text()
    return next(part for part in readme.split("\n\n")
                if part.startswith("Each statistic's law has two independent routes"))


def test_the_readme_states_the_statistic_routes_of_the_ledger():
    sentences = " ".join(_readme_routes_paragraph().split()).split(". ")
    rows = [(name, ROUTES[name]) for name in ("exact_statistic_pmf", "statistic_pmf")]
    rows += MORE_ROUTES.items()
    for name, route in rows:
        assert any(f"`{name}`" in sentence and f"`{route.second}`" in sentence
                   and f"up to n = {max(route.sizes)}" in sentence
                   for sentence in sentences), name

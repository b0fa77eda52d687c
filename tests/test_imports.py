"""Every name a package module imports is used in that module, a
public name loads its home module at first use and no other, and
numpy loads only with the counting kernel or the generator solve."""

import ast
import json
import os
import subprocess
import sys
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
    as an expression, such as string annotations."""
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


#: Each route that builds no array, then a counting pass, in a fresh
#: interpreter: the test process already holds numpy.
_NUMPY_FREE_ROUTES = """
import random, sys
from fractions import Fraction as F
import staircase_lab as s
w = s.Weights(F(13, 7), F(2, 5))
for stat in ("A2", "B2", "X2"):
    s.convergence_report([8, 64], w, stat)
s.tv_to_poisson(s.exact_statistic_pmf(12, w, "B2"), s.POISSON_RATES["B2"])
for method in ("chain_rule", "enum_alias"):
    s.sample_many(6, w, random.Random(7), 5, method)
report = s.cross_validate(5, s.AsepParams(2, 1, 3, 1, 1, F(1, 2)))
assert report["matching_conventions"]
s.box_law(6, w, (2, 3))
s.partition_closed(6, w)
s.brute_partition(4, w)
assert "numpy" not in sys.modules, "a route that builds no array loaded numpy"
s.statistic_pmf(5, w, "X2")
assert "numpy" in sys.modules, "the counting kernel ran without numpy"
"""


def test_only_the_array_routes_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    subprocess.run([sys.executable, "-W", "error", "-c", _NUMPY_FREE_ROUTES], env=env,
                   check=True)


def _fresh(script, *args):
    """Run ``script`` in a fresh interpreter, which holds no package
    module yet, and return what it prints."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-W", "error", "-c", script, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


#: Each route by what it runs after ``import staircase_lab as s``, the
#: package modules it must load and those it must not.
_LAZY_ROUTES = {
    "bare import": ("", set(), set(MODULES)),
    "moment route": ("w = s.Weights(F(13, 7), F(2, 5))\n"
                     "for stat in ('A2', 'B2', 'X2'):\n"
                     "    s.convergence_report([8, 64], w, stat)\n",
                     {"moments"}, {"dpcount", "asep", "sampler", "enumeration", "formulas",
                                   "_rules", "_budget", "constraints"}),
    "certified asep law": ("report = s.cross_validate(5, s.AsepParams(2, 1, 3, 1, 1, F(1, 2)))\n"
                           "assert report['matching_conventions']\n"
                           "assert 'numpy' not in sys.modules\n",
                           {"asep", "growth"}, {"dpcount", "moments", "sampler", "enumeration",
                                      "_rules", "constraints", "formulas"}),
    "draws": ("import random\n"
              "w, rng = s.Weights(F(13, 7), F(2, 5)), random.Random(7)\n"
              "s.sample_many(14, w, rng, 3)\n"
              "s.sample_many(7, w, rng, 3, 'enum_alias')\n"
              "assert 'numpy' not in sys.modules\n",
              {"sampler", "_rules"},
              {"dpcount", "constraints", "enumeration", "moments", "asep", "formulas"}),
}


@pytest.mark.parametrize("route", _LAZY_ROUTES)
def test_a_route_loads_only_the_modules_it_reaches(route):
    code, needed, forbidden = _LAZY_ROUTES[route]
    printed = _fresh("import sys\nfrom fractions import Fraction as F\n"
                     "import staircase_lab as s\n" + code +
                     "print(*[name for name in sys.modules if name.startswith('staircase_lab.')])")
    loaded = {name.partition(".")[2] for name in printed.split()}
    assert needed <= loaded
    assert not loaded & forbidden, f"{route} loaded {sorted(loaded & forbidden)}"


def _homes():
    """Each name a library module defines at its top level, with the
    modules that define it; the command line's commands, such as
    ``sample``, are left out."""
    homes = {}
    for module in set(MODULES) - {"cli"}:
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                homes.setdefault(name, set()).add(module)
    return homes


def test_every_public_name_is_the_object_its_home_module_defines():
    homes = _homes()
    assert all(len(homes.get(name, ())) == 1 for name in staircase_lab.__all__), \
        {name: homes.get(name) for name in staircase_lab.__all__}
    homes = {name: home for name in staircase_lab.__all__ for home in homes[name]}
    # the first-use hook imports the defining module, not one that
    # imports the name from there
    assert staircase_lab._HOME == homes
    # a star import from a fresh interpreter binds every name through
    # the hook, which also binds it in the package
    _fresh("import importlib, json, sys\n"
           "from staircase_lab import *\n"
           "package = vars(sys.modules['staircase_lab'])\n"
           "for name, home in json.loads(sys.argv[1]).items():\n"
           "    module = importlib.import_module(f'staircase_lab.{home}')\n"
           "    assert globals()[name] is getattr(module, name) is package[name], (name, home)\n",
           json.dumps(homes))


def test_the_package_lists_its_public_names_and_refuses_others():
    assert dir(staircase_lab) == sorted(staircase_lab.__all__)
    with pytest.raises(AttributeError, match="module 'staircase_lab' has no attribute 'nowhere'"):
        staircase_lab.nowhere
    assert not hasattr(staircase_lab, "_nowhere")


def test_only_the_package_lists_public_names():
    # one statement of the public surface, ``_HOMES``: a module's own
    # ``__all__`` would be a second one, free to disagree with it
    listing = {path.stem for path in PACKAGE.glob("*.py")
               if any(isinstance(node, ast.Name) and node.id == "__all__"
                      and isinstance(node.ctx, ast.Store)
                      for node in ast.walk(ast.parse(path.read_text())))}
    assert listing == {"__init__"}

"""Every name a package module imports is used in that module, and
numpy loads only with the counting kernel or the generator solve."""

import ast
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

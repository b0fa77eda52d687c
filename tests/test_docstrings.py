"""Every cross-reference in a package module's docstrings and comments
names something that exists: a fact stated once is found where its
pointer says."""

import importlib
import re
from pathlib import Path

import pytest

import staircase_lab
from staircase_lab import _rules, dpcount, sampler

PACKAGE = Path(staircase_lab.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

#: A :func:, :data:, :class: or :meth: role, or a private name such as
#: _name or _mod.name alone in double backticks.
POINTER = re.compile(r":(?:func|data|class|meth):`~?([\w.]+)`|``(_[A-Za-z]\w*(?:\.\w+)*)``")


def _pointers(text):
    return [role or private for role, private in POINTER.findall(text)]


def _resolves(module, target):
    """Whether ``target`` names something in ``module``, in one of its
    classes, or, spelled ``staircase_lab.mod.name``, in that module."""
    parts = target.split(".")
    if parts[0] == "staircase_lab":
        module = importlib.import_module(".".join(parts[:2]))
        parts = parts[2:]
    scopes = [module] + [value for value in vars(module).values()
                         if isinstance(value, type) and value.__module__ == module.__name__]
    for scope in scopes:
        found = scope
        for part in parts:
            found = getattr(found, part, None)
            if found is None:
                break
        else:
            return True
    return False


@pytest.mark.parametrize("name", MODULES)
def test_every_docstring_pointer_resolves(name):
    module = importlib.import_module(f"staircase_lab.{name}" if name != "__init__"
                                     else "staircase_lab")
    text = (PACKAGE / f"{name}.py").read_text()
    stale = [target for target in _pointers(text) if not _resolves(module, target)]
    assert not stale, f"{name}.py points at {stale}, which it does not define"


def test_the_scan_sees_the_pointers_and_flags_a_stale_one():
    found = {module: _pointers((PACKAGE / f"{module.__name__.rpartition('.')[2]}.py").read_text())
             for module in (dpcount, sampler, _rules)}
    # a role into another module, a method of a class, and a private name
    assert "staircase_lab.core._statistic_cells" in found[dpcount]
    assert "total_bound" in found[_rules]
    assert "_budget.get" in found[sampler]
    assert all(_resolves(module, target) for module, targets in found.items()
               for target in targets)
    assert _pointers("see :func:`_gone` and ``_nowhere``") == ["_gone", "_nowhere"]
    assert not _resolves(dpcount, "_gone")
    assert not _resolves(_rules, "ScaledWeights.gone")
    assert not _resolves(dpcount, "staircase_lab.sampler._sweep")

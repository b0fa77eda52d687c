"""Cell-level events expressed as per-box requirements.

A :class:`ConstraintSet` pins selected boxes to a requirement drawn from
:class:`Requirement` and leaves every other box free.  The enumeration
and counting backends both consume these objects, so a single event
description can be priced by two independent engines.  A set may be
unsatisfiable (for instance ``MUST_EMPTY`` on a main-diagonal box);
that is not an error, it is simply an event of probability zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

from .core import (Box, Tableau, _check_box, _check_size, _diagonal_columns, second_diagonal,
                   third_diagonal)


class Requirement(enum.Enum):
    FREE = "free"
    MUST_ALPHA = "alpha"
    MUST_BETA = "beta"
    MUST_NONEMPTY = "nonempty"
    MUST_EMPTY = "empty"


#: Cell codes compatible with each requirement, for alpha/beta tableaux.
_ALLOWED = {
    Requirement.FREE: frozenset(".AB"),
    Requirement.MUST_ALPHA: frozenset("A"),
    Requirement.MUST_BETA: frozenset("B"),
    Requirement.MUST_NONEMPTY: frozenset("AB"),
    Requirement.MUST_EMPTY: frozenset("."),
}


@dataclass(frozen=True, slots=True)
class ConstraintSet:
    """A frozen mapping from boxes to requirements at a fixed size.

    Every item is checked, but a free box is not stored: the items are
    the constrained boxes only, sorted by box, so equal events hash and
    compare equal whichever way they were built.
    """

    n: int
    items: Tuple[Tuple[Box, Requirement], ...]

    def __post_init__(self) -> None:
        _check_size(self.n)
        items = tuple((_check_box(self.n, box), req) for box, req in self.items)
        seen = set()
        for box, req in items:
            if not isinstance(req, Requirement):
                raise TypeError(f"requirement for box {box} must be a Requirement")
            if box in seen:
                raise ValueError(f"box {box} is constrained twice")
            seen.add(box)
        kept = (item for item in items if item[1] is not Requirement.FREE)
        object.__setattr__(self, "items", tuple(sorted(kept, key=lambda item: item[0])))

    @classmethod
    def of(cls, n: int, boxes: Mapping[Box, Requirement]) -> "ConstraintSet":
        return cls(n, tuple(boxes.items()))

    @classmethod
    def empty(cls, n: int) -> "ConstraintSet":
        return cls(n, ())

    def as_dict(self) -> Dict[Box, Requirement]:
        return dict(self.items)

    def allowed_cells(self, box: Box) -> frozenset:
        """Cell codes an alpha/beta tableau may hold at ``box``."""
        box = _check_box(self.n, box)
        return _ALLOWED[self.as_dict().get(box, Requirement.FREE)]

    def _check_built_for(self, n: int) -> None:
        if self.n != n:
            raise ValueError(f"constraints built for size {self.n}, not {n}")

    def satisfied_by(self, t: Tableau) -> bool:
        self._check_built_for(t.n)
        # the boxes were checked when the set was built
        return all(t.rows[i - 1][j - 1] in _ALLOWED[req] for (i, j), req in self.items)


def second_diag_event(n: int, cols: Iterable[int], req: Requirement) -> ConstraintSet:
    """Require ``req`` at the second-diagonal boxes in the given columns."""
    cols = _diagonal_columns(n, 2, cols)
    return ConstraintSet.of(n, {second_diagonal(n)[c - 1]: req for c in cols})


def third_diag_event(n: int, cols: Iterable[int], req: Requirement) -> ConstraintSet:
    """Require ``req`` at the third-diagonal boxes in the given columns."""
    cols = _diagonal_columns(n, 3, cols)
    return ConstraintSet.of(n, {third_diagonal(n)[c - 1]: req for c in cols})

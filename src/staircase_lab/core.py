"""Staircase tableaux as immutable grid objects.

A staircase tableau of size ``n`` lives on the Young-diagram shape
``(n, n-1, ..., 1)``.  Rows are numbered 1..n from the top and columns
1..n from the left, so box ``(i, j)`` exists exactly when
``i + j <= n + 1``.  Row 1 therefore touches the north-west corner and
the boxes ``(i, n+1-i)`` form the main diagonal running from the
north-east corner down to the south-west corner.

Boxes hold one of the symbols alpha/beta/gamma/delta or stay empty,
subject to three filling rules:

* every main-diagonal box holds a symbol,
* all boxes above an alpha or gamma in the same column are empty,
* all boxes left of a beta or delta in the same row are empty.

The one-character cell codes used throughout are ``A`` (alpha), ``B``
(beta), ``G`` (gamma), ``D`` (delta) and ``.`` (empty), which is also
the on-disk text format (a size line followed by one row per line).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Tuple

Box = Tuple[int, int]


_CELL_CHARS = frozenset(".ABGD")
_COLUMN_BLOCKERS = frozenset("AG")  # symbols that force empty boxes above
_ROW_BLOCKERS = frozenset("BD")  # symbols that force empty boxes to the left


class SymbolCounts(NamedTuple):
    alpha: int
    beta: int
    gamma: int
    delta: int


def _check_int(value: int, name: str) -> None:
    # a bool is an int to isinstance, and True would pass as 1
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


def _check_size(n: int, least: int = 1, most: Optional[int] = None) -> None:
    _check_int(n, "size")
    if n < least or most is not None and n > most:
        span = f"at least {least}" if most is None else f"in {least}..{most}"
        raise ValueError(f"size must be {span}, got {n}")


def staircase_boxes(n: int) -> Iterator[Box]:
    """Every box of the size-``n`` staircase in row-major order; the
    size is checked at the call, before the first box."""
    _check_size(n)
    return ((i, j) for i in range(1, n + 1) for j in range(1, n + 2 - i))


def main_diagonal(n: int) -> Tuple[Box, ...]:
    """Boxes ``(n+1-j, j)`` for ``j = 1..n``, listed by column."""
    _check_size(n)
    return tuple((n + 1 - j, j) for j in range(1, n + 1))


def second_diagonal(n: int) -> Tuple[Box, ...]:
    """Boxes ``(n-j, j)`` for ``j = 1..n-1``, one step inside the main one."""
    _check_size(n)
    return tuple((n - j, j) for j in range(1, n))


def third_diagonal(n: int) -> Tuple[Box, ...]:
    """Boxes ``(n-j-1, j)`` for ``j = 1..n-2``, two steps inside."""
    _check_size(n)
    return tuple((n - j - 1, j) for j in range(1, n - 1))


def second_diag_max_count(n: int) -> int:
    """Most cells the second diagonal can hold: no two adjacent."""
    _check_size(n)
    return n // 2


def third_diag_max_count(n: int) -> int:
    """Most cells the third diagonal can hold.

    Columns at distance exactly two exclude each other, so the odd and
    even column positions form two independent exclusion paths.
    """
    _check_size(n)
    m = n - 2
    if m <= 0:
        return 0
    odd, even = (m + 1) // 2, m // 2
    return (odd + 1) // 2 + (even + 1) // 2


def in_staircase(n: int, box: Box) -> bool:
    i, j = box
    return 1 <= i and 1 <= j and i + j <= n + 1


def _check_box(n: int, box: Box) -> Box:
    try:
        i, j = box
    except (TypeError, ValueError):
        raise ValueError(f"a box must be a pair of ints (i, j), got {box!r}") from None
    _check_int(i, "row")
    _check_int(j, "column")
    if not in_staircase(n, (i, j)):
        raise ValueError(f"box ({i}, {j}) lies outside the size-{n} staircase")
    return i, j


def _check_choice(value: str, name: str, choices: Tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


@dataclass(frozen=True, slots=True)
class Tableau:
    """An immutable staircase filling.

    ``rows[i-1]`` is the string of cell codes for row ``i``; row ``i``
    has ``n + 1 - i`` characters.  The shape is enforced on
    construction, the filling rules are not: :meth:`validate` reports
    rule violations so that illegal fillings can be represented and
    rejected explicitly where that matters.
    """

    rows: Tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if n < 1:
            raise ValueError("a tableau needs at least one row")
        for i, row in enumerate(self.rows, start=1):
            if not isinstance(row, str) or len(row) != n + 1 - i:
                raise ValueError(
                    f"row {i} must be a string of length {n + 1 - i}, got {row!r}"
                )
            bad = set(row) - _CELL_CHARS
            if bad:
                raise ValueError(f"row {i} holds unknown cell codes {sorted(bad)}")

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def _trusted(cls, rows: Tuple[str, ...]) -> "Tableau":
        # Fast path for the enumerator and sampler, which construct
        # millions of tableaux whose shape is correct by construction.
        # Skips __post_init__; do not feed it unchecked input.
        t = object.__new__(cls)
        object.__setattr__(t, "rows", rows)
        return t

    @classmethod
    def _from_columns(cls, columns: Sequence[str]) -> "Tableau":
        """The tableau of these columns, each top down; trusted as :meth:`_trusted`."""
        return cls._trusted(tuple(map("".join, zip_longest(*columns, fillvalue=""))))

    @classmethod
    def from_cells(cls, n: int, cells: Mapping[Box, str]) -> "Tableau":
        """Build a tableau from a sparse ``{(i, j): code}`` mapping.

        Unmentioned boxes stay empty.  Boxes outside the staircase raise.
        """
        _check_size(n)
        grid = [["."] * (n + 1 - i) for i in range(1, n + 1)]
        for box, code in cells.items():
            i, j = _check_box(n, box)
            code = str(code)
            if code not in _CELL_CHARS:
                raise ValueError(f"unknown cell code {code!r} for box ({i}, {j})")
            grid[i - 1][j - 1] = code
        return cls(tuple("".join(row) for row in grid))

    @classmethod
    def parse(cls, text: str) -> "Tableau":
        """Parse the text format: a size line, then one row per line."""
        lines = [line.rstrip("\n") for line in text.strip().splitlines()]
        if not lines:
            raise ValueError("empty tableau text")
        try:
            n = int(lines[0].strip())
        except ValueError as exc:
            raise ValueError(f"first line must be the size, got {lines[0]!r}") from exc
        if len(lines) != n + 1:
            raise ValueError(f"expected {n} row lines after the size, got {len(lines) - 1}")
        return cls(tuple(line.strip() for line in lines[1:]))

    # ------------------------------------------------------------------
    # basic geometry

    @property
    def n(self) -> int:
        return len(self.rows)

    def cell(self, i: int, j: int) -> str:
        _check_box(self.n, (i, j))
        return self.rows[i - 1][j - 1]

    def boxes(self) -> Iterator[Box]:
        return staircase_boxes(self.n)

    def diagonal_entries(self) -> str:
        """Main-diagonal cell codes read from the north-east end down."""
        return "".join(self.rows[i - 1][self.n - i] for i in range(1, self.n + 1))

    def symbol_counts(self) -> SymbolCounts:
        joined = "".join(self.rows)
        return SymbolCounts(
            alpha=joined.count("A"),
            beta=joined.count("B"),
            gamma=joined.count("G"),
            delta=joined.count("D"),
        )

    # ------------------------------------------------------------------
    # rule checking

    def validate(self) -> Tuple[str, ...]:
        """Return a description of every violated filling rule."""
        n = self.n
        problems = []
        for i in range(1, n + 1):
            if self.rows[i - 1][n - i] == ".":
                problems.append(f"main-diagonal box ({i}, {n + 1 - i}) is empty")
        for i in range(1, n + 1):
            row = self.rows[i - 1]
            for j in range(1, n + 2 - i):
                code = row[j - 1]
                if code in _COLUMN_BLOCKERS:
                    for k in range(1, i):
                        if self.rows[k - 1][j - 1] != ".":
                            problems.append(
                                f"box ({k}, {j}) above the {code} at ({i}, {j}) is not empty"
                            )
                if code in _ROW_BLOCKERS:
                    for k in range(1, j):
                        if row[k - 1] != ".":
                            problems.append(
                                f"box ({i}, {k}) left of the {code} at ({i}, {j}) is not empty"
                            )
        return tuple(problems)

    @property
    def is_valid(self) -> bool:
        return not self.validate()

    # ------------------------------------------------------------------
    # transforms

    def subtableau(self, i: int, j: int) -> "Tableau":
        """Drop the first ``i - 1`` rows and ``j - 1`` columns.

        The result is the staircase tableau of size ``n - i - j + 2``
        rooted at box ``(i, j)``; validity of the filling is preserved.
        """
        n = self.n
        _check_box(n, (i, j))
        size = n - i - j + 2
        rows = tuple(
            self.rows[i + k - 2][j - 1 : j + size - k] for k in range(1, size + 1)
        )
        return Tableau(rows)

    def delete_row_col(self, i: int, j: int) -> "Tableau":
        """Remove row ``i`` and column ``j`` entirely, re-indexing the rest.

        The rest is the size-(n-1) staircase exactly when
        ``n + 1 <= i + j <= n + 2``; anything else raises.
        """
        n = self.n
        _check_int(i, "row")
        _check_int(j, "column")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"row {i} / column {j} out of range for size {n}")
        if not n + 1 <= i + j <= n + 2:
            raise ValueError(
                f"deleting row {i} and column {j} does not leave the "
                f"size-{n - 1} staircase shape"
            )
        kept = self.rows[: i - 1] + self.rows[i:]
        return Tableau(tuple(row[: j - 1] + row[j:] for row in kept))

    def transpose(self) -> "Tableau":
        """Reflect across the NW-SE axis, swapping alpha/beta and gamma/delta.

        Applying it twice gives back the original tableau, and it maps
        valid fillings to valid fillings because the column and row
        rules trade places along with the symbols.
        """
        n = self.n
        swap = {"A": "B", "B": "A", "G": "D", "D": "G", ".": "."}
        rows = tuple(
            "".join(swap[self.rows[i - 1][j - 1]] for i in range(1, n + 2 - j))
            for j in range(1, n + 1)
        )
        return Tableau(rows)

    # ------------------------------------------------------------------
    # text format

    def to_text(self) -> str:
        return "\n".join((str(self.n), *self.rows))

    def __str__(self) -> str:
        return self.to_text()


#: The diagonals a statistic or a column list may name, by number (the
#: main diagonal is the first): ordinal, boxes and most cells filled.
_DIAGONALS = {2: ("second", second_diagonal, second_diag_max_count),
              3: ("third", third_diagonal, third_diag_max_count)}


def _diagonal_columns(n: int, diagonal: int, cols: Iterable[int]) -> Tuple[int, ...]:
    """Columns on the second or third diagonal at size ``n``, sorted,
    once the size has that diagonal and they are ints, at least one,
    distinct and on it."""
    what = _DIAGONALS[diagonal][0]
    _check_int(n, "size")
    if n < diagonal:
        raise ValueError(f"the {what} diagonal is empty below size {diagonal}, got n={n}")
    cols = tuple(cols)
    for c in cols:
        _check_int(c, f"{what}-diagonal column")
    cols = tuple(sorted(cols))
    if not cols:
        raise ValueError(f"{what}-diagonal needs at least one column")
    if cols[0] < 1 or cols[-1] > n + 1 - diagonal:
        raise ValueError(f"{what}-diagonal columns must lie in 1..{n + 1 - diagonal}, got {cols}")
    if len(set(cols)) < len(cols):
        raise ValueError(f"{what}-diagonal columns must be distinct, got {cols}")
    return cols


#: Counting statistics of a tableau that the distribution machinery knows
#: by name, each with the diagonal it reads (0 for the whole tableau),
#: the kind of cell it counts and that kind's codes.  ``A2``/``B2``/``X2``
#: count alphas, betas, and nonempty boxes on the second diagonal;
#: ``A3``/``X3`` do the same on the third; ``Nalpha``/``Nbeta`` count
#: symbols over the whole tableau.  Every symbol is nonempty, gamma and
#: delta too.
_STATISTICS = {"A2": (2, "alpha", "A"), "B2": (2, "beta", "B"), "X2": (2, "nonempty", "ABGD"),
               "A3": (3, "alpha", "A"), "X3": (3, "nonempty", "ABGD"),
               "Nalpha": (0, "alpha", "A"), "Nbeta": (0, "beta", "B")}
STATISTIC_NAMES = tuple(_STATISTICS)


def _statistic(name: str) -> Tuple[int, str, str]:
    """A named statistic's row of the table; the one refusal of a name."""
    if name not in STATISTIC_NAMES:
        raise ValueError(f"unknown statistic {name!r}; expected one of {STATISTIC_NAMES}")
    return _STATISTICS[name]


@lru_cache(maxsize=256)
def _statistic_cells(n: int, name: str) -> Tuple[Tuple[Box, ...], str, int]:
    """The boxes a named statistic reads at size ``n``, the codes it
    counts there and its largest value; the whole tableau holds at most
    one alpha per column and one beta per row.  Callers check ``n``
    first, since the cache takes ``True`` for 1."""
    diagonal, _, codes = _statistic(name)
    if not diagonal:
        return tuple(staircase_boxes(n)), codes, n
    _, boxes, cap = _DIAGONALS[diagonal]
    return boxes(n), codes, cap(n)


def diagonal_statistic(t: Tableau, name: str) -> int:
    """Evaluate one of the named counting statistics on a tableau."""
    boxes, codes, _ = _statistic_cells(t.n, name)
    if _STATISTICS[name][0]:
        return sum(t.rows[i - 1][j - 1] in codes for i, j in boxes)
    joined = "".join(t.rows)  # the whole tableau: one count per code
    return sum(map(joined.count, codes))

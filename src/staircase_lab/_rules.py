"""What a column may hold and what it weighs, at integer scale.

The fill rules appear twice here: box by box, as the moves
:data:`_MOVES` that the counting kernel and the ``chain_rule`` sampler
read, and column by column, as the fillings :func:`_column_configs`
that the enumeration oracle and the ``enum_alias`` tree read.
:class:`ScaledWeights` turns (a, b) into integer factors, and its row
product (Hitczenko and Janson) gives the partition total and every
completion count.  The oracle and the kernel each read one of the two
forms of the rules and share nothing here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

from .measure import Weights, _over_common_denominator

#: The fill rules as (cell code, factor index, "symbol above" flag, row
#: bit): alpha in a clean and in a dirty row, beta topmost in its column
#: and below another symbol.  Each applies where the flag and the box's
#: row bit hold these values, and sets both.
_MOVES = (("A", 0, 0, 0), ("A", 1, 0, 1), ("B", 2, 0, 0), ("B", 3, 1, 0))


def _column_configs(height: int, mask: int) -> List[Tuple[str, int]]:
    """All legal fillings of one column of the given height.

    ``mask`` holds one bit per row (bit i-1 for row i), set when the row
    already has a symbol in an earlier column and so cannot take a
    beta.  Returns (column string top to bottom, mask for the next
    column); the bottom row retires afterwards, so its bit is dropped.
    """
    diag_bit = 1 << (height - 1)
    keep = diag_bit - 1
    if mask & diag_bit:
        # The diagonal row is already dirty: no beta may land there and
        # an alpha forbids symbols above it, so the column is forced.
        return [("." * (height - 1) + "A", mask & keep)]
    out = []
    for t in range(1, height + 1):
        symbols = "A" if mask & (1 << (t - 1)) else "AB"
        free_below = [i for i in range(t + 1, height) if not mask & (1 << (i - 1))]
        for sym in symbols:
            base = ["."] * height
            base[t - 1] = sym
            if t < height:
                base[height - 1] = "B"
            base_mask = mask | (1 << (t - 1)) | diag_bit
            for size in range(len(free_below) + 1):
                for rows in itertools.combinations(free_below, size):
                    cells = base.copy()
                    new_mask = base_mask
                    for i in rows:
                        cells[i - 1] = "B"
                        new_mask |= 1 << (i - 1)
                    out.append(("".join(cells), new_mask & keep))
    return out


@dataclass(frozen=True, slots=True)
class ScaledWeights:
    """(a, b) = (pa/q, pb/q) over the least common denominator q.

    Scaling every tableau weight by ``q^(2n)`` makes all four local
    factors integers: an alpha contributes ``q * pb`` in a clean row
    and ``q`` in a dirty one, a beta ``q * pa`` as the column's topmost
    symbol and ``q`` otherwise.  Each factor carries exactly one q, and
    each of the n diagonal boxes holds a symbol, so q^n divides every
    count; the counting kernel divides it out by giving a diagonal
    box's moves the factors without their q, ``(pb, 1, pa, 1)``.  Its
    counts are the tableau weights scaled by ``q^n``.
    """

    q: int
    pa: int
    pb: int

    @classmethod
    def of(cls, w: Weights) -> "ScaledWeights":
        (pa, pb), q = _over_common_denominator((w.a, w.b))
        return cls(q, pa, pb)

    def factors(self) -> Tuple[Tuple[int, int, int, int], Tuple[int, int, int, int]]:
        """(alpha clean, alpha dirty, beta topmost, beta below) off the
        diagonal, then on it."""
        q, pa, pb = self.q, self.pa, self.pb
        return (q * pb, q, q * pa, q), (pb, 1, pa, 1)

    def row_factors(self, n: int) -> List[int]:
        """g_r = pa + pb + (r - 1) q for the rows r = 1..n: Hitczenko and
        Janson's partition function is one such factor per row."""
        return [self.pa + self.pb + r * self.q for r in range(n)]

    def total_bound(self, n: int) -> int:
        """The kernel's unconstrained total, the product of the
        :meth:`row_factors`.

        It is the normalizer scaled by q^n.  Every quantity the kernel
        reads out (constrained totals, per-count masses) is a subsum of
        it, so it bounds them all.
        """
        return math.prod(self.row_factors(n))

    def total(self, n: int) -> int:
        """The partition total at the q^(2n) scale: :meth:`total_bound` times q^n."""
        return self.total_bound(n) * self.q ** n

    def completions(self, n: int) -> List[List[int]]:
        """The completion counts of a size-n tableau at the q^(2n) scale,
        by the height h of the column a walk enters and its dirty-row
        mask: q^h times g_r of each clean row r <= h, a dirty row
        weighing 1.  Heights below n hold every mask below 2^h; height
        n, column 1, holds mask 0 alone, the :meth:`total`."""
        q, counts = self.q, [[1]]
        for clean in (q * g for g in self.row_factors(n - 1)):
            counts.append([clean * c for c in counts[-1]] + [q * c for c in counts[-1]])
        counts.append([self.total(n)])
        return counts

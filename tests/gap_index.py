"""Gap-constrained index sets, which the tests use to check the
identity behind the second-diagonal moments: summed over the column
sets with consecutive gaps of two or more, the product of the columns
has a closed falling-factorial form."""

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, Tuple

from staircase_lab.measure import falling_factorial


def gap_index_sets(r: int, m: int, min_gap: int = 2) -> Iterator[Tuple[int, ...]]:
    """All r-tuples ``1 <= j_1 < ... < j_r <= m`` with consecutive
    differences at least ``min_gap``, in lexicographic order."""
    if r < 0 or min_gap < 1:
        raise ValueError("need r >= 0 and min_gap >= 1")
    shift = min_gap - 1
    top = m - shift * (r - 1)
    offsets = [shift * k for k in range(r)]
    return (tuple(map(operator.add, base, offsets))
            for base in itertools.combinations(range(1, top + 1), r))


def gap_index_product_sum(r: int, m: int) -> Tuple[Fraction, Fraction]:
    """Both sides of the identity

        sum over gap-2 index sets of prod_k j_k
            = falling(m + 1, 2r) / (2^r r!).

    Returns (direct sum, closed form); tests hold them equal.
    """
    direct = sum(
        (math.prod(cols, start=Fraction(1)) for cols in gap_index_sets(r, m)),
        start=Fraction(0),
    )
    closed = falling_factorial(Fraction(m + 1), 2 * r) / (2 ** r * math.factorial(r))
    return direct, closed

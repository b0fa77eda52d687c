"""Closed forms for the two-symbol tableau measure.

Everything here is an exact rational function of the reciprocal
parameters (a, b) from :class:`~staircase_lab.measure.Weights` and the
size n.  The same quantities are computed independently by exhaustive
enumeration and by transfer-matrix counting, and the test suite holds
all three routes equal; this module is the fast, closed-form route.

Conventions: ``rising_factorial(x, k)`` is x(x+1)...(x+k-1) and
``falling_factorial(x, k)`` is x(x-1)...(x-k+1).  Joint laws take the
diagonal positions as 1-based column indices along the diagonal.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Tuple, Union

from .core import Box, _check_box, _check_choice, _check_int, _check_size, _diagonal_columns
from .measure import BoxLaw, FourWeights, Weights, falling_factorial, rising_factorial

__all__ = [
    "BoxLaw",
    "JointValue",
    "MainTerm",
    "box_law",
    "falling_factorial",
    "gap_index_product_sum",
    "gap_index_sets",
    "partition_closed",
    "rising_factorial",
    "second_diag_joint_alpha",
    "second_diag_joint_nonempty",
    "third_diag_main_term",
]

#: Reason code for a structurally impossible second-diagonal pattern:
#: two constrained boxes in adjacent columns.
ADJACENT_COLUMNS = "adjacent_columns"
#: Reason code for a third-diagonal pattern with two boxes exactly two
#: columns apart, which is impossible, so the probability is exactly 0.
GAP_TWO_ZERO = "gap_two_zero"
#: Reason code for a third-diagonal pattern with adjacent boxes: the
#: probability is positive but no closed main term is provided, only
#: the order bound O((n+a+b)^-r).
GAP_BELOW_THREE = "gap_below_three"
#: What a third-diagonal main term may require at its columns.
_KINDS = ("alpha", "nonempty")


def partition_closed(n: int, w: Union[Weights, FourWeights]) -> Fraction:
    """Total weight of all size-n tableaux, in product form.

    For :class:`FourWeights` this is the raw generating function

        prod_{i=0}^{n-1} (alpha + beta + gamma + delta
                          + i (alpha + gamma)(beta + delta)),

    which depends on the four weights only through alpha+gamma and
    beta+delta.  For :class:`Weights` it is the normalized total
    ``(a + b)^(rising n)``, the denominator of every probability.
    """
    _check_int(n, "size")
    if n < 0:
        raise ValueError("size must be nonnegative")
    if isinstance(w, Weights):
        return w.normalizer(n)
    sa = w.alpha + w.gamma
    sb = w.beta + w.delta
    return math.prod((sa + sb + i * sa * sb for i in range(n)), start=Fraction(1))


def box_law(n: int, w: Weights, box: Box) -> BoxLaw:
    """Exact marginal law of the cell at ``box`` under ``w``.

    Main-diagonal box (i, n+1-i):

        P(alpha) = (n - i + b) / (n + a + b - 1)
        P(beta)  = (a + i - 1) / (n + a + b - 1)

    and empty is impossible there.  Any other box (i, j):

        P(alpha) = (j - 1 + b) / falling(i + j + a + b - 1, 2)
        P(beta)  = (i - 1 + a) / falling(i + j + a + b - 1, 2)

    with the rest of the mass on empty.
    """
    _check_size(n)
    i, j = _check_box(n, box)
    a, b = w.a, w.b
    if i + j == n + 1:
        den = n + a + b - 1
        return BoxLaw(alpha=(n - i + b) / den, beta=(a + i - 1) / den,
                      empty=Fraction(0))
    den = falling_factorial(i + j + a + b - 1, 2)
    p_alpha = (j - 1 + b) / den
    p_beta = (i - 1 + a) / den
    return BoxLaw(alpha=p_alpha, beta=p_beta, empty=1 - p_alpha - p_beta)


@dataclass(frozen=True, slots=True)
class JointValue:
    """An exact joint probability plus a structural-zero reason code."""

    value: Fraction
    reason: Optional[str] = None


def _joint_alpha_product(n: int, w: Weights, cols: Tuple[int, ...]) -> Fraction:
    # prod over k = 1..r of (b + j_{r-k+1} - 2r + 2k - 1)
    #                      / falling(n + a + b - 2r + 2k - 1, 2)
    r = len(cols)
    s = n + w.a + w.b
    out = Fraction(1)
    for k in range(1, r + 1):
        out *= (w.b + cols[r - k] - 2 * r + 2 * k - 1) / falling_factorial(
            s - 2 * r + 2 * k - 1, 2
        )
    return out


def _joint_nonempty_product(n: int, w: Weights, r: int) -> Fraction:
    # prod over k = 1..r of 1 / (n + a + b - r + k - 1)
    s = n + w.a + w.b
    return 1 / math.prod((s - r + k - 1 for k in range(1, r + 1)),
                         start=Fraction(1))


def _second_diag_joint(n: int, cols: Iterable[int],
                       value: Callable[[Tuple[int, ...]], Fraction]) -> JointValue:
    """``value`` at the checked, sorted columns, or 0 with a reason code
    when two of them are adjacent."""
    cols = _diagonal_columns(n, 2, cols)
    if any(c2 - c1 < 2 for c1, c2 in itertools.pairwise(cols)):
        return JointValue(Fraction(0), ADJACENT_COLUMNS)
    return JointValue(value(cols))


def second_diag_joint_alpha(n: int, w: Weights, cols: Iterable[int]) -> JointValue:
    """P(alpha in every given second-diagonal column), exactly.

    Columns at distance 1 make the event impossible, because the two
    boxes would force contradictory symbols into the main-diagonal box
    wedged between them; that case returns 0 with a reason code.
    """
    return _second_diag_joint(n, cols, lambda cols: _joint_alpha_product(n, w, cols))


def second_diag_joint_nonempty(n: int, w: Weights, cols: Iterable[int]) -> JointValue:
    """P(nonempty in every given second-diagonal column), exactly.

    The value depends only on how many columns are named, never on
    which, as long as they are pairwise at distance 2 or more; adjacent
    columns are impossible just as in the alpha case.
    """
    return _second_diag_joint(n, cols, lambda cols: _joint_nonempty_product(n, w, len(cols)))


@dataclass(frozen=True, slots=True)
class MainTerm:
    """Leading term of a third-diagonal joint probability.

    ``value`` approximates the probability with an error of order
    ``(n + a + b) ** -remainder_exponent``.  When the columns come
    closer than 3 apart no main term is known: ``order_only`` is set,
    ``value`` is 0, and the exponent drops to r (or the probability is
    exactly zero, for a gap of exactly 2; see ``reason``).
    """

    value: Fraction
    order_only: bool
    remainder_exponent: int
    reason: Optional[str] = None


def third_diag_main_term(n: int, w: Weights, cols: Iterable[int],
                         kind: str = "alpha") -> MainTerm:
    """Leading behaviour of P(pattern on the third diagonal).

    ``kind`` selects alphas (``"alpha"``) or nonempty boxes
    (``"nonempty"``) at the given columns.  With all gaps >= 3 the main
    term has the same product shape as the corresponding exact
    second-diagonal law, with remainder O((n+a+b)^-(r+1)).  Two boxes
    exactly 2 apart are impossible (both would claim the main-diagonal
    box they share a row and column with), so that pattern has
    probability exactly 0.  Adjacent boxes are possible but carry no
    closed main term, only the order bound O((n+a+b)^-r).
    """
    _check_choice(kind, "kind", _KINDS)
    cols = _diagonal_columns(n, 3, cols)
    r = len(cols)
    gaps = [c2 - c1 for c1, c2 in itertools.pairwise(cols)]
    if any(g == 2 for g in gaps):
        return MainTerm(Fraction(0), order_only=False, remainder_exponent=0,
                        reason=GAP_TWO_ZERO)
    if any(g < 3 for g in gaps):
        return MainTerm(Fraction(0), order_only=True, remainder_exponent=r,
                        reason=GAP_BELOW_THREE)
    if kind == "alpha":
        value = _joint_alpha_product(n, w, cols)
    else:
        value = _joint_nonempty_product(n, w, r)
    return MainTerm(value, order_only=False, remainder_exponent=r + 1)


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

"""Exact probability mass functions on {0, 1, 2, ...}.

A law is stored only as integer numerators over one denominator, in
lowest terms, from zero up to the largest point with positive mass.
There are two ways in: :meth:`Pmf.from_integers` takes integer weights
and their total, as the exact routes end with them, and ``Pmf(masses)``
takes the masses at 0, 1, 2, ... as Fractions, as the enumeration
oracle, the reference route, hands them over.  Masses are derived as
Fractions on demand.  The reduced pair is unique, so equality between
independently computed laws is literal, and exact sums over a law run
in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat, zip_longest
from operator import floordiv, index, mul, neg
from typing import Dict, Iterable, List, Tuple

from .core import _check_int


def _over_common_denominator(values: Iterable) -> Tuple[List[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Pmf:
    #: ``mass(k) == numerators[k] / denominator``, in lowest terms.
    numerators: Tuple[int, ...]
    denominator: int

    def __init__(self, masses: Iterable[Fraction]) -> None:
        self._settle(*_over_common_denominator(masses))

    @classmethod
    def from_integers(cls, weights: Iterable[int], total: int) -> "Pmf":
        """The law with mass ``weights[k] / total`` at k; the weights
        sum to ``total``, and a negative total negates them all."""
        law = object.__new__(cls)
        law._settle(weights, total)
        return law

    def _settle(self, weights: Iterable[int], total: int) -> None:
        nums, total = list(map(index, weights)), index(total)
        if total < 0:
            nums, total = list(map(neg, nums)), -total
        while len(nums) > 1 and nums[-1] == 0:
            nums.pop()
        if not nums:
            raise ValueError("a pmf needs at least the mass at zero")
        if min(nums) < 0:
            raise ValueError("masses must be nonnegative")
        if total == 0:
            raise ValueError("masses need a nonzero denominator")
        if sum(nums) != total:
            raise ValueError(f"masses must sum to 1, got {Fraction(sum(nums), total)}")
        g = math.gcd(total, *nums)
        divided = map(floordiv, nums, repeat(g)) if g > 1 else nums
        object.__setattr__(self, "numerators", tuple(divided))
        object.__setattr__(self, "denominator", total // g)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Pmf(masses={self.masses!r})"

    @property
    def masses(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    @property
    def max_value(self) -> int:
        return len(self.numerators) - 1

    def mass(self, k: int) -> Fraction:
        _check_int(k, "k")
        num = self.numerators[k] if 0 <= k < len(self.numerators) else 0
        return Fraction(num, self.denominator)

    def items(self) -> Iterable[Tuple[int, Fraction]]:
        return enumerate(self.masses)

    def mean(self) -> Fraction:
        return self.factorial_moment(1)

    def factorial_moment(self, r: int) -> Fraction:
        """``E[X (X-1) ... (X-r+1)]``, exactly."""
        _check_int(r, "r")
        if r < 0:
            raise ValueError("moment order must be nonnegative")
        nums = self.numerators
        return Fraction(sum(map(mul, map(math.perm, range(len(nums)), repeat(r)), nums)),
                        self.denominator)

    def tv_distance(self, other: "Pmf") -> Fraction:
        """Total variation distance to another pmf, exactly."""
        d, e = self.denominator, other.denominator
        pairs = zip_longest(self.numerators, other.numerators, fillvalue=0)
        return Fraction(sum(abs(x * e - y * d) for x, y in pairs), 2 * d * e)

    def as_dict(self) -> Dict[int, Fraction]:
        return {k: m for k, m in self.items() if m != 0}

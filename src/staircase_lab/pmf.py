"""Exact probability mass functions on {0, 1, 2, ...}.

A law is stored only as integer numerators over one denominator, in
lowest terms, from zero up to the largest point with positive mass.
Exact routes hand over the integers they end with through
:meth:`Pmf.from_integers`; masses are derived as Fractions on demand.
The reduced pair is unique, so equality between independently computed
laws is literal, and exact sums over a law run in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Dict, Iterable, List, Mapping, Tuple

from .core import _check_int


def _over_common_denominator(values: Iterable) -> Tuple[List[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _dense(masses: Mapping[int, Fraction]) -> List:
    if any(k < 0 for k in masses):
        raise ValueError("support must be nonnegative integers")
    return [masses.get(k, 0) for k in range(max(masses, default=0) + 1)]


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
        nums, total = [index(x) for x in weights], index(total)
        if total < 0:
            nums, total = [-x for x in nums], -total
        while len(nums) > 1 and nums[-1] == 0:
            nums.pop()
        if not nums:
            raise ValueError("a pmf needs at least the mass at zero")
        if any(x < 0 for x in nums):
            raise ValueError("masses must be nonnegative")
        if total == 0:
            raise ValueError("masses need a nonzero denominator")
        if sum(nums) != total:
            raise ValueError(f"masses must sum to 1, got {Fraction(sum(nums), total)}")
        g = math.gcd(total, *nums)
        object.__setattr__(self, "numerators", tuple(x // g for x in nums))
        object.__setattr__(self, "denominator", total // g)

    @classmethod
    def from_mapping(cls, masses: Mapping[int, Fraction]) -> "Pmf":
        return cls(_dense(masses))

    @classmethod
    def from_weighted_counts(cls, counts: Mapping[int, Fraction]) -> "Pmf":
        """Normalize nonnegative weights on integer points into a pmf."""
        nums, _ = _over_common_denominator(_dense(counts))
        if sum(nums) <= 0:
            raise ValueError("total weight must be positive")
        return cls.from_integers(nums, sum(nums))

    @classmethod
    def point_mass(cls, k: int) -> "Pmf":
        _check_int(k, "k")
        return cls.from_mapping({k: Fraction(1)})

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
        return Fraction(sum(math.perm(k, r) * num
                            for k, num in enumerate(self.numerators)), self.denominator)

    def tv_distance(self, other: "Pmf") -> Fraction:
        """Total variation distance to another pmf, exactly."""
        top = max(self.max_value, other.max_value)
        return sum(abs(self.mass(k) - other.mass(k)) for k in range(top + 1)) / 2

    def as_dict(self) -> Dict[int, Fraction]:
        return {k: m for k, m in self.items() if m != 0}

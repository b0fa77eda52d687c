"""Exact probability mass functions on {0, 1, 2, ...}.

Masses are Fractions indexed by the integer value, stored densely from
zero up to the largest point with positive mass.  Everything downstream
(total-variation distances, factorial moments, oracle cross-checks)
works with these, so equality between two independently computed laws
is literal object equality.  The masses are also kept as integer
numerators over their least common denominator, found once when the
law is built, so exact sums over the law run in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple


@dataclass(frozen=True, slots=True)
class Pmf:
    masses: Tuple[Fraction, ...]
    #: ``masses[k] == numerators[k] / denominator``, the least common one.
    numerators: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    denominator: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        masses = tuple(Fraction(m) for m in self.masses)
        while len(masses) > 1 and masses[-1] == 0:
            masses = masses[:-1]
        object.__setattr__(self, "masses", masses)
        if not masses:
            raise ValueError("a pmf needs at least the mass at zero")
        if any(m < 0 for m in masses):
            raise ValueError("masses must be nonnegative")
        den = math.lcm(*(m.denominator for m in masses))
        nums = tuple(m.numerator * (den // m.denominator) for m in masses)
        if sum(nums) != den:
            raise ValueError(f"masses must sum to 1, got {Fraction(sum(nums), den)}")
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def from_mapping(cls, masses: Mapping[int, Fraction]) -> "Pmf":
        if any(k < 0 for k in masses):
            raise ValueError("support must be nonnegative integers")
        top = max(masses, default=0)
        return cls(tuple(masses.get(k, Fraction(0)) for k in range(top + 1)))

    @classmethod
    def from_weighted_counts(cls, counts: Mapping[int, Fraction]) -> "Pmf":
        """Normalize nonnegative weights on integer points into a pmf."""
        total = sum(counts.values())
        if total <= 0:
            raise ValueError("total weight must be positive")
        return cls.from_mapping({k: Fraction(v) / total for k, v in counts.items()})

    @classmethod
    def point_mass(cls, k: int) -> "Pmf":
        return cls.from_mapping({k: Fraction(1)})

    # ------------------------------------------------------------------

    @property
    def max_value(self) -> int:
        return len(self.masses) - 1

    def mass(self, k: int) -> Fraction:
        if 0 <= k < len(self.masses):
            return self.masses[k]
        return Fraction(0)

    def items(self) -> Iterable[Tuple[int, Fraction]]:
        return enumerate(self.masses)

    def mean(self) -> Fraction:
        return sum(Fraction(k) * m for k, m in self.items())

    def factorial_moment(self, r: int) -> Fraction:
        """``E[X (X-1) ... (X-r+1)]``, exactly."""
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

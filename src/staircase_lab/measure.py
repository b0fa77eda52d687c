"""Weight parameters and the exact probability measure on tableaux.

Two parameter packs cover everything the library computes with.
:class:`FourWeights` carries symbol weights (alpha, beta, gamma, delta)
for generating-function work, where a tableau contributes the monomial
alpha^{N_alpha} beta^{N_beta} gamma^{N_gamma} delta^{N_delta}.
:class:`Weights` carries the reciprocals ``a = 1/alpha``, ``b = 1/beta``
of a two-symbol ensemble, the form every distributional formula here is
written in; ``a = 0`` encodes alpha = infinity (likewise ``b``), so all
probability computations stay exact rationals with no limits taken.

Under :class:`Weights` the probability of an alpha/beta tableau ``S``
of size n is

    P(S) = a^(n - N_alpha) * b^(n - N_beta) / (a + b)^(rising n)

with the convention 0^0 = 1, which is the weight monomial divided by
the partition function after multiplying through by (alpha*beta)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, List, Tuple, Union

from .core import Tableau

RationalLike = Union[int, Fraction, str]


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, an integer, or a decimal string as a Fraction."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _as_fraction(value: RationalLike, what: str) -> Fraction:
    if isinstance(value, float):
        raise TypeError(f"{what} must be exact (int, Fraction, or string), not float")
    if isinstance(value, str):
        return parse_rational(value)
    # a bool is Rational to isinstance, and True would pass as 1
    if isinstance(value, Rational) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"{what} must be a rational number, got {value!r}")


def _over_common_denominator(values: Iterable[Rational]) -> Tuple[List[int], int]:
    """Ints or Fractions as integer numerators over their least common
    denominator, read off their own numerators and denominators."""
    values = list(values)
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def rising_factorial(x: Fraction, k: int) -> Fraction:
    """``x (x+1) ... (x+k-1)``; the empty product for ``k = 0``."""
    if k < 0:
        raise ValueError("factorial length must be nonnegative")
    out = Fraction(1)
    for i in range(k):
        out *= x + i
    return out


def falling_factorial(x: Fraction, k: int) -> Fraction:
    """``x (x-1) ... (x-k+1)``; the empty product for ``k = 0``."""
    return rising_factorial(x - k + 1, k)


@dataclass(frozen=True, slots=True)
class Weights:
    """Reciprocal parameters (a, b) of the two-symbol measure.

    Both must be nonnegative and not simultaneously zero: with a = b = 0
    the normalized weights degenerate and the limit depends on the
    direction of approach, so that corner is rejected outright.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_fraction(self.a, "a"))
        object.__setattr__(self, "b", _as_fraction(self.b, "b"))
        if self.a < 0 or self.b < 0:
            raise ValueError("a and b must be nonnegative")
        if self.a == 0 and self.b == 0:
            raise ValueError("a and b must not both be zero")

    @classmethod
    def from_alpha_beta(cls, alpha: RationalLike, beta: RationalLike) -> "Weights":
        alpha = _as_fraction(alpha, "alpha")
        beta = _as_fraction(beta, "beta")
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive; use a=0 or b=0 "
                             "directly for the infinite-parameter cases")
        return cls(1 / alpha, 1 / beta)

    def swapped(self) -> "Weights":
        """The parameters with a and b interchanged."""
        return Weights(self.b, self.a)

    def normalizer(self, n: int) -> Fraction:
        """``(a + b)^(rising n)``, the total normalized weight at size n."""
        return rising_factorial(self.a + self.b, n)

    def tableau_weight(self, t: Tableau) -> Fraction:
        """``a^(n - N_alpha) * b^(n - N_beta)`` for an alpha/beta tableau."""
        counts = t.symbol_counts()
        if counts.gamma or counts.delta:
            raise ValueError("the (a, b) measure is defined on alpha/beta tableaux")
        return self.a ** (t.n - counts.alpha) * self.b ** (t.n - counts.beta)

    def prob(self, t: Tableau) -> Fraction:
        """Exact probability of an alpha/beta tableau.

        The filling is not rule-checked here; callers feed tableaux that
        came out of the enumerator or sampler, which only produce valid
        ones.
        """
        return self.tableau_weight(t) / self.normalizer(t.n)


@dataclass(frozen=True, slots=True)
class FourWeights:
    """Nonnegative symbol weights (alpha, beta, gamma, delta).

    ``alpha + gamma`` and ``beta + delta`` must be positive, since the
    two sums are what the partition function actually depends on.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction = Fraction(0)
    delta: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            value = _as_fraction(getattr(self, name), name)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative")
            object.__setattr__(self, name, value)
        if self.alpha + self.gamma == 0 or self.beta + self.delta == 0:
            raise ValueError("alpha+gamma and beta+delta must be positive")

    def tableau_weight(self, t: Tableau) -> Fraction:
        """The weight monomial of a four-symbol tableau."""
        counts = t.symbol_counts()
        return (
            self.alpha ** counts.alpha
            * self.beta ** counts.beta
            * self.gamma ** counts.gamma
            * self.delta ** counts.delta
        )

    def merged(self) -> "FourWeights":
        """Collapse to two symbols: (alpha+gamma, beta+delta, 0, 0)."""
        return FourWeights(self.alpha + self.gamma, self.beta + self.delta)


@dataclass(frozen=True, slots=True)
class BoxLaw:
    """Marginal law of a single box: P(alpha), P(beta), P(empty), as
    the closed forms and the counting kernel both return it."""

    alpha: Fraction
    beta: Fraction
    empty: Fraction

"""Factorial moments of diagonal statistics and Poisson comparisons.

The joint cell laws on the second and third diagonals have product
form, so the r-th factorial moment of each diagonal count is r! times
a sum of products over admissible column r-subsets.  A change of
variables turns those sums into complete monotone-tuple sums; a
two-dimensional recurrence sweeps their scaled integer table column by
column, each column one running sum, so sizes in the hundreds are
reachable: no tableau is ever enumerated.

Moment sequences convert to exact laws by inclusion-exclusion, summed
in integers over one denominator, the form a law itself is kept in (the
support is finite, so finitely many factorial moments pin it down).
The total variation distance to a Poisson limit is the exact law's
excess over it on the points where the exact law is the larger: an
integer sum over the law's denominator minus e^(-lam) times an exact
rational.  Rational bounds on e^(-lam), from Taylor terms of e^lam,
enclose that distance between two exact rationals; more terms are
taken until both round to one float.  A second-diagonal convergence
row builds only moments 0..R+1 and inverts the first R+1 as if the
rest vanished: by the Bonferroni inequalities each mass moves by at
most C(R+1, k) times the next binomial moment, and the mass past R
by at most that moment itself, so the enclosure widens by half their
sum.  R doubles until both ends round to one float, at worst to the
whole law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul, neg
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import dpcount
from .core import (_STATISTICS, _check_choice, _check_int, _check_size, _statistic,
                   second_diag_max_count, third_diag_max_count)
from .measure import Weights, _as_fraction
from .pmf import Pmf, _over_common_denominator

#: Limit law rates of the diagonal statistics: alpha or beta counts
#: tend to Poisson(1/2), nonempty counts to Poisson(1).
POISSON_RATES: Dict[str, Fraction] = {
    name: Fraction(1, 1 if kind == "nonempty" else 2)
    for name, (diagonal, kind, _) in _STATISTICS.items() if diagonal
}

_KINDS = ("alpha", "beta", "nonempty")
_MODES = ("exact_dp", "main_term")


def _tuple_sum_heads(b: Fraction, n: int, step: int, R: int) -> List[int]:
    """Monotone-tuple sums ``T[n - step r + 1][r]`` for ``r = 0..R``,
    scaled by ``bd**r`` to integers.

    ``T[t][k]`` sums ``prod_l (b + u_l + (step - 2)(l - 1))`` over tuples
    ``0 <= u_1 <= ... <= u_k <= t - 1``, so ``T[t][k] = sum_(s<=t) (b + s
    - 1 + (step - 2)(k - 1)) T[s][k-1]`` (the last coordinate sits at
    s - 1); ``bd`` is b's denominator.  Size n reads only ``t + step k <=
    n + 1``, so the table is swept column by column: column k is a
    running sum of the factors times column k - 1, and its last entry
    is the head.  Past the support the heads are zero.
    """
    bn, bd = b.numerator, b.denominator
    heads, col = [1], [1] * (n + 1 - step)
    for k in range(1, R + 1):
        size = n + 1 - step * k
        if size < 1:
            break
        start = bn + (step - 2) * (k - 1) * bd
        col = list(accumulate(map(mul, range(start, start + size * bd, bd), col)))
        heads.append(col[-1])
    return heads + [0] * (R + 1 - len(heads))


def _moment_numerators(n: int, w: Weights, kind: str, R: int,
                       step: int) -> Tuple[List[int], int]:
    """Integers ``c_0..c_R`` and ``L`` with ``m_r / r! = c_r / L``.

    ``step`` is the least column gap: 2 on the second diagonal, 3 for
    the third's main term.  With ``s - 1 = S / D`` and ``P_j = prod_(i<j)
    (S - i D)``, ``m_r / r! = h_r D^(jr) / (g^r P_(jr))``, where alpha has
    a scaled tuple sum h_r, g = den(b), j = 2, and nonempty has h_r =
    C(n - (step - 1) r, r), g = j = 1.  Moments vanish past n // step.
    """
    if kind == "beta":
        w, kind = w.swapped(), "alpha"
    top = min(R, n // step)
    S, D = (n + w.a + w.b - 1).as_integer_ratio()
    if kind == "nonempty":
        heads = [math.comb(n - (step - 1) * r, r) for r in range(top + 1)]
        g, j = 1, 1
    else:
        heads = _tuple_sum_heads(w.b, n, step, top)
        g, j = w.b.denominator, 2
    c = [0] * (R + 1)
    Dj = D ** j
    scale = Dj ** top  # D^(j r) g^(top - r) prod_(j r <= i < j top) (S - i D)
    for r in range(top, 0, -1):
        c[r] = heads[r] * scale
        factor = S - (j * r - 1) * D
        if j == 2:
            factor *= factor + D  # times S - (2 r - 2) D
        scale = scale // Dj * (g * factor)
    c[0] = scale
    return c, scale


def _masses(c: Sequence[int]) -> List[int]:
    """Numerators over ``c_0`` of the masses of the law with factorial
    moments ``m_r = r! c_r / c_0``, taking moments past ``len(c) - 1``
    to vanish; unchecked, so a mass may come out negative.

    Masses ``sum_r (-1)^(r-k) C(r, k) c_r / c_0`` are the coefficients
    of ``sum_r c_r (x - 1)^r / c_0``: a Taylor shift by -1, in integers.
    On ``y_r = (-1)^r c_r`` the shift is repeated suffix sums, each over
    one entry fewer, and mass k is ``(-1)^k y_k / c_0``.
    """
    y = list(c)
    y[1::2] = map(neg, y[1::2])
    y.reverse()  # suffix sums of y are prefix sums of the reversal
    for size in range(len(y), 1, -1):
        y[:size] = accumulate(y[:size])
    y.reverse()
    y[1::2] = map(neg, y[1::2])
    return y


def _refuse_negative(nums: Sequence[int], L: int) -> None:
    for k, num in enumerate(nums):
        if num < 0:
            raise ValueError("moments are inconsistent: reconstructed mass "
                             f"at {k} is {Fraction(num, L)}")


def _invert(c: Sequence[int], L: int) -> Pmf:
    """The law with factorial moments ``m_r = r! c_r / L``, ``c_0 = L``."""
    nums = _masses(c)
    _refuse_negative(nums, L)
    return Pmf.from_integers(nums, L)


def _check(n: int, kind: str, R: int, max_count: Callable[[int], int]) -> None:
    _check_choice(kind, "kind", _KINDS)
    _check_size(n)
    _check_int(R, "R")
    if not 1 <= R <= max_count(n) + 1:
        raise ValueError(f"R must lie in 1..{max_count(n) + 1}, got {R}")


def factorial_moments_second_diag(n: int, w: Weights, kind: str,
                                  R: int) -> List[Fraction]:
    """Exact factorial moments 1..R of a second-diagonal count.

    The moment is r! times the sum of the closed joint laws over
    column r-subsets; subsets with adjacent columns carry no mass, and
    the gap-two subsets reindex to monotone tuples.
    """
    _check(n, kind, R, second_diag_max_count)
    c, L = _moment_numerators(n, w, kind, R, 2)
    return [Fraction(math.factorial(r) * c[r], L) for r in range(1, R + 1)]


def factorial_moments_third_diag(n: int, w: Weights, kind: str, R: int,
                                 mode: str = "exact_dp") -> List[Fraction]:
    """Factorial moments 1..R of a third-diagonal count.

    ``exact_dp`` reads the exact law from :func:`exact_statistic_pmf`,
    which takes it off the counting engine, so every admissible column
    pattern contributes, including the lower-probability adjacent
    ones.  ``main_term`` sums the leading-order product laws over
    column subsets with all gaps at least three; the two agree up to
    one extra power of 1/(n+a+b).
    """
    _check(n, kind, R, third_diag_max_count)
    _check_choice(mode, "mode", _MODES)
    if mode == "exact_dp":
        law = exact_statistic_pmf(n, w.swapped() if kind == "beta" else w,
                                  "X3" if kind == "nonempty" else "A3")
        return [law.factorial_moment(r) for r in range(1, R + 1)]
    c, L = _moment_numerators(n, w, kind, R, 3)
    return [Fraction(math.factorial(r) * c[r], L) for r in range(1, R + 1)]


def pmf_from_factorial_moments(m: Sequence) -> Pmf:
    """Invert factorial moments into the law they came from.

    ``m[r]`` is the r-th factorial moment, so ``m[0]`` must equal 1,
    and moments beyond ``len(m) - 1`` are taken to vanish; that is
    exact precisely when the support fits in ``0..len(m) - 1``.
    Inconsistent input surfaces as a negative reconstructed mass.
    """
    mus = [_as_fraction(x, f"m[{i}]") for i, x in enumerate(m)]
    if not mus or mus[0] != 1:
        raise ValueError("m[0] must be 1, the zeroth factorial moment")
    return _invert(*_over_common_denominator(
        mu / math.factorial(r) for r, mu in enumerate(mus)))


def exact_statistic_pmf(n: int, w: Weights, statistic: str) -> Pmf:
    """The exact law of a named diagonal statistic.

    Second-diagonal counts go through the closed moment formulas and
    inversion, which works at any size; the rest need the counting
    engine and inherit its size limit.
    """
    _check_size(n)
    diagonal, kind, _ = _statistic(statistic)
    if diagonal == 2:
        return _invert(*_moment_numerators(n, w, kind, second_diag_max_count(n), 2))
    return dpcount.statistic_pmf(n, w, statistic)


#: Taylor terms of e^lam tried in turn, as multiples of ``16 + 3 ceil(lam)``.
_TERM_LADDER = (1, 2, 4, 8, 16)


def _enclose(nums: Sequence[int], L: int, slack: int, lam: Fraction) -> Optional[float]:
    """The float nearest the total variation distance to Poisson(lam)
    of a law within total variation ``slack / L`` of the one with masses
    ``nums[k] / L``, which sum to 1; None, with a slack, when it keeps
    the ends apart or ``_TERM_LADDER`` runs out.

    The distance is the positive-part sum ``P(S) - e^(-lam) C(S)`` over
    ``S = {k : p_k > pi_k}``, which lies inside p's support; with ``lam
    = u/v``, ``P(S)`` sums the ``N_k`` and ``C(S)`` sums ``u^k / (v^k
    k!)``, both exactly.  Each k is placed by integer comparisons of
    ``N_k v^k k!`` with ``L u^k`` times rational bounds ``lo < e^(-lam)
    < hi``, which put the distance in ``[P(S) - hi C(S), P(S) - lo
    C(S)]``; by the triangle inequality, the slack widens that by
    ``slack / L`` on each side.  The answer is the float both ends
    round to.  The bounds take K Taylor terms of ``e^lam``, K running
    through ``_TERM_LADDER``; at lam <= 1 its last rung pins
    ``e^(-lam)`` within a relative 10^-624.  ``e^(-lam)`` is irrational,
    so enough terms decide every k; past the ladder, with no slack, the
    search stops with an ``ArithmeticError``.
    """
    u, v = lam.numerator, lam.denominator
    for rung in _TERM_LADDER:
        # K terms sum, by Horner, to N / D with D = v^(K-1) (K-1)!; the rest is
        # below u^K / (v^K K!) times (K+1) v / g, as g = (K+1) v - u > 0
        K = (16 + 3 * math.ceil(lam)) * rung
        N = D = 1
        for j in range(K - 1, 0, -1):
            N, D = j * v * D + u * N, j * v * D
        g = (K + 1) * v - u
        lo_n, lo_d, hi_n, hi_d = D * K * g, N * K * g + u ** K * (K + 1), D, N
        p_num, terms = 0, []  # P(S) = p_num / L; (u^k, v^k k!) for k in S
        uk = vk = 1
        for k, num in enumerate(nums):
            if k:
                uk, vk = uk * u, vk * v * k
            if not num:
                continue
            x, y = num * vk, L * uk  # p_k > pi_k iff x > y e^(-lam)
            if x * hi_d > y * hi_n:
                p_num += num
                terms.append((uk, vk))
            elif x * lo_d >= y * lo_n:
                break  # these bounds cannot place k
        else:
            c_den = terms[-1][1] if terms else 1  # C(S) = c_num / c_den
            c_num = sum(uk * (c_den // vk) for uk, vk in terms)
            low = p_num * hi_d * c_den - hi_n * c_num * L
            high = p_num * lo_d * c_den - lo_n * c_num * L
            low_d, high_d = L * hi_d * c_den, L * lo_d * c_den
            tv = (low - slack * hi_d * c_den) / low_d
            if tv == (high + slack * lo_d * c_den) / high_d:
                return tv
            if slack and low / low_d == high / high_d:
                return None  # only the slack keeps the ends apart
    if slack:
        return None
    raise ArithmeticError("could not enclose the distance tightly enough")


def tv_to_poisson(p: Pmf, lam) -> float:
    """Total variation distance between a finite law and Poisson(lam):
    the float nearest its exact value, as ``_enclose`` finds it with no
    slack."""
    lam = _as_fraction(lam, "lam")
    if lam <= 0:
        raise ValueError("lam must be positive")
    return _enclose(p.numerators, p.denominator, 0, lam)


def _first_order(lam: Fraction) -> int:
    """Moment order R a convergence row tries first; doubled as needed.

    Near Poisson(lam) the slack of ``_tv_from_moments`` is about ``(2
    lam)^(R+1) / (2 (R+1)!)``: below 10^-25 at 24 for lam = 1/2 and at
    32 for lam = 1.
    """
    return 16 + 8 * math.ceil(2 * lam)


def _tv_from_moments(c: Sequence[int], lam: Fraction) -> Optional[float]:
    """``tv_to_poisson`` of the law p with factorial moments ``r! c_r /
    c_0``, from ``c_0..c_R`` and ``c_(R+1) = c[-1]`` alone; None when
    that order cannot settle it.

    The masses ``A_k`` of the moments truncated at R sum to ``c_0``.  By
    the Bonferroni inequalities each ``p_k c_0``, k <= R, lies within
    ``C(R+1, k) c_(R+1)`` of ``A_k``, which sums to ``(2^(R+1) - 1)
    c_(R+1)``, and the mass past R is at most ``E[C(X, R+1)] = c_(R+1)
    / c_0``: p lies within total variation ``2^R c_(R+1) / c_0`` of A.
    When ``c_(R+1)`` is 0 the truncation is the whole law, and a
    negative mass refuses the numerators; before that, a negative
    ``A_k`` only means R is too low.
    """
    *head, rest = c
    nums = _masses(head)
    if not rest:
        _refuse_negative(nums, c[0])
    elif min(nums) < 0:
        return None
    return _enclose(nums, c[0], rest << (len(head) - 1), lam)


@dataclass(frozen=True, slots=True)
class ConvergenceRow:
    """One size's moment profile and Poisson distance."""

    n: int
    moments: Tuple[Fraction, Fraction, Fraction, Fraction]
    tv: float


def convergence_report(ns: Sequence[int], w: Weights, statistic: str) -> List[ConvergenceRow]:
    """Exact moments and Poisson distance across a range of sizes.

    Each row holds the first four factorial moments of the statistic's
    exact law (beyond the support they are exact zeros) and its total
    variation distance to the statistic's own Poisson limit,
    ``POISSON_RATES[statistic]``.
    """
    ns = list(ns)
    if not ns:
        raise ValueError("ns must be a nonempty list of sizes")
    for n in ns:
        _check_size(n)
    diagonal, kind, _ = _statistic(statistic)
    lam = POISSON_RATES.get(statistic)
    if lam is None:
        raise ValueError(f"{statistic!r} has no Poisson limit pairing")
    rows = []
    for n in ns:
        if diagonal == 2:
            R, tv = _first_order(lam), None
            while tv is None:
                R = min(R, n // 2)
                c, L = _moment_numerators(n, w, kind, max(R + 1, 4), 2)
                tv = _tv_from_moments(c[:R + 2], lam)
                R *= 2
            moments = tuple(Fraction(math.factorial(r) * c[r], L) for r in range(1, 5))
        else:
            law = exact_statistic_pmf(n, w, statistic)
            moments = tuple(law.factorial_moment(r) for r in range(1, 5))
            tv = tv_to_poisson(law, lam)
        rows.append(ConvergenceRow(n=n, moments=moments, tv=tv))
    return rows

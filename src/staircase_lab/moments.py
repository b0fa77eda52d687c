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
row inverts only the head of its law: the rest has an exact total
mass, bounded by the next moment, and widens the enclosure by that.
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
        scale = scale // Dj * (g * math.prod(S - i * D for i in range(j * r - j, j * r)))
    c[0] = scale
    return c, scale


def _head(c: Sequence[int], K: int) -> List[int]:
    """Numerators over ``c_0`` of masses ``0..K-1`` of the law with
    factorial moments ``m_r = r! c_r / c_0``, for ``K <= len(c)``.

    Masses ``sum_r (-1)^(r-k) C(r, k) c_r / c_0`` are the coefficients
    of ``sum_r c_r (x - 1)^r / c_0``: a Taylor shift by -1, in integers.
    On ``y_r = (-1)^r c_r`` the shift is repeated suffix sums, each over
    one entry fewer, and mass k is ``(-1)^k y_k / c_0``, final after
    k + 1 of them; so K passes give the head.
    """
    y = list(c)
    y[1::2] = map(neg, y[1::2])
    y.reverse()  # suffix sums of y are prefix sums of the reversal
    for size in range(len(y), len(y) - K, -1):
        y[:size] = accumulate(y[:size])
    head = y[:-K - 1:-1]
    head[1::2] = map(neg, head[1::2])
    for k, num in enumerate(head):
        if num < 0:
            raise ValueError("moments are inconsistent: reconstructed mass "
                             f"at {k} is {Fraction(num, c[0])}")
    return head


def _invert(c: Sequence[int], L: int) -> Pmf:
    """The law with factorial moments ``m_r = r! c_r / L``, ``c_0 = L``."""
    return Pmf.from_integers(_head(c, len(c)), L)


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


def _enclose(nums: Sequence[int], L: int, tail: int, lam: Fraction) -> Optional[float]:
    """The float nearest the total variation distance to Poisson(lam)
    of a law with masses ``nums[k] / L`` at ``k < len(nums)`` and the
    rest, ``tail / L``, spread somewhere beyond; None, with a tail, when
    the tail keeps the ends apart or ``_TERM_LADDER`` runs out.

    The distance is the positive-part sum ``P(S) - e^(-lam) C(S)`` over
    ``S = {k : p_k > pi_k}``, which lies inside p's support; with ``lam
    = u/v``, ``P(S)`` sums the ``N_k`` and ``C(S)`` sums ``u^k / (v^k
    k!)``, both exactly.  Each k is placed by integer comparisons of
    ``N_k v^k k!`` with ``L u^k`` times rational bounds ``lo < e^(-lam)
    < hi``, which put the head's share in ``[P(S) - hi C(S), P(S) - lo
    C(S)]``; the tail adds between 0 and ``tail / L``.  The answer is
    the float both ends round to.  The bounds take K Taylor terms of
    ``e^lam``, K running through ``_TERM_LADDER``; at lam <= 1 its last
    rung pins ``e^(-lam)`` within a relative 10^-624.  ``e^(-lam)`` is
    irrational, so enough terms decide every k; past the ladder, with
    no tail, the search stops with an ``ArithmeticError``.
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
            low = (p_num * hi_d * c_den - hi_n * c_num * L) / (L * hi_d * c_den)
            high = p_num * lo_d * c_den - lo_n * c_num * L
            if low == (high + tail * lo_d * c_den) / (L * lo_d * c_den):
                return low
            if low == high / (L * lo_d * c_den):
                return None  # only the tail keeps the ends apart
    if tail:
        return None
    raise ArithmeticError("could not enclose the distance tightly enough")


def tv_to_poisson(p: Pmf, lam) -> float:
    """Total variation distance between a finite law and Poisson(lam):
    the float nearest its exact value, as ``_enclose`` finds it with no
    tail."""
    lam = _as_fraction(lam, "lam")
    if lam <= 0:
        raise ValueError("lam must be positive")
    return _enclose(p.numerators, p.denominator, 0, lam)


#: Masses inverted first for a distance from moments; doubled as needed.
_FIRST_HEAD = 24


def _tv_from_moments(c: Sequence[int], lam: Fraction) -> float:
    """``tv_to_poisson`` of the law with factorial moments ``r! c_r /
    c_0``, from the head of that law alone.

    The masses past the first K sum to ``T = c_0 - sum(head)``, and
    ``P(X >= K) <= E[C(X, K)]`` puts T in ``[0, c_K]``; the distance
    lies within ``T / c_0`` above the head's, so K doubles until
    ``_enclose`` settles it, at worst to the whole law with T = 0.
    """
    K = _FIRST_HEAD
    while True:
        K = min(K, len(c))
        head = _head(c, K)
        tail = c[0] - sum(head)
        if not 0 <= tail <= (c[K] if K < len(c) else 0):
            raise ValueError("moments are inconsistent: mass beyond "
                             f"{K - 1} is {Fraction(tail, c[0])}")
        tv = _enclose(head, c[0], tail, lam)
        if tv is not None:
            return tv
        K *= 2


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
            c, L = _moment_numerators(n, w, kind, max(4, n // 2), 2)
            moments = tuple(Fraction(math.factorial(r) * c[r], L) for r in range(1, 5))
            tv = _tv_from_moments(c, lam)
        else:
            law = exact_statistic_pmf(n, w, statistic)
            moments = tuple(law.factorial_moment(r) for r in range(1, 5))
            tv = tv_to_poisson(law, lam)
        rows.append(ConvergenceRow(n=n, moments=moments, tv=tv))
    return rows

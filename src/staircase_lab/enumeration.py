"""Exhaustive generation of staircase tableaux, and oracles built on it.

This is the ground-truth backend: every distributional claim the
library makes is checked against plain sums over all ``(n+1)!``
tableaux of a given size.  Generation walks columns left to right,
through the whole-column fillings of :func:`_column_configs` (in
:mod:`staircase_lab._rules`, beside the kernel's box moves, which the
oracle never reads), and never backtracks into a dead end.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple, Union

from . import _budget
from ._rules import _column_configs
from .constraints import ConstraintSet
from .core import Tableau, _check_size, diagonal_statistic
from .measure import FourWeights, Weights
from .pmf import Pmf

#: Largest size the exhaustive oracles are meant for; 10! = 3.6M
#: tableaux stream in well under a minute, one size larger does not.
N_ENUM = 9

#: Largest size whose oracle passes read the cached list, not a stream.
_CACHE_MAX = 7


def enumerate_tableaux(n: int) -> Iterator[Tableau]:
    """Yield every valid size-n tableau exactly once, streaming; each
    stream caches the fillings of each (height, mask) it meets."""
    _check_size(n)
    configs = functools.cache(_column_configs)
    columns: List[str] = [""] * n

    def walk(j: int, mask: int) -> Iterator[Tableau]:
        for column, next_mask in configs(n - j, mask):
            columns[j] = column
            if j + 1 == n:
                yield Tableau._from_columns(columns)
            else:
                yield from walk(j + 1, next_mask)

    return walk(0, 0)


def count_tableaux(n: int) -> int:
    """Number of valid size-n tableaux, by streaming the enumerator."""
    return sum(1 for _ in enumerate_tableaux(n))


def _list_bytes(n: int) -> int:
    """Bytes of the size-n list: per row, a string (at most 64 bytes as
    allocated) and its tuple slot; per tableau, the object, the tuple
    header and the list slot."""
    return math.factorial(n + 1) * (72 * n + 104)


def _build_list(n: int) -> Tuple[Tableau, ...]:
    enabled = gc.isenabled()
    gc.disable()  # no cycles, and a full collection would walk every tableau so far
    try:
        return tuple(enumerate_tableaux(n))
    finally:
        if enabled:
            gc.enable()


def all_tableaux(n: int) -> Tuple[Tableau, ...]:
    """Every size-n tableau in enumeration order, for the oracles; the
    memory ledger keeps it like any other table, and its budget admits
    n = 8 but not n = 9."""
    _check_size(n)
    return _budget.get(_build_list, _list_bytes, "the tableau list for n={0}", n)


def _tableaux(n: int) -> Union[Tuple[Tableau, ...], Iterator[Tableau]]:
    return all_tableaux(n) if n <= _CACHE_MAX else enumerate_tableaux(n)


def _symbol_counts(t: Tableau) -> Tuple[int, int]:
    """(N_alpha, N_beta) of one tableau."""
    joined = "".join(t.rows)
    return joined.count("A"), joined.count("B")


def _grouped_weight_sum(n: int, w: Weights, counts: Counter) -> Fraction:
    """Sum of weights over tableaux tallied by (N_alpha, N_beta)."""
    return sum((mult * w.a ** (n - na) * w.b ** (n - nb)
                for (na, nb), mult in counts.items()), start=Fraction(0))


def brute_partition(n: int, w: Union[Weights, FourWeights]) -> Fraction:
    """Partition function by exhaustive summation.

    For :class:`Weights` this sums the normalized weights
    ``a^(n-N_alpha) b^(n-N_beta)``.  For :class:`FourWeights` it sums
    the raw four-symbol monomials; each alpha/beta tableau stands for
    the ``2^(N_alpha+N_beta)`` fillings obtained by turning alphas into
    gammas and betas into deltas independently, which contribute
    ``(alpha+gamma)^N_alpha (beta+delta)^N_beta`` together.
    """
    _check_size(n)
    profile = Counter(map(_symbol_counts, _tableaux(n)))
    if isinstance(w, Weights):
        return _grouped_weight_sum(n, w, profile)
    sa, sb = w.alpha + w.gamma, w.beta + w.delta
    return sum((mult * sa ** na * sb ** nb for (na, nb), mult in profile.items()),
               start=Fraction(0))


def enumerate_four_symbol(n: int) -> Iterator[Tableau]:
    """Every four-symbol tableau, by relabelling the two-symbol ones.

    Exponential in the symbol count on top of ``(n+1)!``; useful as an
    independent cross-check at very small sizes only.  The size is
    checked at the call, before the first tableau.
    """
    return itertools.chain.from_iterable(map(_relabellings, enumerate_tableaux(n)))


def _relabellings(t: Tableau) -> Iterator[Tableau]:
    """Each alpha of ``t`` as alpha or gamma, each beta as beta or delta."""
    spots = [(i, j) for i, j in t.boxes() if t.rows[i - 1][j - 1] != "."]
    choices = [("A", "G") if t.rows[i - 1][j - 1] == "A" else ("B", "D") for i, j in spots]
    for relabel in itertools.product(*choices):
        grid = [list(row) for row in t.rows]
        for (i, j), code in zip(spots, relabel):
            grid[i - 1][j - 1] = code
        yield Tableau._trusted(tuple("".join(row) for row in grid))


def oracle_event_prob(n: int, w: Weights, c: ConstraintSet) -> Fraction:
    """P(constraints all hold) by summing over every tableau."""
    _check_size(n)
    c._check_built_for(n)
    hit = Counter(_symbol_counts(t) for t in _tableaux(n) if c.satisfied_by(t))
    return _grouped_weight_sum(n, w, hit) / w.normalizer(n)


def oracle_statistic_pmf(n: int, w: Weights, statistic: str) -> Pmf:
    """Exact law of a named counting statistic, by enumeration."""
    _check_size(n)
    buckets: Dict[int, Counter] = defaultdict(Counter)
    for t in _tableaux(n):
        buckets[diagonal_statistic(t, statistic)][_symbol_counts(t)] += 1
    sums = [_grouped_weight_sum(n, w, buckets[k]) for k in range(max(buckets) + 1)]
    total = sum(sums)
    return Pmf([s / total for s in sums])

"""Exact random generation of weighted staircase tableaux.

Two interchangeable backends draw from the same measure:

* ``enum_alias``: invert a uniform integer draw into the running sums
  of scaled integer weights over ``all_tableaux(n)``, the one list per
  size that the oracles also read; a weight pair keeps only its sums.
  Exact and cheap per draw; the memory budget admits n <= 8.
* ``chain_rule``: walk the column sweep box by box, drawing each cell
  from its exact conditional law given everything placed so far.  The
  conditionals come from completion counts: integer counts of the
  total weight of ways to finish the tableau from each reachable
  state, computed right to left by the counting engine's kernel over
  its own modulus plan: 2^64, then primes below 2^29 when the scaled
  total needs more.  Inside a column the kernel leaves prime-plane
  entries unreduced; the Chinese remainder step reduces each one
  where a draw reads it.  The plan covers the scaled total, which
  bounds every count a draw reads.  No rejection and no rounding;
  every draw consumes one uniform integer below the exact number of
  weighted continuations.

Both backends take the caller's :class:`random.Random` stream, so a
seed pins down the whole sample sequence.  Batch draws walk all
samples through one column at a time so the backward tables for a
column are built once per batch rather than once per draw; a batch of
k therefore consumes the stream in a different order than k single
draws (each path is deterministic on its own).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .core import Tableau, diagonal_statistic
from .dpcount import (_MOVES, N_DP, ScaledWeights, _allowed_map, _check_memory,
                      _column_levels, _crt, _reduce)
from .enumeration import N_ENUM, all_tableaux
from .measure import FourWeights, Weights
from .pmf import Pmf

_METHODS = ("enum_alias", "chain_rule")


# ----------------------------------------------------------------------
# enum_alias backend

@functools.cache
def _alias_cumulative(n: int, w: Weights) -> List[int]:
    """Running sums of the scaled integer weights of ``all_tableaux(n)``."""
    scaled = ScaledWeights.of(w)
    cumulative, running = [], 0
    for t in all_tableaux(n):
        joined = "".join(t.rows)
        na, nb = joined.count("A"), joined.count("B")
        running += (scaled.pa ** (n - na) * scaled.pb ** (n - nb)
                    * scaled.q ** (na + nb))
        cumulative.append(running)
    if running != scaled.total_bound(n):
        raise RuntimeError("alias table weights do not sum to the partition total")
    return cumulative


def _sample_enum(n: int, w: Weights, rng: random.Random, count: int) -> List[Tableau]:
    tableaux, cumulative = all_tableaux(n), _alias_cumulative(n, w)
    total = cumulative[-1]
    return [tableaux[bisect.bisect_right(cumulative, rng.randrange(total))]
            for _ in range(count)]


# ----------------------------------------------------------------------
# chain_rule backend

class _ChainTables:
    """Backward completion counts for one (n, w), shared across draws.

    ``boundary[j][plane, 0, mask]`` holds, per modulus of the plan, the
    weighted number of ways to fill columns j..n starting from each
    dirty-row mask (the column-j flag "symbol above" being necessarily
    clear at entry).  The per-box levels inside one column are rebuilt
    on demand since they dominate memory.
    """

    def __init__(self, n: int, w: Weights):
        self.n = n
        self.scaled = ScaledWeights.of(w)
        self.moduli = self.scaled.moduli(n)
        plan = len(self.moduli)
        _check_memory(8 * plan * 2 * (1 << n) * (n + 2) + 8 * plan * (1 << (n + 1)),
                      f"chain_rule tables for n={n} with these weights")
        self.allowed = _allowed_map(n, None)
        self.boundary = [None] * (n + 1) + [np.ones((plan, 1, 1), dtype=np.uint64)]
        for j in range(n, 0, -1):
            for level in _column_levels(n, j, self.boundary[j + 1], self.moduli,
                                        self.scaled.factors(), self.allowed, None):
                pass
            self.boundary[j] = _reduce(level[:, :, 0, :].copy(), self.moduli)

    def _column_levels(self, j: int) -> List[np.ndarray]:
        """Copies of column j's levels, top-down: ``levels[i-1]`` is just
        before box i, ``levels[height]`` past the diagonal box."""
        return [level.copy() for level in _column_levels(
            self.n, j, self.boundary[j + 1], self.moduli, self.scaled.factors(),
            self.allowed, None)][::-1]

    def reconstruct(self, level: np.ndarray, above: int, mask: int) -> int:
        return _crt(level[:, 0, above, mask].tolist(), self.moduli)


_chain_tables = functools.cache(_ChainTables)


def _choice_weights(tables: _ChainTables, levels: List[np.ndarray], i: int,
                    height: int, mask: int, above: int) -> List[Tuple[str, int, int, int]]:
    """Continuation counts of each legal cell at box i of a column.

    Returns (cell code, count, next mask, next flag) with count > 0,
    in the fixed order empty, alpha, beta.
    """
    nxt = levels[i]
    bit = 1 << (i - 1)
    out = []
    if i < height:  # the diagonal box may not stay empty
        count = tables.reconstruct(nxt, above, mask)
        if count:
            out.append((".", count, mask, above))
    for code, k, flag, dirty in _MOVES:
        if flag == above and dirty == (mask >> (i - 1)) & 1:
            # past a zero factor the plan need not cover the count; it is zeroed
            count = tables.scaled.factors()[k] * tables.reconstruct(nxt, 1, mask | bit)
            if count:
                out.append((code, count, mask | bit, 1))
    return out


def _sample_chain(n: int, w: Weights, rng: random.Random, count: int) -> List[Tableau]:
    tables = _chain_tables(n, w)
    grids = [[] for _ in range(count)]  # per walker: list of column strings
    masks = [0] * count
    for j in range(1, n + 1):
        height = n + 1 - j
        levels = tables._column_levels(j)
        flags = [0] * count
        cells = [[] for _ in range(count)]
        for i in range(1, height + 1):
            memo: Dict[Tuple[int, int], List[Tuple[str, int, int, int]]] = {}
            for k in range(count):
                key = (masks[k], flags[k])
                if key not in memo:
                    memo[key] = _choice_weights(tables, levels, i, height, *key)
                choices = memo[key]
                draw = rng.randrange(sum(c[1] for c in choices))
                for code, weight, mask, flag in choices:
                    if draw < weight:
                        break
                    draw -= weight
                cells[k].append(code)
                masks[k], flags[k] = mask, flag
        keep = (1 << (height - 1)) - 1
        for k in range(count):
            grids[k].append("".join(cells[k]))
            masks[k] &= keep
        del levels  # free them before the next column's are built
    return [
        Tableau._trusted(tuple(map("".join, itertools.zip_longest(*grid, fillvalue=""))))
        for grid in grids
    ]


# ----------------------------------------------------------------------
# public surface

def sample(n: int, w: Weights, rng: random.Random,
           method: str = "chain_rule") -> Tableau:
    """Draw one tableau distributed exactly as the (a, b) measure."""
    return sample_many(n, w, rng, 1, method)[0]


def sample_many(n: int, w: Weights, rng: random.Random, count: int,
                method: str = "chain_rule") -> List[Tableau]:
    """Draw a batch, walking all samples through each column together."""
    if count < 1:
        raise ValueError("need at least one sample")
    if method == "enum_alias":
        if not 1 <= n <= N_ENUM:
            raise ValueError(f"enum_alias supports sizes 1..{N_ENUM}, got {n}")
        return _sample_enum(n, w, rng, count)
    if method == "chain_rule":
        if not 1 <= n <= N_DP:
            raise ValueError(f"chain_rule supports sizes 1..{N_DP}, got {n}")
        return _sample_chain(n, w, rng, count)
    raise ValueError(f"method must be one of {_METHODS}, got {method!r}")


def randomize_four_params(t: Tableau, fw: FourWeights,
                          rng: random.Random) -> Tableau:
    """Independently relabel alphas to gammas and betas to deltas.

    Each alpha becomes a gamma with probability gamma/(alpha+gamma) and
    each beta a delta with probability delta/(beta+delta), drawn
    exactly (an integer below the denominator, compared to the
    numerator), visiting boxes in row-major order.
    """
    p_gamma = fw.gamma / (fw.alpha + fw.gamma)
    p_delta = fw.delta / (fw.beta + fw.delta)

    def flip(p: Fraction) -> bool:
        return p != 0 and rng.randrange(p.denominator) < p.numerator

    rows = []
    for row in t.rows:
        cells = []
        for code in row:
            if code == "A" and flip(p_gamma):
                code = "G"
            elif code == "B" and flip(p_delta):
                code = "D"
            cells.append(code)
        rows.append("".join(cells))
    return Tableau(tuple(rows))


@dataclass(frozen=True, slots=True)
class EmpiricalLaw:
    """A Monte Carlo law with its per-bin binomial standard errors."""

    pmf: Pmf
    draws: int
    stderr: Tuple[float, ...]


def empirical_pmf(n: int, w: Weights, statistic: str, samples: int,
                  rng: random.Random, method: str = "chain_rule") -> EmpiricalLaw:
    """Sample the named statistic and tabulate its empirical law."""
    if samples < 1:
        raise ValueError("need at least one sample")
    counts = Counter(diagonal_statistic(t, statistic)
                     for t in sample_many(n, w, rng, samples, method))
    pmf = Pmf.from_integers([counts[k] for k in range(max(counts) + 1)], samples)
    stderr = tuple(math.sqrt(float(m) * float(1 - m) / samples) for m in pmf.masses)
    return EmpiricalLaw(pmf=pmf, draws=samples, stderr=stderr)

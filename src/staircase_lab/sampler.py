"""Exact random generation of weighted staircase tableaux.

Two backends draw from the same measure, as :func:`sample_many`
describes: ``enum_alias`` from the running sums of
:func:`_alias_cumulative`, and ``chain_rule`` box by box from the
completion counts of :class:`_ChainTables`.  Both keep their tables in
the process's one memory ledger (``_budget.get``), and every draw of
an integer goes through :func:`_below`.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from . import _budget
from .core import Tableau, _check_choice, _check_int, _check_size, _statistic, diagonal_statistic
from .dpcount import _MOVES, N_DP, ScaledWeights, _allowed_map, _crt, _garner, _masses_crt
from .enumeration import N_ENUM, _symbol_counts, all_tableaux
from .measure import FourWeights, Weights
from .pmf import Pmf

_METHODS = ("enum_alias", "chain_rule")


def _below(getrandbits, bound: int) -> int:
    """A uniform integer in [0, bound), drawn as ``randrange(bound)``
    draws it from the stream whose ``getrandbits`` this is: bound's bit
    length in bits at a time until a draw falls below it.  A subclass's
    own ``randrange`` is not consulted."""
    if bound < 1:  # getrandbits(0) is 0, so the loop would never end
        raise ValueError(f"need a positive bound to draw below, got {bound}")
    bits = bound.bit_length()
    draw = getrandbits(bits)
    while draw >= bound:
        draw = getrandbits(bits)
    return draw


# ----------------------------------------------------------------------
# enum_alias backend

def _alias_codes(n: int) -> bytearray:
    """One byte per tableau of ``all_tableaux(n)``, in its order: the
    tableau's (n+1) * alphas + betas.  Shared by every weight pair; not
    to be mutated."""
    tableaux = all_tableaux(n)
    codes = bytearray(len(tableaux))  # sized once, so the build keeps what it allocates
    for k, (alphas, betas) in enumerate(map(_symbol_counts, tableaux)):
        codes[k] = (n + 1) * alphas + betas
    return codes


def _codes_bytes(n: int) -> int:
    """Bytes of the code table: one per tableau, plus the array object
    and its build's loop state."""
    return math.factorial(n + 1) + 1024


def _alias_cumulative(n: int, w: Weights) -> List[int]:
    """Running sums of the integer weights of ``all_tableaux(n)``, each
    scaled by q^(2n): a lookup of (n+1)^2 weights by the tableau's code,
    so a new weight pair keeps only its sums."""
    codes = _budget.get(_alias_codes, _codes_bytes, "the symbol-count codes for n={0}", n)
    scaled = ScaledWeights.of(w)
    weights = [scaled.pa ** (n - na) * scaled.pb ** (n - nb) * scaled.q ** (na + nb)
               for na in range(n + 1) for nb in range(n + 1)]  # at code (n+1) * na + nb
    cumulative = list(itertools.accumulate(map(weights.__getitem__, codes)))
    if cumulative[-1] != scaled.total_bound(n) * scaled.q ** n:
        raise RuntimeError("alias table weights do not sum to the partition total")
    return cumulative


def _alias_bytes(n: int, w: Weights) -> int:
    """Bytes of the running sums: per tableau, an int no larger than the
    total plus the carry digit its addition allocates, and a list slot
    with the list's one-eighth over-allocation."""
    scaled = ScaledWeights.of(w)
    total = scaled.total_bound(n) * scaled.q ** n
    return math.factorial(n + 1) * (sys.getsizeof(total) + 13)


def _sample_enum(n: int, w: Weights, rng: random.Random, count: int) -> List[Tableau]:
    # the sums first: their build fetches the list and may evict one fetched before
    cumulative = _budget.get(_alias_cumulative, _alias_bytes,
                             "enum_alias sums for n={0} with these weights", n, w)
    tableaux = all_tableaux(n)
    getrandbits, total = rng.getrandbits, cumulative[-1]
    return [tableaux[bisect.bisect_right(cumulative, _below(getrandbits, total))]
            for _ in range(count)]


# ----------------------------------------------------------------------
# chain_rule backend

#: The symbol moves open to a state, by its "symbol above" flag and
#: its row bit at the box: (cell code, factor index), alpha first.
_OPEN_MOVES = [[[(code, k) for code, k, flag, bit in _MOVES
                 if (flag, bit) == (above, dirty)] for dirty in (0, 1)]
               for above in (0, 1)]


def _weigh(moves: List[Tuple[int, str]]) -> Tuple[int, List[Tuple[int, str]], str]:
    """The walker's reading of the (factor, cell code) moves open at a
    state: their total factor, the running factor and code of each
    move but the last, and the last move's code."""
    cuts, running = [], 0
    for factor, code in moves:
        running += factor
        cuts.append((running, code))
    return running, cuts[:-1], cuts[-1][1] if cuts else ""


class _ChainTables:
    """Completion counts after every symbol move, for one (n, w).

    ``slices[j][i - 1]`` holds, one row per modulus of the plan, the
    counts that :func:`~staircase_lab.dpcount._sweep` hands its ``keep``
    at box (i, j), flattened, so the state with dirty-row mask ``mask``
    sits at ``(mask >> i) << (i-1) | low``.  One run of
    :func:`~staircase_lab.dpcount._masses_crt` over the plan fills them.
    The kernel's diagonal factors carry no q, so a slice holds the
    count scaled by q^n less one q per diagonal box still to fill;
    :meth:`after` multiplies those q back.  At its scale a symbol move
    weighs ``factors[k]`` times the count after it, and all symbol
    moves open at a state lead to the same state, so that one count
    weighs them all: ``weighs[above][bit]`` holds their factors, as
    :func:`_weigh` reads them, for each "symbol above" flag and row
    bit.  A walker carries its own exact count, so the count after an
    empty box is that count less the symbol moves' weights.
    """

    def __init__(self, n: int, w: Weights):
        self.n = n
        scaled = ScaledWeights.of(w)
        self.q, self.total = scaled.q, scaled.total_bound(n) * scaled.q ** n
        self.moduli, self.factors = scaled.moduli(n), scaled.factors()[0]
        self.garner = _garner(self.moduli)
        # a move of factor 0 never lands, and past it the plan need not cover the count
        self.weighs = [[_weigh([(self.factors[k], code) for code, k in moves
                                if self.factors[k]]) for moves in by_bit]
                       for by_bit in _OPEN_MOVES]
        self.powers = [scaled.q ** d for d in range(n + 1)]
        self.slices: List[List[np.ndarray]] = [[]] + [
            [np.empty((len(self.moduli), 1 << (i - 1 if j == 1 else n - j)), dtype=np.uint64)
             for i in range(1, n + 2 - j)] for j in range(1, n + 1)]

        def keep(first: int, i: int, j: int, counts: np.ndarray) -> None:
            # counts may be a transposed view: copy it in place, with no flat temporary
            self.slices[j][i - 1][first:first + len(counts)].reshape(counts.shape)[...] = counts
        if _masses_crt(n, w, _allowed_map(n, None), 1, keep=keep) != [scaled.total_bound(n)]:
            raise RuntimeError("chain-rule tables do not add up to the partition total")

    def after(self, j: int, i: int, mask: int) -> int:
        """The exact completion count, at the q^(2n) scale, just after a
        symbol lands in box (i, j) on the dirty-row mask ``mask``.  The
        plan covers it wherever a move of positive weight leads there."""
        index = (mask >> i) << (i - 1) | mask & ((1 << (i - 1)) - 1)
        kept = self.slices[j][i - 1]
        if len(self.garner) == 1:
            count = kept.item(0, index)
        else:
            count = _crt([kept.item(plane, index) for plane in range(len(self.garner))],
                         self.garner)
        if self.q > 1:  # one q per diagonal box still to fill
            count *= self.powers[self.n - j + (i < self.n + 1 - j)]
        return count


def _chain_bytes(n: int, w: Weights) -> int:
    """Bytes a :class:`_ChainTables` keeps: the charge it holds in the
    ledger for as long as it is kept.

    ``plan * h * 2^(h-1)`` counts of 8 bytes per column of height h
    below n, and ``plan * (2^n - 1)`` in column 1, so
    ``plan * n * 2^(n-1)`` in all; then 200 bytes per box for its
    slice's array object, 512 per modulus for the moduli and Garner
    constants and 2 * plan more for the Garner products, which grow
    along the plan, and 8 KiB for the other small objects.  The build's
    pass is not charged here: :func:`~staircase_lab.dpcount._masses_crt`
    reserves it while it runs.
    """
    plan = len(ScaledWeights.of(w).moduli(n))
    return (8 * plan * n << (n - 1)) + 100 * n * (n + 1) + (512 + 2 * plan) * plan + (1 << 13)


def _sample_chain(n: int, w: Weights, rng: random.Random, count: int) -> List[Tableau]:
    tables = _budget.get(_ChainTables, _chain_bytes,
                         "chain_rule tables for n={0} with these weights", n, w)
    getrandbits, weighs = rng.getrandbits, tables.weighs
    grids = [[] for _ in range(count)]  # per walker: list of column strings
    masks = [0] * count
    counts = [tables.total] * count  # per walker: its exact completion count
    for j in range(1, n + 1):
        height = n + 1 - j
        flags = [0] * count
        column = []  # per box: each walker's cell code
        for i in range(1, height + 1):
            bit, shift, diagonal = 1 << (i - 1), i - 1, i == height
            afters: Dict[int, int] = {}  # per mask: the count after a symbol lands
            codes = [""] * count
            for k in range(count):
                mask, have = masks[k], counts[k]
                draw = _below(getrandbits, have)
                total, cuts, code = weighs[flags[k]][mask >> shift & 1]
                if total:
                    after = afters.get(mask)
                    if after is None:
                        after = afters[mask] = tables.after(j, i, mask)
                    rest = have - total * after
                else:
                    rest = have
                if rest < 0 or (rest and diagonal):  # the diagonal box must fill
                    raise RuntimeError("chain-rule weights do not add up to the completion count")
                if draw < rest:
                    codes[k], counts[k] = ".", rest
                    continue
                draw -= rest
                for cut, cut_code in cuts:
                    if draw < cut * after:
                        code = cut_code
                        break
                codes[k] = code
                masks[k], flags[k], counts[k] = mask | bit, 1, after
            column.append(codes)
        keep = (1 << (height - 1)) - 1
        for k, cells in enumerate(zip(*column)):
            grids[k].append("".join(cells))
            masks[k] &= keep
    return [
        Tableau._trusted(tuple(map("".join, itertools.zip_longest(*grid, fillvalue=""))))
        for grid in grids
    ]


# ----------------------------------------------------------------------
# public surface

def _check_count(count: int, name: str) -> None:
    _check_int(count, name)
    if count < 1:
        raise ValueError(f"need at least one sample, got {name}={count}")


def _check_rng(rng: random.Random) -> None:
    if not isinstance(rng, random.Random):
        raise ValueError(f"rng must be a random.Random, got {rng!r}")


def sample(n: int, w: Weights, rng: random.Random,
           method: str = "chain_rule") -> Tableau:
    """Draw one tableau distributed exactly as the (a, b) measure."""
    return sample_many(n, w, rng, 1, method)[0]


def sample_many(n: int, w: Weights, rng: random.Random, count: int,
                method: str = "chain_rule") -> List[Tableau]:
    """Draw a batch, exactly, with no rejection and no rounding.

    ``enum_alias`` inverts one uniform integer per sample into the
    running sums of the weights over :func:`all_tableaux`; the memory
    budget admits it up to n = 8.  ``chain_rule`` walks all samples
    through the boxes together, up to n = 22 as the memory budget admits
    its tables, each drawing its cell from the exact conditional law
    given everything placed so far: one uniform integer below its exact
    number of weighted continuations per box, in walker order.  So a
    ``chain_rule`` batch of k consumes ``rng`` in a different order than
    k single draws; each path is deterministic on its own, and a seed
    pins down the whole sequence.
    """
    _check_choice(method, "method", _METHODS)
    alias = method == "enum_alias"
    _check_size(n, 1, N_ENUM if alias else N_DP)
    _check_count(count, "count")
    _check_rng(rng)
    return (_sample_enum if alias else _sample_chain)(n, w, rng, count)


def randomize_four_params(t: Tableau, fw: FourWeights,
                          rng: random.Random) -> Tableau:
    """Independently relabel alphas to gammas and betas to deltas.

    Each alpha becomes a gamma with probability gamma/(alpha+gamma) and
    each beta a delta with probability delta/(beta+delta), drawn
    exactly (an integer below the denominator, compared to the
    numerator), visiting boxes in row-major order.
    """
    _check_rng(rng)
    p_gamma = fw.gamma / (fw.alpha + fw.gamma)
    p_delta = fw.delta / (fw.beta + fw.delta)
    getrandbits = rng.getrandbits

    def flip(p: Fraction) -> bool:
        return p != 0 and _below(getrandbits, p.denominator) < p.numerator

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
    _check_count(samples, "samples")
    _statistic(statistic)  # an unknown name is refused before any draw
    counts = Counter(diagonal_statistic(t, statistic)
                     for t in sample_many(n, w, rng, samples, method))
    pmf = Pmf.from_integers([counts[k] for k in range(max(counts) + 1)], samples)
    stderr = tuple(math.sqrt(float(m) * float(1 - m) / samples) for m in pmf.masses)
    return EmpiricalLaw(pmf=pmf, draws=samples, stderr=stderr)

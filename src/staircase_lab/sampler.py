"""Exact random generation of weighted staircase tableaux.

Two backends draw from the same measure, as :func:`sample_many`
describes, both from Hitczenko and Janson's closed-form completion
counts: ``enum_alias`` down the tree of :func:`_alias_shape`, which it
keeps in the process's one memory ledger (``_budget.get``), weighing
only the states a call reaches (:func:`_sample_enum`), and
``chain_rule`` box by box (:func:`_sample_chain`), which keeps nothing.
Every draw of an integer goes through :func:`_below`.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from . import _budget
from .core import Tableau, _check_choice, _check_int, _check_size, _statistic, diagonal_statistic
from .dpcount import _MOVES, N_DP, ScaledWeights
from .enumeration import N_ENUM, _column_configs
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

def _alias_shape(n: int) -> List[Tuple[List[Tuple[str, int, int]], List[int]]]:
    """The weight-free enumeration tree, as (fillings, starts) per
    column of height h = n - j: on the dirty-row mask ``mask`` (0 in
    column 1, any below 2^h past it) it has the fillings ``starts[mask]``
    to ``starts[mask + 1]`` in enumeration order, each as (column, mask
    after it, code).  A filling weighs ``factors[code]`` of
    :func:`_sample_enum`: ``pa`` if it holds no alpha, ``pb`` if its
    alpha is a clean row's first symbol and 1 on a dirty row, times
    ``q`` per symbol.  A row has no beta exactly when its first symbol
    is an alpha, so a path multiplies to its tableau's weight."""
    shape = []
    for j in range(n):
        height, fillings, starts = n - j, [], [0]
        for mask in range(1 << height if j else 1):
            for column, after in _column_configs(height, mask):
                alpha = column.find("A")
                kind = 0 if alpha < 0 else 1 + (mask >> alpha & 1)
                fillings.append((column, after, 3 * (height - column.count(".")) + kind))
            starts.append(len(fillings))
        shape.append((fillings, starts))
    return shape


def _column_sizes(n: int) -> List[Tuple[int, int, int]]:
    """(h, fillings, masks) per column: 2^n on one mask, then 3^h on 2^h."""
    return [(n, 1 << n, 1)] + [(h, 3 ** h, 1 << h) for h in range(1, n)]


def _shape_bytes(n: int) -> int:
    """Bytes of the shape: per filling of height h, its tuple, its
    string of 49 + h bytes and a list slot; per mask, its start."""
    return sum(size * (h + 130) + masks * 40 for h, size, masks in _column_sizes(n)) + 2048


def _sample_enum(n: int, w: Weights, rng: random.Random, count: int) -> List[Tableau]:
    """Each draw descends the tree from one uniform integer below the
    partition total.  A state of height h on the dirty-row mask ``mask``
    has q^h times g_r (:meth:`ScaledWeights.row_factors`) of each clean
    row r <= h completions, the row product :func:`_sample_chain` reads,
    and ``counts`` holds them for the call.  The first draw to reach a
    state sums its fillings' factors times the counts after them, checks
    the sum against the state's own count, and keeps the running sums
    for the rest of the call."""
    shape = _budget.get(_alias_shape, _shape_bytes, "the enumeration tree for n={0}", n)
    scaled = ScaledWeights.of(w)
    q = scaled.q
    factors = [kind * q ** symbols for symbols in range(n + 1)
               for kind in (scaled.pa, scaled.pb, 1)]
    counts = [[1]]  # by height, by mask: the completion count
    for clean in (q * g for g in scaled.row_factors(n - 1)):
        counts.append([clean * c for c in counts[-1]] + [q * c for c in counts[-1]])
    counts.append([scaled.total(n)])  # column 1 is entered on mask 0 alone
    reached: List[Dict[int, List[int]]] = [{} for _ in shape]  # per column, by mask
    getrandbits, draws = rng.getrandbits, []
    for _ in range(count):
        draw, mask, columns = _below(getrandbits, counts[n][0]), 0, []
        for j, (fillings, starts) in enumerate(shape):
            start, running = starts[mask], reached[j].get(mask)
            if running is None:
                after = counts[n - j - 1]
                running = reached[j][mask] = list(itertools.accumulate(
                    (factors[code] * after[to]
                     for _, to, code in fillings[start:starts[mask + 1]]), initial=0))
                if running[-1] != counts[n - j][mask]:
                    raise RuntimeError("alias weights do not add up to the completion count")
            k = bisect.bisect_right(running, draw) - 1
            draw -= running[k]  # now below the pick's factor times its count after
            column, mask, code = fillings[start + k]
            draw //= factors[code]
            columns.append(column)
        draws.append(Tableau._from_columns(columns))
    return draws


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


def _tails(height: int, mask: int, g: List[int], q: int) -> List[int]:
    """Per box i of a column of height h entered on ``mask``, the factor
    of :func:`_sample_chain`'s count from the rows below the box: q times
    g_r + q per clean row i < r < h, 0 if row h is dirty, 1 at i = h;
    ``g[r - 1]`` is g_r."""
    tails, run = [1] * height, q if not mask >> (height - 1) & 1 else 0
    for r in range(height - 1, 0, -1):
        tails[r - 1] = run
        if not mask >> (r - 1) & 1:
            run *= g[r - 1] + q
    return tails


def _sample_chain(n: int, w: Weights, rng: random.Random, count: int) -> List[Tableau]:
    """The walkers go down each column together, each carrying its
    exact completion count at the q^(2n) scale.  Hitczenko and Janson's
    row product gives it for a partly filled tableau too: with
    g_r = pa + pb + (r - 1) q (:meth:`ScaledWeights.row_factors`), a walk
    entering a column of height h has q^h times g_r of each clean row
    r <= h completions, a dirty row weighing 1.  Just after a symbol lands in box i, a clean row
    i < r < h stays empty or takes a beta of weight q, so it weighs
    g_r + q, and the diagonal box must take that beta: the count is
    ``tops``, q^(h-1) times g_r of each clean row above, times
    :func:`_tails`.  All symbol moves open at a state lead to that
    count, ``weighs`` holds their factors as :func:`_weigh` reads them,
    by "symbol above" flag and row bit, and the empty cell takes what
    they leave."""
    scaled = ScaledWeights.of(w)
    q, factors = scaled.q, scaled.factors()[0]
    # a move of factor 0 never lands
    weighs = [[_weigh([(factors[k], code) for code, k in moves if factors[k]])
               for moves in by_bit] for by_bit in _OPEN_MOVES]
    g = scaled.row_factors(n)
    getrandbits = rng.getrandbits
    grids = [[] for _ in range(count)]  # per walker: list of column strings
    masks = [0] * count
    counts = [scaled.total(n)] * count  # per walker: its exact completion count
    for j in range(1, n + 1):
        height = n + 1 - j
        below = {mask: _tails(height, mask, g, q) for mask in set(masks)}
        tails = [below[mask] for mask in masks]  # per walker: by its entry mask
        tops = [q ** (height - 1)] * count
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
                        after = afters[mask] = tops[k] * tails[k][shift]
                    rest = have - total * after
                else:
                    rest = have
                if rest < 0 or (rest and diagonal):  # the diagonal box must fill
                    raise RuntimeError("chain-rule weights do not add up to the completion count")
                if draw < rest:
                    codes[k], counts[k] = ".", rest
                    if not mask & bit:
                        tops[k] *= g[shift]
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
    return [Tableau._from_columns(grid) for grid in grids]


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

    ``enum_alias`` inverts one uniform integer per sample, descending
    the enumeration tree to the tableau that running sums over all
    (n+1)! tableaux would pick, up to n = 9.  ``chain_rule`` walks all
    samples through the boxes together, up to n = 22, each drawing its
    cell from the exact conditional law given everything placed so far:
    one uniform integer below its exact number of weighted continuations
    per box, in walker order.  So a ``chain_rule`` batch of k consumes ``rng`` in a
    different order than k single draws; each path is deterministic on
    its own, and a seed pins down the whole sequence.
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

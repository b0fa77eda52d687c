"""Transfer-matrix counting over staircase tableaux.

The enumeration oracle answers every question by visiting all
``(n+1)!`` tableaux; this module answers the same questions in
polynomial time per state by sweeping columns left to right and
remembering only what the filling rules can still see: one bit per
live row and one flag per column.  :class:`ScaledWeights` gives the
integer move factors and the modulus plan, :func:`_groups` cuts the
plan into groups, :func:`_sweep` is the one counting pass over a group and
:func:`_sweep_bytes` the one model of its memory.  :func:`_masses_crt`
alone runs the passes and recombines the moduli, exactly, with no
modular inversion of data values.  A pass reads two sparse box maps,
the boxes an event narrows (:func:`_allowed_map`) and the boxes a
counter lifts; every other box keeps the fill rule.  It runs on the
:func:`_corner`, the sub-staircase that holds every key of both maps,
and the rest of the tableau enters the pass in closed form, as its
start.  The public operations honour
:class:`~staircase_lab.constraints.ConstraintSet` restrictions box by
box, which is what turns the partition sum into joint probabilities
of cell events.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import _budget
from .constraints import _ALLOWED, ConstraintSet, Requirement
from .core import Box, _check_box, _check_size, _statistic_cells
from .measure import BoxLaw, Weights
from .pmf import Pmf

#: Largest size the counting kernel accepts; 2^22 states per column is
#: roughly the point where the arrays stop being cheap.
N_DP = 22


# ----------------------------------------------------------------------
# scaled integer weights and the prime plan

@dataclass(frozen=True, slots=True)
class ScaledWeights:
    """(a, b) = (pa/q, pb/q) over the least common denominator q.

    Scaling every tableau weight by ``q^(2n)`` makes all four local
    factors integers: an alpha contributes ``q * pb`` in a clean row
    and ``q`` in a dirty one, a beta ``q * pa`` as the column's topmost
    symbol and ``q`` otherwise.  Each factor carries exactly one q, and
    each of the n diagonal boxes holds a symbol, so q^n divides every
    count; the counting kernel divides it out by giving a diagonal
    box's moves the factors without their q, ``(pb, 1, pa, 1)``.  Its
    counts are the tableau weights scaled by ``q^n``.
    """

    q: int
    pa: int
    pb: int

    @classmethod
    def of(cls, w: Weights) -> "ScaledWeights":
        a, b = w.a, w.b
        q = math.lcm(a.denominator, b.denominator)
        return cls(q, a.numerator * (q // a.denominator), b.numerator * (q // b.denominator))

    def factors(self) -> Tuple[Tuple[int, int, int, int], Tuple[int, int, int, int]]:
        """(alpha clean, alpha dirty, beta topmost, beta below) off the
        diagonal, then on it."""
        q, pa, pb = self.q, self.pa, self.pb
        return (q * pb, q, q * pa, q), (pb, 1, pa, 1)

    def row_factors(self, n: int) -> List[int]:
        """g_r = pa + pb + (r - 1) q for the rows r = 1..n: Hitczenko and
        Janson's partition function is one such factor per row."""
        return [self.pa + self.pb + r * self.q for r in range(n)]

    def total_bound(self, n: int) -> int:
        """The kernel's unconstrained total, the product of the
        :meth:`row_factors`.

        It is the normalizer scaled by q^n.  Every quantity the kernel
        reads out (constrained totals, per-count masses) is a subsum of
        it, so it bounds them all.
        """
        return math.prod(self.row_factors(n))

    def total(self, n: int) -> int:
        """The partition total at the q^(2n) scale: :meth:`total_bound` times q^n."""
        return self.total_bound(n) * self.q ** n

    def moduli(self, n: int) -> Tuple[int, ...]:
        """The modulus plan of every size-n count: 2^64, then the primes
        :func:`_primes_covering` adds."""
        return (_WRAP,) + _primes_covering(self.total_bound(n) >> 64)


#: The free modulus: numpy's uint64 arithmetic wraps around it.
_WRAP = 1 << 64


def _is_prime(x: int) -> bool:
    """Miller-Rabin on bases 2, 3, 5 and 7, which decides every odd x
    from 9 below 3,215,031,751 > 2^29, all that the plan asks about."""
    d, s = x - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7):
        y = pow(base, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


#: Prime planes use primes below 2^29 so that the kernel may defer
#: reductions.  A column starts from reduced entries, and a box adds to
#: the entries it writes one sum of products reduced below p, so no
#: entry passes (N_DP + 1) p.  The products a box sums, one per move
#: left after merging and at most four, take reduced factors, and only
#: beta-below reads flag-set entries, so the sum stays below
#: (N_DP + 4) p^2, which is below 2^64: a prime plane never wraps, and
#: a box reduces only the sum it adds.
_PRIME_LIMIT = 1 << 29
assert (N_DP + 4) * _PRIME_LIMIT ** 2 < _WRAP


@functools.cache
def _prime_below(p: int) -> int:
    """The largest prime below the odd number ``p``."""
    p -= 2
    while not _is_prime(p):
        p -= 2
    return p


def _primes_covering(bound: int) -> Tuple[int, ...]:
    """The largest primes below 2^29, as few as take the product past
    ``bound``."""
    primes, product = [], 1
    while product <= bound:
        primes.append(_prime_below(primes[-1] if primes else _PRIME_LIMIT + 1))
        product *= primes[-1]
    return tuple(primes)


def _garner(moduli: Sequence[int]) -> Tuple[Tuple[int, int, int], ...]:
    """Garner's constants of a plan, for :func:`_crt`: each modulus m_i
    with the product M_i of those before it and M_i^-1 mod m_i."""
    out, product = [], 1
    for m in moduli:
        out.append((m, pow(product, -1, m), product))
        product *= m
    return tuple(out)


def _crt(residues: Sequence[int], garner: Sequence[Tuple[int, int, int]]) -> int:
    """The unique x with x = r_i mod m_i, 0 <= x < prod m_i, given the
    plan's :func:`_garner` constants."""
    x = 0
    for r, (m, inverse, product) in zip(residues, garner):
        x += (r - x) * inverse % m * product
    return x


# ----------------------------------------------------------------------
# shared per-box bookkeeping

def _allowed_map(n: int, c: Optional[ConstraintSet]) -> Dict[Box, str]:
    """The boxes ``c`` narrows, each with the cell codes it leaves of
    the fill rule's (``.AB`` above the diagonal, ``AB`` on it): none
    where ``c`` asks what the box cannot hold.  A box the map omits
    keeps the fill rule's codes, which :func:`_sweep` gives it."""
    if c is None:
        return {}
    c._check_built_for(n)
    out = {}
    for box, req in c.items:
        rule = ".AB" if box[0] + box[1] <= n else "AB"
        codes = "".join(code for code in rule if code in _ALLOWED[req])
        if codes != rule:
            out[box] = codes
    return out


# ----------------------------------------------------------------------
# counting kernel

#: The fill rules as (cell code, factor index, "symbol above" flag, row
#: bit): alpha in a clean and in a dirty row, beta topmost in its column
#: and below another symbol.  Each applies where the flag and the box's
#: row bit hold these values, and sets both.
_MOVES = (("A", 0, 0, 0), ("A", 1, 0, 1), ("B", 2, 0, 0), ("B", 3, 1, 0))

#: Most level entries, planes * slots * 2^n, that one kernel pass walks
#: at once (see :func:`_groups`).  Below it, walking the boxes once for
#: several moduli saves Python work per box; above it, the arrays fit
#: the cache worse.
_GROUP_ENTRIES = 1 << 18

#: uint64 entries per 64-byte cache line.  Below a line per run, numpy's
#: per-run loop calls, not the arithmetic, set a box's cost (see :func:`_sweep`).
_LINE_ENTRIES = 8


def _groups(moduli: Sequence[int], slots: int, n: int) -> List[Tuple[int, ...]]:
    """The plan cut into as few runs as keep ``planes * slots * 2^n``
    within :data:`_GROUP_ENTRIES`, one plane at least, in order and of
    sizes that differ by at most one."""
    size = max(1, _GROUP_ENTRIES // (slots << n))
    count = -(-len(moduli) // size)
    cuts = [len(moduli) * k // count for k in range(count + 1)]
    return [tuple(moduli[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


def _per_plane(values: Sequence[int]):
    """``uint64`` values, one per plane, shaped to broadcast against a
    level slice; a numpy scalar for a single plane, which numpy applies
    with less overhead."""
    import numpy as np

    if len(values) == 1:
        return np.uint64(values[0])
    return np.array(values, dtype=np.uint64).reshape(-1, 1, 1, 1)


def _merge_moves(moduli: Sequence[int], four: Tuple[int, ...], codes: str,
                 lift: Tuple[int, int], clear: bool, clean: bool) -> list:
    """The moves open at a box, merged: moves from one source, the same
    (flag, bit), that take the same lift add their integer factors into
    one; sources with equal factor and lift are summed before one
    product; a factor of 1 needs no product and a factor of 0 no move.
    ``lift`` is the box's (alpha steps, beta steps).  A box whose flag
    is ``clear`` in every state reads no source with the flag set, and
    one whose row is ``clean`` in every state no dirty-row source.
    Returns ``[(factor per plane, or None for 1, lift, [(flag, bit),
    ...]), ...]``, each factor reduced modulo its plane's modulus."""
    factor_of: Dict[Tuple[int, int, int], int] = {}
    for code, k, above, bit in _MOVES:
        if code in codes and not (above and clear or bit and clean):
            source = (lift[code == "B"], above, bit)
            factor_of[source] = factor_of.get(source, 0) + four[k]
    sources_of: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for (steps, above, bit), factor in factor_of.items():
        if factor:
            sources_of.setdefault((factor, steps), []).append((above, bit))
    return [(None if factor == 1 else _per_plane([factor % m for m in moduli]), steps, sources)
            for (factor, steps), sources in sources_of.items()]


def _windows(n: int, slots: int, lifts: Dict[Box, Tuple[int, int]]) -> List[List[int]]:
    """Per column, left to right, the slots that may hold mass after
    each of its boxes, top-down.  One slot holds mass at the start and
    each box adds its largest lift, but no count passes the largest
    alpha lift of each column so far plus every beta lift met so far:
    an alpha needs no symbol above it, so a tableau holds one alpha per
    column at most."""
    live, window, out = 1, 1, []
    for j in range(1, n + 1):
        column, lives = 0, []
        for i in range(1, n + 2 - j):
            if (i, j) in lifts:  # a box without lifts leaves the window as it is
                alpha, beta = lifts[(i, j)]
                column = max(column, alpha)
                window += beta
                live = min(slots, live + max(alpha, beta), window + column)
            lives.append(live)
        window += column
        out.append(lives)
    return out


def _sweep(n: int, moduli: Sequence[int], factors: Tuple[Tuple[int, ...], Tuple[int, ...]],
           allowed: Dict[Box, str], slots: int, lifts: Dict[Box, Tuple[int, int]],
           start: Tuple[int, int, int] = (1, 0, 0)) -> List[List[int]]:
    """One left-to-right counting pass for a group of moduli, one plane
    each: per plane, each slot's residue.

    ``level[plane, slot, above, mask]`` counts, modulo the plane's
    modulus, the weighted fillings so far that end in the state with
    that "symbol above" flag and dirty-row mask, with ``slot`` counter
    steps so far.  Columns run left to right and each column top-down;
    the residues are the counts that leave column n.  The pass may run
    on the :func:`_corner` of a larger tableau, whose outside enters
    through ``start = (base, x, y)``, each reduced per plane: column 1
    starts from ``base * x^|mask|`` on every mask with the flag clear,
    and at each column's start the flag-set half is y times the
    flag-clear half.  (1, 0, 0) is a whole tableau, which starts from
    the one empty state before column 1.  ``factors`` holds the four
    move factors off the diagonal and on it, as
    :meth:`ScaledWeights.factors` gives them.  ``allowed`` maps a box to
    its cell codes where an event narrows them, as :func:`_allowed_map`
    gives them; every other box may hold ``.AB`` above the diagonal and
    ``AB`` on it.  ``lifts`` maps a box to ``(alpha steps, beta
    steps)``: a symbol there lifts the count by its code's steps, and an
    empty cell or a box the map omits never does.  A lift that would pass
    the last slot while the slots it lifts from hold mass raises.  Every
    plane walks the boxes together: moves and merged factors are worked
    out once per box, and each numpy call spans all planes; the start
    alone runs a plane at a time.

    Every symbol move sets the flag and the box's row bit, so a box
    reads the three other quarters of the level, sums their products in
    a buffer, reduces the sum and adds it into the quarter with both
    set.  The empty cell keeps every quarter; where it is forbidden, the
    box zeroes the three it read and keeps only its sum.  The diagonal
    box's sum, over the rows still alive, is the next column's level
    with the flag clear, written into a fresh array, while its own
    target quarter, which nothing reads, holds its products.  Where
    y = 0 the top box reads no source with the flag set, and where
    x = 0 every row enters column 1 clean: before its box i only masks
    below 2^(i-1) occur, and the box touches only ``level[..., :2^i]``.
    Moves are merged, and sources that hold no mass skipped, as
    :func:`_merge_moves` describes.

    Box i sees the level as ``(seg, half)`` runs: ``seg`` mask prefixes
    above its row bit and ``half = 2^(i-1)`` masks below it.  numpy's
    inner loop follows the last axis, so when ``half`` is below
    :data:`_LINE_ENTRIES` and ``seg`` exceeds it, the box takes the
    level with those two axes swapped and lays its buffers out as
    ``(half, seg)``: the sums, the products, the adds and the remainder
    then loop along ``seg``.  Other boxes keep ``(seg, half)``, whose
    long runs loop faster than swapped ones.

    A box touches only the slots :func:`_windows` counts live, and a
    column's level holds the slots live at its end.
    """
    import numpy as np

    planes = len(moduli)
    wraps = int(moduli[0] == _WRAP)  # the planes before the prime ones
    primes = _per_plane(moduli[wraps:]) if wraps < planes else None

    def scale(source, factor: int, out, m: int) -> None:  # out = source * factor mod m
        np.multiply(source, np.uint64(factor % m), out=out)
        if m != _WRAP:
            np.remainder(out, np.uint64(m), out=out)

    merged = functools.cache(functools.partial(_merge_moves, moduli))  # once per kind of box
    windows = _windows(n, slots, lifts)
    caps = [column[-1] for column in windows] + [slots]
    base, x, y = start
    level = np.zeros((planes, caps[0], 2, 1 << n), dtype=np.uint64)
    for plane, m in enumerate(moduli):  # a plane at a time, so numpy neither buffers nor copies
        level[plane, 0, 0, 0] = base % m
        for r in range(n if x else 0):  # the masks with row r + 1 dirty: x times those without
            scale(level[plane, 0, 0, :1 << r], x, level[plane, 0, 0, 1 << r:2 << r], m)
    live = 1
    for j in range(1, n + 1):
        height = n + 1 - j
        for plane, m in enumerate(moduli if y else ()):  # flag set: y times flag clear
            scale(level[plane, :, 0], y, level[plane, :, 1], m)
        buffers = np.empty((2, planes * caps[j - 1] << (height - 1)), dtype=np.uint64)
        for i in range(1, height + 1):
            diagonal = i == height
            codes = allowed.get((i, j), "AB" if diagonal else ".AB")
            lift = lifts.get((i, j), (0, 0))
            moves = merged(factors[diagonal], codes, lift, i == 1 and not y, j == 1 and not x)
            after = windows[j - 1][i - 1]
            width = 1 << (i if j == 1 and not x else height)  # the reachable prefix
            seg, half = width >> i, 1 << (i - 1)
            view = level[..., :width].reshape(planes, caps[j - 1], 2, seg, 2, half)
            if half < _LINE_ENTRIES and seg > half:
                view = view.swapaxes(3, 5)
            target = view[:, :after, 1, :, 1, :]
            if diagonal:
                # the buffers are freed before the next level exists, as _sweep_bytes assumes
                buffers = None
                following = np.zeros((planes, caps[j], 2, half), dtype=np.uint64)
                sums, spare = following[:, :after, 0, None], target
            elif moves:
                sums, spare = buffers[:, :planes * after * width >> 1].reshape(
                    2, planes, after, view.shape[3], view.shape[5])
                if moves[0][1] or live < after:  # the first move leaves sums to fill
                    sums.fill(0)
            for k, (factor, up, sources) in enumerate(moves):
                if slots - up < live and any(view[:, slots - up:live, above, :, bit, :].any()
                                             for above, bit in sources):
                    raise RuntimeError("statistic counter overflowed its cap")
                into = sums[:, up:up + live]
                reads = [view[:, :into.shape[1], above, :, bit, :] for above, bit in sources]
                if factor is None and k:
                    for read in reads:
                        np.add(into, read, out=into)
                    continue
                product = spare[:, :into.shape[1]] if k else into
                total = reads[0]
                for read in reads[1:]:
                    total = np.add(total, read, out=product)
                if factor is not None:
                    total = np.multiply(total, factor, out=product)
                if k:
                    np.add(into, total, out=into)
                elif total is not into:
                    np.copyto(into, total)
            if moves and primes is not None:
                np.remainder(sums[wraps:], primes, out=sums[wraps:])
            if diagonal:
                level, view, target = following, None, None
            elif "." not in codes:
                target[...] = sums if moves else 0
                view[:, :live, 0].fill(0)
                view[:, :live, 1, :, 0, :].fill(0)
            elif moves:
                np.add(target, sums, out=target)
            # views of the buffers and the level, which must not outlive them
            sums = spare = reads = read = into = product = total = None
            live = after
    return level[:, :, 0, 0].tolist()


def _sweep_bytes(s: int, slots: int, moduli: Sequence[int],
                 lifts: Dict[Box, Tuple[int, int]]) -> int:
    """Peak bytes of a call whose counting passes over the plan
    ``moduli`` run on a size-s staircase under ``lifts``, reached at the
    diagonal box of a column in a pass over the plan's largest group:
    the one model of a pass, which every caller of :func:`_masses_crt`
    reserves.

    A column of height h holds a level of ``8 * planes * c * 2^(h+1)``
    bytes, c the slots live at its end, and two box buffers of a quarter
    of that at most.  Its diagonal box frees the buffers and allocates
    the next level, on half the masks and the next column's c: the peak
    is the largest sum of two such levels.  A pass of one plane runs
    without numpy iteration buffers; in any other, a numpy call may
    buffer up to three operands, each at most 64 KiB and the size of the
    call, a quarter of the level at the peak.  Then 512 bytes per slot
    and modulus for the residues, their recombination and the merged
    moves' factors, 128 bytes per box for the slot windows and 10 KiB
    for the call's other small objects.
    """
    planes = max(map(len, _groups(moduli, slots, s)))
    caps = [column[-1] for column in _windows(s, slots, lifts)] + [slots]
    levels, quarter = max(((2 * caps[j - 1] + caps[j]) << (s + 1 - j), caps[j - 1] << (s - j))
                          for j in range(1, s + 1))
    iteration = 3 * min(8 * planes * quarter, 1 << 16) if planes > 1 else 0
    small = 512 * slots * len(moduli) + 64 * s * (s + 1) + (10 << 10)
    return 8 * planes * levels + iteration + small


def _corner(n: int, scaled: ScaledWeights, allowed: Dict[Box, str],
            lifts: Dict[Box, Tuple[int, int]]) -> tuple:
    """The sub-staircase a pass runs on, as (its size s, its allowed
    map and lifts in its own coordinates, the :func:`_sweep` start).

    Its corner (r1, k1) is the least row and the least column among the
    keys of ``allowed`` and ``lifts``, the boxes an event narrows and a
    counter lifts, (1, 1) when there are none.  It holds the rows from
    r1 and the columns from k1, s = n + 2 - r1 - k1 of each, and shares
    the tableau's diagonal.  A box inside reads the outside only
    through its row's dirty bit and its column's "symbol above" flag,
    and the fillings outside with d of its rows dirty and f of its
    columns flagged weigh, summed, :meth:`ScaledWeights.total_bound` of
    r1 + k1 - 2 times ((k1 - 1) q)^d ((r1 - 1) q)^f: the start
    (base, x, y)."""
    r1, k1 = (min((box[k] for box in [*allowed, *lifts]), default=1) for k in (0, 1))
    allowed, lifts = ({(i + 1 - r1, j + 1 - k1): value for (i, j), value in boxes.items()}
                      for boxes in (allowed, lifts))
    start = scaled.total_bound(r1 + k1 - 2), (k1 - 1) * scaled.q, (r1 - 1) * scaled.q
    return n + 2 - r1 - k1, allowed, lifts, start


def _masses_crt(n: int, w: Weights, allowed: Dict[Box, str], slots: int,
                lifts: Dict[Box, Tuple[int, int]]) -> List[int]:
    """Scaled integer masses per counter slot, one kernel pass per group
    of the plan's moduli, on the :func:`_corner` that holds every box
    the allowed map narrows or the lifts touch."""
    scaled = ScaledWeights.of(w)
    moduli, factors = scaled.moduli(n), scaled.factors()
    s, allowed, lifts, start = _corner(n, scaled, allowed, lifts)
    residues: List[List[int]] = []
    with _budget.reserve(_sweep_bytes(s, slots, moduli, lifts), f"{slots}-slot sweeps at n={n}"):
        for group in _groups(moduli, slots, s):
            residues += _sweep(s, group, factors, allowed, slots, lifts, start)
    garner = _garner(moduli)
    return [_crt(slot, garner) for slot in zip(*residues)]


# ----------------------------------------------------------------------
# public operations

def constrained_partition(n: int, w: Weights,
                          c: Optional[ConstraintSet] = None) -> Fraction:
    """Sum of normalized weights over tableaux satisfying ``c``.

    With no constraints this is ``(a + b)^(rising n)``.  Unsatisfiable
    constraint sets simply sum an empty set of tableaux and return 0.
    """
    _check_size(n, 1, N_DP)
    total = _masses_crt(n, w, _allowed_map(n, c), slots=1, lifts={})[0]
    return Fraction(total, ScaledWeights.of(w).q ** n)


def event_prob(n: int, w: Weights, c: ConstraintSet) -> Fraction:
    """Probability that a random tableau satisfies every constraint: its
    scaled mass over :meth:`ScaledWeights.total_bound`."""
    scaled = ScaledWeights.of(w)
    return constrained_partition(n, w, c) * scaled.q ** n / scaled.total_bound(n)


def conditional_cell_law(n: int, w: Weights, box: Box,
                         given: Optional[ConstraintSet] = None) -> BoxLaw:
    """Law of one cell conditioned on an arbitrary cell event.

    Computed as a ratio of constrained partition sums, all three in one
    3-slot pass over ``given``'s allowed map: an empty cell at ``box``
    leaves the count in slot 0, an alpha lifts it to slot 1 and a beta
    to slot 2.  The box holds exactly one of them, so the three sums
    add up to the conditioning event's own.  Conditioning on an
    impossible event raises.
    """
    _check_size(n, 1, N_DP)
    box = _check_box(n, box)
    base = given if given is not None else ConstraintSet.empty(n)
    allowed = _allowed_map(n, base)  # refuses an event built for another size
    # the box joins the event free, so a box already constrained raises
    ConstraintSet(n, base.items + ((box, Requirement.FREE),))
    empty, alpha, beta = _masses_crt(n, w, allowed, slots=3,
                                     lifts={box: (1, 2)})
    denominator = empty + alpha + beta
    if denominator == 0:
        raise ValueError("conditioning event has probability zero")
    return BoxLaw(alpha=Fraction(alpha, denominator), beta=Fraction(beta, denominator),
                  empty=Fraction(empty, denominator))


def _statistic_plan(n: int, statistic: str) -> Tuple[Dict[Box, Tuple[int, int]], int]:
    """Which codes lift the counter by one at which boxes, and the
    statistic's largest value, which the sweep verifies by refusing to
    overflow it: :func:`~staircase_lab.core._statistic_cells` on the
    alpha/beta tableaux the kernel fills."""
    boxes, codes, cap = _statistic_cells(n, statistic)
    return dict.fromkeys(boxes, (int("A" in codes), int("B" in codes))), cap


def statistic_pmf(n: int, w: Weights, statistic: str) -> Pmf:
    """Exact law of a named counting statistic, in one counting sweep.

    The sweep carries the count so far as an extra array axis; one
    sentinel slot past the structural cap ends empty and any attempt to
    spill past it raises rather than miscounting.  ``Nbeta`` is counted
    as ``Nalpha`` under ``w.swapped()``: transposing a tableau swaps its
    alphas with its betas and carries the measure at (a, b) to the one
    at (b, a) (Hitczenko and Janson), while a beta lift per row would
    carry a slot per row through column 1.
    """
    _check_size(n, 1, N_DP)
    if statistic == "Nbeta":
        statistic, w = "Nalpha", w.swapped()
    lifts, cap = _statistic_plan(n, statistic)
    masses = _masses_crt(n, w, {}, slots=cap + 2, lifts=lifts)
    total = ScaledWeights.of(w).total_bound(n)
    if sum(masses) != total:
        raise RuntimeError("statistic masses do not add up to the partition total")
    if masses[-1] != 0:
        raise RuntimeError("statistic reached past its structural cap")
    return Pmf.from_integers(masses, total)

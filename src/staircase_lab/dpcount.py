"""Transfer-matrix counting over staircase tableaux.

The enumeration oracle answers every question by visiting all
``(n+1)!`` tableaux; this module answers the same questions in
polynomial time per state by sweeping columns and remembering only
what the filling rules can still see: one bit per live row and one
flag per column.  :class:`ScaledWeights` gives the integer move
factors and the modulus plan, :func:`_groups` cuts the plan into
groups, :func:`_sweep` is the one counting pass over a group and
:func:`_sweep_bytes` the one model of its memory.  :func:`_masses_crt`
alone runs the passes and recombines the moduli, exactly, with no
modular inversion of data values.  The public operations honour
:class:`~staircase_lab.constraints.ConstraintSet` restrictions box by
box, which is what turns the partition sum into joint probabilities
of cell events.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _budget
from .constraints import _ALLOWED, ConstraintSet, Requirement
from .core import Box, _check_box, _check_size, _statistic_cells, staircase_boxes
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
        q = math.lcm(w.a.denominator, w.b.denominator)
        return cls(q, int(w.a * q), int(w.b * q))

    def factors(self) -> Tuple[Tuple[int, int, int, int], Tuple[int, int, int, int]]:
        """(alpha clean, alpha dirty, beta topmost, beta below) off the
        diagonal, then on it."""
        q, pa, pb = self.q, self.pa, self.pb
        return (q * pb, q, q * pa, q), (pb, 1, pa, 1)

    def total_bound(self, n: int) -> int:
        """The kernel's unconstrained total, prod_i (pa + pb + i q).

        It is the normalizer scaled by q^n.  Every quantity the kernel
        reads out (constrained totals, per-count masses) is a subsum of
        it, so it bounds them all.
        """
        return math.prod(self.pa + self.pb + i * self.q for i in range(n))

    def total(self, n: int) -> int:
        """The partition total at the q^(2n) scale: :meth:`total_bound` times q^n."""
        return self.total_bound(n) * self.q ** n

    def moduli(self, n: int) -> Tuple[int, ...]:
        """The modulus plan of every size-n count: 2^64, then the primes
        :func:`_primes_covering` adds."""
        return (_WRAP,) + _primes_covering(self.total_bound(n) >> 64)


#: The free modulus: numpy's uint64 arithmetic wraps around it.
_WRAP = 1 << 64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    for p in _MR_BASES:
        if x % p == 0:
            return x == p
    d, s = x - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:  # deterministic far beyond 64 bits
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
#: reductions.  A column reads the boundary reduced, below p, and each
#: box adds at most two products of reduced values, each at most
#: (p-1)^2, to any entry.  Only alpha-clean and beta-topmost share a
#: target, and merged they take one product of their integer factor
#: sum reduced modulo p; a second reaches the entry only when the two take
#: different lifts to later counter slots.  A factor of 1 adds the
#: reduced slice itself.  A column has at most N_DP boxes, so every
#: entry stays below p + 2 * N_DP * (p-1)^2, which is below 2^64: a
#: prime plane never wraps, and a box reduces only the slice it reads.
_PRIME_LIMIT = 1 << 29
assert _PRIME_LIMIT + 2 * N_DP * (_PRIME_LIMIT - 1) ** 2 < _WRAP

#: The primes below _PRIME_LIMIT in descending order, found on demand.
_PRIMES: List[int] = []
_PRIMES_LOCK = threading.Lock()


def _primes_covering(bound: int) -> Tuple[int, ...]:
    """The largest primes below 2^29, as few as take the product past
    ``bound``."""
    product, count = 1, 0
    while product <= bound:
        if count == len(_PRIMES):
            with _PRIMES_LOCK:
                if count == len(_PRIMES):
                    candidate = _PRIMES[-1] - 2 if _PRIMES else _PRIME_LIMIT - 1
                    while not _is_prime(candidate):
                        candidate -= 2
                    _PRIMES.append(candidate)
        product *= _PRIMES[count]
        count += 1
    return tuple(_PRIMES[:count])


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
    """Cell codes each box may take, merging rules and constraints: the
    fill rule gives ``.AB`` above the diagonal and ``AB`` on it, and
    only the boxes ``c`` constrains narrow that."""
    if c is not None:
        c._check_built_for(n)
    out = {box: ".AB" if box[0] + box[1] <= n else "AB" for box in staircase_boxes(n)}
    if c is not None:
        for box, req in c.items:
            out[box] = "".join(code for code in out[box] if code in _ALLOWED[req])
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
    if len(values) == 1:
        return np.uint64(values[0])
    return np.array(values, dtype=np.uint64).reshape(-1, 1, 1, 1)


def _merge_moves(moduli: Sequence[int], four: Tuple[int, ...], codes: str,
                 lift: Tuple[Tuple[str, int], ...]) -> Tuple[Tuple[int, int], list]:
    """The moves open at a box, merged: moves onto one target, the same
    (lift, flag, bit), add their integer factors into one; targets with
    equal factors share one product; a factor of 1 needs no product and
    a factor of 0 no move.  Returns the lifts of an alpha and of a beta
    that may land there, 0 for a code that may not, and ``[(factor per
    plane, or None for 1, [target, ...]), ...]``, each factor reduced
    modulo its plane's modulus."""
    up = dict(lift)
    factor_of: Dict[Tuple[int, int, int], int] = {}
    for code, k, above, bit in _MOVES:
        if code in codes:
            target = (up.get(code, 0), above, bit)
            factor_of[target] = factor_of.get(target, 0) + four[k]
    targets_of: Dict[int, List[Tuple[int, int, int]]] = {}
    for target, factor in factor_of.items():
        if factor:
            targets_of.setdefault(factor, []).append(target)
    lifts = (up.get("A", 0) if "A" in codes else 0, up.get("B", 0) if "B" in codes else 0)
    return lifts, [(None if factor == 1 else _per_plane([factor % m for m in moduli]), targets)
                   for factor, targets in targets_of.items()]


def _sweep(n: int, moduli: Sequence[int], factors: Tuple[Tuple[int, ...], Tuple[int, ...]],
           allowed: Dict[Box, str], slots: int = 1,
           lifts: Optional[Dict[Box, Tuple[Tuple[str, int], ...]]] = None) -> List[List[int]]:
    """One right-to-left counting pass for a group of moduli, one plane
    each: per plane, each slot's residue.

    ``level[plane, slot, above, mask]`` counts, modulo the plane's
    modulus, the weighted ways to fill the rest of the tableau from the
    state with that "symbol above" flag and dirty-row mask, with
    ``slot`` counter steps to come.  Columns run right to left and each
    column bottom-up; the residues are the counts from the empty state
    before column 1.  ``factors`` holds the four move factors off the
    diagonal and on it, as :meth:`ScaledWeights.factors` gives them.
    ``lifts`` maps a box to ``((code, steps), ...)``: a symbol of that
    code there lifts the count by that many slots, and an empty cell
    never does.  A lift that would pass the last slot while the slots
    it lifts from hold mass raises.  Every plane walks the boxes
    together: moves and merged factors are worked out once per box, and
    each numpy call spans all planes.

    Box i sees the level as ``(seg, half)`` runs: ``seg`` mask prefixes
    above its row bit and ``half = 2^(i-1)`` masks below it.  numpy's
    inner loop follows the last axis, so when ``half`` is below
    :data:`_LINE_ENTRIES` and ``seg`` exceeds it, the box takes the
    level with those two axes swapped and lays its buffers out as
    ``(half, seg)``: the copy, the remainder, the products and the adds
    then loop along ``seg``.  Other boxes keep ``(seg, half)``, whose
    long runs loop faster than swapped ones.

    A pass computes only what is read later.  It touches only the
    slots that can hold mass so far: one at the start, growing by each
    box's largest lift, and never past 1 + the largest alpha lift of
    each column so far + the largest beta lift met so far in each row.
    An alpha needs no symbol above it and a beta a clean row, so a
    tableau holds one alpha per column and one beta per row at most.
    The diagonal box, where ``.`` is never allowed, reads the incoming
    boundary as it is, since its row bit must be set and the row then
    retires, and writes onto a zeroed level; its products go to the
    quarter with the flag and the row bit set, which no move writes,
    and which it zeroes again.  A column's top box writes no target
    with the flag set, since the next column starts with it clear.
    Column 1 is the first column a tableau fills, so every row enters
    it clean: before its box i only masks below 2^(i-1) occur, the box
    reads and writes only ``level[..., :2^i]`` and skips the target
    with its row bit set, and the column hands on mask 0 alone.  Moves
    are merged as :func:`_merge_moves` describes.
    """
    planes = len(moduli)
    wraps = int(moduli[0] == _WRAP)  # the planes before the prime ones
    primes = _per_plane(moduli[wraps:]) if wraps < planes else None
    # merged moves and the alpha and beta lifts by (codes, lift, diagonal), built once per pass
    merged: Dict[Tuple[str, tuple, bool], Tuple[Tuple[int, int], list]] = {}
    live = 1  # the slots that may hold mass so far
    window, row_lifts = 1, [0] * (n + 1)
    boundary = np.ones((planes, live, 1, 1), dtype=np.uint64)  # no step to come
    for j in range(n, 0, -1):
        height = n + 1 - j
        level = np.zeros((planes, slots, 2, 1 << height), dtype=np.uint64)
        column_lift = 0  # the largest alpha lift met so far in this column
        for i in range(height, 0, -1):
            codes = allowed[(i, j)]
            lift = lifts.get((i, j), ()) if lifts else ()
            key = (codes, lift, i == height)
            if key not in merged:
                merged[key] = _merge_moves(moduli, factors[i == height], codes, lift)
            (alpha, beta), moves = merged[key]
            reach = max(alpha, beta)
            width = 1 << (height if j > 1 else i)  # the reachable prefix
            seg, half = width >> i, 1 << (i - 1)
            view = level[..., :width].reshape(planes, slots, 2, seg, 2, half)
            flip = half < _LINE_ENTRIES and seg > half
            if flip:
                view = view.swapaxes(3, 5)
            if i == height:
                src, step = boundary, view[:, :live, 1, :, 1, :]
            else:
                src, step = buffers[:planes * live * width].reshape(
                    (2, planes, live) + ((half, seg) if flip else (seg, half)))
                # every move sets the flag and the row bit, and none writes there
                np.copyto(src, view[:, :live, 1, :, 1, :])
                if primes is not None:
                    np.remainder(src[wraps:], primes, out=src[wraps:])
                if "." not in codes:
                    view[:, :live].fill(0)
            if slots - reach < live and src[:, slots - reach:].any():
                raise RuntimeError("statistic counter overflowed its cap")
            for factor, targets in moves:
                product = src if factor is None else np.multiply(src, factor, out=step)
                for up, above, bit in targets:
                    if above and i == 1 or bit and j == 1:
                        continue
                    into = view[:, up:up + live, above, :, bit, :]
                    np.add(into, product[:, :into.shape[1]], out=into)
            product = into = None  # views of the buffers and level, which must not outlive them
            if i == height:
                if any(factor is not None for factor, _ in moves):
                    step.fill(0)
                # the boundary is freed before the buffers exist, as _sweep_bytes assumes
                boundary = src = step = None
                buffers = np.empty(planes * slots << height, dtype=np.uint64)
            if alpha > column_lift:
                column_lift = alpha
            if beta > row_lifts[i]:
                window += beta - row_lifts[i]
                row_lifts[i] = beta
            live = min(slots, live + reach, window + column_lift)
        window += column_lift
        # each freed as soon as it is done with, as _sweep_bytes assumes
        del buffers, view, src, step
        boundary = level[:, :live, :1, :1 if j == 1 else None].copy()
        if primes is not None:
            np.remainder(boundary[wraps:], primes, out=boundary[wraps:])
        del level
    residues = np.zeros((planes, slots), dtype=np.uint64)
    residues[:, :live] = boundary[:, :, 0, 0]
    return residues.tolist()


def _sweep_bytes(n: int, slots: int, moduli: Sequence[int]) -> int:
    """Peak bytes of the counting passes over the plan ``moduli``,
    reached in column 1 of a pass over its largest group: the one model
    of a pass, which every caller of :func:`_masses_crt` reserves.

    In units of ``8 * planes * slots * 2^n`` bytes for that group: 2
    for the level and 1 for the two buffers.  The previous level is
    freed by then, and so is the incoming boundary, half a unit at
    most, before the buffers exist; column 1 hands on one mask.  A pass
    of one plane and one slot runs without numpy iteration buffers; in
    any other, a numpy call may buffer up to three operands, each at
    most 64 KiB and the size of the call.  The diagonal box's calls
    span half a unit at most and run beside the level and the boundary:
    2.5 units and three times the lesser of half a unit and 64 KiB.
    Later calls span a quarter unit at most and run beside the level
    and the buffers: 3 units and three times the lesser of a quarter
    unit and 64 KiB.  Both stay within 3 units and the lesser of a unit
    and 192 KiB.  Then 64 bytes per slot and modulus for the residues
    and their recombination, 192 bytes per box for the allowed map and
    the merged moves, and 8 KiB for the call's other small objects.
    """
    planes = max(map(len, _groups(moduli, slots, n)))
    unit = 8 * planes * slots << n
    iteration = min(unit, 3 << 16) if planes * slots > 1 else 0
    return 3 * unit + iteration + 64 * slots * len(moduli) + 96 * n * (n + 1) + (1 << 13)


def _masses_crt(n: int, w: Weights, allowed: Dict[Box, str], slots: int,
                lifts: Optional[Dict[Box, Tuple[Tuple[str, int], ...]]] = None) -> List[int]:
    """Scaled integer masses per counter slot, one kernel pass per group
    of the plan's moduli."""
    scaled = ScaledWeights.of(w)
    moduli, factors = scaled.moduli(n), scaled.factors()
    residues: List[List[int]] = []
    with _budget.reserve(_sweep_bytes(n, slots, moduli), f"{slots}-slot sweeps at n={n}"):
        for group in _groups(moduli, slots, n):
            residues += _sweep(n, group, factors, allowed, slots, lifts)
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
    total = _masses_crt(n, w, _allowed_map(n, c), slots=1)[0]
    return Fraction(total, ScaledWeights.of(w).q ** n)


def event_prob(n: int, w: Weights, c: ConstraintSet) -> Fraction:
    """Probability that a random tableau satisfies every constraint."""
    return constrained_partition(n, w, c) / w.normalizer(n)


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
                                     lifts={box: (("A", 1), ("B", 2))})
    denominator = empty + alpha + beta
    if denominator == 0:
        raise ValueError("conditioning event has probability zero")
    return BoxLaw(alpha=Fraction(alpha, denominator), beta=Fraction(beta, denominator),
                  empty=Fraction(empty, denominator))


def _statistic_plan(n: int, statistic: str) -> Tuple[Dict[Box, Tuple[Tuple[str, int], ...]], int]:
    """Which codes lift the counter by one at which boxes, and the
    statistic's largest value, which the sweep verifies by refusing to
    overflow it: :func:`~staircase_lab.core._statistic_cells` on the
    alpha/beta tableaux the kernel fills."""
    boxes, codes, cap = _statistic_cells(n, statistic)
    lift = tuple((code, 1) for code in codes if code in "AB")
    return {box: lift for box in boxes}, cap


def statistic_pmf(n: int, w: Weights, statistic: str) -> Pmf:
    """Exact law of a named counting statistic, in one counting sweep.

    The sweep carries the count still to come as an extra array axis;
    one sentinel slot past the structural cap stays empty and any
    attempt to spill past it raises rather than miscounting.
    """
    _check_size(n, 1, N_DP)
    lifts, cap = _statistic_plan(n, statistic)
    masses = _masses_crt(n, w, _allowed_map(n, None), slots=cap + 2, lifts=lifts)
    total = ScaledWeights.of(w).total_bound(n)
    if sum(masses) != total:
        raise RuntimeError("statistic masses do not add up to the partition total")
    if masses[-1] != 0:
        raise RuntimeError("statistic reached past its structural cap")
    return Pmf.from_integers(masses, total)

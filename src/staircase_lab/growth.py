"""The column growth of u/q-filled four-symbol staircase tableaux, and
the transfer that sums their weights by the main diagonal's type.

An empty box reads as u when the nearest symbol to its right is a
beta, as q when it is a delta, and otherwise by the nearest symbol
below it: u above an alpha or a delta, q above a beta or a gamma.
The transfer runs over the columns from right to left, in integers,
and never lists a tableau.

A row is closed once its leftmost symbol so far is a beta or a delta:
every box left of it is empty, choosing that symbol in column j paid
u^(j-1) or q^(j-1) for them, and the "nearest symbol below" rule skips
them.  So what column j adds depends only on j and on the number r of
open rows above its diagonal box, not on which rows they are.
:func:`_column_weights` sums the column once for every r, by its
diagonal code and the rows it closes.  Going up the column, the symbol
nearest below a box says both how an empty box reads and whether the
box is blocked (empty above an alpha or a gamma).  So an alpha on the
diagonal weighs α·u^r and a gamma γ·q^r, and only a beta or a delta
opens the boxes above it.  Those r boxes grow from their bottom one:
it is either empty, read by the symbol below, or the diagonal box of a
column with r − 1 open rows.

:func:`type_laws` runs the transfer.  Its state maps the closed-row
count to the weights by type of the columns done so far.  A reading of
the diagonal names the codes it counts as a filled site; it folds a
column's four codes into the two type bits, and each count's vector
takes one scaled add per (rows closed, type bit) outcome, at that
bit's interleaved slots.  So site 1, the diagonal box of column n and
the first one done, ends as the most significant bit of the index.
The column sums do not depend on the reading, so all readings share
them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .pmf import Pmf


def _column_weights(j: int, rows: int, rates: Sequence[int]
                    ) -> List[Tuple[Tuple[int, ...], Tuple[List[int], ...]]]:
    """What column j adds, in integers, with 0..rows open rows above
    its diagonal box, at the rates (α, β, γ, δ, u, q).

    Entry r sums every filling of the diagonal box and the r open boxes
    above it, by the diagonal box's code and the rows the column
    closes.  It holds two rows, each indexed by (neither code, the
    first, the second, both): the weights (0, A, G, A + G) of the
    codes that close no row, and the lists ([], B, D, B + D) of the
    weights of the codes that do, by rows closed from 1.  The open
    boxes of entry r grow from entry r − 1 summed over its four codes.
    """
    ra, rb, rg, rd, ru, rq = rates
    fb, fd = rb * ru ** (j - 1), rd * rq ** (j - 1)  # pay for the empties to the left
    over_b, over_d = [1], [1]  # the open boxes above a beta, a delta, by rows closed
    weights = []
    for r in range(rows + 1):
        if r:  # one more open row above
            stays, closings = weights[-1]
            grown = [stays[3]] + closings[3]
            over_b = [rq * x + y for x, y in zip(over_b + [0], grown)]
            over_d = [ru * x + y for x, y in zip(over_d + [0], grown)]
        a, g = ra * ru ** r, rg * rq ** r
        b, d = [fb * x for x in over_b], [fd * x for x in over_d]
        weights.append(((0, a, g, a + g), ([], b, d, [x + y for x, y in zip(b, d)])))
    return weights


def type_laws(n: int, rates: Sequence[int], readings: Sequence[str]) -> List[Pmf]:
    """The law of the size-n diagonal's type under each reading, the
    codes it counts as filled, from one sum of each column at the six
    integer rates (α, β, γ, δ, u, q)."""
    columns = [(j, _column_weights(j, n - j, rates)) for j in range(n, 0, -1)]
    laws = []
    for filled in readings:
        # the codes of type bit 0, then 1, as indices into the rows of a
        # column entry: (none, A, G, both), then (none, B, D, both)
        picks = [(("A" in codes) + 2 * ("G" in codes), ("B" in codes) + 2 * ("D" in codes))
                 for codes in ([code for code in "AGBD" if code not in filled], filled)]
        states: Dict[int, List[int]] = {0: [1]}  # by closed-row count
        for j, weights in columns:
            halves: Dict[Tuple[int, int], List[int]] = {}  # by (closed count, bit)
            for closed, vec in states.items():
                stays, closings = weights[n - j - closed]
                for bit, (stay, closing) in enumerate(picks):
                    for closes, weight in enumerate([stays[stay]] + closings[closing]):
                        if weight:
                            key = (closed + closes, bit)
                            old = halves.get(key)
                            halves[key] = ([x * weight for x in vec] if old is None
                                           else [y + x * weight for x, y in zip(vec, old)])
            states = {}
            for (closed, bit), half in halves.items():
                if closed not in states:
                    states[closed] = [0] * (2 * len(half))
                states[closed][bit::2] = half
        totals = [sum(weights) for weights in zip(*states.values())]
        laws.append(Pmf.from_integers(totals, sum(totals)))
    return laws

"""Exact and statistical checks for the tableau samplers."""

import bisect
import gc
import hashlib
import itertools
import math
import random
import sys
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest

from staircase_lab import _budget, dpcount, sampler
from staircase_lab.constraints import ConstraintSet, Requirement
from staircase_lab.core import Tableau, diagonal_statistic, staircase_boxes
from staircase_lab.enumeration import all_tableaux
from staircase_lab.measure import FourWeights, Weights
from staircase_lab.sampler import (
    EmpiricalLaw,
    empirical_pmf,
    randomize_four_params,
    sample,
    sample_many,
)
from test_acceptance import _Completions, _split, _walk_probability

WEIGHTS = [Weights(1, 1), Weights(F(1, 2), 3), Weights(0, 1),
           # scaled factors far above every plan prime
           Weights(F(1, 2 ** 31 + 11), F(7, 3 * 2 ** 30 + 1))]

#: sha256 over the fixed-seed draws of test_fixed_seed_draws_are_pinned,
#: recorded while the chain-rule walk still read kept tables whose prime
#: plan was sized from (3 * largest factor)^boxes.  Draws read only exact
#: counts, so no change of how they are found may move them.
GOLDEN_DRAWS = "56a67e7f0d323d0fa6df2a7469e7a56cc19d9be6a2089d7adf028904b6ca92cc"
#: sha256 over the fixed-seed draws of test_fixed_seed_alias_draws_are_pinned,
#: recorded while enum_alias still kept its own rows per (n, weights).
GOLDEN_ALIAS_DRAWS = "217526ad30e04d31031d7bf6e8bdda0d7a2a254a0633e13f9cdd702ffb0a8d5b"
#: sha256 over the fixed-seed draws of test_fixed_seed_large_draws_are_pinned,
#: recorded while the chain-rule walker still drew through _below and kept
#: the count after a symbol per box and mask.
GOLDEN_LARGE_DRAWS = "57c540262b484ce8397aab46d8d1562f5bedcb8ce8763c1ee4628a751601a6b5"
GOLDEN_WEIGHTS = [Weights(1, 1), Weights(F(1, 2), 3), Weights(0, 1), Weights(F(5, 2), 0),
                  Weights(F(13, 7), F(1000, 3)), Weights(3, F(1, 2)),
                  Weights(F(2, 7), F(5, 3)), Weights(0, F(4, 9))]
#: Factors far above 2^64: at n = 6 their counts need a plan of 24 moduli.
LARGE = Weights(F(1, 2 ** 63 + 11), F(7, 3 * 2 ** 62 + 1))


def _chain_probability(n, w, t):
    """Product of the chain sampler's conditionals along t's own path."""
    tables = _Completions(n, w)
    prob = F(1)
    mask, count = 0, tables.total
    for j in range(1, n + 1):
        height = n + 1 - j
        above = 0
        for i in range(1, height + 1):
            choices = _split(tables, j, i, mask, above, count)
            assert sum(c[1] for c in choices) == count
            code = t.rows[i - 1][j - 1]
            match = [c for c in choices if c[0] == code]
            if not match:
                return F(0)
            _, weight, mask, above, after = match[0]
            prob *= F(weight, count)
            count = after
        mask &= (1 << (height - 1)) - 1
    return prob


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("w", WEIGHTS)
def test_chain_conditionals_reproduce_the_measure(n, w):
    walked = [_chain_probability(n, w, t) for t in all_tableaux(n)]
    assert sum(walked) == 1
    for t, p in zip(all_tableaux(n), walked):
        assert p == w.prob(t)


def test_chain_walk_refuses_a_count_its_moves_do_not_match():
    tables = _Completions(3, Weights(1, 1))
    right = _split(tables, 1, 1, 0, 0, tables.total)[0][-1]  # after "."
    assert sum(c[1] for c in _split(tables, 1, 2, 0, 0, right)) == right
    with pytest.raises(RuntimeError, match="completion count"):
        _split(tables, 1, 2, 0, 0, 1)  # less than the symbol moves weigh
    with pytest.raises(RuntimeError, match="completion count"):
        _split(tables, 3, 1, 0, 0, 3)  # the diagonal box weighs 2 in all


def test_chain_counts_split_exactly_with_large_factors():
    n, w = 6, LARGE
    tables = _Completions(n, w)
    assert len(dpcount._moduli(dpcount.ScaledWeights.of(w).total_bound(n))) == 24
    memo = {}
    for t in all_tableaux(n):
        assert _walk_probability(n, t, tables, memo) == w.prob(t), t


def _prefixes(n, w):
    """For each box (i, j) and dirty-row mask just after a symbol lands
    there with positive weight, one filling of the boxes walked so far
    that gets there, by box, and its weight at the q^(2n) scale."""
    factors = dpcount.ScaledWeights.of(w).factors()[0]
    states, out = {0: ({}, 1)}, {}  # by mask, on entering a column
    for j in range(1, n + 1):
        height = n + 1 - j
        states = {(0, mask): walked for mask, walked in states.items()}
        for i in range(1, height + 1):
            after = {}
            for (above, mask), (cells, weight) in states.items():
                if i < height:
                    after.setdefault((above, mask), ({**cells, (i, j): "."}, weight))
                for code, k in sampler._OPEN_MOVES[above][mask >> (i - 1) & 1]:
                    if factors[k]:
                        landed = ({**cells, (i, j): code}, weight * factors[k])
                        after.setdefault((1, mask | 1 << (i - 1)), landed)
                        out.setdefault((j, i, mask | 1 << (i - 1)), landed)
            states = after
        keep = (1 << (height - 1)) - 1
        states = {mask & keep: walked for (_, mask), walked in states.items()}
    return out


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("w", GOLDEN_WEIGHTS + [LARGE])
def test_closed_form_counts_match_the_counting_kernel(n, w):
    # the kernel's count after a pinned prefix is the prefix's weight times
    # its completion count; the walker reads the closed form's counts, as
    # its draw-for-draw match with _reference_chain shows
    pinned = {".": Requirement.MUST_EMPTY, "A": Requirement.MUST_ALPHA,
              "B": Requirement.MUST_BETA}
    scale, closed = dpcount.ScaledWeights.of(w).q ** (2 * n), _Completions(n, w)
    prefixes = _prefixes(n, w)
    assert {(j, i) for j, i, _ in prefixes} == {(j, i) for i, j in staircase_boxes(n)}
    for (j, i, mask), (cells, weight) in prefixes.items():
        event = ConstraintSet.of(n, {box: pinned[code] for box, code in cells.items()})
        count = dpcount.constrained_partition(n, w, event) * scale / weight
        assert count == closed.after(j, i, mask), (j, i, mask)


def _reference_chain(n, w, rng, count):
    """The batch walk that shared each state's choice list, kept as the
    reference the walker must match draw for draw."""
    tables = _Completions(n, w)
    grids = [[] for _ in range(count)]
    masks = [0] * count
    counts = [tables.total] * count
    for j in range(1, n + 1):
        height = n + 1 - j
        flags = [0] * count
        cells = [[] for _ in range(count)]
        for i in range(1, height + 1):
            memo = {}
            for k in range(count):
                key = (masks[k], flags[k])
                choices = memo.get(key)
                if choices is None:
                    choices = memo[key] = _split(tables, j, i, *key, counts[k])
                draw = rng.randrange(counts[k])
                for code, weight, mask, flag, after in choices:
                    if draw < weight:
                        break
                    draw -= weight
                cells[k].append(code)
                masks[k], flags[k], counts[k] = mask, flag, after
        keep = (1 << (height - 1)) - 1
        for k in range(count):
            grids[k].append("".join(cells[k]))
            masks[k] &= keep
    return [Tableau(tuple(map("".join, itertools.zip_longest(*grid, fillvalue=""))))
            for grid in grids]


class _Drawn(int):
    """Bits drawn from a :class:`_Logging` stream, which log the right
    operand of every ``>=`` they meet: a rejection loop's bound."""

    def __ge__(self, bound):
        self.log.append(bound)
        return super().__ge__(bound)


class _Logging(random.Random):
    """A stream that logs the bound of every attempt to draw below one,
    whether ``randrange`` or the library makes it: both reject a draw
    by ``draw >= bound``."""

    def __init__(self, seed):
        super().__init__(seed)
        self.bounds = []

    def getrandbits(self, k):
        drawn = _Drawn(super().getrandbits(k))
        drawn.log = self.bounds
        return drawn


def _assert_walks_match(n, w, count, seed, method="chain_rule", reference=_reference_chain):
    new, old = _Logging(seed), _Logging(seed)
    drawn = sample_many(n, w, new, count, method)
    assert drawn == reference(n, w, old, count)
    draws = count * (n * (n + 1) // 2 if method == "chain_rule" else 1)
    assert len(old.bounds) >= draws  # an attempt or more per draw
    assert new.bounds == old.bounds  # the same attempts, below the same bounds
    assert new.getstate() == old.getstate()


class _Complemented(random.Random):
    """A stream whose own getrandbits, which randrange then draws
    with, hands out the complement of the Mersenne Twister's bits."""

    def getrandbits(self, k):
        return super().getrandbits(k) ^ ((1 << k) - 1)


#: Bounds on both sides of the word sizes getrandbits fills, up to
#: 1000 bits: 2^k - 1 takes k bits, 2^k and 2^k + 1 take k + 1.
BELOW_BOUNDS = [1, 2, 3] + [2 ** k + d for k in (31, 32, 33, 63, 64, 65, 1000)
                            for d in (-1, 0, 1)]


@pytest.mark.parametrize("stream", [random.Random, _Complemented])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 70 + 3, "below"])
def test_below_draws_as_randrange(stream, seed):
    mine, theirs = stream(seed), stream(seed)
    for bound in BELOW_BOUNDS * 3:
        assert sampler._below(mine.getrandbits, bound) == theirs.randrange(bound)
        assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("bound", [0, -1])
def test_below_refuses_an_empty_range(bound):
    rng = random.Random(0)
    with pytest.raises(ValueError, match="positive bound"):
        sampler._below(rng.getrandbits, bound)
    assert rng.getstate() == random.Random(0).getstate()


@pytest.mark.parametrize("n", range(1, 13))
def test_chain_walk_matches_the_reference_draw_for_draw(n):
    for k, w in enumerate(GOLDEN_WEIGHTS):
        for count in (1, 2, 5, 64):
            _assert_walks_match(n, w, count, 1000 * n + 10 * k + count)


def test_chain_walk_matches_the_reference_on_large_batches_and_plans():
    _assert_walks_match(6, Weights(F(1, 2), 3), 1000, 6)
    for count in (1, 5, 64):
        _assert_walks_match(6, LARGE, count, count)


def _flat_alias(n, w, rng, count):
    """The flat inversion the tree descent replaced: one draw below the
    total per sample, bisected into running sums of the q^(2n)-scaled
    weights of all_tableaux(n)."""
    scaled = dpcount.ScaledWeights.of(w)
    tableaux = all_tableaux(n)
    cumulative = list(itertools.accumulate(
        scaled.pa ** (n - c.alpha) * scaled.pb ** (n - c.beta) * scaled.q ** (c.alpha + c.beta)
        for c in map(Tableau.symbol_counts, tableaux)))
    return [tableaux[bisect.bisect_right(cumulative, rng.randrange(cumulative[-1]))]
            for _ in range(count)]


@pytest.mark.parametrize("n", range(1, 8))
def test_alias_descent_matches_the_flat_inversion_draw_for_draw(n):
    for k, w in enumerate(GOLDEN_WEIGHTS):
        for count in (1, 5, 64):
            _assert_walks_match(n, w, count, 1000 * n + 10 * k + count, "enum_alias",
                                _flat_alias)


def test_chain_walk_refuses_a_zero_count(monkeypatch):
    # getrandbits(0) is 0, so a walker that drew below a count of 0 as
    # _below draws would never leave its loop
    monkeypatch.setattr(sampler.ScaledWeights, "total", lambda self, n: 0)
    rng = random.Random(3)
    with pytest.raises(ValueError, match="need a positive bound to draw below, got 0"):
        sample_many(3, Weights(1, 1), rng, 2)
    assert rng.getstate() == random.Random(3).getstate()


@pytest.mark.parametrize("w", [Weights(1, 1), LARGE])
@pytest.mark.parametrize("delta", [1, -1])
def test_chain_walk_refuses_a_corrupted_count(monkeypatch, w, delta):
    # every walk reads the last column's one count, in its diagonal box;
    # one unit more and the symbol moves outweigh the count, one less
    # and they leave the box a share it may not take
    n, tails = 3, sampler._tails
    first = sample_many(n, w, random.Random(3), 8)
    monkeypatch.setattr(sampler, "_tails", lambda height, *rest: (
        [tails(height, *rest)[0] + delta] if height == 1 else tails(height, *rest)))
    with pytest.raises(RuntimeError, match="do not add up"):
        sample_many(n, w, random.Random(3), 8)
    monkeypatch.setattr(sampler, "_tails", tails)
    assert sample_many(n, w, random.Random(3), 8) == first


@pytest.mark.parametrize("method", ["enum_alias", "chain_rule"])
def test_seed_replay_is_identical(method):
    w = Weights(F(1, 2), 3)
    first = sample_many(5, w, random.Random(123), 50, method)
    second = sample_many(5, w, random.Random(123), 50, method)
    assert first == second
    singles = [sample(5, w, random.Random(9), method) for _ in range(3)]
    assert singles[0] == singles[1] == singles[2]


def test_fixed_seed_draws_are_pinned():
    digest = hashlib.sha256()
    for n in (1, 2, 3, 5, 8, 10, 12, 14):
        for k, w in enumerate(GOLDEN_WEIGHTS):
            rng = random.Random(100 * n + k)
            for t in sample_many(n, w, rng, 12) + [sample(n, w, rng) for _ in range(2)]:
                digest.update(("/".join(t.rows) + "\n").encode())
    assert digest.hexdigest() == GOLDEN_DRAWS


def test_fixed_seed_large_draws_are_pinned():
    # the sizes above the draw-for-draw tests, up to N_CHAIN
    digest = hashlib.sha256()
    for n in (16, 18, 20, 22):
        for k, w in enumerate(GOLDEN_WEIGHTS + [LARGE]):
            rng = random.Random(100 * n + k)
            for t in sample_many(n, w, rng, 3) + [sample(n, w, rng)]:
                digest.update(("/".join(t.rows) + "\n").encode())
    assert digest.hexdigest() == GOLDEN_LARGE_DRAWS


def test_fixed_seed_alias_draws_are_pinned():
    digest = hashlib.sha256()
    for n in (1, 2, 3, 5, 6, 7):
        for k, w in enumerate(GOLDEN_WEIGHTS[:5]):
            rng = random.Random(100 * n + k)
            draws = sample_many(n, w, rng, 12, "enum_alias")
            draws += [sample(n, w, rng, "enum_alias") for _ in range(2)]
            for t in draws:
                digest.update(("/".join(t.rows) + "\n").encode())
    assert digest.hexdigest() == GOLDEN_ALIAS_DRAWS


def test_alias_refuses_a_table_over_budget_before_allocating(monkeypatch, fresh_ledger):
    ledger = fresh_ledger()
    monkeypatch.setattr(_budget, "_MEM_BUDGET", sampler._shape_bytes(9) // 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^the enumeration tree for n=9 would need "
                                             "about [0-9.]+ MB; "):
            sample(9, Weights(1, 1), random.Random(0), "enum_alias")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert not ledger.kept and ledger.held == 0


def test_alias_draws_at_size_nine_are_valid():
    draws = sample_many(9, Weights(F(13, 7), F(2, 5)), random.Random(9), 40, "enum_alias")
    assert all(t.n == 9 and t.is_valid for t in draws)
    assert len({t.rows for t in draws}) > 1


def test_memory_budget_is_checked_before_allocating(monkeypatch, fresh_ledger):
    fresh_ledger()  # the n = 8 tree, which other tests keep, must be built
    monkeypatch.setattr(_budget, "_MEM_BUDGET", 1000)
    w = Weights(F(7, 11), F(3, 13))
    with pytest.raises(ValueError, match="MB"):
        dpcount.statistic_pmf(8, w, "X2")
    with pytest.raises(ValueError, match="MB"):
        sample(8, w, random.Random(0), "enum_alias")


def test_chain_draws_run_no_kernel_pass_and_keep_nothing(monkeypatch, fresh_ledger):
    ledger = fresh_ledger()

    def refused(*args, **kwargs):
        raise AssertionError("a chain-rule draw ran a counting pass")

    monkeypatch.setattr(dpcount, "_sweep", refused)
    monkeypatch.setattr(_budget, "_MEM_BUDGET", 0)
    # plans of three and of 53 moduli, and one the old tables could not keep
    for n, w in ((9, Weights(F(13, 7), F(1000, 3))),
                 (13, Weights(F(1, 2 ** 61 - 1), F(7, 3 * 2 ** 60 + 1))),
                 (22, Weights(F(13, 7), F(1000, 3)))):
        assert len(dpcount._moduli(dpcount.ScaledWeights.of(w).total_bound(n))) > 1
        assert all(t.is_valid for t in sample_many(n, w, random.Random(1), 5))
    assert not ledger.kept and ledger.held == ledger.reserved == 0


def _kept(ledger, build):
    """The keys of the tables of ``build`` that the ledger keeps, oldest first."""
    return [key[1:] for key in ledger.kept if key[0] is build]


def _charged(ledger):
    """What the ledger's kept trees are charged by their estimate."""
    return sum(sampler._shape_bytes(*key[1:]) for key in ledger.kept)


def test_cache_evicts_the_least_recently_used_table(monkeypatch, fresh_ledger):
    ledger = fresh_ledger()
    # room for the trees at n = 5 and 7 and half the one at n = 6
    monkeypatch.setattr(_budget, "_MEM_BUDGET", sum(map(sampler._shape_bytes, (5, 7)))
                        + sampler._shape_bytes(6) // 2)
    for n in (5, 6, 5, 7):  # the n = 5 tree read again: now the most recently used
        sample(n, Weights(F(1, 2), 3), random.Random(0), "enum_alias")
    assert _kept(ledger, sampler._alias_shape) == [(5,), (7,)]
    assert ledger.held == _charged(ledger)


def test_budget_evicts_before_it_refuses(monkeypatch, fresh_ledger):
    ledger = fresh_ledger()
    first, second = sampler._shape_bytes(6), sampler._shape_bytes(7)
    # room for the tree at n = 7 and not for the one at n = 6 beside it;
    # the tree at n = 9 exceeds the whole budget
    monkeypatch.setattr(_budget, "_MEM_BUDGET", second + first // 2)
    sample(6, Weights(1, 1), random.Random(0), "enum_alias")
    sample(7, Weights(2, 1), random.Random(0), "enum_alias")
    kept = [(sampler._alias_shape, 7)]
    assert list(ledger.kept) == kept
    assert ledger.held == second
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MB"):
            sample(9, Weights(1, 1), random.Random(0), "enum_alias")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert list(ledger.kept) == kept


def _shape_leaves(shape, j=0, mask=0, columns=(), codes=()):
    """Every path down the shape from column j on ``mask``, in order:
    its columns and its codes."""
    if j == len(shape):
        yield columns, codes
        return
    fillings, starts = shape[j]
    for column, after, code in fillings[starts[mask]:starts[mask + 1]]:
        yield from _shape_leaves(shape, j + 1, after, columns + (column,), codes + (code,))


@pytest.mark.parametrize("n", range(1, 8))
def test_alias_shape_leaves_are_the_tableaux_with_their_weights(n):
    shape = sampler._alias_shape(n)
    leaves = list(_shape_leaves(shape))
    assert [tuple(map("".join, itertools.zip_longest(*columns, fillvalue="")))
            for columns, _ in leaves] == [t.rows for t in all_tableaux(n)]
    # a product reads only the codes, a weight only the symbol counts
    kinds = {}
    for (_, codes), t in zip(leaves, all_tableaux(n)):
        kinds.setdefault((tuple(sorted(codes)), t.symbol_counts()), t)
    for w in GOLDEN_WEIGHTS:
        sums, factors = _backward_sums(n, w)
        scale = dpcount.ScaledWeights.of(w).q ** (2 * n)
        for (codes, _), t in kinds.items():
            assert math.prod(factors[code] for code in codes) == w.tableau_weight(t) * scale
        assert sums[0][-1] == w.normalizer(n) * scale


@pytest.mark.parametrize("n", [6, 7, 9])
def test_alias_shape_estimate_is_tight(n):
    gc.collect()
    tracemalloc.start()
    try:
        shape = sampler._alias_shape(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(fillings) for fillings, _ in shape) == 2 ** n + (3 ** n - 3) // 2
    assert peak <= sampler._shape_bytes(n) <= 1.3 * peak


def _backward_sums(n, w):
    """The running sums enum_alias once kept per weight pair, from one
    backward pass over the whole tree: per column, from 0 across all its
    masks, each filling's factor times the weight of its subtree; and
    the factor of each code."""
    scaled = dpcount.ScaledWeights.of(w)
    factors = [kind * scaled.q ** symbols for symbols in range(n + 1)
               for kind in (scaled.pa, scaled.pb, 1)]
    sums, below = [], [1]  # below: by mask, the subtree weights one column on
    for fillings, starts in reversed(sampler._alias_shape(n)):
        sums.append(list(itertools.accumulate(
            (factors[code] * below[after] for _, after, code in fillings), initial=0)))
        below = [sums[-1][hi] - sums[-1][lo] for lo, hi in zip(starts, starts[1:])]
    assert below == [scaled.total(n)]
    return sums[::-1], factors


class _Steered(random.Random):
    """A stream whose ``getrandbits`` gives the listed integers in turn."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = iter(draws)

    def getrandbits(self, bits):
        return next(self.draws)


@pytest.mark.parametrize("n", range(1, 9))
def test_per_call_sums_match_the_backward_pass_at_every_state(monkeypatch, n):
    # one steered draw per state, on the first path down the tree that
    # reaches it with no share left over; the sums the draws bisect at
    # their target states are the backward pass's, shifted to start at 0
    shape = sampler._alias_shape(n)
    bisected = []

    def spy(running, draw):
        bisected.append(running)
        return bisect.bisect_right(running, draw)

    monkeypatch.setattr(sampler, "bisect", types.SimpleNamespace(bisect_right=spy))
    for w in GOLDEN_WEIGHTS + [Weights(0, F(1000, 3)), Weights(F(13, 7), 0)]:
        sums, factors = _backward_sums(n, w)
        paths = {(0, 0): []}  # per state (column, mask): (share, factor) per pick
        for j, (fillings, starts) in enumerate(shape[:-1]):
            for mask in [m for c, m in list(paths) if c == j]:
                lo = starts[mask]
                for k in range(lo, starts[mask + 1]):
                    _, after, code = fillings[k]
                    if factors[code]:
                        paths.setdefault((j + 1, after), paths[j, mask] + [
                            (sums[j][k] - sums[j][lo], factors[code])])
        assert len(paths) == 2 ** n - 1  # every state
        draws = []
        for path in paths.values():
            draw = 0
            for share, factor in reversed(path):
                draw = share + factor * draw
            draws.append(draw)
        bisected.clear()
        sample_many(n, w, _Steered(draws), len(draws), "enum_alias")
        for d, (j, mask) in enumerate(paths):
            lo, hi = shape[j][1][mask], shape[j][1][mask + 1]
            assert bisected[d * n + j] == [s - sums[j][lo] for s in sums[j][lo:hi + 1]]


def test_a_tree_missing_a_filling_fails_the_state_check(fresh_ledger):
    fresh_ledger()
    n, w = 5, Weights(F(1, 2), 3)
    first = sample_many(n, w, random.Random(5), 64, "enum_alias")
    fillings, starts = _budget.get(sampler._alias_shape, sampler._shape_bytes, "", n)[-1]
    for mask in (0, 1):  # each draw ends on one of the last column's two states
        dropped = fillings.pop(starts[mask])
        starts[mask + 1:] = [start - 1 for start in starts[mask + 1:]]
        try:
            with pytest.raises(RuntimeError, match="^alias weights do not add up to the "
                                                   "completion count$"):
                sample_many(n, w, random.Random(5), 64, "enum_alias")
        finally:
            fillings.insert(starts[mask], dropped)
            starts[mask + 1:] = [start + 1 for start in starts[mask + 1:]]
    assert sample_many(n, w, random.Random(5), 64, "enum_alias") == first


def test_draws_on_fresh_weights_keep_only_the_trees(fresh_ledger):
    ledger = fresh_ledger()
    for k in range(20):
        for n in (3, 6):
            sample(n, Weights(F(k, 3), F(7, k + 1)), random.Random(k), "enum_alias")
    assert list(ledger.kept) == [(sampler._alias_shape, 3), (sampler._alias_shape, 6)]
    assert ledger.held == _charged(ledger)


def test_threads_on_distinct_keys_draw_as_a_serial_run(fresh_ledger):
    keys = [(method, n, w)
            for method, ns in (("chain_rule", (6, 8, 9)), ("enum_alias", (5, 6, 7)))
            for n in ns for w in WEIGHTS[:3]]

    def draws(k):
        method, n, w = keys[k]
        return sample_many(n, w, random.Random(k), 20, method)

    def run(workers):
        ledger = fresh_ledger()
        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(draws, k) for k in range(len(keys))]
            out = [f.result(timeout=120) for f in futures]
        return out, ledger

    serial = run(1)[0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded, ledger = run(4)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert sorted(_kept(ledger, sampler._alias_shape)) == [(5,), (6,), (7,)]  # 9 keys
    assert ledger.held == _charged(ledger)


@pytest.mark.parametrize("method", ["enum_alias", "chain_rule"])
def test_samples_are_valid_tableaux(method):
    rng = random.Random(4)
    for t in sample_many(6, Weights(F(2, 3), F(1, 2)), rng, 40, method):
        assert t.is_valid


def test_size_one_alpha_frequency():
    rng = random.Random(11)
    draws = 10_000
    alphas = sum(t.rows[0] == "A" for t in sample_many(1, Weights(1, 1), rng, draws))
    assert abs(alphas / draws - 0.5) <= 4 * math.sqrt(0.25 / draws)


@pytest.mark.parametrize("method", ["enum_alias", "chain_rule"])
def test_size_two_frequencies_within_four_sigma(method):
    n, w, draws = 2, Weights(F(1, 2), F(3, 2)), 60_000
    rng = random.Random(202)
    counts = {}
    for t in sample_many(n, w, rng, draws, method):
        counts[t.rows] = counts.get(t.rows, 0) + 1
    for t in all_tableaux(n):
        p = float(w.prob(t))
        observed = counts.get(t.rows, 0) / draws
        assert abs(observed - p) <= 4 * math.sqrt(p * (1 - p) / draws)


def test_method_and_size_validation():
    rng = random.Random(0)
    w = Weights(1, 1)
    with pytest.raises(ValueError):
        sample(10, w, rng, "enum_alias")
    with pytest.raises(ValueError):
        sample(23, w, rng, "chain_rule")
    with pytest.raises(ValueError):
        sample(3, w, rng, "magic")
    with pytest.raises(ValueError):
        sample_many(3, w, rng, 0)
    with pytest.raises(ValueError):
        empirical_pmf(3, w, "X2", 0, rng)
    for bad in (True, 2.0, "3"):
        for method in ("enum_alias", "chain_rule"):
            with pytest.raises(ValueError, match=f"count must be an int, got {bad!r}"):
                sample_many(3, w, rng, bad, method)
        with pytest.raises(ValueError, match=f"samples must be an int, got {bad!r}"):
            empirical_pmf(3, w, "X2", bad, rng)
    # a size that is a bool or not an int: True once drew size-1 tableaux
    for bad in (True, 2.0, "3"):
        for method in ("enum_alias", "chain_rule"):
            with pytest.raises(ValueError, match=f"size must be an int, got {bad!r}"):
                sample_many(bad, w, rng, 2, method)
            with pytest.raises(ValueError, match=f"size must be an int, got {bad!r}"):
                sample(bad, w, rng, method)


@pytest.mark.parametrize("bad", [None, random, object(), "seed"])
def test_a_stream_that_is_not_a_random_is_refused_before_any_table(fresh_ledger, bad):
    ledger = fresh_ledger()
    w = Weights(F(3, 5), F(7, 2))
    for call in (lambda: sample_many(14, w, bad, 2),
                 lambda: sample_many(6, w, bad, 2, "enum_alias"),
                 lambda: sample(9, w, bad),
                 lambda: empirical_pmf(5, w, "X2", 10, bad),
                 lambda: randomize_four_params(Tableau(("BA", "B")),
                                               FourWeights(1, 1, 1, 1), bad)):
        with pytest.raises(ValueError, match=f"rng must be a random.Random, got {bad!r}"):
            call()
    assert not ledger.kept and ledger.held == 0


def test_randomize_four_params_flips_exactly():
    t = Tableau(("BA", "B"))
    rng = random.Random(5)
    fw = FourWeights(1, 1, 0, 0)
    assert randomize_four_params(t, fw, rng) == t

    fw = FourWeights(0, 0, 1, 1)
    flipped = randomize_four_params(t, fw, rng)
    assert flipped.rows == ("DG", "D")

    fw = FourWeights(2, 1, 1, 3)
    draws = 40_000
    rng = random.Random(77)
    alpha_cells = gamma_cells = 0
    for s in sample_many(3, Weights(F(1, 3), F(1, 4)), rng, draws):
        four = randomize_four_params(s, fw, rng)
        counts = four.symbol_counts()
        alpha_cells += counts.alpha
        gamma_cells += counts.gamma
    total = alpha_cells + gamma_cells
    p = 1 / 3  # gamma / (alpha + gamma)
    assert abs(gamma_cells / total - p) <= 4 * math.sqrt(p * (1 - p) / total)


def test_composed_size_one_law_is_uniform():
    fw = FourWeights(1, 1, 1, 1)
    merged = fw.merged()
    w = Weights.from_alpha_beta(merged.alpha, merged.beta)
    rng = random.Random(31)
    draws = 100_000
    counts = {"A": 0, "B": 0, "G": 0, "D": 0}
    for t in sample_many(1, w, rng, draws):
        counts[randomize_four_params(t, fw, rng).rows[0]] += 1
    chi2 = sum((c - draws / 4) ** 2 / (draws / 4) for c in counts.values())
    assert chi2 < 16.27  # 99.9th percentile of chi-square with 3 dof


def test_empirical_matches_exact_law():
    n, w, draws = 6, Weights(1, 1), 100_000
    exact = dpcount.statistic_pmf(n, w, "X2")
    law = empirical_pmf(n, w, "X2", draws, random.Random(606), "chain_rule")
    assert isinstance(law, EmpiricalLaw)
    assert law.draws == draws
    assert law.pmf.tv_distance(exact) < 0.01
    assert all(se < 0.01 for se in law.stderr)


def test_backends_agree_on_statistic_law():
    n, w, draws = 6, Weights(F(1, 2), 3), 100_000
    via_enum = empirical_pmf(n, w, "A2", draws, random.Random(71), "enum_alias")
    via_chain = empirical_pmf(n, w, "A2", draws, random.Random(72), "chain_rule")
    assert via_enum.pmf.tv_distance(via_chain.pmf) < 0.015


def test_large_chain_mean_matches_counting_engine():
    n, w, draws = 16, Weights(1, 1), 20_000
    exact = dpcount.statistic_pmf(n, w, "X3")
    mean, second = float(exact.mean()), float(exact.factorial_moment(2))
    variance = second + mean - mean * mean
    values = [
        diagonal_statistic(t, "X3")
        for t in sample_many(n, w, random.Random(1616), draws)
    ]
    observed = sum(values) / draws
    assert abs(observed - mean) <= 4 * math.sqrt(variance / draws)

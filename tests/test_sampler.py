"""Exact and statistical checks for the tableau samplers."""

import gc
import hashlib
import itertools
import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest

from staircase_lab import _budget, dpcount, enumeration, sampler
from staircase_lab.core import Tableau, diagonal_statistic
from staircase_lab.enumeration import all_tableaux
from staircase_lab.measure import FourWeights, Weights
from staircase_lab.sampler import (
    EmpiricalLaw,
    empirical_pmf,
    randomize_four_params,
    sample,
    sample_many,
)
from test_acceptance import _split, _walk_probability

WEIGHTS = [Weights(1, 1), Weights(F(1, 2), 3), Weights(0, 1),
           # scaled factors far above every plan prime
           Weights(F(1, 2 ** 31 + 11), F(7, 3 * 2 ** 30 + 1))]

#: sha256 over the fixed-seed draws of test_fixed_seed_draws_are_pinned,
#: recorded while the chain-rule tables still sized their own prime
#: plan from (3 * largest factor)^boxes.  Draws read only exact counts,
#: so no change of plan or kernel may move them.
GOLDEN_DRAWS = "56a67e7f0d323d0fa6df2a7469e7a56cc19d9be6a2089d7adf028904b6ca92cc"
#: sha256 over the fixed-seed draws of test_fixed_seed_alias_draws_are_pinned,
#: recorded while enum_alias still kept its own rows per (n, weights).
GOLDEN_ALIAS_DRAWS = "217526ad30e04d31031d7bf6e8bdda0d7a2a254a0633e13f9cdd702ffb0a8d5b"
GOLDEN_WEIGHTS = [Weights(1, 1), Weights(F(1, 2), 3), Weights(0, 1), Weights(F(5, 2), 0),
                  Weights(F(13, 7), F(1000, 3)), Weights(3, F(1, 2)),
                  Weights(F(2, 7), F(5, 3)), Weights(0, F(4, 9))]


def _chain_probability(n, w, t):
    """Product of the chain sampler's conditionals along t's own path."""
    tables = sampler._ChainTables(n, w)
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
    tables = sampler._ChainTables(3, Weights(1, 1))
    right = _split(tables, 1, 1, 0, 0, tables.total)[0][-1]  # after "."
    assert sum(c[1] for c in _split(tables, 1, 2, 0, 0, right)) == right
    with pytest.raises(RuntimeError, match="completion count"):
        _split(tables, 1, 2, 0, 0, 1)  # less than the symbol moves weigh
    with pytest.raises(RuntimeError, match="completion count"):
        _split(tables, 3, 1, 0, 0, 3)  # the diagonal box weighs 2 in all


def test_chain_counts_split_exactly_with_large_factors():
    # 24 moduli, each written into the tables by its own kernel pass,
    # with scaled factors far above every plan prime, so prime-plane
    # entries sum unreduced products of the size of p^2; every walk
    # reads all 24 rows of each slice it crosses
    n, w = 6, Weights(F(1, 2 ** 63 + 11), F(7, 3 * 2 ** 62 + 1))
    tables = sampler._ChainTables(n, w)
    assert len(tables.moduli) == 24
    memo = {}
    for t in all_tableaux(n):
        assert _walk_probability(n, t, tables, memo) == w.prob(t), t


def _reference_crt(residues, moduli):
    x, modulus = 0, 1
    for r, p in zip(residues, moduli):
        x += (r - x) * pow(modulus, -1, p) % p * modulus
        modulus *= p
    return x


def _reference_choices(tables, j, i, mask, above, count):
    """The per-state choice list the walker once built at every new
    state, read from the kept slices directly."""
    bit, height = 1 << (i - 1), tables.n + 1 - j
    out = []
    moves = sampler._OPEN_MOVES[above][mask >> (i - 1) & 1]
    if moves:
        row = tables.slices[j][i - 1][:, (mask >> i) << (i - 1) | mask & (bit - 1)].tolist()
        after = _reference_crt(row, tables.moduli) if len(row) > 1 else row[0]
        if tables.q > 1:
            after *= tables.powers[tables.n - j + (i < height)]
        out = [(code, weight, mask | bit, 1, after) for code, k in moves
               if (weight := tables.factors[k] * after)]
    rest = count - sum(move[1] for move in out)
    if rest < 0 or (rest and i == height):
        raise RuntimeError("chain-rule weights do not add up to the completion count")
    return ([(".", rest, mask, above, rest)] if rest else []) + out


def _reference_chain(n, w, rng, count):
    """The batch walk that shared each state's choice list, kept as the
    reference the walker must match draw for draw."""
    tables = _budget.get(sampler._ChainTables, sampler._chain_bytes, "reference", n, w)
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
                    choices = memo[key] = _reference_choices(tables, j, i, *key, counts[k])
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


class _Recording(random.Random):
    """A stream that logs every randrange bound it is asked for."""

    def __init__(self, seed):
        super().__init__(seed)
        self.bounds = []

    def randrange(self, *args):
        self.bounds.append(args)
        return super().randrange(*args)


def _assert_walks_match(n, w, count, seed):
    new, old = random.Random(seed), _Recording(seed)
    bounds, below = [], sampler._below

    def recorded(getrandbits, bound):
        assert getrandbits == new.getrandbits
        bounds.append((bound,))
        return below(getrandbits, bound)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler, "_below", recorded)
        drawn = sample_many(n, w, new, count)
    assert drawn == _reference_chain(n, w, old, count)
    assert bounds == old.bounds  # one draw below the walker's count per walker per box
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
    large = Weights(F(1, 2 ** 63 + 11), F(7, 3 * 2 ** 62 + 1))  # 24 moduli at n = 6
    for count in (1, 5, 64):
        _assert_walks_match(6, large, count, count)


@pytest.mark.parametrize("w, plane", [(Weights(1, 1), 0),
                                      (Weights(F(1, 2 ** 63 + 11), F(7, 3 * 2 ** 62 + 1)), 5)])
@pytest.mark.parametrize("delta", [1, -1])
def test_chain_walk_refuses_a_corrupted_count(fresh_ledger, w, plane, delta):
    # every walk reads the last column's one entry in its diagonal box;
    # one unit more and the symbol moves outweigh the count, one less
    # and they leave the box a share it may not take
    ledger = fresh_ledger()
    n = 3
    first = sample_many(n, w, random.Random(3), 8)
    tables = ledger.kept[(sampler._ChainTables, n, w)][0]
    assert sample_many(n, w, random.Random(3), 8) == first
    kept = tables.slices[n][0]
    kept[plane, 0] = int(kept[plane, 0]) + delta
    with pytest.raises(RuntimeError, match="do not add up"):
        sample_many(n, w, random.Random(3), 8)


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


def test_alias_refuses_size_nine_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="GB"):
            sample(9, Weights(1, 1), random.Random(0), "enum_alias")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_memory_budget_is_checked_before_allocating(monkeypatch):
    monkeypatch.setattr(_budget, "_MEM_BUDGET", 1000)
    w = Weights(F(7, 11), F(3, 13))  # no other test builds tables for it
    with pytest.raises(ValueError, match="GB"):
        dpcount.statistic_pmf(8, w, "X2")
    with pytest.raises(ValueError, match="GB"):
        sample(8, w, random.Random(0))


#: A plan of 53 moduli at n = 13, which the chain tables run in two
#: groups: every level of a pass stays under the kernel's group bound.
SPLIT_PLAN = Weights(F(1, 2 ** 61 - 1), F(7, 3 * 2 ** 60 + 1))


def test_warm_chain_call_runs_no_kernel_pass(monkeypatch, fresh_ledger):
    passes = []
    kernel = dpcount._sweep

    def counted(n, moduli, *rest, **kwargs):
        passes.append(moduli)
        return kernel(n, moduli, *rest, **kwargs)

    monkeypatch.setattr(dpcount, "_sweep", counted)
    # a plan of three in one pass, then one of 53 in two
    for n, w, groups in ((9, Weights(F(13, 7), F(1000, 3)), 1), (13, SPLIT_PLAN, 2)):
        fresh_ledger()
        moduli = dpcount.ScaledWeights.of(w).moduli(n)
        assert len(moduli) > 1
        first = sample_many(n, w, random.Random(1), 5)
        # one pass per group, the groups in plan order
        assert passes == dpcount._groups(moduli, 1, n) and sum(passes, ()) == moduli
        assert len(passes) == groups
        passes.clear()
        assert sample_many(n, w, random.Random(1), 5) == first
        assert passes == []


def _chain_keys(ledger):
    """The (n, w) keys of the chain-rule tables the ledger keeps, oldest first."""
    return [key[1:] for key in ledger.kept if key[0] is sampler._ChainTables]


def test_cache_evicts_the_least_recently_used_table(fresh_ledger):
    ledger = fresh_ledger()
    keys = [(3, Weights(k, 1)) for k in range(_budget._CACHE_SIZE + 1)]
    for key in keys[:-1]:
        sample(*key, random.Random(0))
    sample(*keys[0], random.Random(0))  # now the most recently used
    sample(*keys[-1], random.Random(0))
    assert list(ledger.kept) == [(sampler._ChainTables,) + key
                                 for key in keys[2:-1] + [keys[0], keys[-1]]]
    assert ledger.held == sum(sampler._chain_bytes(*key) for key in _chain_keys(ledger))


def test_budget_evicts_before_it_refuses(monkeypatch, fresh_ledger):
    ledger = fresh_ledger()
    first, second = (10, Weights(1, 1)), (10, Weights(2, 1))
    need = sampler._chain_bytes(*first)
    assert sampler._chain_bytes(*second) == need
    # each build's pass runs one modulus: room for one table and its
    # build's pass, not for a second table beside them
    moduli = dpcount.ScaledWeights.of(second[1]).moduli(10)
    assert moduli == dpcount.ScaledWeights.of(first[1]).moduli(10) == (2 ** 64,)
    sweep = dpcount._sweep_bytes(10, 1, moduli)
    monkeypatch.setattr(_budget, "_MEM_BUDGET", need + sweep + need // 2)
    sample(*first, random.Random(0))
    sample(*second, random.Random(0))
    assert list(ledger.kept) == [(sampler._ChainTables,) + second]
    assert ledger.held == need
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="GB"):
            sample(12, Weights(1, 1), random.Random(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert list(ledger.kept) == [(sampler._ChainTables,) + second]


@pytest.mark.parametrize("n", [10, 11, 12, 13])
@pytest.mark.parametrize("w", [Weights(1, 1), Weights(F(13, 7), F(1000, 3)), WEIGHTS[-1],
                               SPLIT_PLAN])
def test_chain_memory_estimate_is_tight(n, w):
    # one plane, one group of 4 or 5, one of 21 to 27, and a plan of 40
    # to 53 moduli, in one group up to n = 12 and in two of 26 and 27 at 13;
    # a build peaks at its table's charge plus its pass's reservation, and
    # the table it leaves is charged what it keeps
    charge = sampler._chain_bytes(n, w)
    sweep = dpcount._sweep_bytes(n, 1, dpcount.ScaledWeights.of(w).moduli(n))
    gc.collect()  # empty the free lists, so every allocation is traced
    tracemalloc.start()
    try:
        tables = sampler._ChainTables(n, w)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tables.slices
    assert peak <= charge + sweep <= 1.3 * peak
    assert kept <= charge <= 1.3 * kept


def test_chain_build_refuses_a_wrong_total(monkeypatch, fresh_ledger):
    ledger = fresh_ledger()
    kernel = dpcount._sweep

    def off_by_one(*args, **kwargs):
        residues = kernel(*args, **kwargs)
        residues[0][0] += 1
        return residues

    monkeypatch.setattr(dpcount, "_sweep", off_by_one)
    with pytest.raises(RuntimeError, match="partition total"):
        sample(6, Weights(F(13, 7), F(1000, 3)), random.Random(0))
    assert not ledger.kept and ledger.held == 0 and ledger.reserved == 0


def _kept_codes(n):
    return _budget.get(sampler._alias_codes, sampler._codes_bytes, "codes", n)


@pytest.mark.parametrize("n", range(1, 8))
def test_alias_codes_hold_each_tableau_s_symbol_counts(n):
    codes = _kept_codes(n)
    assert len(codes) == len(all_tableaux(n))
    for code, t in zip(codes, all_tableaux(n)):
        counts = t.symbol_counts()
        assert divmod(code, n + 1) == (counts.alpha, counts.beta)


@pytest.mark.parametrize("n", [6, 7])
def test_alias_code_estimate_is_tight(n):
    all_tableaux(n)  # charged on its own
    gc.collect()
    tracemalloc.start()
    try:
        codes = sampler._alias_codes(n)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(codes) == math.factorial(n + 1)
    assert kept <= peak <= sampler._codes_bytes(n) <= 1.3 * kept


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("w", [Weights(1, 1), Weights(F(1, 2), 3),
                               Weights(F(13, 7), F(1000, 3))])
def test_alias_memory_estimate_is_tight(n, w):
    _kept_codes(n)  # shared by every weight pair and charged on its own
    tracemalloc.start()
    try:
        sampler._alias_cumulative(n, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sampler._alias_bytes(n, w) <= 1.3 * peak


def test_threads_on_distinct_keys_draw_as_a_serial_run(fresh_ledger):
    keys = [(method, n, w)
            for method, ns in (("chain_rule", (6, 8, 9)), ("enum_alias", (5, 6)))
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
    assert len(_chain_keys(ledger)) == _budget._CACHE_SIZE  # 9 keys: one evicted
    estimates = {sampler._ChainTables: sampler._chain_bytes,
                 sampler._alias_cumulative: sampler._alias_bytes,
                 sampler._alias_codes: sampler._codes_bytes,
                 enumeration._build_list: enumeration._list_bytes}
    assert ledger.held == sum(estimates[key[0]](*key[1:]) for key in ledger.kept)


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

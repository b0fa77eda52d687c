"""End-to-end acceptance gate: ten criteria, one pass/fail line each.

Run ``pytest tests/test_acceptance.py -s`` to see the lines as the
checks execute.  Every exact claim is compared against an independent
route (enumeration, counting DP, or closed form); every asymptotic
claim is checked on a fixed size grid against numeric thresholds that
were derived by these same exact computations and then frozen with
headroom, so regressions show up as hard failures.
"""

import collections
import itertools
import math
import random
import time
from fractions import Fraction as F

from staircase_lab import asep, dpcount, formulas, moments, sampler
from staircase_lab.constraints import (
    ConstraintSet,
    Requirement,
    third_diag_event,
)
from staircase_lab.core import Tableau, staircase_boxes
from staircase_lab.enumeration import (
    all_tableaux,
    brute_partition,
    count_tableaux,
    enumerate_tableaux,
)
from staircase_lab.measure import FourWeights, Weights
from staircase_lab.formulas import partition_closed


def _line(idx: int, label: str, ok: bool) -> None:
    print(f"criterion {idx:2d}/10 {'pass' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {idx} failed: {label}"


def _profile_weights(w: Weights, n: int, keys) -> dict:
    return {(na, nb): w.a ** (n - na) * w.b ** (n - nb) for na, nb in keys}


def test_c01_partition_identities():
    rng = random.Random(101)

    def rational():
        return F(rng.randrange(0, 7), rng.randrange(1, 6))

    four, pairs = [], []
    while len(four) < 20:
        try:
            four.append(FourWeights(rational(), rational(), rational(),
                                    rational()))
        except ValueError:
            continue
    while len(pairs) < 20:
        try:
            pairs.append(Weights(rational(), rational()))
        except ValueError:
            continue
    ok = all(brute_partition(n, fw) == partition_closed(n, fw)
             for fw in four for n in range(1, 7))
    ok = ok and all(brute_partition(n, w) == partition_closed(n, w)
                    for w in pairs for n in range(1, 7))
    ok = ok and all(count_tableaux(n) == math.factorial(n + 1)
                    for n in range(1, 9))
    _line(1, "partition identities and tableau counts", ok)


def test_c02_box_laws_every_box():
    values = (F(1), F(1, 2), F(3), F(0))
    weight_grid = [Weights(a, b) for a in values for b in values if a or b]
    ok = True
    for n in range(1, 8):
        boxes = list(staircase_boxes(n))
        counts = collections.defaultdict(int)
        for t in enumerate_tableaux(n):
            sc = t.symbol_counts()
            key = (sc.alpha, sc.beta)
            for i, j in boxes:
                counts[(i, j, t.rows[i - 1][j - 1], key)] += 1
        keys = {prof for (_, _, _, prof) in counts}
        for w in weight_grid:
            z = w.normalizer(n)
            pw = _profile_weights(w, n, keys)
            law = {box: {"A": F(0), "B": F(0), ".": F(0)} for box in boxes}
            for (i, j, cell, key), c in counts.items():
                law[(i, j)][cell] += c * pw[key]
            for box in boxes:
                want = formulas.box_law(n, w, box)
                got = law[box]
                ok = ok and (got["A"] / z, got["B"] / z, got["."] / z) == \
                    (want.alpha, want.beta, want.empty)
    _line(2, "single-box laws at every box, sizes 1-7", ok)


def test_c03_second_diag_joint_laws():
    weight_grid = (Weights(1, 1), Weights(F(1, 2), 3), Weights(2, F(1, 3)))
    ok = True
    for n in range(2, 8):
        tuples = [cols for r in (1, 2, 3)
                  for cols in itertools.combinations(range(1, n), r)]
        counts = {(cols, kind): collections.defaultdict(int)
                  for cols in tuples for kind in ("alpha", "nonempty")}
        for t in enumerate_tableaux(n):
            sc = t.symbol_counts()
            key = (sc.alpha, sc.beta)
            diag = [t.rows[n - j - 1][j - 1] for j in range(1, n)]
            for cols in tuples:
                cells = [diag[j - 1] for j in cols]
                if all(c == "A" for c in cells):
                    counts[(cols, "alpha")][key] += 1
                if all(c != "." for c in cells):
                    counts[(cols, "nonempty")][key] += 1
        keys = {(sc.alpha, sc.beta)
                for sc in (t.symbol_counts() for t in all_tableaux(n))}
        for w in weight_grid:
            z = w.normalizer(n)
            pw = _profile_weights(w, n, keys)
            for cols in tuples:
                gap = min((c2 - c1 for c1, c2 in zip(cols, cols[1:])),
                          default=2)
                for kind, closed_form in (
                        ("alpha", formulas.second_diag_joint_alpha),
                        ("nonempty", formulas.second_diag_joint_nonempty)):
                    oracle = sum(c * pw[key] for key, c
                                 in counts[(cols, kind)].items()) / z
                    closed = closed_form(n, w, cols)
                    ok = ok and closed.value == oracle
                    if gap < 2:
                        ok = ok and closed.reason is not None and oracle == 0
                    else:
                        ok = ok and closed.reason is None
    _line(3, "second-diagonal joint laws for all tuples of up to 3 columns",
          ok)


def test_c04_gap_index_identity():
    ok = all(lhs == rhs for r in range(1, 5) for m in range(1, 31)
             for lhs, rhs in [formulas.gap_index_product_sum(r, m)])
    ok = ok and all(
        sum(1 for _ in formulas.gap_index_sets(r, m))
        == math.comb(max(m - r + 1, 0), r)
        for r in range(0, 7) for m in range(1, 41)
    )
    _line(4, "gap-constrained index sums and counts", ok)


def test_c05_structural_reductions():
    weight_grid = (Weights(1, 1), Weights(F(1, 2), 3))
    ok = True
    for n in range(1, 7):
        tabs = all_tableaux(n)
        for w in weight_grid:
            probs = [w.prob(t) for t in tabs]

            # unconditional pushforward of the kept corner after dropping
            # leading rows and columns is the smaller measure with shifted
            # parameters
            for i, j in staircase_boxes(n):
                m = n - i - j + 2
                shifted = Weights(w.a + i - 1, w.b + j - 1)
                push = collections.defaultdict(F)
                for t, p in zip(tabs, probs):
                    push[t.subtableau(i, j).rows] += p
                ok = ok and all(push[s.rows] == shifted.prob(s)
                                for s in all_tableaux(m))

            # an alpha in the bottom-left second-diagonal box pins both
            # leading columns, leaving a plain smaller measure behind
            if n >= 3:
                num, denom = collections.defaultdict(F), F(0)
                for t, p in zip(tabs, probs):
                    if t.rows[n - 2][0] == "A":
                        num[t.subtableau(1, 3).rows] += p
                        denom += p
                ok = ok and all(num[s.rows] == denom * w.prob(s)
                                for s in all_tableaux(n - 2))

            # a beta there instead removes one row and one column but
            # keeps the beta conditioning in the smaller ensemble
            if n >= 2:
                num, denom = collections.defaultdict(F), F(0)
                for t, p in zip(tabs, probs):
                    if t.rows[n - 2][0] == "B":
                        num[t.delete_row_col(n - 1, 2).rows] += p
                        denom += p
                rnum, rden = collections.defaultdict(F), F(0)
                for s in all_tableaux(n - 1):
                    if s.rows[n - 2][0] == "B":
                        q = w.prob(s)
                        rnum[s.rows] += q
                        rden += q
                ok = ok and set(num) == set(rnum) and all(
                    num[k] * rden == rnum[k] * denom for k in num)

    # swapping the bottom-left beta into the second column does not move
    # third-diagonal events as long as those stay in column 3 or beyond
    for n in range(5, 9):
        cols_list = [
            cols for r in (1, 2)
            for cols in itertools.combinations(range(3, n - 1), r)
        ]
        sides = collections.defaultdict(lambda: collections.defaultdict(int))
        for t in enumerate_tableaux(n):
            sc = t.symbol_counts()
            key = (sc.alpha, sc.beta)
            nonempty = {j: t.rows[n - j - 2][j - 1] != "."
                        for j in range(3, n - 1)}
            corner_empty = t.rows[n - 2][0] == "."
            corner_beta = t.rows[n - 1][0] == "B"
            shifted_beta = t.rows[n - 2][1] == "B"
            for cols in cols_list:
                if all(nonempty[j] for j in cols):
                    if corner_empty and corner_beta:
                        sides[(cols, "left")][key] += 1
                    if shifted_beta:
                        sides[(cols, "right")][key] += 1
        keys = {key for acc in sides.values() for key in acc}
        for w in weight_grid:
            pw = _profile_weights(w, n, keys)
            for cols in cols_list:
                left = sum(c * pw[key]
                           for key, c in sides[(cols, "left")].items())
                right = sum(c * pw[key]
                            for key, c in sides[(cols, "right")].items())
                ok = ok and left == right
    _line(5, "corner reduction and switch identities", ok)


def test_c06_second_diag_poisson_convergence():
    w = Weights(1, 1)
    grid = (8, 16, 32, 64, 128, 256)
    frozen_tv = {
        "X2": (0.094598260514, 0.046253522124, 0.023023971314,
               0.011500066401, 0.005748589593, 0.002874116948),
        "A2": (0.049391408189, 0.024893481509, 0.012531016106,
               0.006290496262, 0.003151973050, 0.001577727029),
    }
    ok = True
    for stat, lam in (("X2", F(1)), ("A2", F(1, 2))):
        tvs = [moments.tv_to_poisson(moments.exact_statistic_pmf(n, w, stat),
                                     lam) for n in grid]
        ok = ok and all(t1 > t2 for t1, t2 in zip(tvs, tvs[1:]))
        ok = ok and all(abs(got - want) < 1e-9
                        for got, want in zip(tvs, frozen_tv[stat]))
    # scaled moment deficits n * |mu_r - 2^-r| stay under a frozen constant
    # and drift little across the grid; the fourth moment is barely
    # populated at n = 8 (the count caps at 4 there), which is why its
    # drift allowance is the loose one
    c_bound = (1.05, 1.74, 1.81, 1.53)
    drift_bound = (1.2, 1.4, 1.95, 3.0)
    for r in range(1, 5):
        cs = [float(n * abs(
            moments.factorial_moments_second_diag(n, w, "alpha", r)[-1]
            - F(1, 2 ** r))) for n in grid]
        ok = ok and max(cs) <= c_bound[r - 1]
        ok = ok and max(cs) / min(cs) <= drift_bound[r - 1]
    _line(6, "Poisson limits on the second diagonal", ok)


def _adjacency_prob(n: int, w: Weights, k: int) -> F:
    nonempty = Requirement.MUST_NONEMPTY
    third, upper, lower = (n - k - 1, k), (n - k - 1, k + 1), (n - k, k)

    def p(boxes):
        event = ConstraintSet(n, tuple((box, nonempty) for box in boxes))
        return dpcount.event_prob(n, w, event)

    return p((third, upper)) + p((third, lower)) - p((third, upper, lower))


def test_c07_third_diag_main_terms():
    w = Weights(1, 1)
    ns = range(8, 19)
    ok = True
    # n^(r+1)-scaled gaps between the exact law and the main term, frozen
    # at 15% above the measured grid maxima
    frozen = {
        ("alpha", (1,)): 0.30, ("alpha", (3,)): 0.88,
        ("alpha", (1, 4)): 0.28, ("alpha", (2, 6)): 1.33,
        ("nonempty", (1,)): 1.09, ("nonempty", (3,)): 1.09,
        ("nonempty", (1, 4)): 2.54, ("nonempty", (2, 6)): 2.54,
    }
    for (kind, cols), bound in frozen.items():
        req = (Requirement.MUST_ALPHA if kind == "alpha"
               else Requirement.MUST_NONEMPTY)
        r = len(cols)
        for n in ns:
            exact = dpcount.event_prob(n, w, third_diag_event(n, cols, req))
            main = formulas.third_diag_main_term(n, w, cols, kind).value
            ok = ok and float(n ** (r + 1) * abs(exact - main)) <= bound
    # a filled third-diagonal box with a filled second-diagonal neighbour
    # is an n^-2 event; the scaled probability is 2n/(n+1), under 2
    for k in (1, 2):
        ok = ok and all(
            float(n ** 2 * _adjacency_prob(n, w, k)) <= 2.0 for n in ns)
    # exact factorial moments sit above the main-term moments; the gap
    # shrinks monotonically once past its early-grid peak (from n = 12 on
    # for r = 2, everywhere for r = 1)
    for kind, stat in (("alpha", "A3"), ("nonempty", "X3")):
        laws = {n: dpcount.statistic_pmf(n, w, stat) for n in ns}
        for r in (1, 2):
            gaps = [
                laws[n].factorial_moment(r)
                - moments.factorial_moments_third_diag(
                    n, w, kind, r, "main_term")[-1]
                for n in ns
            ]
            ok = ok and all(g > 0 for g in gaps)
            tail = gaps if r == 1 else gaps[4:]
            ok = ok and all(g1 > g2 for g1, g2 in zip(tail, tail[1:]))
    _line(7, "third-diagonal main terms and remainders", ok)


class _Completions:
    """The chain-rule walk's completion counts at the q^(2n) scale, by
    the row product: with g_r = pa + pb + (r - 1) q, a walk entering a
    column of height h on the dirty-row mask m has q^h times g_r of
    each clean row r <= h completions."""

    def __init__(self, n, w):
        scaled = dpcount.ScaledWeights.of(w)
        self.n, self.q, self.factors = n, scaled.q, scaled.factors()[0]
        self.total = scaled.total(n)
        self.g = [None] + [scaled.pa + scaled.pb + (r - 1) * scaled.q for r in range(1, n + 1)]

    def after(self, j, i, mask):
        """The count just after a symbol lands in box (i, j) on ``mask``:
        clean rows above it weigh g_r; below it, a clean row stays empty
        or takes a beta of weight q and then weighs 1, so g_r + q, and
        the diagonal box h must take that beta."""
        h, q, g = self.n + 1 - j, self.q, self.g
        clean = [r for r in range(1, h + 1) if not mask >> (r - 1) & 1]
        if i == h:
            return q ** (h - 1) * math.prod(g[r] for r in clean if r < h)
        if h not in clean:
            return 0
        return (q ** h * math.prod(g[r] for r in clean if r < i)
                * math.prod(g[r] + q for r in clean if i < r < h))


def _split(tables, j, i, mask, above, count):
    """(cell code, weight, next mask, next flag, count after) of each
    legal cell at box (i, j) with weight > 0, empty first, alpha before
    beta: the symbol moves open there, each weighing its factor times
    the one count after them, and the empty cell what they leave of
    ``count``, the state's exact completion count."""
    bit, height = 1 << (i - 1), tables.n + 1 - j
    out = []
    moves = sampler._OPEN_MOVES[above][mask >> (i - 1) & 1]
    if moves:
        after = tables.after(j, i, mask)
        out = [(code, weight, mask | bit, 1, after) for code, k in moves
               if (weight := tables.factors[k] * after)]
    rest = count - sum(c[1] for c in out)
    if rest < 0 or (rest and i == height):  # the diagonal box must fill
        raise RuntimeError("chain-rule weights do not add up to the completion count")
    return ([(".", rest, mask, above, rest)] if rest else []) + out


def _walk_probability(n, t, tables, memo):
    prob = F(1)
    mask, count = 0, tables.total
    for j in range(1, n + 1):
        height = n + 1 - j
        above = 0
        for i in range(1, height + 1):
            key = (j, i, mask, above)
            choices = memo.get(key)
            if choices is None:
                choices = memo[key] = _split(tables, j, i, mask, above, count)
            code = t.rows[i - 1][j - 1]
            match = [c for c in choices if c[0] == code]
            if not match:
                return F(0)
            _, weight, mask, above, after = match[0]
            prob *= F(weight, count)
            count = after
        mask &= (1 << (height - 1)) - 1
    return prob


def test_c08_sampler_exactness():
    ok = True
    for w in (Weights(1, 1), Weights(F(1, 2), 3)):
        for n in range(1, 7):
            tables = _Completions(n, w)
            memo = {}
            total = F(0)
            for t in all_tableaux(n):
                p = _walk_probability(n, t, tables, memo)
                ok = ok and p == w.prob(t)
                total += p
            ok = ok and total == 1
    rng = random.Random(20260814)
    w = Weights(1, 1)
    empirical = sampler.empirical_pmf(6, w, "X2", 100_000, rng)
    exact = moments.exact_statistic_pmf(6, w, "X2")
    ok = ok and float(empirical.pmf.tv_distance(exact)) < 0.01
    _line(8, "sampler reproduces the measure exactly and empirically", ok)


def test_c09_asep_bridge():
    rng = random.Random(77)
    ok = True
    accepted = 0
    while accepted < 12:
        rates = [F(rng.randrange(1, 9), rng.randrange(1, 5))
                 for _ in range(4)]
        if rates[2] == rates[3]:
            continue  # symmetric boundary rates satisfy both readings
        params = asep.AsepParams(*rates, u=1,
                                 q=F(rng.randrange(0, 4), rng.randrange(1, 5)))
        for n in (1, 2, 3):
            report = asep.cross_validate(n, params)
            ok = ok and report["matching_conventions"] == ["alpha_delta"]
        accepted += 1
    reference = Tableau(("A..G..A", ".....D", "..B.G", "...D", "..B", ".G",
                         "B"))
    ok = ok and asep.tableau_type(reference, "alpha_delta") == \
        (1, 1, 0, 1, 0, 0, 0)
    _line(9, "stationary law agrees between tableaux and generator", ok)


def test_c10_performance_budgets():
    w = Weights(F(1, 2), 3)
    start = time.perf_counter()
    full = dpcount.constrained_partition(20, w)
    dp_elapsed = time.perf_counter() - start
    ok = full == partition_closed(20, w) and dp_elapsed < 10.0
    start = time.perf_counter()
    streamed = sum(1 for _ in enumerate_tableaux(9))
    enum_elapsed = time.perf_counter() - start
    ok = ok and streamed == math.factorial(10) and enum_elapsed < 60.0
    _line(10, f"performance (size-20 count {dp_elapsed:.2f}s, "
          f"size-9 enumeration {enum_elapsed:.2f}s)", ok)

import gc
import itertools
import math
import random
import re
import sys
import threading
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from staircase_lab import dpcount
from staircase_lab.asep import AsepParams, steady_state_via_generator
from staircase_lab.constraints import (ConstraintSet, Requirement,
                                       second_diag_event, third_diag_event)
from staircase_lab.core import STATISTIC_NAMES, staircase_boxes
from staircase_lab._budget import _MEM_BUDGET
from staircase_lab.dpcount import (_GROUP_ENTRIES, _PRIME_LIMIT, N_DP, ScaledWeights,
                                   _crt, _garner, _groups, _is_prime, _primes_covering,
                                   _statistic_plan, _sweep_bytes, conditional_cell_law,
                                   constrained_partition, event_prob,
                                   statistic_pmf)
from staircase_lab.enumeration import (all_tableaux, oracle_event_prob,
                                       oracle_statistic_pmf)
from staircase_lab.formulas import (box_law, partition_closed,
                                    second_diag_joint_alpha,
                                    second_diag_joint_nonempty)
from staircase_lab.measure import Weights
from staircase_lab.moments import exact_statistic_pmf
from staircase_lab.pmf import Pmf

F = Fraction
R = Requirement
GRID = [Weights(1, 1), Weights(F(1, 2), 3), Weights(3, F(1, 2)),
        Weights(0, 1), Weights(F(5, 2), 0)]


def test_scaled_weights():
    s = ScaledWeights.of(Weights(F(1, 2), F(2, 3)))
    assert (s.q, s.pa, s.pb) == (6, 3, 4)
    # off the diagonal each factor carries one q; on it, none
    assert s.factors() == ((24, 6, 18, 6), (4, 1, 3, 1))
    # the bound is exactly the kernel's unconstrained total, scaled by q^n
    w = Weights(F(1, 2), F(2, 3))
    assert s.total_bound(4) == w.normalizer(4) * s.q ** 4
    # the integer scaling equals the Fraction products it replaces
    for v in GRID + [Weights(F(1000, 143), F(13, 11)), Weights(0, F(5, 3)),
                     Weights(F(13, 7), 0), Weights(F(2, 2 ** 31 + 11), 7)]:
        q = math.lcm(v.a.denominator, v.b.denominator)
        assert ScaledWeights.of(v) == ScaledWeights(q, int(v.a * q), int(v.b * q))


def _partition_fractions(n, w, allowed):
    """A left-to-right dictionary sweep in exact rational arithmetic,
    simple enough to audit by eye; it shares no code with the kernel."""
    a, b = w.a, w.b
    states = {0: Fraction(1)}
    for j in range(1, n + 1):
        height = n + 1 - j
        col = {(mask, False): wt for mask, wt in states.items()}
        for i in range(1, height + 1):
            codes = allowed.get((i, j), "AB" if i == height else ".AB")
            bit = 1 << (i - 1)
            new = defaultdict(Fraction)
            for (mask, above), wt in col.items():
                if "." in codes:
                    new[(mask, above)] += wt
                if "A" in codes and not above:
                    new[(mask | bit, True)] += wt if mask & bit else wt * b
                if "B" in codes and not mask & bit:
                    new[(mask | bit, True)] += wt * a if not above else wt
            col = new
        # the bottom row retires; its diagonal box guarantees its bit
        states = defaultdict(Fraction)
        for (mask, _), wt in col.items():
            states[mask & ((1 << (height - 1)) - 1)] += wt
    return states.get(0, Fraction(0))


def fractions_partition(n, w, c=None):
    """constrained_partition by the exact-rational reference sweep."""
    return _partition_fractions(n, w, dpcount._allowed_map(n, c))


def fractions_cell_law(n, w, box, given):
    """conditional_cell_law's (alpha, beta, empty) by the exact-rational
    reference sweep, or None when the conditioning event is impossible."""
    values = [fractions_partition(n, w, ConstraintSet(n, given.items + ((box, req),)))
              for req in (R.MUST_ALPHA, R.MUST_BETA, R.MUST_EMPTY)]
    total = sum(values)
    return tuple(v / total for v in values) if total else None


def test_unconstrained_partition_both_engines():
    for n in (1, 2, 3, 5, 8):
        for w in GRID:
            closed = partition_closed(n, w)
            assert constrained_partition(n, w) == closed
            if n <= 5:
                assert fractions_partition(n, w) == closed


def test_size_two_event_probabilities():
    w = Weights(1, 1)
    for box, want in [((1, 1), F(1, 6)), ((1, 2), F(2, 3)), ((2, 1), F(1, 3))]:
        c = ConstraintSet.of(2, {box: R.MUST_ALPHA})
        assert event_prob(2, w, c) == want


def test_contradictory_constraints_give_zero():
    c = ConstraintSet.of(4, {(1, 4): R.MUST_EMPTY})  # main-diagonal box
    assert constrained_partition(4, Weights(1, 1), c) == 0
    assert fractions_partition(4, Weights(1, 1), c) == 0


def test_random_constraint_sets_match_oracle():
    rng = random.Random(7)
    reqs = list(R)
    for n in (3, 4, 5):
        boxes = list(staircase_boxes(n))
        for w in (Weights(1, 1), Weights(F(2, 7), F(5, 3)), Weights(0, F(1, 2))):
            for _ in range(12):
                chosen = rng.sample(boxes, rng.randint(1, min(5, len(boxes))))
                items = tuple((box, rng.choice(reqs)) for box in chosen)
                c = ConstraintSet.of(n, dict(items))
                want = oracle_event_prob(n, w, c)
                assert event_prob(n, w, c) == want
                assert fractions_partition(n, w, c) / w.normalizer(n) == want
                # the constructor form, free boxes and all, is the same event
                built = ConstraintSet(n, items)
                assert event_prob(n, w, built) == oracle_event_prob(n, w, built) == want


def _main_diagonal_law(n, w):
    """P(the main diagonal reads each alpha/beta pattern), one
    ``event_prob`` per pattern: pattern s holds an alpha at box
    (i, n + 1 - i) when bit n - i is set, so site 1 is the most
    significant bit, as in ``asep``."""
    return [event_prob(n, w, ConstraintSet.of(n, {
        (i, n + 1 - i): R.MUST_ALPHA if s >> (n - i) & 1 else R.MUST_BETA
        for i in range(1, n + 1)})) for s in range(1 << n)]


@pytest.mark.parametrize("rates, sizes", [
    ((1, 1, 0, 0), range(1, 9)),
    ((2, 3, 0, 0), range(1, 9)),
    ((F(1, 2), F(7, 5), 0, 0), range(1, 9)),
    ((5, F(1, 3), 0, 0), range(1, 9)),
    ((2, F(3, 7), 0, 0), (10,)),
    ((1, 1, 1, 1), range(1, 7)),
    ((2, 3, F(1, 3), F(3, 2)), range(1, 7)),
    ((F(1, 2), F(2, 3), F(3, 5), F(5, 7)), range(1, 7)),
    ((1, 2, 0, F(1, 4)), range(1, 7)),
])
def test_ssep_steady_state_is_the_main_diagonal_law(rates, sizes):
    # At u = q = 1 the stationary law of the open exclusion process is
    # the main-diagonal law under Weights(1/(alpha+gamma), 1/(beta+delta)),
    # with each diagonal alpha a filled site with probability
    # alpha/(alpha+gamma) and each beta with probability delta/(beta+delta),
    # site by site on their own (Corteel and Williams, Duke Math. J. 159,
    # 2011).  The generator solve reads no tableau and shares no code with
    # the counting kernel.
    alpha, beta, gamma, delta = map(F, rates)
    by_alpha, by_beta = alpha / (alpha + gamma), delta / (beta + delta)
    w = Weights(1 / (alpha + gamma), 1 / (beta + delta))
    for n in sizes:
        law = _main_diagonal_law(n, w)
        for bit in (1 << k for k in range(n)):  # one site at a time
            for s in range(1 << n):
                if not s & bit:
                    on_alpha, on_beta = law[s | bit], law[s]
                    law[s | bit] = on_alpha * by_alpha + on_beta * by_beta
                    law[s] = on_alpha + on_beta - law[s | bit]
        params = AsepParams(alpha, beta, gamma, delta, u=1, q=1)
        assert steady_state_via_generator(n, params) == Pmf(law), (n, rates)


_TRANSPOSED = {R.MUST_ALPHA: R.MUST_BETA, R.MUST_BETA: R.MUST_ALPHA}


def test_event_prob_is_symmetric_under_transposition():
    # transposing a tableau moves box (i, j) to (j, i) and swaps alphas
    # with betas, so it carries the measure at (a, b) to the one at (b, a)
    rng = random.Random(31)
    weights = (Weights(0, F(5, 3)), Weights(F(13, 7), F(2, 5)), Weights(1, 1))
    seen = 0
    for n in (6, 9, 12):
        boxes = list(staircase_boxes(n))
        for w in weights:
            for _ in range(7):
                event = {box: rng.choice(list(R))
                         for box in rng.sample(boxes, rng.randint(1, 4))}
                flipped = {(j, i): _TRANSPOSED.get(req, req) for (i, j), req in event.items()}
                p = event_prob(n, w, ConstraintSet.of(n, event))
                assert p == event_prob(n, w.swapped(), ConstraintSet.of(n, flipped)), (n, w)
                seen += p != 0
    assert seen > 30


@pytest.mark.parametrize("w", [Weights(0, F(5, 3)), Weights(F(13, 7), F(2, 5))], ids=str)
def test_alpha_law_is_the_beta_law_of_the_swapped_weights(w):
    for n in range(1, 15):
        assert statistic_pmf(n, w, "A2") == statistic_pmf(n, w.swapped(), "B2"), n


@pytest.mark.parametrize("w", [Weights(1, 1), Weights(F(13, 7), F(2, 5)), Weights(0, F(3, 7)),
                               Weights(F(5, 2), 0), Weights(F(13, 7), F(1000, 3))], ids=str)
def test_beta_count_is_the_alpha_count_of_the_swapped_weights(w):
    # statistic_pmf counts Nbeta as Nalpha under w.swapped(): against the
    # oracle and the beta plan run as it stands; the product form of the
    # swapped weights follows at n <= 16 below
    for n in range(1, 11):
        law = statistic_pmf(n, w, "Nbeta")
        if n <= 7:
            assert law == oracle_statistic_pmf(n, w, "Nbeta"), n
        lifts, cap = _statistic_plan(n, "Nbeta")
        masses = dpcount._masses_crt(n, w, dpcount._allowed_map(n, None), cap + 2, lifts)
        assert law == Pmf.from_integers(masses, ScaledWeights.of(w).total_bound(n)), n


def _alpha_count_law(n, w):
    """Nalpha from its product form: a sum of independent indicators,
    one per column (Hitczenko and Janson), so its generating function is
    prod_{i<n} (pa + (pb + i q) x) over the kernel's total."""
    scaled = ScaledWeights.of(w)
    coefficients = [1]
    for i in range(n):
        hit = scaled.pb + i * scaled.q
        coefficients = [scaled.pa * miss + hit * before
                        for miss, before in zip(coefficients + [0], [0] + coefficients)]
    return Pmf.from_integers(coefficients, scaled.total_bound(n))


#: Weights for the alpha-count law past enumeration: a zero on either
#: side, a plan of one modulus at every size, and plans that take up to
#: 4 and 6 moduli by n = 16
ALPHA_COUNT_WEIGHTS = [Weights(0, F(3, 7)), Weights(F(5, 2), 0), Weights(1, 1),
                       Weights(F(13, 7), F(2, 5)), Weights(F(13, 7), F(1000, 3))]


@pytest.mark.parametrize("w", ALPHA_COUNT_WEIGHTS, ids=str)
def test_alpha_and_beta_counts_match_the_product_form(w):
    # past the oracle's n <= 7, where the slot window (one alpha lift per
    # column, one beta lift per row) is narrower than one lift per box
    for n in range(1, 17):
        law = _alpha_count_law(n, w)
        assert statistic_pmf(n, w, "Nalpha") == law, n
        assert statistic_pmf(n, w.swapped(), "Nbeta") == law, n
    # a = b = 1 runs on the 2^64 plane alone; the others take primes by n = 16
    assert (len(ScaledWeights.of(w).moduli(16)) == 1) == (w == Weights(1, 1))


def test_diagonal_events_match_closed_forms_beyond_enumeration():
    # sizes far past what enumeration could visit
    w = Weights(F(3, 4), F(7, 5))
    for n in (12, 17):
        for cols in [(1,), (n // 2,), (1, 4), (2, n - 2)]:
            alpha = event_prob(n, w, second_diag_event(n, cols, R.MUST_ALPHA))
            assert alpha == second_diag_joint_alpha(n, w, cols).value
            filled = event_prob(n, w, second_diag_event(n, cols, R.MUST_NONEMPTY))
            assert filled == second_diag_joint_nonempty(n, w, cols).value


def test_box_law_matches_dp_beyond_enumeration():
    w = Weights(F(1, 3), F(9, 2))
    n = 13
    for box in [(1, 1), (4, 7), (13, 1), (1, 13), (6, 6), (11, 2)]:
        law = box_law(n, w, box)
        assert event_prob(n, w, ConstraintSet.of(n, {box: R.MUST_ALPHA})) == law.alpha
        assert event_prob(n, w, ConstraintSet.of(n, {box: R.MUST_BETA})) == law.beta
        assert event_prob(n, w, ConstraintSet.of(n, {box: R.MUST_EMPTY})) == law.empty


def test_statistic_pmf_matches_oracle():
    for n in (2, 4, 5):
        for w in (Weights(1, 1), Weights(F(1, 2), 3), Weights(0, 1)):
            for statistic in STATISTIC_NAMES:
                assert statistic_pmf(n, w, statistic) == \
                    oracle_statistic_pmf(n, w, statistic), (n, w, statistic)


def test_statistic_pmf_validation():
    with pytest.raises(ValueError):
        statistic_pmf(4, Weights(1, 1), "A9")
    with pytest.raises(ValueError):
        statistic_pmf(N_DP + 1, Weights(1, 1), "A2")


def test_third_diag_gap_one_is_possible_gap_two_is_not():
    # Adjacent third-diagonal alphas exist: at n = 4 the pattern forces
    # the tableau shown, whose probability is b^2 / (a+b)^(rising 4).
    w = Weights(F(2, 3), F(5, 7))
    got = event_prob(4, w, third_diag_event(4, (1, 2), R.MUST_ALPHA))
    assert got == w.b ** 2 / w.normalizer(4)
    assert got == oracle_event_prob(4, w, third_diag_event(4, (1, 2), R.MUST_ALPHA))
    # while a gap of exactly two kills the event at any kind
    for n in (5, 8):
        for req in (R.MUST_ALPHA, R.MUST_NONEMPTY):
            assert event_prob(n, w, third_diag_event(n, (1, 3), req)) == 0


def test_conditional_cell_law_chains_to_tableau_prob():
    # multiplying P(cell | earlier cells) along the sweep recovers P(S)
    w = Weights(F(1, 2), F(4, 3))
    for n, pick in ((3, 5), (4, 40)):
        t = all_tableaux(n)[pick]
        req_of = {"A": R.MUST_ALPHA, "B": R.MUST_BETA, ".": R.MUST_EMPTY}
        prob = F(1)
        seen = {}
        # column by column, top to bottom
        for box in [(i, j) for j in range(1, n + 1) for i in range(1, n + 2 - j)]:
            law = conditional_cell_law(n, w, box, ConstraintSet.of(n, seen))
            code = t.cell(*box)
            prob *= {"A": law.alpha, "B": law.beta, ".": law.empty}[code]
            seen[box] = req_of[code]
        assert prob == w.prob(t)


def test_conditional_cell_law_marginal_and_errors():
    for n in (5, 6, 7):
        for w in (Weights(1, 2), Weights(F(2, 3), F(5, 7)), Weights(0, 1),
                  Weights(F(5, 2), 0)):
            for box in staircase_boxes(n):
                law, direct = conditional_cell_law(n, w, box), box_law(n, w, box)
                assert (law.alpha, law.beta, law.empty) == \
                    (direct.alpha, direct.beta, direct.empty), (n, w, box)
    impossible = ConstraintSet.of(6, {(1, 6): R.MUST_EMPTY})
    with pytest.raises(ValueError, match="probability zero"):
        conditional_cell_law(6, Weights(1, 2), (1, 1), impossible)


def test_statistic_pmf_cross_checks_tuple_sums():
    # second factorial moment assembled from per-pair event counts
    w = Weights(F(3, 2), F(1, 5))
    n = 9
    pmf = statistic_pmf(n, w, "X2")
    pair_sum = sum(
        event_prob(n, w, second_diag_event(n, cols, R.MUST_NONEMPTY))
        for cols in itertools.combinations(range(1, n), 2)
    )
    assert pmf.factorial_moment(2) == 2 * pair_sum


def _random_constraints(rng, n, count):
    boxes = list(staircase_boxes(n))
    chosen = rng.sample(boxes, count)
    return ConstraintSet.of(n, {box: rng.choice(list(R)) for box in chosen})


# Scaled totals just below and just above 2^64: at n = 9 the 2^64 plane
# alone carries every count, at n = 10 the CRT needs primes beside it.
AROUND_WRAP = [(9, Weights(50, 50)), (10, Weights(50, 50))]


def test_moduli_start_with_the_free_wrap_and_cover_the_bound():
    below, above = (ScaledWeights.of(w).total_bound(n) for n, w in AROUND_WRAP)
    assert below < 2 ** 64 < above
    for n, w in AROUND_WRAP + [(14, Weights(F(13, 7), F(1000, 3)))]:
        scaled = ScaledWeights.of(w)
        moduli = scaled.moduli(n)
        assert moduli[0] == 2 ** 64
        assert math.prod(moduli) > scaled.total_bound(n)
        # the primes alone do not cover it: no prime is wasted
        assert math.prod(moduli[:-1]) <= scaled.total_bound(n)
        assert all(_is_prime(p) and p < 2 ** 29 for p in moduli[1:])
        assert len(set(moduli)) == len(moduli)
        # the largest primes below the limit, none skipped
        assert list(moduli[1:]) == [x for x in range(_PRIME_LIMIT - 1, moduli[-1] - 1, -1)
                                    if _is_prime(x)]
    assert ScaledWeights.of(Weights(50, 50)).moduli(9) == (2 ** 64,)
    assert len(ScaledWeights.of(Weights(50, 50)).moduli(10)) == 2


def test_counts_around_the_wrap_match_closed_form_and_fractions():
    rng = random.Random(64)
    for n, w in AROUND_WRAP:
        assert constrained_partition(n, w) == partition_closed(n, w)
        for _ in range(4):
            c = _random_constraints(rng, n, rng.randint(1, 4))
            assert constrained_partition(n, w, c) == fractions_partition(n, w, c), (n, c)


def test_second_diag_laws_around_the_wrap_match_the_moment_route():
    for n, w in AROUND_WRAP + [(12, Weights(F(13, 7), F(1000, 3)))]:
        for statistic in ("A2", "B2", "X2"):
            assert statistic_pmf(n, w, statistic) == \
                exact_statistic_pmf(n, w, statistic), (n, w, statistic)


def test_conditional_cell_law_matches_fractions_engine():
    rng = random.Random(3)
    for n in (3, 5, 7):
        boxes = list(staircase_boxes(n))
        for w in (Weights(1, 1), Weights(F(2, 7), F(5, 3)), Weights(0, F(1, 2))):
            tried = 0
            while tried < 6:
                box = rng.choice(boxes)
                given = _random_constraints(rng, n, rng.randint(0, 4))
                if box in given.as_dict():
                    continue
                tried += 1
                want = fractions_cell_law(n, w, box, given)
                if want is None:
                    with pytest.raises(ValueError, match="probability zero"):
                        conditional_cell_law(n, w, box, given)
                    continue
                got = conditional_cell_law(n, w, box, given)
                assert (got.alpha, got.beta, got.empty) == want, (n, w, box, given)
                assert got.alpha + got.beta + got.empty == 1


@pytest.mark.parametrize("n", [4, 6, 7])
def test_three_slot_cell_law_matches_fractions_at_the_edges(n):
    # column 1, where the kernel skips unreachable states; the main
    # diagonal, where a box must fill; and (1, n), the last box of the
    # first row, each under events on boxes before and after it
    rng = random.Random(n)
    edges = [(1, 1), (2, 1), (n, 1), (n // 2, n + 1 - n // 2), (1, n)]
    for w in (Weights(F(2, 7), F(5, 3)), Weights(F(13, 7), F(1000, 3)), Weights(0, F(1, 2))):
        for box in edges:
            others = [b for b in staircase_boxes(n) if b != box]
            for _ in range(3):
                given = ConstraintSet.of(n, {b: rng.choice((R.MUST_NONEMPTY, R.MUST_ALPHA,
                                                            R.MUST_BETA, R.MUST_EMPTY))
                                             for b in rng.sample(others, 2)})
                want = fractions_cell_law(n, w, box, given)
                if want is None:
                    with pytest.raises(ValueError, match="probability zero"):
                        conditional_cell_law(n, w, box, given)
                    continue
                got = conditional_cell_law(n, w, box, given)
                assert (got.alpha, got.beta, got.empty) == want, (w, box, given)


def test_conditional_cell_law_errors_are_unchanged():
    w = Weights(1, 2)
    given = ConstraintSet.of(5, {(2, 2): R.MUST_ALPHA})
    cases = [
        (5, (2, 2), given, "box (2, 2) is constrained twice"),
        (5, (4, 3), given, "box (4, 3) lies outside the size-5 staircase"),
        (5, (0, 1), None, "box (0, 1) lies outside the size-5 staircase"),
        (6, (1, 1), given, "constraints built for size 5, not 6"),
        # outside the size given was built for, though inside n's: the size
        # mismatch is named first
        (6, (1, 6), given, "constraints built for size 5, not 6"),
        (5, (1, 5), ConstraintSet.empty(4), "constraints built for size 4, not 5"),
        (6, (1, 1), ConstraintSet.of(6, {(1, 6): R.MUST_EMPTY}),
         "conditioning event has probability zero"),
        # a beta needs every box left of it in its row empty
        (5, (2, 1), ConstraintSet.of(5, {(1, 2): R.MUST_BETA, (1, 3): R.MUST_BETA}),
         "conditioning event has probability zero"),
    ]
    for n, box, event, text in cases:
        with pytest.raises(ValueError) as info:
            conditional_cell_law(n, w, box, event)
        assert str(info.value) == text, (n, box, event)
        assert type(info.value) is ValueError


@pytest.mark.parametrize("size", [True, False, 2.0, "3", None])
def test_a_size_that_is_not_an_int_is_refused(size):
    w = Weights(1, 1)
    calls = [lambda: constrained_partition(size, w),
             lambda: event_prob(size, w, ConstraintSet.empty(2)),
             lambda: statistic_pmf(size, w, "A2"),
             lambda: conditional_cell_law(size, w, (1, 1))]
    for call in calls:
        with pytest.raises(ValueError, match=f"size must be an int, got {re.escape(repr(size))}"):
            call()


def _largest_group(n, w, slots):
    return max(map(len, _groups(ScaledWeights.of(w).moduli(n), slots, n)))


def test_counting_memory_estimate_is_tight():
    # the budget check's estimate against the traced peak of the whole call:
    # one-slot passes, with and without constraints, and two statistics, all
    # on the whole tableau; at n = 13 also an event and a cell law whose
    # passes run on the corner of size 8 that holds their boxes.  Passes of
    # a few boxes (the laws of two diagonal boxes and an event next to the
    # diagonal, on corners of size 1 and 2) are held to the budget's side
    # alone: the estimate's small-object terms over-reserve them, by up to
    # 1.96 times.
    sizes, corners = set(), set()
    for n in (10, 11, 12, 13):
        event = ConstraintSet.of(n, {(1, 2): R.MUST_ALPHA, (n, 1): R.MUST_BETA})
        small = ConstraintSet.of(n, {(2, n - 2): R.MUST_ALPHA})
        calls = {"partition": (1, None, {}, lambda w: constrained_partition(n, w)),
                 "event": (1, event, {}, lambda w: event_prob(n, w, event)),
                 "small event": (1, small, {}, lambda w: event_prob(n, w, small))}
        for box in ((1, n), (2, n - 1)):
            calls[f"small law {box}"] = (3, None, {box: (1, 2)},
                                         lambda w, box=box: conditional_cell_law(n, w, box))
        for statistic in ("Nalpha", "A2"):
            lifts, cap = _statistic_plan(n, statistic)
            calls[statistic] = (cap + 2, None, lifts,
                                lambda w, statistic=statistic: statistic_pmf(n, w, statistic))
        if n == 13:
            corner = ConstraintSet.of(n, {(3, 4): R.MUST_ALPHA})
            calls["corner event"] = (1, corner, {}, lambda w: event_prob(n, w, corner))
            calls["corner cell law"] = (3, corner, {(5, 5): (1, 2)},
                                        lambda w: conditional_cell_law(n, w, (5, 5), corner))
        for what, (slots, given, lifts, call) in calls.items():
            for w in (Weights(1, 1), Weights(F(13, 7), F(1000, 3))):
                scaled = ScaledWeights.of(w)
                moduli = scaled.moduli(n)
                s, _, inside, _ = dpcount._corner(n, scaled, dpcount._allowed_map(n, given), lifts)
                corners.add((what, s))
                sizes.add(max(map(len, _groups(moduli, slots, s))))
                estimate = _sweep_bytes(s, slots, moduli, inside)
                gc.collect()  # empty the free lists, so every allocation is traced
                tracemalloc.start()
                try:
                    call(w)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= estimate, (n, what, w, peak, estimate)
                assert what.startswith("small") or estimate <= 1.3 * peak, \
                    (n, what, w, peak, estimate)
    assert {s for what, s in corners if what.startswith("corner")} == {8}
    assert {s for what, s in corners if what.startswith("small")} == {1, 2}
    assert {1, 2, 3, 4, 5} <= sizes  # single planes and groups of two to five
    # past the group bound every pass runs one plane; so the budget admits
    # every statistic at n = 22, Nbeta as Nalpha under swapped weights,
    # while the beta plan run as it stands would not fit
    assert _largest_group(18, Weights(F(13, 7), F(1000, 3)), 1) == 1
    one = (2 ** 64,)
    plans = {s: _statistic_plan(22, s) for s in STATISTIC_NAMES}
    assert all(_sweep_bytes(22, cap + 2, one, lifts) <= _MEM_BUDGET
               for s, (lifts, cap) in plans.items() if s != "Nbeta")
    lifts, cap = plans["Nbeta"]
    assert _sweep_bytes(22, cap + 2, one, lifts) > _MEM_BUDGET


def _row_book_windows(n, slots, lifts):
    """The slot windows as they stood with a book of the largest beta
    lift met in each row: no count passes the largest alpha lift of
    each column so far plus the largest beta lift so far in each row."""
    live, window, rows, out = 1, 1, [0] * (n + 1), []
    for j in range(1, n + 1):
        column, lives = 0, []
        for i in range(1, n + 2 - j):
            if lifts and (i, j) in lifts:
                alpha, beta = lifts[(i, j)]
                column = max(column, alpha)
                window += max(beta - rows[i], 0)
                rows[i] = max(rows[i], beta)
                live = min(slots, live + max(alpha, beta), window + column)
            lives.append(live)
        window += column
        out.append(lives)
    return out


def test_windows_match_the_row_book_on_every_plan_the_library_runs():
    # no plan the library runs lifts two betas in one row (Nbeta runs as
    # Nalpha), so adding each beta lift to the window is the row book:
    # the lift-free pass, a cell law at every box and six statistics
    plans = 0
    for n in range(1, N_DP + 1):
        runs = [(1, {})] + [(3, {box: (1, 2)}) for box in staircase_boxes(n)]
        runs += [(cap + 2, lifts) for lifts, cap in
                 (_statistic_plan(n, s) for s in STATISTIC_NAMES if s != "Nbeta")]
        for slots, lifts in runs:
            assert dpcount._windows(n, slots, lifts) == _row_book_windows(n, slots, lifts), \
                (n, slots, lifts)
        plans += len(runs)
    assert plans == 2178
    # the beta plan as it stands lifts every box of a row, and its window
    # is one slot wider than the book's from column 2 on
    lifts, cap = _statistic_plan(12, "Nbeta")
    wide, book = dpcount._windows(12, cap + 2, lifts), _row_book_windows(12, cap + 2, lifts)
    assert [c[-1] for c in wide] == [c[-1] for c in book[:1]] + [c[-1] + 1 for c in book[1:]]


def test_groups_cut_the_plan_in_order_under_the_bound():
    plan = ScaledWeights.of(Weights(F(1, 2 ** 31 + 11), F(7, 3 * 2 ** 30 + 1))).moduli(12)
    assert len(plan) == 25
    for n, slots in ((6, 1), (10, 7), (12, 1), (12, 8), (13, 15), (15, 9), (18, 1)):
        groups = _groups(plan, slots, n)
        assert sum(groups, ()) == plan
        sizes = [len(g) for g in groups]
        assert max(sizes) - min(sizes) <= 1
        largest = max(1, _GROUP_ENTRIES // (slots << n))
        assert max(sizes) <= largest and len(groups) == -(-len(plan) // largest)


def test_prime_limit_leaves_room_for_unreduced_products():
    # a flag-set entry takes one reduced sum per box, so it stays below
    # (N_DP + 1) p, and a box sums at most four products of such entries
    # and reduced factors before it reduces them
    largest = _primes_covering(1)[0]
    assert largest < _PRIME_LIMIT == 2 ** 29
    assert (N_DP + 4) * largest ** 2 < 2 ** 64
    # while primes just below 2^31 would let uint64 wrap
    assert (N_DP + 4) * (2 ** 31 - 1) ** 2 >= 2 ** 64


def test_threads_building_the_prime_plan_get_one_plan():
    bound = 1 << 600  # about 21 primes
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            dpcount._prime_below.cache_clear()
            results = []
            threads = [threading.Thread(
                target=lambda: results.append(_primes_covering(bound)))
                for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 6 and len(set(results)) == 1
    finally:
        sys.setswitchinterval(switch)
    plan = results[0]
    assert list(plan) == sorted(set(plan), reverse=True)
    assert math.prod(plan[:-1]) <= bound < math.prod(plan)


def test_miller_rabin_on_four_bases_matches_a_sieve_below_the_limit():
    size = 1 << 16
    low = _PRIME_LIMIT - size
    sieve = bytearray([1]) * size
    for p in range(2, math.isqrt(_PRIME_LIMIT) + 1):
        start = max(p * p, -(-low // p) * p)
        sieve[start - low::p] = bytes(len(range(start - low, size, p)))
    odd = range(low + 1, _PRIME_LIMIT, 2)
    assert [x for x in odd if _is_prime(x)] == [x for x in odd if sieve[x - low]]
    # 2251 * 11251 is a strong pseudoprime to bases 2, 3 and 5; base 7 tells
    assert not _is_prime(25326001)


def test_crt_ignores_multiples_of_each_modulus():
    # the kernel hands over entries that are congruent, not reduced
    rng = random.Random(29)
    moduli = ScaledWeights.of(Weights(F(2999, 1000), F(400, 143))).moduli(6)
    garner = _garner(moduli)
    for _ in range(20):
        x = rng.randrange(math.prod(moduli))
        residues = [x % m for m in moduli]
        assert _crt(residues, garner) == x
        lifted = [r + rng.randrange(2 ** 64 // m) * m for r, m in zip(residues, moduli)]
        assert _crt(lifted, garner) == x


#: Scaled factors far above every plan prime, on plans of 9 to 11
#: moduli: their residues spread over the whole plane, so the products
#: the kernel sums unreduced reach the size of p^2, which small factors
#: never do.
LARGE_FACTORS = [Weights(F(1, 2 ** 31 + 11), F(7, 3 * 2 ** 30 + 1)),
                 Weights(F(1, 10 ** 9 + 7), F(3, 10 ** 9 + 9))]


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("w", LARGE_FACTORS + [
    # large factors on a short plan: 3 moduli at n = 5 and 6
    Weights(F(2999, 1000), F(400, 143))])
def test_large_factors_match_independent_routes(n, w):
    scaled = ScaledWeights.of(w)
    assert max(scaled.factors()[0]) > 2 ** 31
    if w in LARGE_FACTORS:
        assert len(scaled.moduli(n)) >= 6
    assert constrained_partition(n, w) == partition_closed(n, w)
    for statistic in STATISTIC_NAMES:
        assert statistic_pmf(n, w, statistic) == \
            oracle_statistic_pmf(n, w, statistic), statistic
    rng = random.Random(n)
    boxes = list(staircase_boxes(n))
    checked = 0
    while checked < 3:
        box = rng.choice(boxes)
        given = _random_constraints(rng, n, 2)
        if box in given.as_dict():
            continue
        want = fractions_cell_law(n, w, box, given)
        if want is None:
            continue
        got = conditional_cell_law(n, w, box, given)
        assert (got.alpha, got.beta, got.empty) == want, (box, given)
        checked += 1


#: Both denominators above 1, so every diagonal factor drops a q, and a
#: zero weight on either side, so a diagonal factor is 0.
DIAGONAL_WEIGHTS = [Weights(F(2, 3), F(5, 4)), Weights(F(7, 10), F(9, 14)),
                    Weights(0, F(3, 7)), Weights(F(5, 6), 0)]


@pytest.mark.parametrize("w", DIAGONAL_WEIGHTS)
def test_diagonal_factors_match_fractions_and_oracle(w):
    for n in (1, 2, 3, 5, 6):
        diagonal = [(i, n + 1 - i) for i in range(1, n + 1)]
        assert constrained_partition(n, w) == fractions_partition(n, w) == \
            partition_closed(n, w)
        events = []
        for box in {diagonal[0], diagonal[n // 2], diagonal[-1]}:
            i, j = box
            for req in (R.MUST_ALPHA, R.MUST_BETA):
                events.append(ConstraintSet.of(n, {box: req}))
                if i > 1:  # and a symbol above it, so beta is not topmost
                    events.append(ConstraintSet.of(n, {box: req, (i - 1, j): R.MUST_NONEMPTY}))
                if j > 1:  # and a symbol left of it, so the row is dirty
                    events.append(ConstraintSet.of(n, {box: req, (i, j - 1): R.MUST_ALPHA}))
        for c in events:
            want = oracle_event_prob(n, w, c)
            assert event_prob(n, w, c) == \
                fractions_partition(n, w, c) / w.normalizer(n) == want, c
            assert constrained_partition(n, w, c) == fractions_partition(n, w, c), c
        for box in diagonal:
            empty = ConstraintSet.of(n, {box: R.MUST_EMPTY})
            assert constrained_partition(n, w, empty) == \
                fractions_partition(n, w, empty) == 0
            assert event_prob(n, w, empty) == 0
        for statistic in STATISTIC_NAMES:
            assert statistic_pmf(n, w, statistic) == \
                oracle_statistic_pmf(n, w, statistic), (n, statistic)


def _reference_sweep(n, m, factors, allowed, slots, lifts):
    """The counting pass as it stood before passes ran left to right,
    column 1 skipped unreachable states, moves were merged and moduli
    were stacked as planes: right to left, counting completions, on one
    modulus, every box updates every slot of the whole level, one
    product per move.  A symbol at a box that ``lifts`` maps to (alpha
    steps, beta steps) moves the count up its code's steps.  A box that
    ``allowed`` omits keeps the fill rule's codes.  Kept as the reference the
    kernel must match."""
    moves = (("A", 0, 0, 0), ("A", 1, 0, 1), ("B", 2, 0, 0), ("B", 3, 1, 0))
    modulus = None if m == 2 ** 64 else np.uint64(m)
    facs = [[np.uint64(f % m) for f in four] for four in factors]
    boundary = np.eye(slots, 1, dtype=np.uint64)
    for j in range(n, 0, -1):
        height = n + 1 - j
        level = np.zeros((slots, 2, 1 << height), dtype=np.uint64)
        level.reshape(slots, 2, 2, -1)[:, :, 1, :] = boundary[:, None, :]
        buffers = np.empty((2, slots, 1 << (height - 1)), dtype=np.uint64)
        for i in range(height, 0, -1):
            codes, fac = allowed.get((i, j), "AB" if i == height else ".AB"), facs[i == height]
            up = lifts.get((i, j), (0, 0))
            seg, half = 1 << (height - i), 1 << (i - 1)
            view = level.reshape(slots, 2, seg, 2, half)
            src, step = buffers.reshape(2, slots, seg, half)
            np.copyto(src, view[:, 1, :, 1, :])
            if modulus is not None:
                np.remainder(src, modulus, out=src)
            if "." not in codes:
                level.fill(0)
            for code, k, above, bit in moves:
                if code not in codes:
                    continue
                np.multiply(src, fac[k], out=step)
                lift = up[code == "B"]
                if src[slots - lift:].any():
                    raise RuntimeError("statistic counter overflowed its cap")
                view[lift:, above, :, bit, :] += step[:slots - lift]
        boundary = level[:, 0, :].copy()
        if modulus is not None:
            np.remainder(boundary, modulus, out=boundary)
    return boundary[:, 0].tolist()


#: Weights for the kernel's differential test: unit and integer factors
#: (q = 1, so "1" moves take no product), q > 1 with unequal
#: factors, a zero on either side, and factors far above every plan
#: prime.  The last two have factors that vanish or reduce to 1 modulo
#: a plan prime without being 0 or 1: b = 536870909 is the first plan
#: prime, so alpha-clean is 0 modulo it and alpha-clean plus beta-topmost
#: is 1; 536870879, the second, divides every off-diagonal factor of
#: a = 1/536870879, and the merged diagonal factor pb + pa is 1 modulo it.
KERNEL_WEIGHTS = [Weights(1, 1), Weights(5, 7), Weights(F(13, 7), F(1000, 3)),
                  Weights(F(2, 3), F(5, 4)), Weights(0, F(3, 7)), Weights(F(5, 2), 0),
                  Weights(F(1, 2 ** 31 + 11), F(7, 3 * 2 ** 30 + 1)),
                  Weights(1, 536870909), Weights(F(1, 536870879), 1)]


def _kernel_cases(n, rng, statistics=STATISTIC_NAMES):
    """(allowed map, lifts, slots) for the differential test: random
    constraints under no lift, each statistic's plan and the 3-slot cell
    law at a free box; only the plans of ``statistics`` when it is not
    all of them.  From n = 8 on, one more event forbids ``.`` at boxes
    that run along the long axis (rows 2 and 3 of columns 2-4)."""
    events = [_random_constraints(rng, n, rng.randint(0, min(4, n * (n + 1) // 2)))
              for _ in range(3)]
    if n >= 8:
        events.append(ConstraintSet.of(n, {(2, 2): R.MUST_ALPHA, (3, 2): R.MUST_NONEMPTY,
                                           (3, 3): R.MUST_BETA, (2, 4): R.MUST_NONEMPTY}))
    every = statistics == STATISTIC_NAMES
    for given in events:
        allowed = dpcount._allowed_map(n, given)
        if every:
            yield allowed, {}, 1
        for statistic in statistics:
            lifts, cap = _statistic_plan(n, statistic)
            yield allowed, lifts, cap + 2
        free = [box for box in staircase_boxes(n) if box not in given.as_dict()]
        if free and every:
            yield allowed, {rng.choice(free): (1, 2)}, 3


#: Every kernel weight up to n = 7, and n = 8-9 for one weight whose plan
#: is 2^64 alone and one whose plan needs primes beside it.  Up to n = 7
#: a box with half = 4 runs along its long axis only in column 2; from
#: n = 8 on, in several columns.  At n = 10-11 the alpha and beta counts
#: alone, on one modulus.  At n = 12-13, where the kernel's slot window
#: and the reference's all-slot level differ most, B2, A3 and X3 on 2^64
#: alone and on a plan with primes.
KERNEL_SIZES = ([(w, range(1, 8), STATISTIC_NAMES) for w in KERNEL_WEIGHTS]
                + [(KERNEL_WEIGHTS[0], range(8, 10), STATISTIC_NAMES),
                   (KERNEL_WEIGHTS[2], range(8, 10), STATISTIC_NAMES),
                   (KERNEL_WEIGHTS[0], range(10, 12), ("Nalpha", "Nbeta")),
                   (KERNEL_WEIGHTS[0], range(12, 14), ("B2", "A3", "X3")),
                   (KERNEL_WEIGHTS[2], range(12, 14), ("B2", "A3", "X3"))])


def _flipped_boxes(n):
    """(i, j, half) of each box that the kernel runs along its long
    axis: its runs, of ``half`` masks, are shorter than a cache line,
    and there are more of them, ``seg``, than each holds."""
    for i, j in staircase_boxes(n):
        seg, half = 1 << ((n + 1 - j if j > 1 else i) - i), 1 << (i - 1)
        if half < dpcount._LINE_ENTRIES and seg > half:
            yield i, j, half


@pytest.mark.parametrize("w, sizes, statistics", KERNEL_SIZES,
                         ids=[f"w{k}" for k in range(len(KERNEL_WEIGHTS))]
                         + ["single-modulus-n8-9", "primes-n8-9", "counts-n10-11",
                            "single-modulus-n12-13", "primes-n12-13"])
def test_kernel_matches_the_reference_pass(w, sizes, statistics):
    # every modulus of the plan and a foreign prime small enough that
    # merged factors such as q * (pa + pb) often vanish or reduce to 1,
    # run alone, in runs of two and all together in one pass
    rng = random.Random(str(w))
    scaled = ScaledWeights.of(w)
    flipped = set()  # (half, lifted, forbids ".", planes) of each box run along seg
    for n in sizes:
        plan = scaled.moduli(n)
        moduli = plan + (7,)
        groups = ([(m,) for m in moduli] + [moduli[k:k + 2] for k in range(0, len(moduli), 2)]
                  + [plan, moduli])
        for allowed, lifts, slots in _kernel_cases(n, rng, statistics):
            want = {m: _reference_sweep(n, m, scaled.factors(), allowed, slots, lifts)
                    for m in moduli}
            for group in groups:
                got = dpcount._sweep(n, group, scaled.factors(), allowed, slots, lifts)
                assert got == [want[m] for m in group], (n, group, allowed, lifts)
                flipped.update((half, (i, j) in lifts,
                                "." not in allowed.get((i, j), ".AB" if i + j <= n else "AB"),
                                len(group))
                               for i, j, half in _flipped_boxes(n))
    if 8 in sizes:
        # the long-axis boxes ran at both short run lengths, lifted and
        # not, forbidding "." and not, alone and stacked with other planes
        for half in (2, 4):
            assert {(lifted, forbids, planes > 1) for h, lifted, forbids, planes in flipped
                    if h == half} == set(itertools.product((False, True), repeat=3)), half


def test_kernel_matches_the_reference_on_a_wrap_only_plan():
    # at n = 9 the 2^64 plane alone carries every count of (50, 50)
    n, w = AROUND_WRAP[0]
    scaled = ScaledWeights.of(w)
    assert scaled.moduli(n) == (2 ** 64,)
    rng = random.Random(9)
    for allowed, lifts, slots in _kernel_cases(n, rng):
        want = _reference_sweep(n, 2 ** 64, scaled.factors(), allowed, slots, lifts)
        assert dpcount._sweep(n, (2 ** 64,), scaled.factors(), allowed, slots, lifts) == [want]


@pytest.mark.parametrize("w", KERNEL_WEIGHTS[-2:])
def test_factors_congruent_to_zero_or_one_match_independent_routes(w):
    scaled = ScaledWeights.of(w)
    n = 6
    plan = scaled.moduli(n)
    off, on = scaled.factors()
    # single and merged factors above 1, some of them 0 and 1 modulo a plan prime
    merged = [f for f in (off[0], off[1], off[0] + off[2], on[0], on[0] + on[2]) if f > 1]
    assert {0, 1} <= {f % p for f in merged for p in plan[1:]}
    assert constrained_partition(n, w) == partition_closed(n, w)
    for statistic in STATISTIC_NAMES:
        assert statistic_pmf(n, w, statistic) == oracle_statistic_pmf(n, w, statistic), statistic
    for box in ((1, 1), (2, 3), (1, n), (n, 1)):
        law, direct = conditional_cell_law(n, w, box), box_law(n, w, box)
        assert (law.alpha, law.beta, law.empty) == (direct.alpha, direct.beta, direct.empty)


@pytest.mark.parametrize("statistic", ["Nalpha", "X2", "B2"])
@pytest.mark.parametrize("w", [Weights(1, 1), Weights(F(13, 7), F(1000, 3))])
def test_counter_guards_refuse_a_cap_too_small(monkeypatch, statistic, w):
    # Nalpha bumps in column 1, where the kernel skips unreachable
    # states; X2 and B2 only past it, and B2 by beta lifts, which a
    # forward pass meets per row.  One modulus at a = b = 1, several at
    # (13/7, 1000/3).
    n = 9
    plan = _statistic_plan(n, statistic)
    assert (len(ScaledWeights.of(w).moduli(n)) == 1) == (w == Weights(1, 1))
    # one below the cap: the top count lands in the sentinel slot.  Nalpha
    # reaches its cap only in column n, so the masses check sees it; X2 and
    # B2 reach theirs a column early or more, and a forward pass also counts
    # the fillings that a later diagonal box kills, whose next lift spills
    # past the last slot, so the kernel refuses first
    monkeypatch.setattr(dpcount, "_statistic_plan", lambda n, s: (plan[0], plan[1] - 1))
    first = "reached past its structural cap" if statistic == "Nalpha" else "overflowed its cap"
    with pytest.raises(RuntimeError, match=first):
        statistic_pmf(n, w, statistic)
    # two below: the count spills past the last slot, and the kernel refuses it
    monkeypatch.setattr(dpcount, "_statistic_plan", lambda n, s: (plan[0], plan[1] - 2))
    with pytest.raises(RuntimeError, match="overflowed its cap"):
        statistic_pmf(n, w, statistic)


def test_statistic_law_refuses_masses_that_miss_the_partition_total(monkeypatch):
    masses_crt = dpcount._masses_crt

    def one_short(*args, **kwargs):
        masses = masses_crt(*args, **kwargs)
        masses[0] -= 1
        return masses

    monkeypatch.setattr(dpcount, "_masses_crt", one_short)
    with pytest.raises(RuntimeError, match="^statistic masses do not add up to the partition "
                                           "total$"):
        statistic_pmf(5, Weights(F(13, 7), F(1000, 3)), "X2")


def _corner_cases(n, rng):
    """(event, lifts, slots) whose boxes lie in a random corner:
    three events of one to three boxes from rows >= r1 and columns >= k1
    (a free box among them narrows nothing), each also as the given of a
    3-slot cell law at a free box of the corner; then the top-left box
    of a corner of each start, on row 1, on column 1 and on neither,
    empty and lifted; then an alpha at that last box beside a diagonal
    box in row 1 or column 1 that must hold a symbol, which narrows
    nothing, so the corner stays the alpha's."""
    for _ in range(3):
        r1 = rng.randint(1, n)
        k1 = rng.randint(1, n + 1 - r1)
        inside = [(i, j) for i, j in staircase_boxes(n) if i >= r1 and j >= k1]
        chosen = rng.sample(inside, rng.randint(1, min(3, len(inside))))
        given = ConstraintSet.of(n, {box: rng.choice(list(R)) for box in chosen})
        yield given, {}, 1
        free = [box for box in inside if box not in given.as_dict()]
        if free:
            yield given, {rng.choice(free): (1, 2)}, 3
    for box in ((1, 1 + n // 2), (1 + n // 2, 1), (1 + n // 3, 1 + n // 3)):
        yield ConstraintSet.of(n, {box: R.MUST_EMPTY}), {}, 1
        yield ConstraintSet.empty(n), {box: (1, 2)}, 3
    for box in ((1, n), (n, 1)):
        yield ConstraintSet.of(n, {box: R.MUST_NONEMPTY,
                                   (1 + n // 3, 1 + n // 3): R.MUST_ALPHA}), {}, 1


#: Corner passes at up to n = 14: every kernel weight at n = 2-7 (a = 0,
#: b = 0, factors that vanish or reduce to 1 modulo a plan prime), then
#: a plan of 2^64 alone and one of four to five moduli at n = 10, 12 and 14.
CORNER_SIZES = ([(w, range(2, 8)) for w in KERNEL_WEIGHTS]
                + [(KERNEL_WEIGHTS[0], (10, 12, 14)), (KERNEL_WEIGHTS[2], (10, 12, 14))])


@pytest.mark.parametrize("w, sizes", CORNER_SIZES,
                         ids=[f"w{k}" for k in range(len(KERNEL_WEIGHTS))]
                         + ["single-modulus-n10-14", "primes-n10-14"])
def test_corner_pass_matches_the_whole_tableau_residue_for_residue(w, sizes):
    # the pass on the corner from its start against the pass on the whole
    # tableau, which starts from the empty state before column 1: every
    # modulus of the plan alone, with the foreign prime 7 (which divides
    # q = 21 of (13/7, 1000/3), so x and y vanish on its plane alone), the
    # plan in one group and the plan with 7 beside it
    rng = random.Random(f"corner {w}")
    scaled = ScaledWeights.of(w)
    starts = set()  # (x != 0, y != 0) of each corner smaller than the tableau
    passed = 0  # events whose non-narrowing boxes lie outside a corner smaller than the tableau
    for n in sizes:
        plan = scaled.moduli(n)
        groups = [(m,) for m in plan + (7,)] + [plan, plan + (7,)]
        for given, lifts, slots in _corner_cases(n, rng):
            allowed = dpcount._allowed_map(n, given)
            s, inside, moved, start = dpcount._corner(n, scaled, allowed, lifts)
            if s < n:
                starts.add((start[1] != 0, start[2] != 0))
            # a diagonal box that must hold a symbol narrows nothing, so the
            # event gets the corner of its other boxes alone
            narrowing = ConstraintSet(n, tuple((box, req) for box, req in given.items
                                               if req is not R.MUST_NONEMPTY or sum(box) <= n))
            alone = dpcount._corner(n, scaled, dpcount._allowed_map(n, narrowing), lifts)
            assert (alone[0], alone[3]) == (s, start), (n, given, lifts)
            passed += narrowing != given and s < n
            for group in groups:
                whole = dpcount._sweep(n, group, scaled.factors(), allowed, slots, lifts)
                assert dpcount._sweep(s, group, scaled.factors(), inside, slots, moved,
                                      start) == whole, (n, group, allowed, lifts)
    assert starts == {(True, False), (False, True), (True, True)}
    assert passed >= 2 * sum(n >= 3 for n in sizes)
    if max(sizes) == 14:
        assert len(scaled.moduli(14)) == (1 if w == KERNEL_WEIGHTS[0] else 5)


@pytest.mark.parametrize("n, weights", [
    (6, (Weights(1, 1), Weights(F(13, 7), F(2, 5)), Weights(0, F(3, 2)), Weights(F(5, 2), 0))),
    (7, (Weights(F(13, 7), F(2, 5)), Weights(F(5, 2), 0)))])
def test_corner_laws_match_the_oracle(n, weights):
    rng = random.Random(n)
    for w in weights:
        for given, lifts, slots in _corner_cases(n, rng):
            want = oracle_event_prob(n, w, given)
            assert event_prob(n, w, given) == want, (n, w, given)
            if not lifts or not want:
                continue
            (box, _), = lifts.items()
            law = conditional_cell_law(n, w, box, given)
            for req, got in ((R.MUST_ALPHA, law.alpha), (R.MUST_BETA, law.beta),
                             (R.MUST_EMPTY, law.empty)):
                joint = ConstraintSet(n, given.items + ((box, req),))
                assert got == oracle_event_prob(n, w, joint) / want, (n, w, box, given, req)


def test_outside_of_a_corner_weighs_the_start_product():
    # every filling of the tableau outside the corner (r1, k1), at the
    # kernel's scale (each symbol's factor carries one q off the
    # diagonal), summed by the corner's rows that a symbol left of
    # column k1 makes dirty and its columns that a symbol above row r1
    # flags, is Z_(r1 + k1 - 2) ((k1 - 1) q)^dirty ((r1 - 1) q)^flagged;
    # a state never met either has no such filling (a dirty row with
    # k1 = 1 or a flagged column with r1 = 1), where the product is 0
    # too, or has a dirty row and a flagged column that meet on the
    # diagonal, whose box no symbol can fill, so the kernel gives it nothing
    weights = [(1, 1, 1), (13, 7, 5), (0, 3, 2), (3, 0, 2)]  # (pa, pb, q)
    for n, most in ((6, 7), (7, 4)):  # every corner at n = 6, the largest at n = 7
        tableaux = all_tableaux(n)
        for r1, k1 in ((r1, k1) for r1 in range(1, n + 1) for k1 in range(1, n + 2 - r1)
                       if 2 < r1 + k1 <= most):
            s = n + 2 - r1 - k1
            outside = {}  # each filling outside the corner, by its rows: (dirty, flagged)
            for t in tableaux:
                key = t.rows[:r1 - 1] + tuple(row[:k1 - 1] for row in t.rows[r1 - 1:])
                if key not in outside:
                    dirty = frozenset(i for i in range(r1, r1 + s) if key[i - 1] != "." * (k1 - 1))
                    flagged = frozenset(j for j in range(k1, k1 + s)
                                        if any(row[j - 1] != "." for row in key[:r1 - 1]))
                    outside[key] = dirty, flagged
            for pa, pb, q in weights:
                sums = defaultdict(int)
                for key, state in outside.items():
                    sums[state] += _outside_weight(n, key, pa, pb, q)
                z = math.prod(pa + pb + i * q for i in range(r1 + k1 - 2))

                def start(dirty, flagged):
                    return z * ((k1 - 1) * q) ** len(dirty) * ((r1 - 1) * q) ** len(flagged)

                for (dirty, flagged), total in sums.items():
                    assert total == start(dirty, flagged), (n, r1, k1, pa, pb, q, dirty, flagged)
                for d in range(1 << s):
                    for f in range(1 << s):
                        dirty = frozenset(r1 + i for i in range(s) if d >> i & 1)
                        flagged = frozenset(k1 + j for j in range(s) if f >> j & 1)
                        if (dirty, flagged) not in sums and start(dirty, flagged):
                            assert any(i + j == n + 1 for i in dirty for j in flagged), \
                                (n, r1, k1, dirty, flagged)


def _outside_weight(n, key, pa, pb, q):
    """The kernel-scale weight of the cells ``key`` holds: the rows above
    the corner whole, then the rest of each row left of it."""
    weight = 1
    for i, row in enumerate(key, start=1):
        for j, code in enumerate(row, start=1):
            if code == "A":
                clean = all(c == "." for c in row[:j - 1])
                weight *= (pb if clean else 1) * (1 if i + j == n + 1 else q)
            elif code == "B":
                top = all(key[k][j - 1] == "." for k in range(i - 1))
                weight *= (pa if top else 1) * (1 if i + j == n + 1 else q)
    return weight


@pytest.mark.parametrize("w", [Weights(1, 1), Weights(F(13, 7), F(1000, 3)),
                               Weights(0, F(3, 7)), Weights(F(5, 2), 0)])
def test_a_row_is_clean_with_its_closed_form_probability(w):
    # rows are independent at a column boundary: boxes (r, 1..k) off the
    # diagonal are all empty with probability (a + b + r - 1) / (a + b + r - 1 + k),
    # and the event's corner is (r, 1), so its start reads the rows above
    for n in range(1, 13):
        for r in range(1, n):
            for k in range(1, n + 1 - r):
                c = ConstraintSet.of(n, {(r, j): R.MUST_EMPTY for j in range(1, k + 1)})
                g = w.a + w.b + r - 1
                assert event_prob(n, w, c) == g / (g + k), (n, r, k)

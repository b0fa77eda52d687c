import gc
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from staircase_lab import enumeration
from staircase_lab.constraints import ConstraintSet, Requirement, second_diag_event
from staircase_lab._budget import _MEM_BUDGET
from staircase_lab.enumeration import (_list_bytes, all_tableaux, brute_partition,
                                       count_tableaux, enumerate_four_symbol,
                                       enumerate_tableaux, oracle_event_prob,
                                       oracle_statistic_pmf)
from staircase_lab.formulas import partition_closed
from staircase_lab.measure import FourWeights, Weights

F = Fraction
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_counts.json").read_text())

#: Parameter grid used wherever oracles are compared across routes.
AB_GRID = [Weights(1, 1), Weights(F(1, 2), 3), Weights(3, F(1, 2)),
           Weights(0, 1), Weights(F(5, 2), 0)]


def test_counts_match_golden_file():
    for n in range(1, 7):
        assert count_tableaux(n) == GOLDEN[str(n)] == math.factorial(n + 1)


def test_all_size_two_tableaux_by_hand():
    got = {t.rows for t in enumerate_tableaux(2)}
    assert got == {("AA", "B"), ("BA", "B"), (".A", "A"), (".A", "B"),
                   (".B", "A"), (".B", "B")}


def test_enumerated_tableaux_are_valid_and_distinct():
    for n in range(1, 6):
        seen = set()
        for t in enumerate_tableaux(n):
            assert t.is_valid, t.to_text()
            seen.add(t.rows)
        assert len(seen) == math.factorial(n + 1)


def test_all_tableaux_cache():
    assert len(all_tableaux(4)) == 120
    assert all_tableaux(4) is all_tableaux(4)
    with pytest.raises(ValueError, match="GB"):
        all_tableaux(9)


def test_tableau_list_memory_estimate_is_tight():
    # the budget check's estimate against the traced peak of an uncached build
    for n in (5, 6, 7):
        tracemalloc.start()
        try:
            enumeration._build_list(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        estimate = _list_bytes(n)
        assert peak <= estimate <= 1.3 * peak, (n, peak, estimate)
    # so the list fits the budget at n = 8 and not at n = 9
    assert _list_bytes(8) <= _MEM_BUDGET < _list_bytes(9)


def test_tableau_list_build_restores_the_collector(monkeypatch):
    build = enumeration._build_list  # uncached
    states = []

    def spy(n):
        states.append(gc.isenabled())
        return enumerate_tableaux(n)

    def broken(n):
        raise RuntimeError("enumeration failed")

    monkeypatch.setattr(enumeration, "enumerate_tableaux", spy)
    assert gc.isenabled()
    assert len(build(4)) == 120 and gc.isenabled()
    gc.disable()
    try:
        assert len(build(4)) == 120 and not gc.isenabled()
    finally:
        gc.enable()
    assert states == [False, False]
    monkeypatch.setattr(enumeration, "enumerate_tableaux", broken)
    with pytest.raises(RuntimeError):
        build(4)
    assert gc.isenabled()


def test_brute_partition_matches_closed_form():
    for n in range(1, 7):
        for w in AB_GRID:
            assert brute_partition(n, w) == partition_closed(n, w)
    # n = 8 is above the largest kept list, so this sum reads the stream
    assert 8 > enumeration._CACHE_MAX
    w = Weights(F(2, 3), F(5, 4))
    assert brute_partition(8, w) == partition_closed(8, w)


def test_brute_partition_four_weights():
    fw = FourWeights(F(1, 2), 2, 3, F(1, 5))
    for n in range(1, 6):
        assert brute_partition(n, fw) == partition_closed(n, fw)
    assert brute_partition(1, FourWeights(1, 2, 3, 4)) == 10
    assert brute_partition(2, FourWeights(1, 1, 1, 1)) == 32


def test_four_symbol_enumeration_is_the_expansion():
    # Counting four-symbol tableaux equals the partition function at
    # all weights 1, and every expansion of a given tableau is valid.
    for n in (1, 2, 3):
        four = list(enumerate_four_symbol(n))
        assert len(four) == partition_closed(n, FourWeights(1, 1, 1, 1))
        assert len({t.rows for t in four}) == len(four)
        assert all(t.is_valid for t in four)
    # brute four-weight sum through the direct route, smallest sizes
    fw = FourWeights(2, F(1, 3), 1, 4)
    for n in (1, 2, 3):
        direct = sum((fw.tableau_weight(t) for t in enumerate_four_symbol(n)),
                     start=F(0))
        assert direct == brute_partition(n, fw) == partition_closed(n, fw)


def test_oracle_event_prob_size_two():
    w = Weights(1, 1)
    alpha_at = lambda box: ConstraintSet.of(2, {box: Requirement.MUST_ALPHA})
    assert oracle_event_prob(2, w, alpha_at((1, 1))) == F(1, 6)
    assert oracle_event_prob(2, w, alpha_at((1, 2))) == F(2, 3)
    assert oracle_event_prob(2, w, alpha_at((2, 1))) == F(1, 3)
    empty_diag = ConstraintSet.of(2, {(1, 2): Requirement.MUST_EMPTY})
    assert oracle_event_prob(2, w, empty_diag) == 0
    assert oracle_event_prob(2, w, ConstraintSet.empty(2)) == 1
    with pytest.raises(ValueError):
        oracle_event_prob(3, w, empty_diag)


def test_oracle_statistic_pmf_size_two():
    p = oracle_statistic_pmf(2, Weights(1, 1), "X2")
    assert p.as_dict() == {0: F(2, 3), 1: F(1, 3)}
    p = oracle_statistic_pmf(2, Weights(1, 1), "Nalpha")
    # by hand: weights b, a, b^2, ab, ab, a^2 carry 2,1,2,1,1,0 alphas
    assert p.as_dict() == {0: F(1, 6), 1: F(1, 2), 2: F(1, 3)}


def test_oracle_statistic_transpose_symmetry():
    # Transposing swaps alphas with betas and fixes both diagonals, so
    # the A-statistics at (a, b) match the B-statistics at (b, a).
    w = Weights(F(1, 2), 3)
    assert oracle_statistic_pmf(5, w, "A2") == oracle_statistic_pmf(5, w.swapped(), "B2")
    assert oracle_statistic_pmf(5, w, "Nalpha") == oracle_statistic_pmf(5, w.swapped(), "Nbeta")
    assert oracle_statistic_pmf(5, w, "X2") == oracle_statistic_pmf(5, w.swapped(), "X2")


def test_oracle_statistic_pmf_mean_vs_box_laws():
    # E[A2] is the sum of the per-box alpha probabilities.
    from staircase_lab.formulas import box_law
    w = Weights(2, F(1, 3))
    n = 5
    mean = sum(box_law(n, w, (n - j, j)).alpha for j in range(1, n))
    assert oracle_statistic_pmf(n, w, "A2").mean() == mean


def test_second_diag_event_against_closed_form():
    from staircase_lab.formulas import second_diag_joint_alpha
    w = Weights(F(1, 2), F(3, 2))
    for n in (4, 6):
        for cols in [(1,), (2,), (1, 3), (2, n - 1), (1, 3, 5)]:
            if max(cols) > n - 1:
                continue
            event = second_diag_event(n, cols, Requirement.MUST_ALPHA)
            assert oracle_event_prob(n, w, event) == \
                second_diag_joint_alpha(n, w, cols).value

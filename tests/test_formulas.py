from fractions import Fraction

import pytest

from gap_index import gap_index_product_sum, gap_index_sets
from staircase_lab import formulas
from staircase_lab.formulas import (ADJACENT_COLUMNS, GAP_BELOW_THREE,
                                    GAP_TWO_ZERO, box_law,
                                    partition_closed, second_diag_joint_alpha,
                                    second_diag_joint_nonempty,
                                    third_diag_main_term)
from staircase_lab.measure import FourWeights, Weights

W11 = Weights(1, 1)


def test_partition_closed_four_weights():
    assert partition_closed(1, FourWeights(1, 2, 3, 4)) == 10
    assert partition_closed(2, FourWeights(1, 1, 1, 1)) == 32
    assert partition_closed(0, FourWeights(1, 1)) == 1


def test_partition_closed_weights():
    assert partition_closed(3, W11) == 24
    assert partition_closed(4, Weights(Fraction(1, 2), 0)) == \
        Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2) * Fraction(7, 2)


def test_partition_recurrence():
    # Z_n = (alpha + beta + gamma + delta + (n-1)(alpha+gamma)(beta+delta)) Z_{n-1}
    fw = FourWeights(Fraction(2, 3), 1, Fraction(1, 5), 4)
    sa, sb = fw.alpha + fw.gamma, fw.beta + fw.delta
    for n in range(1, 7):
        assert partition_closed(n, fw) == \
            (sa + sb + (n - 1) * sa * sb) * partition_closed(n - 1, fw)


def test_partition_depends_only_on_merged_sums():
    fw = FourWeights(Fraction(1, 2), 2, Fraction(3, 2), 1)
    for n in range(5):
        assert partition_closed(n, fw) == partition_closed(n, fw.merged())
    # and relates to the normalized form through (alpha beta)^n
    sa, sb = fw.alpha + fw.gamma, fw.beta + fw.delta
    w = Weights(1 / sa, 1 / sb)
    for n in range(5):
        assert partition_closed(n, fw) == sa ** n * sb ** n * partition_closed(n, w)


def test_box_law_size_two_by_hand():
    # All six size-2 tableaux are easy to list, giving these laws.
    law = box_law(2, W11, (1, 2))
    assert (law.alpha, law.beta, law.empty) == \
        (Fraction(2, 3), Fraction(1, 3), Fraction(0))
    law = box_law(2, W11, (2, 1))
    assert (law.alpha, law.beta) == (Fraction(1, 3), Fraction(2, 3))
    law = box_law(2, W11, (1, 1))
    assert (law.alpha, law.beta, law.empty) == \
        (Fraction(1, 6), Fraction(1, 6), Fraction(2, 3))


def test_box_law_sums_to_one():
    for w in (W11, Weights(Fraction(5, 2), Fraction(1, 3)), Weights(0, 2)):
        for n in (1, 3, 6):
            for i in range(1, n + 1):
                for j in range(1, n + 2 - i):
                    law = box_law(n, w, (i, j))
                    assert law.alpha + law.beta + law.empty == 1
                    assert min(law.alpha, law.beta, law.empty) >= 0


def test_box_law_rejects_outside_boxes():
    with pytest.raises(ValueError):
        box_law(3, W11, (2, 3))


def test_second_diag_alpha_single():
    # size 3: the two second-diagonal boxes have alpha-probabilities
    # (b + j - 1) / ((n+a+b-1)(n+a+b-2)).
    assert second_diag_joint_alpha(3, W11, [1]).value == Fraction(1, 12)
    assert second_diag_joint_alpha(3, W11, [2]).value == Fraction(2, 12)


def test_second_diag_adjacent_columns_impossible():
    got = second_diag_joint_alpha(5, W11, [2, 3])
    assert got.value == 0 and got.reason == ADJACENT_COLUMNS
    got = second_diag_joint_nonempty(5, W11, (1, 2, 4))
    assert got.value == 0 and got.reason == ADJACENT_COLUMNS


def test_second_diag_nonempty_matches_box_law():
    # One nonempty second-diagonal box: agree with the marginal law.
    for n in (2, 4, 7):
        for j in (1, n - 1):
            law = box_law(n, W11, (n - j, j))
            got = second_diag_joint_nonempty(n, W11, [j])
            assert got.value == law.alpha + law.beta
            assert got.reason is None


def test_second_diag_nonempty_is_position_free():
    w = Weights(Fraction(3, 2), Fraction(1, 5))
    vals = {second_diag_joint_nonempty(9, w, cols).value
            for cols in [(1, 3), (2, 6), (5, 8), (1, 8)]}
    assert len(vals) == 1


def test_second_diag_validation():
    with pytest.raises(ValueError):
        second_diag_joint_alpha(3, W11, [3])  # only columns 1..2 exist
    with pytest.raises(ValueError):
        second_diag_joint_alpha(3, W11, [])
    with pytest.raises(ValueError):
        second_diag_joint_alpha(5, W11, [2, 2])


def test_third_diag_main_term_gap_cases():
    ok = third_diag_main_term(10, W11, [1, 4], kind="alpha")
    assert not ok.order_only and ok.remainder_exponent == 3 and ok.value > 0
    two = third_diag_main_term(10, W11, [1, 3], kind="alpha")
    assert two.value == 0 and not two.order_only and two.reason == GAP_TWO_ZERO
    one = third_diag_main_term(10, W11, [1, 2], kind="nonempty")
    assert one.value == 0 and one.order_only and one.remainder_exponent == 2
    assert one.reason == GAP_BELOW_THREE


def test_third_diag_main_term_values():
    # r = 1 reduces to the second-diagonal product shapes.
    w = Weights(Fraction(1, 3), 2)
    s = 10 + w.a + w.b
    got = third_diag_main_term(10, w, [5], kind="alpha")
    assert got.value == (w.b + 4) / (s - 1) / (s - 2)
    got = third_diag_main_term(10, w, [5], kind="nonempty")
    assert got.value == 1 / (s - 1)


def test_third_diag_validation():
    with pytest.raises(ValueError):
        third_diag_main_term(2, W11, [1])
    with pytest.raises(ValueError):
        third_diag_main_term(5, W11, [4])  # columns 1..3 only
    with pytest.raises(ValueError):
        third_diag_main_term(5, W11, [1], kind="both")


def test_gap_index_sets():
    assert list(gap_index_sets(2, 4)) == [(1, 3), (1, 4), (2, 4)]
    assert list(gap_index_sets(1, 3)) == [(1,), (2,), (3,)]
    assert list(gap_index_sets(0, 5)) == [()]
    assert list(gap_index_sets(2, 4, min_gap=3)) == [(1, 4)]
    assert list(gap_index_sets(3, 4)) == []
    for cols in gap_index_sets(3, 11):
        assert all(c2 - c1 >= 2 for c1, c2 in zip(cols, cols[1:]))


@pytest.mark.parametrize("r, m, min_gap", [(-1, 3, 2), (2, 4, 0)])
def test_gap_index_sets_refuse_a_negative_size_or_a_gap_below_one(r, m, min_gap):
    # at the call, not at the first next()
    with pytest.raises(ValueError, match="need r >= 0 and min_gap >= 1"):
        gap_index_sets(r, m, min_gap)


def test_gap_index_set_count():
    import math
    for r, m, gap in [(2, 7, 2), (3, 10, 2), (2, 9, 3), (4, 14, 3)]:
        count = sum(1 for _ in gap_index_sets(r, m, min_gap=gap))
        assert count == math.comb(m - (gap - 1) * (r - 1), r)


def test_gap_index_product_sum():
    for r, m in [(1, 3), (2, 5), (2, 3), (3, 9), (4, 12)]:
        direct, closed = gap_index_product_sum(r, m)
        assert direct == closed
    assert gap_index_product_sum(1, 3) == (6, 6)
    assert gap_index_product_sum(2, 5) == (45, 45)
    assert gap_index_product_sum(2, 3) == (3, 3)

"""Shape, rule, and transform checks for the Tableau type."""

import itertools

import pytest

from staircase_lab.core import (
    STATISTIC_NAMES,
    Tableau,
    diagonal_statistic,
    in_staircase,
    main_diagonal,
    second_diag_max_count,
    second_diagonal,
    staircase_boxes,
    third_diag_max_count,
    third_diagonal,
)
from staircase_lab.dpcount import _statistic_plan
from staircase_lab.enumeration import all_tableaux, enumerate_four_symbol

# A hand-checked valid size-7 tableau and its all-greek-relabelled twin.
SIZE7_ROWS = ("A..G..A", ".....D", "..B.G", "...D", "..B", ".G", "B")
SIZE7_AB_ROWS = ("A..A..A", ".....B", "..B.A", "...B", "..B", ".A", "B")


def test_shape_enforced():
    Tableau(("A",))
    Tableau(("AB", "B"))
    with pytest.raises(ValueError):
        Tableau(())
    with pytest.raises(ValueError):
        Tableau(("AB", "BA"))
    with pytest.raises(ValueError):
        Tableau(("A", "B"))
    with pytest.raises(ValueError):
        Tableau(("AX", "B"))


def test_box_enumeration():
    assert list(staircase_boxes(3)) == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    assert main_diagonal(4) == ((4, 1), (3, 2), (2, 3), (1, 4))
    assert second_diagonal(4) == ((3, 1), (2, 2), (1, 3))
    assert third_diagonal(4) == ((2, 1), (1, 2))
    assert third_diagonal(2) == ()
    assert in_staircase(3, (2, 2)) and not in_staircase(3, (2, 3))
    assert not in_staircase(3, (0, 1))


@pytest.mark.parametrize("helper", [staircase_boxes, main_diagonal, second_diagonal,
                                    third_diagonal, second_diag_max_count,
                                    third_diag_max_count, enumerate_four_symbol])
@pytest.mark.parametrize("size", [0, -2])
def test_geometry_refuses_a_size_below_one_at_the_call(helper, size):
    # staircase_boxes(0) was an empty stream and third_diag_max_count(-2) was 0;
    # the two streams refuse before their first item
    with pytest.raises(ValueError, match=f"^size must be at least 1, got {size}$"):
        helper(size)


def test_cell_access():
    t = Tableau(("AB", "B"))
    assert t.cell(1, 1) == "A"
    assert t.cell(2, 1) == "B"
    with pytest.raises(ValueError):
        t.cell(2, 2)


def test_validation_rules():
    # Empty main-diagonal box.
    t = Tableau(("A.", "B"))
    assert not t.is_valid
    assert any("main-diagonal" in p for p in t.validate())
    # Non-empty box above an alpha.
    t = Tableau(("BA", "A"))
    assert any("above" in p for p in t.validate())
    # Non-empty box left of a beta.
    t = Tableau(("AB", "B"))
    assert any("left of" in p for p in t.validate())
    # Gamma blocks its column, delta its row, the same way.
    assert any("above" in p for p in Tableau(("BA", "G")).validate())
    assert any("left of" in p for p in Tableau(("AD", "B")).validate())
    # The smallest valid tableaux.
    for code in "ABGD":
        assert Tableau((code,)).is_valid
    assert Tableau((".A", "B")).is_valid
    assert Tableau((".B", "A")).is_valid


def test_size7_golden_tableaux():
    t = Tableau(SIZE7_ROWS)
    assert t.is_valid
    assert t.symbol_counts() == (2, 3, 3, 2)
    assert t.diagonal_entries() == "ADGDBGB"
    t2 = Tableau(SIZE7_AB_ROWS)
    assert t2.is_valid
    assert t2.symbol_counts() == (5, 5, 0, 0)


def test_symbol_counts():
    assert Tableau(("G.D", "AB", "B")).symbol_counts() == (1, 2, 1, 1)


def test_transpose_involution_and_validity():
    t = Tableau(SIZE7_ROWS)
    tt = t.transpose()
    assert tt.is_valid
    assert tt.transpose() == t
    a, b, g, d = t.symbol_counts()
    assert tt.symbol_counts() == (b, a, d, g)
    # Spot-check the reflection: box (i, j) lands at (j, i) with its
    # symbol swapped within each pair.
    assert t.cell(1, 4) == "G" and tt.cell(4, 1) == "D"
    assert t.cell(1, 1) == "A" and tt.cell(1, 1) == "B"


def test_subtableau():
    t = Tableau(SIZE7_ROWS)
    s = t.subtableau(3, 2)
    assert s.n == 4
    assert s.rows == (".B.G", "..D", ".B", "G")
    assert s.is_valid
    assert t.subtableau(1, 1) == t
    with pytest.raises(ValueError):
        t.subtableau(5, 5)


def test_delete_row_col():
    t = Tableau(SIZE7_ROWS)
    # Deleting row i and column j keeps the staircase shape exactly when
    # the crossing box sits on the main diagonal or one step outside it.
    ok = {(i, j) for i in range(1, 8) for j in range(1, 8) if i + j in (8, 9)}
    for i in range(1, 8):
        for j in range(1, 8):
            if (i, j) in ok:
                s = t.delete_row_col(i, j)
                assert s.n == 6
            else:
                with pytest.raises(ValueError, match=rf"^deleting row {i} and column {j} "
                                                     r"does not leave the size-6 staircase"):
                    t.delete_row_col(i, j)
    s = t.delete_row_col(7, 1)
    assert s.rows == ("..G..A", "....D", ".B.G", "..D", ".B", "G")
    # out of range is said before off the diagonals
    for i, j in ((8, 1), (0, 9), (2, 8)):
        with pytest.raises(ValueError, match=rf"^row {i} / column {j} out of range for size 7$"):
            t.delete_row_col(i, j)
    # at n = 1 the one box is on the main diagonal, and nothing is left
    with pytest.raises(ValueError, match=r"^a tableau needs at least one row$"):
        Tableau(("A",)).delete_row_col(1, 1)


def test_text_round_trip():
    t = Tableau(SIZE7_ROWS)
    assert Tableau.parse(t.to_text()) == t
    assert t.to_text().splitlines()[0] == "7"
    assert str(t) == t.to_text()
    with pytest.raises(ValueError):
        Tableau.parse("")
    with pytest.raises(ValueError):
        Tableau.parse("x\nA")
    with pytest.raises(ValueError):
        Tableau.parse("2\nAB")


def test_from_cells():
    t = Tableau.from_cells(2, {(1, 2): "A", (2, 1): "B"})
    assert t.rows == (".A", "B")
    with pytest.raises(ValueError):
        Tableau.from_cells(2, {(2, 2): "A"})
    with pytest.raises(ValueError):
        Tableau.from_cells(2, {(1, 1): "X"})


# ----------------------------------------------------------------------
# the named statistics, against definitions written apart from the library


def _reference(n, name):
    """The boxes a statistic reads at size n and whether it counts a
    cell code, as the README defines them: X counts every nonempty
    cell, so gamma and delta too."""
    second = [(n - j, j) for j in range(1, n)]  # one step inside the main diagonal
    third = [(n - j - 1, j) for j in range(1, n - 1)]  # two steps inside
    whole = [(i, j) for i in range(1, n + 1) for j in range(1, n + 2 - i)]
    return {
        "A2": (second, lambda c: c == "A"),
        "B2": (second, lambda c: c == "B"),
        "X2": (second, lambda c: c != "."),
        "A3": (third, lambda c: c == "A"),
        "X3": (third, lambda c: c != "."),
        "Nalpha": (whole, lambda c: c == "A"),
        "Nbeta": (whole, lambda c: c == "B"),
    }[name]


def _reference_cap(n, name):
    """A statistic's largest value: one alpha per column and one beta
    per row over the whole tableau; on a diagonal, the largest set of
    columns with no two second-diagonal boxes adjacent and no two
    third-diagonal boxes exactly two apart."""
    if name in ("Nalpha", "Nbeta"):
        return n
    columns, banned = (n - 1, 1) if name in ("A2", "B2", "X2") else (n - 2, 2)
    return max((len(chosen) for r in range(columns + 1)
                for chosen in itertools.combinations(range(1, columns + 1), r)
                if all(b - a != banned for a, b in itertools.combinations(chosen, 2))),
               default=0)


@pytest.mark.parametrize("n", range(1, 6))
def test_statistics_match_their_reference_on_two_and_four_symbol_tableaux(n):
    assert STATISTIC_NAMES == ("A2", "B2", "X2", "A3", "X3", "Nalpha", "Nbeta")
    tableaux = [*all_tableaux(n), *enumerate_four_symbol(n)]
    for name in STATISTIC_NAMES:
        boxes, counts = _reference(n, name)
        largest = 0
        for t in tableaux:
            value = sum(counts(t.rows[i - 1][j - 1]) for i, j in boxes)
            assert diagonal_statistic(t, name) == value, (t.rows, name)
            largest = max(largest, value)
        assert largest == _reference_cap(n, name), name


@pytest.mark.parametrize("n", range(1, 13))
def test_counting_plan_reads_each_statistic_as_its_reference(n):
    for name in STATISTIC_NAMES:
        boxes, counts = _reference(n, name)
        lifts, cap = _statistic_plan(n, name)
        # the kernel fills alpha/beta tableaux, so it lifts on those codes alone
        lifted = (int(counts("A")), int(counts("B")))
        assert lifts == {box: lifted for box in boxes}, name
        assert cap == _reference_cap(n, name), name

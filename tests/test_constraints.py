import pytest

from staircase_lab.constraints import (ConstraintSet, Requirement,
                                       second_diag_event, third_diag_event)
from staircase_lab.core import Tableau

R = Requirement


def test_construction_and_normalization():
    c1 = ConstraintSet.of(4, {(1, 1): R.MUST_EMPTY, (2, 2): R.MUST_ALPHA})
    c2 = ConstraintSet.of(4, {(2, 2): R.MUST_ALPHA, (1, 1): R.MUST_EMPTY})
    assert c1 == c2 and hash(c1) == hash(c2)
    assert c1.as_dict() == {(1, 1): R.MUST_EMPTY, (2, 2): R.MUST_ALPHA}
    # FREE entries are dropped entirely, whichever way the set is built
    free = ConstraintSet(4, (((1, 1), R.FREE),))
    for other in (ConstraintSet.of(4, {(1, 1): R.FREE}), ConstraintSet.empty(4)):
        assert free == other and hash(free) == hash(other)
    assert free.items == () and free.as_dict() == {}


@pytest.mark.parametrize("free", [(), (((2, 1), R.FREE), ((4, 1), R.FREE))])
def test_the_constructor_and_of_build_one_event(free):
    # a free box is checked but not stored, so it leaves the event as it was
    items = (((2, 2), R.MUST_ALPHA), ((1, 3), R.MUST_BETA), ((1, 1), R.MUST_EMPTY))
    built = ConstraintSet(4, items + free)
    for other in (ConstraintSet.of(4, dict(items)), ConstraintSet.of(4, dict(free + items))):
        assert built == other and hash(built) == hash(other)
        assert built.as_dict() == other.as_dict()
    assert built.items == (((1, 1), R.MUST_EMPTY), ((1, 3), R.MUST_BETA), ((2, 2), R.MUST_ALPHA))


def test_validation():
    with pytest.raises(ValueError):
        ConstraintSet.of(3, {(3, 3): R.MUST_ALPHA})  # outside the staircase
    with pytest.raises(ValueError):
        ConstraintSet.of(3, {(3, 3): R.FREE})  # free, yet still outside
    with pytest.raises(ValueError):
        ConstraintSet(3, (((1, 1), R.FREE), ((1, 1), R.MUST_BETA)))
    with pytest.raises(ValueError):
        ConstraintSet(3, (((1, 1), R.MUST_ALPHA), ((1, 1), R.MUST_BETA)))
    with pytest.raises(TypeError):
        ConstraintSet(3, (((1, 1), "alpha"),))


def test_a_bad_box_is_refused_before_the_boxes_are_sorted():
    with pytest.raises(ValueError, match="^row must be an int, got 'a'$"):
        ConstraintSet.of(4, {("a", 1): R.MUST_ALPHA, (1, 1): R.MUST_BETA})
    with pytest.raises(ValueError, match="^size must be an int, got '3'$"):
        ConstraintSet.of("3", {(1, 1): R.MUST_ALPHA})


def test_allowed_cells():
    c = ConstraintSet.of(3, {(1, 1): R.MUST_NONEMPTY, (2, 1): R.MUST_EMPTY})
    assert c.allowed_cells((1, 1)) == frozenset("AB")
    assert c.allowed_cells((2, 1)) == frozenset(".")
    assert c.allowed_cells((1, 2)) == frozenset(".AB")
    # a box outside the staircase is refused, not read as a free box
    for box in ((99, 99), (3, 2)):
        with pytest.raises(ValueError, match="lies outside the size-3 staircase"):
            c.allowed_cells(box)


def test_satisfied_by():
    t = Tableau((".A", "B"))
    assert ConstraintSet.of(2, {(1, 2): R.MUST_ALPHA, (2, 1): R.MUST_BETA}).satisfied_by(t)
    assert ConstraintSet.of(2, {(1, 1): R.MUST_EMPTY}).satisfied_by(t)
    assert not ConstraintSet.of(2, {(1, 1): R.MUST_NONEMPTY}).satisfied_by(t)
    assert not ConstraintSet.of(2, {(1, 2): R.MUST_BETA}).satisfied_by(t)
    # a free box holds any code, a gamma too
    assert ConstraintSet(2, (((1, 2), R.FREE),)).satisfied_by(Tableau((".G", "D")))
    with pytest.raises(ValueError):
        ConstraintSet.empty(3).satisfied_by(t)


def test_diagonal_event_builders():
    c = second_diag_event(4, [2], R.MUST_ALPHA)
    assert c.as_dict() == {(2, 2): R.MUST_ALPHA}
    c = third_diag_event(5, [1, 3], R.MUST_NONEMPTY)
    assert c.as_dict() == {(3, 1): R.MUST_NONEMPTY, (1, 3): R.MUST_NONEMPTY}
    with pytest.raises(ValueError):
        second_diag_event(4, [4], R.MUST_ALPHA)
    with pytest.raises(ValueError):
        third_diag_event(5, [1, 1], R.MUST_ALPHA)
    # a size too small for the diagonal is named, as formulas name it
    for build, least, name in ((second_diag_event, 2, "second"),
                               (third_diag_event, 3, "third")):
        for n in range(least):
            with pytest.raises(ValueError, match=f"^the {name} diagonal is empty "
                                                 f"below size {least}, got n={n}$"):
                build(n, [1], R.MUST_ALPHA)

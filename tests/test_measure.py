import random
import re
from fractions import Fraction

import pytest

from staircase_lab import asep, core, dpcount, enumeration, formulas, moments, sampler
from staircase_lab.constraints import (ConstraintSet, Requirement, second_diag_event,
                                       third_diag_event)
from staircase_lab.core import Tableau
from staircase_lab.measure import (FourWeights, Weights, falling_factorial,
                                   parse_rational, rising_factorial)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" 2 ") == Fraction(2)
    assert parse_rational("0.5") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_rational("x")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_factorials():
    assert rising_factorial(Fraction(2), 3) == 2 * 3 * 4
    assert rising_factorial(Fraction(1, 2), 2) == Fraction(3, 4)
    assert rising_factorial(Fraction(5), 0) == 1
    assert falling_factorial(Fraction(5), 2) == 20
    assert falling_factorial(Fraction(1, 2), 1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        rising_factorial(Fraction(1), -1)


def test_weights_validation():
    w = Weights(Fraction(1, 2), 3)
    assert w.a == Fraction(1, 2) and w.b == 3
    assert Weights("1/3", "0").b == 0
    with pytest.raises(ValueError):
        Weights(-1, 2)
    with pytest.raises(ValueError):
        Weights(0, 0)
    with pytest.raises(TypeError):
        Weights(0.5, 1)


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_not_a_weight(flag):
    with pytest.raises(TypeError, match=f"a must be a rational number, got {flag!r}"):
        Weights(flag, 1)
    with pytest.raises(TypeError, match=f"b must be a rational number, got {flag!r}"):
        Weights(1, flag)
    with pytest.raises(TypeError, match=f"alpha must be a rational number, got {flag!r}"):
        Weights.from_alpha_beta(flag, 1)
    with pytest.raises(TypeError, match=f"delta must be a rational number, got {flag!r}"):
        FourWeights(1, 1, 1, flag)


def test_weights_from_alpha_beta():
    w = Weights.from_alpha_beta(2, "1/3")
    assert (w.a, w.b) == (Fraction(1, 2), Fraction(3))
    with pytest.raises(ValueError):
        Weights.from_alpha_beta(0, 1)
    assert Weights(1, 2).swapped() == Weights(2, 1)


def test_normalizer():
    assert Weights(1, 1).normalizer(3) == 24
    assert Weights(1, 1).normalizer(0) == 1
    assert Weights("1/2", "1/3").normalizer(2) == Fraction(5, 6) * Fraction(11, 6)


def test_tableau_weight_and_prob():
    w = Weights(2, 3)
    t = Tableau(("AA", "B"))  # N_alpha = 2, N_beta = 1
    assert w.tableau_weight(t) == Fraction(3)  # a^0 b^1
    assert w.prob(t) == Fraction(3) / (5 * 6)
    with pytest.raises(ValueError):
        w.tableau_weight(Tableau(("AG", "B")))


def test_zero_parameter_uses_power_convention():
    # a = 0 encodes alpha = infinity: tableaux with fewer than n alphas
    # lose all mass, and a^0 = 1 keeps the saturated ones exact.
    w = Weights(0, 1)
    assert w.prob(Tableau(("AA", "B"))) == Fraction(1, 2)
    assert w.prob(Tableau((".B", "B"))) == 0
    assert sum(w.prob(t) for t in
               (Tableau(("AA", "B")), Tableau((".A", "A")), Tableau((".A", "B")),
                Tableau(("BA", "B")), Tableau((".B", "A")), Tableau((".B", "B")))) == 1


def test_four_weights():
    fw = FourWeights(1, 2, 3, 4)
    t = Tableau(("AG", "D"))
    assert fw.tableau_weight(t) == 1 * 3 * 4
    assert fw.merged() == FourWeights(4, 6)
    with pytest.raises(ValueError):
        FourWeights(0, 1, 0, 1)
    with pytest.raises(ValueError):
        FourWeights(1, 2, -1, 0)


W, P = Weights(1, 2), asep.AsepParams(2, 1, 3, 1)
EMPTY = ConstraintSet.empty(3)
SIZE_TAKERS = {
    "staircase_boxes": lambda n: core.staircase_boxes(n),
    "main_diagonal": lambda n: core.main_diagonal(n),
    "second_diagonal": lambda n: core.second_diagonal(n),
    "third_diagonal": lambda n: core.third_diagonal(n),
    "second_diag_max_count": lambda n: core.second_diag_max_count(n),
    "third_diag_max_count": lambda n: core.third_diag_max_count(n),
    # the two streams must refuse at the call, not on the first next
    "enumerate_tableaux": lambda n: enumeration.enumerate_tableaux(n),
    "enumerate_four_symbol": lambda n: enumeration.enumerate_four_symbol(n),
    "count_tableaux": lambda n: enumeration.count_tableaux(n),
    "all_tableaux": lambda n: enumeration.all_tableaux(n),
    # the ledger keys (build, True) and (build, 1) are equal
    "all_tableaux_warm": lambda n: (enumeration.all_tableaux(1),
                                    enumeration.all_tableaux(n)),
    "brute_partition": lambda n: enumeration.brute_partition(n, W),
    "oracle_event_prob": lambda n: enumeration.oracle_event_prob(n, W, EMPTY),
    "oracle_statistic_pmf": lambda n: enumeration.oracle_statistic_pmf(n, W, "A2"),
    "partition_closed": lambda n: formulas.partition_closed(n, W),
    "box_law": lambda n: formulas.box_law(n, W, (1, 1)),
    "second_diag_joint_alpha": lambda n: formulas.second_diag_joint_alpha(n, W, [1]),
    "second_diag_joint_nonempty": lambda n: formulas.second_diag_joint_nonempty(n, W, [1]),
    "third_diag_main_term": lambda n: formulas.third_diag_main_term(n, W, [1]),
    "ConstraintSet": lambda n: ConstraintSet(n, ()),
    "Tableau.from_cells": lambda n: Tableau.from_cells(n, {}),
    "ConstraintSet.empty": lambda n: ConstraintSet.empty(n),
    "ConstraintSet.of": lambda n: ConstraintSet.of(n, {}),
    "second_diag_event": lambda n: second_diag_event(n, [1], Requirement.MUST_ALPHA),
    "third_diag_event": lambda n: third_diag_event(n, [1], Requirement.MUST_ALPHA),
    "constrained_partition": lambda n: dpcount.constrained_partition(n, W),
    "event_prob": lambda n: dpcount.event_prob(n, W, EMPTY),
    "conditional_cell_law": lambda n: dpcount.conditional_cell_law(n, W, (1, 1)),
    "statistic_pmf": lambda n: dpcount.statistic_pmf(n, W, "A2"),
    "sample_many_chain_rule":
        lambda n: sampler.sample_many(n, W, random.Random(1), 1, "chain_rule"),
    "sample_many_enum_alias":
        lambda n: sampler.sample_many(n, W, random.Random(1), 1, "enum_alias"),
    "exact_statistic_pmf": lambda n: moments.exact_statistic_pmf(n, W, "A2"),
    "convergence_report": lambda n: moments.convergence_report([n], W, "X2"),
    "factorial_moments_second_diag":
        lambda n: moments.factorial_moments_second_diag(n, W, "alpha", 1),
    "factorial_moments_third_diag":
        lambda n: moments.factorial_moments_third_diag(n, W, "alpha", 1),
    "steady_state_via_tableaux": lambda n: asep.steady_state_via_tableaux(n, P),
    "steady_state_via_generator": lambda n: asep.steady_state_via_generator(n, P),
    "cross_validate": lambda n: asep.cross_validate(n, P),
}


@pytest.mark.parametrize("size", [True, 2.0, "3"])
@pytest.mark.parametrize("entry", sorted(SIZE_TAKERS))
def test_every_size_taker_refuses_a_size_that_is_not_an_int(entry, size):
    # True once passed as size 1, and a float size ran on as a float
    with pytest.raises(ValueError, match=f"^size must be an int, got {re.escape(repr(size))}$"):
        SIZE_TAKERS[entry](size)


# The five functions that take a column list on a diagonal, at n = 6.
COLUMN_TAKERS = {
    "second_diag_joint_alpha": (2, lambda cols: formulas.second_diag_joint_alpha(6, W, cols)),
    "second_diag_joint_nonempty":
        (2, lambda cols: formulas.second_diag_joint_nonempty(6, W, cols)),
    "third_diag_main_term": (3, lambda cols: formulas.third_diag_main_term(6, W, cols)),
    "second_diag_event": (2, lambda cols: second_diag_event(6, cols, Requirement.MUST_ALPHA)),
    "third_diag_event": (3, lambda cols: third_diag_event(6, cols, Requirement.MUST_ALPHA)),
}


@pytest.mark.parametrize("cols", [[2.0], [True], ["1"], []], ids=repr)
@pytest.mark.parametrize("entry", sorted(COLUMN_TAKERS))
def test_every_column_taker_refuses_a_column_that_is_not_an_int_or_no_column(entry, cols):
    # a float column would give a float from an exact API, True would
    # pass as column 1, and an empty list would build an empty event
    diagonal, take = COLUMN_TAKERS[entry]
    what = {2: "second", 3: "third"}[diagonal]
    message = (f"{what}-diagonal column must be an int, got {cols[0]!r}" if cols
               else f"{what}-diagonal needs at least one column")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        take(cols)


# Every function that takes a statistic's name.
STATISTIC_TAKERS = {
    "diagonal_statistic": lambda name: core.diagonal_statistic(Tableau((".A", "B")), name),
    "statistic_pmf": lambda name: dpcount.statistic_pmf(3, W, name),
    "exact_statistic_pmf": lambda name: moments.exact_statistic_pmf(3, W, name),
    "oracle_statistic_pmf": lambda name: enumeration.oracle_statistic_pmf(3, W, name),
    "empirical_pmf": lambda name: sampler.empirical_pmf(3, W, name, 5, random.Random(1)),
    "convergence_report": lambda name: moments.convergence_report([3], W, name),
}


@pytest.mark.parametrize("entry", sorted(STATISTIC_TAKERS))
def test_every_statistic_taker_refuses_an_unknown_name_with_one_message(entry, monkeypatch):
    # empirical_pmf refuses the name before it draws a sample
    monkeypatch.setattr(sampler, "sample_many", lambda *args: pytest.fail("drew samples"))
    message = f"unknown statistic 'Z9'; expected one of {core.STATISTIC_NAMES}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        STATISTIC_TAKERS[entry]("Z9")


# Every function that takes a box, at n = 6, and both routes that price
# a cell event; then Tableau's methods, which take the row and column
# apart, so that only the pairs reach them.
T6 = Tableau.from_cells(6, {})
BOX_TAKERS = {
    "box_law": lambda box: formulas.box_law(6, W, box),
    "ConstraintSet": lambda box: ConstraintSet(6, ((box, Requirement.MUST_ALPHA),)),
    "ConstraintSet.of": lambda box: ConstraintSet.of(6, {box: Requirement.MUST_ALPHA}),
    "event_prob":
        lambda box: dpcount.event_prob(6, W, ConstraintSet.of(6, {box: Requirement.MUST_ALPHA})),
    "oracle_event_prob": lambda box: enumeration.oracle_event_prob(
        6, W, ConstraintSet.of(6, {box: Requirement.MUST_ALPHA})),
    "conditional_cell_law": lambda box: dpcount.conditional_cell_law(6, W, box),
    "ConstraintSet.allowed_cells": lambda box: ConstraintSet.empty(6).allowed_cells(box),
    "Tableau.from_cells": lambda box: Tableau.from_cells(6, {box: "A"}),
}
ROW_COLUMN_TAKERS = {"Tableau.cell": T6.cell, "Tableau.subtableau": T6.subtableau,
                     "Tableau.delete_row_col": T6.delete_row_col}
BAD_BOXES = {(2.0, 3): "row must be an int, got 2.0",
             (True, 3): "row must be an int, got True",
             (1, 2, 3): "a box must be a pair of ints (i, j), got (1, 2, 3)",
             5: "a box must be a pair of ints (i, j), got 5"}


@pytest.mark.parametrize("entry,box", [
    *((entry, box) for entry in sorted(BOX_TAKERS) for box in BAD_BOXES),
    *((entry, box) for entry in sorted(ROW_COLUMN_TAKERS) for box in ((2.0, 3), (True, 3))),
], ids=repr)
def test_every_box_taker_refuses_a_box_that_is_not_a_pair_of_ints(entry, box):
    # a float box gave float laws, True passed as row 1, and the DP priced
    # a float-box event that the oracle could not read
    with pytest.raises(ValueError, match=f"^{re.escape(BAD_BOXES[box])}$"):
        if entry in BOX_TAKERS:
            BOX_TAKERS[entry](box)
        else:
            ROW_COLUMN_TAKERS[entry](*box)


# Every function that takes a named choice other than a statistic, with
# the options it offers.
CONVENTIONS, METHODS = ("paper_alpha_gamma", "alpha_delta"), ("enum_alias", "chain_rule")
KINDS = ("alpha", "beta", "nonempty")
CHOICE_TAKERS = {
    "tableau_type": ("convention", CONVENTIONS, lambda value: asep.tableau_type(T6, value)),
    "steady_state_via_tableaux":
        ("convention", CONVENTIONS, lambda value: asep.steady_state_via_tableaux(3, P, value)),
    "sample": ("method", METHODS, lambda value: sampler.sample(3, W, random.Random(1), value)),
    "sample_many":
        ("method", METHODS, lambda value: sampler.sample_many(3, W, random.Random(1), 2, value)),
    "empirical_pmf": ("method", METHODS, lambda value: sampler.empirical_pmf(
        3, W, "A2", 5, random.Random(1), value)),
    "factorial_moments_second_diag":
        ("kind", KINDS, lambda value: moments.factorial_moments_second_diag(6, W, value, 1)),
    "factorial_moments_third_diag":
        ("kind", KINDS, lambda value: moments.factorial_moments_third_diag(6, W, value, 1)),
    "factorial_moments_third_diag_mode": ("mode", ("exact_dp", "main_term"), lambda value:
                                          moments.factorial_moments_third_diag(
                                              6, W, "alpha", 1, value)),
    "third_diag_main_term": ("kind", ("alpha", "nonempty"),
                             lambda value: formulas.third_diag_main_term(6, W, [1], value)),
}


@pytest.mark.parametrize("value", ["bogus", ["alpha"]], ids=repr)
@pytest.mark.parametrize("entry", sorted(CHOICE_TAKERS))
def test_every_choice_taker_refuses_an_unknown_option_with_one_message(entry, value):
    name, choices, take = CHOICE_TAKERS[entry]
    message = f"{name} must be one of {choices}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        take(value)

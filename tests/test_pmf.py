import math
import pickle
import random
import re
from fractions import Fraction

import pytest

from staircase_lab.pmf import Pmf

F = Fraction


def test_validation_and_trimming():
    p = Pmf((F(1, 2), F(1, 2), F(0), F(0)))
    assert p.masses == (F(1, 2), F(1, 2))
    assert p.max_value == 1
    with pytest.raises(ValueError, match="masses must sum to 1, got 5/6"):
        Pmf((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError, match="got 7/6"):
        Pmf((F(1, 2), F(0), F(2, 3)))
    with pytest.raises(ValueError):
        Pmf((F(3, 2), F(-1, 2)))
    with pytest.raises(ValueError):
        Pmf(())


def test_the_two_ways_in():
    # masses at 0, 1, 2, ... with an interior and a trailing zero, or integer weights
    p = Pmf((F(1, 4), F(0), F(3, 4), F(0)))
    assert p.masses == (F(1, 4), F(0), F(3, 4))
    assert (p.numerators, p.denominator) == ((1, 0, 3), 4)
    assert p == Pmf.from_integers((2, 0, 6, 0), 8) and "numerators" not in repr(p)
    assert Pmf((0, 0, 1)).mass(2) == 1 and Pmf((1,)).max_value == 0
    with pytest.raises(ValueError, match="^masses must be nonnegative$"):
        Pmf.from_integers((-1, 2), 1)
    with pytest.raises(ValueError, match="^masses need a nonzero denominator$"):
        Pmf.from_integers((0,), 0)


def test_mass_and_mean():
    p = Pmf((F(1, 2), F(1, 4), F(1, 4)))
    assert p.mass(5) == 0
    assert p.mean() == F(3, 4)
    assert p.as_dict() == {0: F(1, 2), 1: F(1, 4), 2: F(1, 4)}


def test_factorial_moments():
    # X uniform on {0, 1, 2, 3}: E[X(X-1)] = (0+0+2+6)/4 = 2
    p = Pmf(tuple(F(1, 4) for _ in range(4)))
    assert p.factorial_moment(0) == 1
    assert p.factorial_moment(1) == F(3, 2)
    assert p.factorial_moment(2) == 2
    assert p.factorial_moment(3) == F(3, 2)  # only k = 3 contributes 3!/4
    assert p.factorial_moment(9) == 0
    with pytest.raises(ValueError):
        p.factorial_moment(-1)


@pytest.mark.parametrize("bad", [True, 2.0, "2"])
def test_an_order_or_point_that_is_not_an_int_is_refused(bad):
    # True once gave the mean and the mass at 1; 2.0 a TypeError from math.perm
    p = Pmf(tuple(F(1, 4) for _ in range(4)))
    with pytest.raises(ValueError, match=f"^r must be an int, got {re.escape(repr(bad))}$"):
        p.factorial_moment(bad)
    with pytest.raises(ValueError, match=f"^k must be an int, got {re.escape(repr(bad))}$"):
        p.mass(bad)


def test_tv_distance():
    p = Pmf((F(1, 2), F(1, 2)))
    q = Pmf((F(1, 4), F(0), F(3, 4)))
    assert p.tv_distance(q) == (F(1, 4) + F(1, 2) + F(3, 4)) / 2
    assert p.tv_distance(p) == 0
    assert Pmf((1,)).tv_distance(Pmf((0, 0, 0, 1))) == 1


def test_tv_distance_over_coprime_denominators_and_unequal_supports():
    p = Pmf((F(1, 3), F(2, 3)))
    q = Pmf((F(1, 5), F(0), F(2, 5), F(2, 5)))
    assert p.tv_distance(q) == q.tv_distance(p) == (F(2, 15) + F(2, 3) + F(4, 5)) / 2
    rng = random.Random(7)
    for _ in range(100):
        laws = [_random_law(rng) for _ in range(2)]
        top = max(law.max_value for law in laws)
        assert laws[0].tv_distance(laws[1]) == sum(
            abs(laws[0].mass(k) - laws[1].mass(k)) for k in range(top + 1)) / 2


def _random_law(rng):
    weights = [rng.choice((0, rng.randrange(1, 10 ** rng.randrange(1, 20))))
               for _ in range(rng.randrange(1, 15))] + [rng.randrange(1, 1000)]
    return Pmf.from_integers(weights, sum(weights))


def test_factorial_moments_match_fraction_sums():
    rng = random.Random(11)
    for _ in range(100):
        p = _random_law(rng)
        for r in range(p.max_value + 3):
            assert p.factorial_moment(r) == sum(
                math.perm(k, r) * m for k, m in enumerate(p.masses)), (p, r)
        assert p.factorial_moment(0) == 1
        assert p.factorial_moment(p.max_value + 1) == p.factorial_moment(p.max_value + 2) == 0


def test_from_integers_matches_fraction_construction():
    # interior zeros, trailing zeros and a shared factor, against Pmf(masses)
    rng = random.Random(2024)
    for _ in range(300):
        factor = rng.choice((1, 2, 6, 35, 2 ** 70))
        weights = [factor * rng.choice((0, 0, 1, rng.randrange(10 ** 12)))
                   for _ in range(rng.randrange(1, 12))]
        weights += [0] * rng.randrange(4)
        if not any(weights):
            weights[0] = factor
        total = sum(weights)
        got = Pmf.from_integers(weights, total)
        want = Pmf(tuple(F(x, total) for x in weights))
        assert got == want and hash(got) == hash(want)
        assert repr(got) == repr(want) and got.masses == want.masses
        assert (got.numerators, got.denominator) == (want.numerators, want.denominator)
        assert math.gcd(got.denominator, *got.numerators) == 1
        assert got.numerators[-1] != 0 or got.max_value == 0
        assert Pmf.from_integers([-x for x in weights], -total) == got


def test_from_integers_rejects_bad_input_with_value_errors():
    with pytest.raises(ValueError):
        Pmf.from_integers([0, 0], 0)
    with pytest.raises(ValueError):
        Pmf.from_integers([1, 2], 0)
    with pytest.raises(ValueError, match="masses must sum to 1, got 5/6"):
        Pmf.from_integers([3, 2], 6)
    with pytest.raises(ValueError, match="nonnegative"):
        Pmf.from_integers([3, -1], 2)
    with pytest.raises(ValueError, match="nonnegative"):
        Pmf.from_integers([-3, 1], -2)
    with pytest.raises(ValueError):
        Pmf.from_integers([], 1)


def test_pickle_round_trip():
    p = Pmf.from_integers([2, 0, 6, 0], 8)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p) and q.masses == (F(1, 4), F(0), F(3, 4))

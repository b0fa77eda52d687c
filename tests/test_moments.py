"""Moment formulas checked against brute sums, oracles, and inversion."""

import gc
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import mpmath
import pytest

from staircase_lab import dpcount, formulas, moments
from staircase_lab.core import STATISTIC_NAMES
from staircase_lab.enumeration import oracle_statistic_pmf
from staircase_lab.measure import Weights, falling_factorial, rising_factorial
from staircase_lab.moments import (
    POISSON_RATES,
    ConvergenceRow,
    convergence_report,
    exact_statistic_pmf,
    factorial_moments_second_diag,
    factorial_moments_third_diag,
    pmf_from_factorial_moments,
    second_diag_max_count,
    third_diag_max_count,
    tv_to_poisson,
)
from staircase_lab.pmf import Pmf

WEIGHTS = [Weights(1, 1), Weights(F(1, 2), 3), Weights(0, 1)]


# ----------------------------------------------------------------------
# the monotone-tuple recurrence against literal tuple listings

@pytest.mark.parametrize("position_shift", [False, True])
def test_tuple_sum_table_matches_brute_listing(position_shift):
    # size n reads the sum over r-tuples below t = n - step r + 1, for each r
    step = 3 if position_shift else 2
    for b in (F(2, 3), F(0), F(7, 4)):
        if position_shift:
            value = lambda u, pos: b + u + pos - 1
        else:
            value = lambda u, pos: b + u
        for n in range(1, 7 + 3 * step + 1):  # up to t = 7 at r = 3
            for R in range(4):
                heads, = moments._tuple_sum_heads(b, [n], step, R)
                assert len(heads) == R + 1
                for r, head in enumerate(heads):
                    brute = sum(
                        math.prod(value(u, pos) for pos, u in enumerate(tup, start=1))
                        for tup in itertools.combinations_with_replacement(
                            range(n - step * r + 1), r)
                    )
                    assert F(head, b.denominator ** r) == brute, (b, n, R, r)


def _rolled_row_tuple_sum_heads(b, n, step, R):
    """The heads as one row rolled forward in t, ascending in k: the
    route the column sweep replaced."""
    bn, bd = b.numerator, b.denominator
    row, heads = [1] + [0] * R, [1] + [0] * R
    for t in range(1, n - step + 2):
        r, rest = divmod(n + 1 - t, step)
        for k in range(1, min(R, r) + 1):
            row[k] += (bn + (t - 1 + (step - 2) * (k - 1)) * bd) * row[k - 1]
        if not rest and r <= R:
            heads[r] = row[r]
    return heads


@pytest.mark.parametrize("b", [F(0), F(1, 2), F(7, 4), F(13, 7), F(1000, 143)], ids=str)
@pytest.mark.parametrize("step", [2, 3])
def test_column_sweep_matches_rolled_row(step, b):
    # every R up to two past the support, so the zero padding is read too;
    # the heads for R are a prefix of the heads for any larger R
    for n in range(1, 161):
        top = n // step + 2
        rolled = _rolled_row_tuple_sum_heads(b, n, step, top)
        for R in range(top + 1):
            assert moments._tuple_sum_heads(b, [n], step, R) == [rolled[:R + 1]], (n, R)


@pytest.mark.parametrize("b", [F(0), F(1, 2), F(7, 4), F(13, 7), F(1000, 143)], ids=str)
@pytest.mark.parametrize("step", [2, 3])
def test_one_sweep_serves_a_ladder_of_sizes(step, b):
    # each size reads its heads off the sweep at the ladder's largest size:
    # ladders unsorted and with repeats, and orders past a smaller size's
    # support, so its zero padding is read while the sweep still runs
    rolled = {n: _rolled_row_tuple_sum_heads(b, n, step, 160 // step + 2)
              for n in range(1, 161)}
    rng = random.Random(step)
    ladders = [[1], [5, 5], [40, 3, 17, 40, 1, 2], [7, 160, 61, 6, 159, 160]]
    ladders += [rng.choices(range(1, 161), k=rng.randrange(1, 7)) for _ in range(20)]
    for ns in ladders:
        top = max(ns) // step
        for R in sorted({0, 1, min(ns) // step + 1, top, top + 2}):
            expected = [rolled[n][:R + 1] for n in ns]
            assert moments._tuple_sum_heads(b, ns, step, R) == expected, (ns, R)


# ----------------------------------------------------------------------
# the integer route against the Fraction route it replaced

def _fraction_tuple_sum_table(factor, tmax, kmax):
    table = [[F(1)] + [F(0)] * kmax]
    for t in range(1, tmax + 1):
        row = [F(1)]
        for k in range(1, kmax + 1):
            row.append(table[t - 1][k] + factor(t, k) * row[k - 1])
        table.append(row)
    return table


def _fraction_moments(n, w, kind, R, step):
    """Factorial moments 1..R by the Fraction route: step 2 is the
    second diagonal, step 3 the third diagonal's main term."""
    if kind == "beta":
        return _fraction_moments(n, w.swapped(), "alpha", R, step)
    s = n + w.a + w.b
    if kind == "nonempty":
        return [F(math.factorial(r) * math.comb(max(n - (step - 1) * r, 0), r))
                / rising_factorial(s - r, r) for r in range(1, R + 1)]
    if step == 2:
        table = _fraction_tuple_sum_table(lambda t, k: w.b + t - 1, max(n - 1, 0), R)
    else:
        table = _fraction_tuple_sum_table(lambda t, k: w.b + t + k - 2, max(n - 2, 0), R)
    out = []
    for r in range(1, R + 1):
        t = n - step * r + 1
        total = table[t][r] if t >= 1 else F(0)
        out.append(math.factorial(r) * total / falling_factorial(s - 1, 2 * r)
                   if total else F(0))
    return out


def _fraction_inversion(mus):
    top = len(mus) - 1
    return Pmf(tuple(
        sum((-1) ** (r - k) * mus[r] / (math.factorial(k) * math.factorial(r - k))
            for r in range(k, top + 1))
        for k in range(top + 1)
    ))


def _differential_weights(seed):
    rng = random.Random(seed)
    ws = [Weights(0, 1), Weights(F(5, 2), 0), Weights(F(13, 7), F(1000, 3))]
    while len(ws) < 6:
        a = F(rng.randint(0, 9), rng.randint(1, 12))
        b = F(rng.randint(0, 9), rng.randint(1, 12))
        if a or b:
            ws.append(Weights(a, b))
    return ws


@pytest.mark.parametrize("statistic", ["A2", "B2", "X2"])
def test_exact_laws_match_fraction_route(statistic):
    kind = {"A2": "alpha", "B2": "beta", "X2": "nonempty"}[statistic]
    for n in range(1, 49):
        for w in _differential_weights(n):
            cap = second_diag_max_count(n)
            mus = [F(1)] + (_fraction_moments(n, w, kind, cap, 2) if cap else [])
            assert exact_statistic_pmf(n, w, statistic) == _fraction_inversion(mus), (n, w)


@pytest.mark.parametrize("step", [2, 3])
def test_moments_match_fraction_route(step):
    for n in range(1, 41):
        for w in _differential_weights(100 + n):
            for kind in ("alpha", "beta", "nonempty"):
                if step == 2:
                    R = second_diag_max_count(n) + 1
                    got = factorial_moments_second_diag(n, w, kind, R)
                else:
                    R = third_diag_max_count(n) + 1
                    got = factorial_moments_third_diag(n, w, kind, R, "main_term")
                assert got == _fraction_moments(n, w, kind, R, step), (n, w, kind)


# ----------------------------------------------------------------------
# closed moments against sums of the closed joint laws (large m)

@pytest.mark.parametrize("w", [Weights(1, 1), Weights(F(1, 2), 3)])
def test_second_diag_moments_match_joint_law_sums(w):
    n = 31  # 30 second-diagonal columns
    for r in (1, 2, 3):
        brute = math.factorial(r) * sum(
            formulas.second_diag_joint_alpha(n, w, cols).value
            for cols in itertools.combinations(range(1, n), r)
        )
        assert factorial_moments_second_diag(n, w, "alpha", r)[-1] == brute
        brute = math.factorial(r) * sum(
            formulas.second_diag_joint_nonempty(n, w, cols).value
            for cols in itertools.combinations(range(1, n), r)
        )
        assert factorial_moments_second_diag(n, w, "nonempty", r)[-1] == brute


@pytest.mark.parametrize("w", [Weights(1, 1), Weights(F(1, 2), 3)])
def test_third_diag_main_moments_match_main_term_sums(w):
    n = 20  # 18 third-diagonal columns
    for r in (1, 2, 3):
        for kind in ("alpha", "nonempty"):
            brute = math.factorial(r) * sum(
                formulas.third_diag_main_term(n, w, cols, kind).value
                for cols in itertools.combinations(range(1, n - 1), r)
            )
            got = factorial_moments_third_diag(n, w, kind, r, "main_term")[-1]
            assert got == brute, (kind, r)


# ----------------------------------------------------------------------
# spec'd point values and symmetry

def test_known_moment_values():
    w = Weights(1, 1)
    assert factorial_moments_second_diag(2, w, "nonempty", 1) == [F(1, 3)]
    assert factorial_moments_second_diag(3, w, "alpha", 1) == [F(1, 4)]
    assert factorial_moments_third_diag(10, w, "nonempty", 1, "main_term") == [F(8, 11)]


def test_beta_moments_are_alpha_with_swapped_weights():
    w = Weights(F(1, 2), 3)
    assert factorial_moments_second_diag(9, w, "beta", 3) == \
        factorial_moments_second_diag(9, w.swapped(), "alpha", 3)
    assert factorial_moments_third_diag(9, w, "beta", 2, "exact_dp") == \
        factorial_moments_third_diag(9, w.swapped(), "alpha", 2, "exact_dp")
    assert factorial_moments_third_diag(30, w, "beta", 2, "main_term") == \
        factorial_moments_third_diag(30, w.swapped(), "alpha", 2, "main_term")


def test_moment_argument_validation():
    w = Weights(1, 1)
    with pytest.raises(ValueError):
        factorial_moments_second_diag(6, w, "gamma", 1)
    with pytest.raises(ValueError):
        factorial_moments_second_diag(6, w, "alpha", 0)
    with pytest.raises(ValueError):
        factorial_moments_second_diag(6, w, "alpha", second_diag_max_count(6) + 2)
    with pytest.raises(ValueError):
        factorial_moments_third_diag(8, w, "alpha", 1, "fast")
    with pytest.raises(ValueError):
        factorial_moments_third_diag(8, w, "alpha", third_diag_max_count(8) + 2)


def test_structural_caps():
    assert [second_diag_max_count(n) for n in (1, 2, 3, 4, 5)] == [0, 1, 1, 2, 2]
    assert [third_diag_max_count(n) for n in (2, 3, 4, 5, 6, 8)] == [0, 1, 2, 2, 2, 4]
    # one past the cap is allowed and vanishes exactly
    w = Weights(F(1, 2), 3)
    assert factorial_moments_second_diag(6, w, "alpha", 4)[-1] == 0
    assert factorial_moments_third_diag(
        8, w, "alpha", third_diag_max_count(8) + 1, "exact_dp")[-1] == 0


# ----------------------------------------------------------------------
# moments against the enumeration oracle and the counting engine

@pytest.mark.parametrize("w", WEIGHTS)
@pytest.mark.parametrize("n", [2, 4, 5, 7])
def test_second_diag_moments_match_oracle(n, w):
    R = min(3, second_diag_max_count(n) + 1)
    for kind, name in (("alpha", "A2"), ("beta", "B2"), ("nonempty", "X2")):
        oracle = oracle_statistic_pmf(n, w, name)
        got = factorial_moments_second_diag(n, w, kind, R)
        assert got == [oracle.factorial_moment(r) for r in range(1, R + 1)]


@pytest.mark.parametrize("w", WEIGHTS)
@pytest.mark.parametrize("n", [3, 5, 7])
def test_third_diag_exact_moments_match_oracle(n, w):
    R = min(3, third_diag_max_count(n) + 1)
    for kind, name in (("alpha", "A3"), ("nonempty", "X3")):
        oracle = oracle_statistic_pmf(n, w, name)
        got = factorial_moments_third_diag(n, w, kind, R, "exact_dp")
        assert got == [oracle.factorial_moment(r) for r in range(1, R + 1)]


@pytest.mark.parametrize("n", [6, 10, 12])
def test_inverted_second_diag_law_matches_counting_engine(n):
    for w in (Weights(1, 1), Weights(F(1, 2), 3)):
        for name in ("A2", "B2", "X2"):
            assert exact_statistic_pmf(n, w, name) == dpcount.statistic_pmf(n, w, name)


def test_exact_statistic_pmf_dispatch():
    w = Weights(1, 1)
    assert exact_statistic_pmf(1, w, "A2") == Pmf((1,))
    assert exact_statistic_pmf(4, w, "Nalpha") == dpcount.statistic_pmf(4, w, "Nalpha")
    with pytest.raises(ValueError):
        exact_statistic_pmf(4, w, "Z9")
    for statistic in STATISTIC_NAMES:
        for n in (-1, 0):
            with pytest.raises(ValueError, match="size"):
                exact_statistic_pmf(n, w, statistic)


# ----------------------------------------------------------------------
# inversion

def _nested_loop_invert(c, L):
    """The Taylor shift as nested subtraction passes: the route the
    suffix sums replaced."""
    shifted = list(c)
    for i in range(len(shifted) - 1):
        for j in range(len(shifted) - 2, i - 1, -1):
            shifted[j] -= shifted[j + 1]
    for k, num in enumerate(shifted):
        if num < 0:
            raise ValueError("moments are inconsistent: reconstructed mass "
                             f"at {k} is {F(num, L)}")
    return Pmf.from_integers(shifted, L)


def _both_inversions(c, L):
    """Each route's law, or the message of its ValueError."""
    out = []
    for invert in (moments._invert, _nested_loop_invert):
        try:
            out.append(invert(c, L))
        except ValueError as exc:
            out.append(str(exc))
    return out


def test_suffix_sums_match_nested_loop_on_moment_numerators():
    # step 3 main-term numerators are not always a law's: those must fail alike
    for n in list(range(1, 41)) + list(range(41, 257, 9)) + [256]:
        w = _differential_weights(300 + n)[n % 6]
        for kind in ("alpha", "beta", "nonempty"):
            for step, cap in ((2, second_diag_max_count(n)), (3, third_diag_max_count(n))):
                (c, L), = moments._moment_numerators([n], w, kind, cap, step)
                new, old = _both_inversions(c, L)
                assert new == old, (n, w, kind, step)


def test_suffix_sums_match_nested_loop_on_random_vectors():
    rng = random.Random(30)
    failures = 0
    for _ in range(400):
        size = rng.randrange(1, 40)
        if rng.random() < 0.5:
            # a law's own numerators: c_r = sum_k C(k, r) N_k inverts back to N
            nums = [rng.choice((0, rng.randrange(10 ** rng.randrange(1, 30))))
                    for _ in range(size - 1)] + [rng.randrange(1, 10 ** 6)]
            c = [sum(math.comb(k, r) * x for k, x in enumerate(nums)) for r in range(size)]
        else:
            c = [rng.randrange(1, 10 ** 9)] + [rng.randrange(-10 ** 6, 10 ** 9)
                                               for _ in range(size - 1)]
        new, old = _both_inversions(c, c[0])
        assert new == old, c
        failures += isinstance(new, str)
    assert 50 < failures < 350  # both the law and the refusal are exercised


def test_inversion_examples_and_errors():
    p = pmf_from_factorial_moments([1, F(1, 3)])
    assert p.masses == (F(2, 3), F(1, 3))
    assert pmf_from_factorial_moments([1]) == Pmf((1,))
    with pytest.raises(ValueError):
        pmf_from_factorial_moments([])
    with pytest.raises(ValueError):
        pmf_from_factorial_moments([F(1, 2), F(1, 3)])
    with pytest.raises(ValueError):
        pmf_from_factorial_moments([1, 2, 0])  # forces negative mass at 0
    with pytest.raises(TypeError):
        pmf_from_factorial_moments([1, 0.5])


@pytest.mark.parametrize("n", [2, 5, 9, 30, 100, 200])
def test_inversion_round_trips(n):
    w = Weights(F(1, 2), 3)
    law = exact_statistic_pmf(n, w, "X2")
    mus = [law.factorial_moment(r) for r in range(law.max_value + 1)]
    assert pmf_from_factorial_moments(mus) == law
    cap = second_diag_max_count(n)
    if cap >= 1:
        assert mus[1:] == factorial_moments_second_diag(n, w, "nonempty", cap)


# ----------------------------------------------------------------------
# the exact_dp to main_term gap on the third diagonal

def test_main_term_approaches_exact_moments():
    w = Weights(1, 1)
    for r in (1, 2):
        gaps = []
        for n in range(10, 19, 4):
            exact = factorial_moments_third_diag(n, w, "alpha", r, "exact_dp")[-1]
            main = factorial_moments_third_diag(n, w, "alpha", r, "main_term")[-1]
            gaps.append(abs(float(exact - main)))
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)


# ----------------------------------------------------------------------
# Poisson distances

def test_tv_to_poisson_of_a_law_on_one_point():
    # the float nearest the distance, 1 - e^-1 at k = 0 and 1 - e^-1/2 at k = 2
    with mpmath.workdps(60):
        assert tv_to_poisson(Pmf((1,)), 1) == float(1 - mpmath.exp(-1))
        assert tv_to_poisson(Pmf((0, 0, 1)), 1) == float(1 - mpmath.exp(-1) / 2)


def test_tv_to_poisson_truncated_poisson_is_tiny():
    lam, top = F(1, 2), 40
    masses = [F(lam.numerator, lam.denominator) ** k / math.factorial(k)
              for k in range(top + 1)]
    scale = sum(masses)
    law = Pmf(tuple(mk / scale for mk in masses))
    assert tv_to_poisson(law, lam) < 1e-40


def test_tv_to_poisson_validation():
    p = Pmf((0, 0, 1))
    with pytest.raises(ValueError):
        tv_to_poisson(p, 0)
    with pytest.raises(ValueError):
        tv_to_poisson(p, F(-1, 2))
    with pytest.raises(TypeError):
        tv_to_poisson(p, 0.5)
    # no knob loosens or tightens the answer: it is one float
    with pytest.raises(TypeError):
        tv_to_poisson(p, 1, precision=1e-6)


def _per_point_tv(p, lam, precision=1e-12):
    """The distance as it was first computed: sum |p_k - pi_k| point by
    point in intervals, plus the Poisson mass beyond the support."""
    saved = mpmath.iv.dps
    try:
        for dps in (40, 80, 160, 320, 640):
            mpmath.iv.dps = dps
            lam_iv = mpmath.iv.mpf(lam.numerator) / mpmath.iv.mpf(lam.denominator)
            decay = mpmath.iv.exp(-lam_iv)
            power = mpmath.iv.mpf(1)
            gap = mpmath.iv.mpf(0)
            seen = mpmath.iv.mpf(0)
            for k, mass in p.items():
                pois = decay * power / math.factorial(k)
                exact = mpmath.iv.mpf(mass.numerator) / mpmath.iv.mpf(mass.denominator)
                gap += abs(exact - pois)
                seen += pois
                power *= lam_iv
            tv = (gap + (1 - seen)) / 2
            if float(mpmath.mpf(tv.delta)) < precision:
                return float(mpmath.mpf(tv.mid))
    finally:
        mpmath.iv.dps = saved
    raise ArithmeticError("could not enclose the distance tightly enough")


@pytest.mark.parametrize("statistic", ["A2", "B2", "X2"])
def test_tv_matches_per_point_route(statistic):
    lam = POISSON_RATES[statistic]
    for w in (Weights(1, 1), Weights(0, 1), Weights(2, 0),
              Weights(F(13, 7), F(1000, 3)), Weights(F(3, 4), F(5, 6))):
        for n in (1, 2, 3, 5, 16, 31, 64, 128, 256):
            laws = [exact_statistic_pmf(n, w, statistic)]
            if n <= 8:
                laws.append(oracle_statistic_pmf(n, w, statistic))
                assert laws[1] == laws[0]
            for law in laws:
                assert tv_to_poisson(law, lam) == _per_point_tv(law, lam), (n, w)


def _two_point_law_near_poisson(digits):
    """A law on {0, 1} whose p_1 sits below pi_1 = e^-1 of Poisson(1) by
    less than 10^-digits, with that distance's exact value."""
    with mpmath.workdps(digits + 60):
        p1 = F(int(mpmath.floor(mpmath.exp(-1) * 10 ** digits)), 10 ** digits)
        tv = 1 - mpmath.mpf(p1.numerator) / p1.denominator - mpmath.exp(-1)
        return Pmf((1 - p1, p1)), float(tv)


def test_tv_escalates_until_every_point_is_placed(monkeypatch):
    law, expected = _two_point_law_near_poisson(50)
    assert tv_to_poisson(law, 1) == expected
    # 19 terms bound e^-1 from below within about 10^-22, too coarse to tell p_1
    # from pi_1; 38 terms bound it within 5 * 10^-51, which places p_1
    ladder = moments._TERM_LADDER
    monkeypatch.setattr(moments, "_TERM_LADDER", ladder[:1])
    with pytest.raises(ArithmeticError):
        tv_to_poisson(law, 1)
    monkeypatch.setattr(moments, "_TERM_LADDER", ladder[:2])
    assert tv_to_poisson(law, 1) == expected


def test_tv_escalation_stops_at_the_top_of_the_ladder():
    law, _ = _two_point_law_near_poisson(700)
    with pytest.raises(ArithmeticError):
        tv_to_poisson(law, 1)
    # with a slack, running out of rungs asks for a higher moment order
    assert moments._enclose(law.numerators, law.denominator, 1, F(1)) is None


@pytest.mark.parametrize("lam", [F(1, 1000), F(25), F(300), F(1000)], ids=str)
def test_tv_matches_per_point_route_far_from_the_limit_rates(lam):
    for n in (1, 5, 31, 64):
        law = exact_statistic_pmf(n, Weights(F(3, 4), F(5, 6)), "X2")
        assert tv_to_poisson(law, lam) == _per_point_tv(law, lam), n


def test_tv_from_threads_matches_serial():
    calls = [(exact_statistic_pmf(n, w, stat), POISSON_RATES[stat])
             for stat in ("A2", "X2") for n in (5, 31, 128)
             for w in (Weights(1, 1), Weights(F(13, 7), F(1000, 3)))]
    calls += [(law, lam) for law, _ in calls[:3] for lam in (F(1, 3), F(7, 2))]
    serial = [tv_to_poisson(law, lam) for law, lam in calls]
    with ThreadPoolExecutor(4) as pool:
        runs = [pool.submit(lambda: [tv_to_poisson(law, lam) for law, lam in calls])
                for _ in range(4)]
        assert all(run.result() == serial for run in runs)


def test_the_library_runs_without_mpmath():
    code = ("import sys; sys.modules['mpmath'] = None\n"
            "import staircase_lab\n"
            "rows = staircase_lab.convergence_report([8, 16], staircase_lab.Weights(1, 1), 'X2')\n"
            "print(rows[-1].tv)\n")
    src = os.path.dirname(os.path.dirname(moments.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert float(out) == convergence_report([16], Weights(1, 1), "X2")[0].tv


def test_convergence_report_rows_and_pairing():
    w = Weights(1, 1)
    rows = convergence_report([8, 16, 32], w, "X2")
    assert [row.n for row in rows] == [8, 16, 32]
    assert all(isinstance(row, ConvergenceRow) for row in rows)
    tvs = [row.tv for row in rows]
    assert tvs[0] > tvs[1] > tvs[2] > 0
    for row in rows:
        assert row.moments[0] == exact_statistic_pmf(row.n, w, "X2").factorial_moment(1)
    with pytest.raises(ValueError, match="^'Nalpha' has no Poisson limit pairing$"):
        convergence_report([8], w, "Nalpha")
    with pytest.raises(ValueError):
        convergence_report([], w, "X2")


def test_poisson_rates_follow_the_statistic_table():
    # the paper's limits: Poisson(1/2) for a symbol count, Poisson(1) for a nonempty one
    assert list(POISSON_RATES.items()) == [
        ("A2", F(1, 2)), ("B2", F(1, 2)), ("X2", F(1)), ("A3", F(1, 2)), ("X3", F(1))]


@pytest.mark.parametrize("size", [True, 2.0, "3"])
def test_a_size_that_is_not_an_int_is_refused(size):
    w = Weights(1, 1)
    calls = [lambda: exact_statistic_pmf(size, w, "A2"),
             lambda: exact_statistic_pmf(size, w, "Nalpha"),
             lambda: convergence_report([size], w, "A2"),
             lambda: convergence_report([8, size], w, "X2"),
             lambda: factorial_moments_second_diag(size, w, "alpha", 1),
             lambda: factorial_moments_third_diag(size, w, "alpha", 1)]
    for call in calls:
        with pytest.raises(ValueError, match=f"size must be an int, got {size!r}"):
            call()



@pytest.mark.parametrize("order", [True, 2.0, "2"])
def test_a_moment_order_that_is_not_an_int_is_refused(order):
    w = Weights(1, 1)
    calls = [lambda: factorial_moments_second_diag(8, w, "alpha", order),
             lambda: factorial_moments_third_diag(8, w, "alpha", order),
             lambda: factorial_moments_third_diag(8, w, "alpha", order, "main_term")]
    for call in calls:
        with pytest.raises(ValueError, match=f"R must be an int, got {order!r}"):
            call()


def test_a_bool_rate_is_not_a_poisson_rate():
    with pytest.raises(TypeError, match="lam must be a rational number, got True"):
        tv_to_poisson(Pmf((0, 1)), True)
    with pytest.raises(TypeError, match="m\\[1\\] must be a rational number, got False"):
        pmf_from_factorial_moments([1, False])

def test_convergence_reports_are_pinned():
    # recorded from the Fraction moment route before it moved to integers
    ladder = [1, 2, 3, 5, 16, 31, 64, 128, 256]
    weights = [Weights(1, 1), Weights(F(1, 2), 3), Weights(0, 1), Weights(2, 0),
               Weights(F(13, 7), F(1000, 3)), Weights(F(3, 4), F(5, 6))]
    h = hashlib.sha256()
    for stat in ("A2", "B2", "X2"):
        for w in weights:
            for row in convergence_report(ladder, w, stat):
                moms = " ".join(f"{m.numerator}/{m.denominator}" for m in row.moments)
                h.update(f"{stat} {w.a} {w.b} {row.n} {moms} {row.tv!r}\n".encode())
    assert h.hexdigest() == (
        "6b49779888fe6cbae43d4ad6981bf299f8b4a707f4fe6517540bbf351eff1a06")


PINNED_WEIGHTS = [Weights(1, 1), Weights(F(1, 2), 3), Weights(0, 1), Weights(2, 0),
                  Weights(F(13, 7), F(1000, 3)), Weights(F(3, 4), F(5, 6))]


def _law_route_row(n, law, lam):
    return ConvergenceRow(n, tuple(law.factorial_moment(r) for r in range(1, 5)),
                          tv_to_poisson(law, lam))


def test_third_diagonal_convergence_reports_are_pinned():
    # recorded while every row still read exact_statistic_pmf's law
    ladder = [1, 2, 3, 5, 8, 12, 16]
    h = hashlib.sha256()
    for stat in ("A3", "X3"):
        for w in PINNED_WEIGHTS:
            rows = convergence_report(ladder, w, stat)
            for n, row in zip(ladder, rows):
                law = dpcount.statistic_pmf(n, w, stat)
                assert row == _law_route_row(n, law, POISSON_RATES[stat]), (stat, w, n)
                moms = " ".join(f"{m.numerator}/{m.denominator}" for m in row.moments)
                h.update(f"{stat} {w.a} {w.b} {row.n} {moms} {row.tv!r}\n".encode())
    assert h.hexdigest() == (
        "55dfe9872ba3f6468a69fb607a1e9e705485ed36614f555c1feae01f1f2463ad")


@pytest.mark.parametrize("statistic", ["A2", "B2", "X2"])
def test_second_diagonal_rows_match_the_law_route(statistic):
    # rows from the moment numerators and the head of the law against the
    # whole inverted law's factorial moments and distance
    lam = POISSON_RATES[statistic]
    ladder = list(range(1, 41)) + [64, 128, 256]
    for w in PINNED_WEIGHTS:
        rows = convergence_report(ladder, w, statistic)
        for n, row in zip(ladder, rows):
            law = exact_statistic_pmf(n, w, statistic)
            assert row == _law_route_row(n, law, lam), (w, n)
    w = Weights(F(13, 7), F(1000, 3))
    law = exact_statistic_pmf(1024, w, statistic)
    assert convergence_report([1024], w, statistic) == [_law_route_row(1024, law, lam)]


def test_an_order_too_low_for_the_answer_doubles(monkeypatch):
    orders = []
    tv_from_moments = moments._tv_from_moments

    def recording(c, lam):
        tv = tv_from_moments(c, lam)
        orders.append((len(c) - 2, tv is not None))
        return tv

    monkeypatch.setattr(moments, "_tv_from_moments", recording)
    monkeypatch.setattr(moments, "_first_order", lambda lam: 1)
    # A2 at (0, 1) has p_0 < pi_0, so its low orders place no point of the
    # distance's positive part
    for w, statistic in ((Weights(F(1, 2), 3), "A2"), (Weights(F(1, 2), 3), "X2"),
                         (Weights(0, 1), "A2")):
        alone = {}
        for ladder in ([64], [100], [256], [64, 100, 256]):
            orders.clear()
            rows = convergence_report(ladder, w, statistic)
            runs = [[]]  # the orders each row tried, split after the one that settles
            for order in orders:
                runs[-1].append(order)
                if order[1]:
                    runs.append([])
            assert runs.pop() == [] and len(runs) == len(ladder)
            for n, row, run in zip(ladder, rows, runs):
                # R runs 1, 2, 4, ... up to n // 2, and only the last order settles
                assert run == [(min(2 ** i, n // 2), i == len(run) - 1)
                               for i in range(len(run))]
                assert len(run) > 3
                # a row of a ladder tries the orders it tries alone
                assert alone.setdefault(n, run) == run
                law = exact_statistic_pmf(n, w, statistic)
                assert row == _law_route_row(n, law, POISSON_RATES[statistic])


def test_a_table_sweeps_the_tuple_sums_once(monkeypatch):
    # every row of an A2 or B2 table that settles at the first order reads
    # its heads off one sweep at the largest size; X2 rows need no sums
    calls = []
    sweep = moments._tuple_sum_heads

    def counting(b, ns, step, R):
        calls.append((b, list(ns), step, R))
        return sweep(b, ns, step, R)

    ladder = [12, 64, 128, 256]
    for w in PINNED_WEIGHTS:
        alone = {stat: [convergence_report([n], w, stat)[0] for n in ladder]
                 for stat in ("A2", "B2", "X2")}
        monkeypatch.setattr(moments, "_tuple_sum_heads", counting)
        for statistic, b in (("A2", w.b), ("B2", w.a), ("X2", None)):
            calls.clear()
            assert convergence_report(ladder, w, statistic) == alone[statistic]
            R = moments._first_order(POISSON_RATES[statistic]) + 1
            assert calls == ([(b, ladder, 2, R)] if b is not None else []), (w, statistic)
        monkeypatch.undo()


def test_a_ladder_holds_one_column_of_the_sweep():
    # the smaller sizes read the largest size's columns as they pass, so a
    # ladder peaks about as high as its largest row alone, and far below
    # the integers of the whole table, which column k at 256 lays out as
    # the heads of the sizes 2k..256
    w = Weights(F(13, 7), F(1000, 3))
    peaks = []
    for ladder in ([256], [12, 128, 256]):
        gc.collect()
        tracemalloc.start()
        try:
            convergence_report(ladder, w, "A2")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks
    heads = moments._tuple_sum_heads(w.b, list(range(1, 257)), 2, 25)
    table = sum(sys.getsizeof(head) for row in heads for head in row[1:] if head)
    assert peaks[1] <= table / 4, (peaks, table)


@pytest.mark.parametrize("c, message", [
    ([1, 2, 0], "reconstructed mass at 0 is -1"),
    ([1, 0, 1], "reconstructed mass at 1 is -2"),
    ([4, 1, 0, 1], "reconstructed mass at 2 is -3/4"),  # P(X = 2) below 0
])
def test_numerators_that_are_not_a_law_s_are_refused(c, message):
    # at full order, c_(R+1) = 0: the row refuses as the whole inversion does
    for refuse in (lambda: moments._invert(c, c[0]),
                   lambda: moments._tv_from_moments(c + [0], F(1, 2))):
        with pytest.raises(ValueError, match=f"^moments are inconsistent: {message}$"):
            refuse()


def test_a_negative_truncated_mass_asks_for_a_higher_order():
    # c_0..c_1 = 1, 2 give A_0 = -1, but c_2 = 1 leaves the order open
    assert moments._tv_from_moments([1, 2, 1], F(1, 2)) is None


def _bracket_laws():
    """(law, c_0..c_(R+1) at each order R below the top, lam): exact laws
    with their truncated moment numerators, and seeded integer laws."""
    for statistic, kind in (("A2", "alpha"), ("B2", "beta"), ("X2", "nonempty")):
        for n in (2, 3, 7, 16, 25, 40):
            for w in PINNED_WEIGHTS[::2]:
                law = exact_statistic_pmf(n, w, statistic)
                yield law, [moments._moment_numerators([n], w, kind, R + 1, 2)[0][0]
                            for R in range(n // 2)], POISSON_RATES[statistic]
    rng = random.Random(33)
    for _ in range(40):
        nums = [rng.choice((0, rng.randrange(10 ** rng.randrange(1, 12))))
                for _ in range(rng.randrange(1, 30))] + [rng.randrange(1, 10 ** 6)]
        c = [sum(math.comb(k, r) * x for k, x in enumerate(nums)) for r in range(len(nums))]
        yield Pmf.from_integers(nums, sum(nums)), [c[:R + 2] for R in range(len(c) - 1)], 1


def test_truncated_masses_bracket_the_law(monkeypatch):
    # Bonferroni: the masses of the moments truncated at R and at R + 1
    # lie on either side of each true mass, C(R+1, k) c_(R+1) apart; so
    # the slack a row's enclosure takes covers the law's distance from
    # the truncated one, and a settled row is the whole law's distance
    slacks = []
    enclose = moments._enclose

    def recording(nums, L, slack, lam):
        slacks.append(F(slack, L))
        return enclose(nums, L, slack, lam)

    monkeypatch.setattr(moments, "_enclose", recording)
    settled = 0
    for law, numerators, lam in _bracket_laws():
        nums, L = law.numerators, law.denominator
        for R, c in enumerate(numerators):
            low, high = moments._masses(c[:R + 1]) + [0], moments._masses(c[:R + 2])
            for k, (x, y) in enumerate(zip(low, high)):
                true = nums[k] * c[0] if k < len(nums) else 0
                assert (x * L - true) * (y * L - true) <= 0, (law, R, k)
                assert abs(y - x) == math.comb(R + 1, k) * c[R + 1], (law, R, k)
            slacks.clear()
            tv = moments._tv_from_moments(c, F(lam))
            if min(low) >= 0:  # the truncated masses are a law's
                size = max(len(nums), R + 1)
                truth = [F(x, L) for x in nums] + [0] * (size - len(nums))
                trunc = [F(x, c[0]) for x in low[:-1]] + [0] * (size - R - 1)
                apart = sum(abs(x - y) for x, y in zip(truth, trunc)) / 2
                assert apart <= slacks[0], (law, R)
            if tv is not None:
                assert tv == tv_to_poisson(law, lam), (law, R)
                settled += 1
    assert settled > 50

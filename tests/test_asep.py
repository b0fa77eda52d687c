"""Both stationary-law routes, the u/q filling, and the type reading."""

import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from staircase_lab.asep import (
    AsepParams,
    CONVENTIONS,
    cross_validate,
    steady_state_via_generator,
    steady_state_via_tableaux,
    tableau_type,
    uq_fill,
)
from staircase_lab import _budget, asep
from staircase_lab.asep import _RATE_NAMES, _integer_rates, _transitions
from staircase_lab.core import Tableau
from staircase_lab.enumeration import enumerate_four_symbol, enumerate_tableaux
from staircase_lab.pmf import Pmf

#: sha256 over the canonical JSON of cross_validate(n, p) for n = 1..6
#: and every rate set in PINNED_RATES, recorded while the generator was
#: still solved by Fraction Gauss-Jordan and the tableaux were streamed.
PINNED_REPORTS = "7dce0e45daf54f717c4dd2c9704eb6d8301b08e31c0462badecfd463cfe4425f"
PINNED_RATES = [
    AsepParams(2, 1, 3, 1, u=1, q=0),                          # q = 0
    AsepParams(F(3, 2), 2, 0, 1, u=1, q=F(1, 2)),              # gamma = 0
    AsepParams(1, F(3, 4), 2, 0, u=1, q=2),                    # delta = 0
    AsepParams(2, 1, F(5, 3), F(5, 3), u=1, q=F(1, 3)),        # gamma = delta
    AsepParams(2, 1, 3, 1, u=2, q=F(1, 2)),                    # non-unit u
    AsepParams(F(1, 2), F(2, 3), F(3, 5), F(5, 7), u=F(7, 4), q=F(11, 13)),
    AsepParams(1, 1, 0, 0, u=3, q=0),                          # TASEP, no back rates
    AsepParams(F(1, 3), F(1, 5), F(1, 7), F(2, 9), u=1, q=1),
]

GRID7 = Tableau(("A..G..A", ".....D", "..B.G", "...D", "..B", ".G", "B"))


def test_params_validation():
    p = AsepParams(2, 1, 3, 1, u=2, q=F(1, 2))
    assert p.alpha == 2 and p.q == F(1, 2)
    assert p.unit_u() == AsepParams(1, F(1, 2), F(3, 2), F(1, 2), 1, F(1, 4))
    assert p.as_dict()["q"] == "1/2"
    with pytest.raises(ValueError):
        AsepParams(-1, 1, 1, 1)
    with pytest.raises(ValueError):
        AsepParams(0, 1, 1, 0)  # no entry rate
    with pytest.raises(ValueError):
        AsepParams(1, 1, 1, 1, u=0, q=0)
    with pytest.raises(TypeError):
        AsepParams(0.5, 1, 1, 1)
    with pytest.raises(TypeError, match="alpha must be a rational number, got True"):
        AsepParams(True, 1, 0, 0)
    with pytest.raises(TypeError, match="q must be a rational number, got False"):
        AsepParams(1, 1, 0, 0, q=False)
    with pytest.raises(ValueError):
        AsepParams(1, 1, 1, 1, u=0, q=1).unit_u()


def test_tableau_type_readings():
    assert GRID7.is_valid
    assert GRID7.diagonal_entries() == "ADGDBGB"
    assert tableau_type(GRID7, "alpha_delta") == (1, 1, 0, 1, 0, 0, 0)
    assert tableau_type(GRID7, "paper_alpha_gamma") == (1, 0, 1, 0, 0, 1, 0)
    all_beta = Tableau((".B", "B"))
    for convention in CONVENTIONS:
        assert tableau_type(all_beta, convention) == (0, 0)
    assert tableau_type(Tableau(("G",)), "paper_alpha_gamma") == (1,)
    assert tableau_type(Tableau(("G",)), "alpha_delta") == (0,)
    with pytest.raises(ValueError):
        tableau_type(GRID7, "alpha_beta")


def filled_weight(rows, p):
    """Product of one rate per box of a u/q-filled grid."""
    rate = dict(zip("ABGDuq", _rates(p)))
    return math.prod((rate[code] for row in rows for code in row), start=F(1))


def test_uq_fill_reference_grid():
    rows = uq_fill(GRID7)
    assert type(rows) is tuple and all(type(row) is str for row in rows)
    assert rows == ("AqqGquA", "qqqqqD", "uuBuG", "qqqD", "uuB", "qG", "B")
    joined = "".join(rows)
    assert (joined.count("u"), joined.count("q")) == (6, 12)
    p = AsepParams(2, 3, 5, 7, u=11, q=13)
    assert filled_weight(rows, p) == 2**2 * 3**3 * 5**3 * 7**2 * 11**6 * 13**12
    flat = filled_weight(rows, AsepParams(2, 3, 5, 7, u=1, q=1))
    assert flat == 2**2 * 3**3 * 5**3 * 7**2


def test_uq_fill_small_cases():
    assert uq_fill(Tableau(("A",))) == ("A",)
    assert filled_weight(uq_fill(Tableau(("A",))), AsepParams(2, 1, 1, 1)) == 2
    # left of a beta: u's; above nothing alpha-ish: q
    assert uq_fill(Tableau((".B", "A"))) == ("uB", "A")
    assert uq_fill(Tableau((".A", "B"))) == ("qA", "B")
    assert uq_fill(Tableau((".A", "A"))) == ("uA", "A")
    for t in enumerate_four_symbol(4):
        rows = uq_fill(t)
        assert all("." not in row for row in rows)
        assert tuple(len(row) for row in rows) == (4, 3, 2, 1)
    with pytest.raises(ValueError, match=r"^box \(1, 2\) on the main diagonal is empty$"):
        uq_fill(Tableau(("..", ".")))


def test_tableaux_route_point_values():
    ones = AsepParams(1, 1, 1, 1, u=1, q=1)
    law = steady_state_via_tableaux(1, ones)
    assert law.masses == (F(1, 2), F(1, 2))
    assert sum(steady_state_via_tableaux(2, ones).masses) == 1

    p = AsepParams(2, 1, 3, 1, u=1, q=1)
    assert steady_state_via_tableaux(1, p, "alpha_delta").mass(1) == F(3, 7)
    assert steady_state_via_tableaux(1, p, "paper_alpha_gamma").mass(1) == F(5, 7)
    with pytest.raises(ValueError):
        steady_state_via_tableaux(11, ones)
    with pytest.raises(ValueError):
        steady_state_via_tableaux(2, ones, "diagonal")


def _rates(p):
    return [getattr(p, f) for f in _RATE_NAMES]


def reference_tableaux_law(n, p, convention):
    """The two-symbol tableau stream the tableaux route once summed.

    Each column's four-symbol expansions are split by the column's type
    bit; acc[2 * bit + flag] tracks whether the nearest symbol below
    reads u (alpha or delta).  A beta or delta pays for the empty boxes
    to its left, so empties whose nearest symbol to the right is a B
    are skipped.  Rates are cleared to integers, which the
    normalization cancels.
    """
    scale = math.lcm(*(r.denominator for r in _rates(p)))
    ra, rb, rg, rd, ru, rq = (int(r * scale) for r in _rates(p))
    gamma_bit = int(convention == "paper_alpha_gamma")
    totals = {}
    for t in enumerate_tableaux(n):
        vec = [1]
        for j in range(1, n + 1):
            fb, fd = rb * ru ** (j - 1), rd * rq ** (j - 1)
            acc = [0] * 4
            if t.rows[n - j][j - 1] == "A":
                acc[3] += ra
                acc[2 * gamma_bit] += rg
            else:
                acc[0] += fb
                acc[3 - 2 * gamma_bit] += fd
            for i in range(n - j, 0, -1):
                row = t.rows[i - 1]
                if row[j - 1] == ".":
                    if next(c for c in row[j:] if c != ".") == "B":
                        continue
                    acc = [acc[0] * rq, acc[1] * ru, acc[2] * rq, acc[3] * ru]
                else:
                    lo, hi = (rg, ra) if row[j - 1] == "A" else (fb, fd)
                    empty, filled = acc[0] + acc[1], acc[2] + acc[3]
                    acc = [empty * lo, empty * hi, filled * lo, filled * hi]
            we, wf = acc[0] + acc[1], acc[2] + acc[3]
            vec = [x * we for x in vec] + [x * wf for x in vec]
        for idx, value in enumerate(vec):
            totals[idx] = totals.get(idx, 0) + value
    weights = [totals.get(idx, 0) for idx in range(1 << n)]
    return Pmf.from_integers(weights, sum(weights))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_tableaux_route_matches_tableau_stream(n):
    rng = random.Random(500 + n)
    for p in [random_rates(rng) for _ in range(3 if n < 7 else 1)]:
        for convention in CONVENTIONS:
            got = steady_state_via_tableaux(n, p, convention)
            assert got == reference_tableaux_law(n, p, convention), (p, convention)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tableaux_route_matches_four_symbol_enumeration(n):
    p = AsepParams(F(1, 2), 2, F(2, 3), 1, u=1, q=F(3, 4))
    for convention in CONVENTIONS:
        totals = {}
        for t in enumerate_four_symbol(n):
            idx = int("".join(map(str, tableau_type(t, convention))), 2)
            totals[idx] = totals.get(idx, 0) + filled_weight(uq_fill(t), p)
        law = steady_state_via_tableaux(n, p, convention)
        z = sum(totals.values())
        for idx in range(1 << n):
            assert law.mass(idx) == totals.get(idx, 0) / z



def reference_closed_count_law(n, p, convention):
    """The closed-row-count transfer as the tableaux route once ran it:
    one vector per (count, symbol below) key, stepped box by box up
    each column."""
    ra, rb, rg, rd, ru, rq = _integer_rates(p)
    gamma_bit = int(convention == "paper_alpha_gamma")
    filled = {"A": 1, "G": gamma_bit, "B": 0, "D": 1 - gamma_bit}

    def accumulate(acc, key, vec, factor):
        if factor:
            old = acc.get(key)
            acc[key] = ([x * factor for x in vec] if old is None
                        else [y + x * factor for x, y in zip(vec, old)])

    states = {0: [1]}
    for j in range(n, 0, -1):
        symbols = (("A", ra), ("G", rg),
                   ("B", rb * ru ** (j - 1)), ("D", rd * rq ** (j - 1)))
        after = {}
        for closed, vec in states.items():
            column = {}
            for code, factor in symbols:
                spread = [0] * (2 * len(vec))
                spread[filled[code]::2] = vec
                accumulate(column, (closed + (code in "BD"), code), spread, factor)
            for _ in range(n - j - closed):
                above = {}
                for (count, below), vec in column.items():
                    accumulate(above, (count, below), vec, ru if below in "AD" else rq)
                    if below in "BD":
                        for code, factor in symbols:
                            accumulate(above, (count + (code in "BD"), code), vec, factor)
                column = above
            for (count, _), vec in column.items():
                accumulate(after, count, vec, 1)
        states = after
    totals = [sum(weights) for weights in zip(*states.values())]
    return Pmf.from_integers(totals, sum(totals))


#: The README's two rate sets for the practical limits.
README_RATES = [
    AsepParams(2, 1, F(1, 3), F(3, 2), u=1, q=F(1, 2)),
    AsepParams(F(1, 2), F(2, 3), F(3, 5), F(5, 7), u=F(7, 4), q=F(11, 13)).unit_u(),
]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_tableaux_route_matches_the_box_by_box_transfer(n):
    rng = random.Random(800 + n)
    for p in [random_rates(rng) for _ in range(12 if n < 7 else 4)]:
        for convention in CONVENTIONS:
            expected = reference_closed_count_law(n, p, convention)
            assert steady_state_via_tableaux(n, p, convention) == expected, (p, convention)


@pytest.mark.parametrize("p", README_RATES)
def test_tableaux_route_matches_the_box_by_box_transfer_at_n10(p):
    for convention in CONVENTIONS:
        expected = reference_closed_count_law(10, p, convention)
        assert steady_state_via_tableaux(10, p, convention) == expected

def reference_generator_law(n, p):
    """Gauss-Jordan on Fractions, as the generator route once solved it."""
    size = 1 << n
    m = [[F(0)] * (size + 1) for _ in range(size)]
    for s in range(size):
        for t, rate in _transitions(n, _rates(p), s):
            m[t][s], m[s][s] = m[t][s] + rate, m[s][s] - rate
    m[-1] = [F(1)] * (size + 1)
    for col in range(size):
        pivot = next(r for r in range(col, size) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(size):
            if r != col and m[r][col]:
                m[r] = [x - m[r][col] / m[col][col] * y for x, y in zip(m[r], m[col])]
    return Pmf([m[s][size] / m[s][s] for s in range(size)])


def random_rates(rng):
    """Irreducible rates: alpha, beta and u stay positive; gamma,
    delta and q are each zero in about a third of the draws."""
    def rate(may_vanish=False):
        if may_vanish and rng.random() < 1 / 3:
            return F(0)
        return F(rng.randint(1, 6), rng.randint(1, 4))
    return AsepParams(rate(), rate(), rate(True), rate(True), u=rate(), q=rate(True))


def test_generator_point_values_and_stationarity():
    p = AsepParams(2, 1, 3, 1)
    law = steady_state_via_generator(1, p)
    assert law.mass(1) == F(3, 7) and law.mass(0) == F(4, 7)

    rng = random.Random(400)
    for n in range(1, 6):
        for p in [AsepParams(F(1, 2), 2, F(2, 3), 1, u=1, q=F(3, 4)), random_rates(rng)]:
            law = steady_state_via_generator(n, p)
            assert sum(law.masses) == 1
            inflow = [F(0)] * (1 << n)
            outflow = [F(0)] * (1 << n)
            for r in range(1 << n):
                for t, rate in _transitions(n, _rates(p), r):
                    outflow[r] += law.mass(r) * rate
                    inflow[t] += law.mass(r) * rate
            assert inflow == outflow


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generator_matches_fraction_gauss_jordan(n):
    rng = random.Random(300 + n)
    cases = [random_rates(rng) for _ in range(6)] + [
        AsepParams(2, 1, 3, 1, u=1, q=0),
        AsepParams(3, 2, 0, 0, u=F(1, 2), q=0),
        AsepParams(0, 1, 2, 1, u=1, q=F(2, 3)),  # entry at site n only
    ]
    for p in cases:
        assert steady_state_via_generator(n, p) == reference_generator_law(n, p), p


def test_generator_rejects_bad_inputs():
    with pytest.raises(ValueError):
        steady_state_via_generator(11, AsepParams(1, 1, 1, 1))
    with pytest.raises(ValueError):
        # fills but can never empty: no exit and no leftward relief
        steady_state_via_generator(1, AsepParams(1, 0, 0, 1, u=1, q=1))
    with pytest.raises(ValueError, match="reducible"):
        # site 1 unreachable: no entry there and no left hops
        steady_state_via_generator(2, AsepParams(0, 1, 0, 1, u=1, q=0))


def reference_bareiss_law(n, p):
    """Fraction-free (Bareiss) elimination, as the generator route once
    solved it, with the determinant of the replaced system up to sign."""
    size = 1 << n
    matrix = [[0] * (size + 1) for _ in range(size)]  # last column: rhs
    for s in range(size):
        for t, rate in _transitions(n, _integer_rates(p), s):
            matrix[t][s] += rate
            matrix[s][s] -= rate
    matrix[-1] = [1] * (size + 1)
    det = 1
    for k in range(size):
        pivot = next(r for r in range(k, size) if matrix[r][k])
        matrix[k], matrix[pivot] = matrix[pivot], matrix[k]
        lead, tail = matrix[k][k], matrix[k][k + 1:]
        for row in matrix[k + 1:]:
            factor = row[k]
            row[k + 1:] = [(lead * x - factor * y) // det
                           for x, y in zip(row[k + 1:], tail)]
        det = lead
    scaled = [0] * size  # det * mass
    for s in range(size - 1, -1, -1):
        row = matrix[s]
        scaled[s] = (det * row[size] - sum(
            row[t] * scaled[t] for t in range(s + 1, size))) // row[s]
    return Pmf.from_integers(scaled, det), det


#: 40-bit numerators over one 40-bit denominator: cleared of it, the
#: largest rate times a base-p digit passes 2^63.
_BIG = random.Random(40)
_DENOMINATOR = _BIG.getrandbits(40) | 1 << 39
BIG_RATES = AsepParams(*(F(_BIG.getrandbits(40) | 1 << 39, _DENOMINATOR)
                         for _ in range(4)),
                       u=F(_BIG.getrandbits(40) | 1 << 39, _DENOMINATOR),
                       q=F(_BIG.getrandbits(40) | 1 << 39, _DENOMINATOR))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_lifted_solve_matches_bareiss(n):
    assert max(_integer_rates(BIG_RATES)) * (asep._PRIMES[0] - 1) >= 1 << 63
    rng = random.Random(700 + n)
    for p in [random_rates(rng) for _ in range(6)] + PINNED_RATES + [BIG_RATES]:
        assert steady_state_via_generator(n, p) == reference_bareiss_law(n, p)[0], p


@pytest.mark.parametrize("p", [
    AsepParams(2, 1, 3, 1, u=1, q=F(1, 2)),
    AsepParams(F(1, 2), F(2, 3), F(3, 5), F(5, 7), u=F(7, 4), q=F(11, 13)),
])
def test_lifted_solve_matches_bareiss_at_n7(p):
    assert steady_state_via_generator(7, p) == reference_bareiss_law(7, p)[0]


def test_lift_moves_past_a_prime_dividing_the_determinant(monkeypatch):
    n, p = 4, AsepParams(2, 1, 3, 1, u=1, q=F(1, 2))
    law, det = reference_bareiss_law(n, p)
    factor = next(f for f in range(2, 1 << 16) if det % f == 0)
    tried = []
    inverse_mod = asep._inverse_mod

    def spy(matrix, prime):
        solved = inverse_mod(matrix, prime)
        tried.append((prime, solved is None))
        return solved

    monkeypatch.setattr(asep, "_PRIMES", (factor,) + asep._PRIMES)
    monkeypatch.setattr(asep, "_inverse_mod", spy)
    assert steady_state_via_generator(n, p) == law
    assert tried == [(factor, True), (asep._PRIMES[1], False)]


def test_solve_refuses_a_generator_singular_modulo_every_prime(monkeypatch):
    tried = []
    monkeypatch.setattr(asep, "_inverse_mod", lambda matrix, prime: tried.append(prime))
    with pytest.raises(RuntimeError, match="^the generator is singular modulo every prime "
                                           "tried$"):
        steady_state_via_generator(3, AsepParams(2, 1, 3, 1, u=1, q=F(1, 2)))
    assert tried == list(asep._PRIMES)


def test_lift_gives_up_at_the_hadamard_cap(monkeypatch):
    n, p = 3, AsepParams(2, 1, 3, 1, u=1, q=F(1, 2))
    size, rates = 1 << n, _integer_rates(p)
    rows = [[0] * size for _ in range(size)]
    for s in range(size):
        for t, rate in _transitions(n, rates, s):
            rows[t][s] += rate
            rows[s][s] -= rate
    rows[-1] = [1] * size
    cap = 2 * math.prod(sum(x * x for x in row) for row in rows)
    steps = next(k for k in range(1, 100) if asep._PRIMES[0] ** k > cap)
    attempts = []
    reconstruct = asep._reconstruct
    monkeypatch.setattr(asep, "_reconstruct",
                        lambda x, m: attempts.append(m) or reconstruct(x, m))
    monkeypatch.setattr(asep, "_balanced", lambda *args: False)
    with pytest.raises(RuntimeError, match="Hadamard"):
        steady_state_via_generator(n, p)
    assert len(attempts) == steps


def test_certificate_needs_balance_and_normalization():
    n, p = 3, AsepParams(2, 1, 3, 1, u=1, q=F(1, 2))
    law = steady_state_via_generator(n, p)
    nums, den = list(law.numerators), law.denominator
    moves = [list(_transitions(n, _integer_rates(p), s)) for s in range(1 << n)]
    outflow = [sum(rate for _, rate in out) for out in moves]
    assert asep._balanced(moves, outflow, nums, den)
    assert not asep._balanced(moves, outflow, [1] * 8, 8)  # sums to 1 only
    assert not asep._balanced(moves, outflow, [2 * a for a in nums], den)  # balanced only


def test_lift_passes_over_rejected_candidates(monkeypatch):
    n, p = 5, AsepParams(2, 1, 3, 1, u=1, q=F(1, 2))
    law = reference_bareiss_law(n, p)[0]
    nums, den = list(law.numerators), law.denominator
    wrong = iter([([1] * 32, 32), ([2 * a for a in nums], den)])
    reconstruct = asep._reconstruct
    monkeypatch.setattr(asep, "_reconstruct",
                        lambda x, m: next(wrong, None) or reconstruct(x, m))
    assert steady_state_via_generator(n, p) == law


@pytest.mark.parametrize("prime, top", [(2, 10), (3, 6), (5, 4), (7, 3), (11, 3)])
def test_reconstruction_finds_the_one_fraction_within_its_bound(prime, top):
    for k in range(2 if prime == 2 else 1, top + 1):  # bound 0 at modulus 2
        modulus = prime ** k
        bound = math.isqrt((modulus - 1) // 2)
        expected = {}
        for d in range(1, bound + 1):
            if d % prime:
                for a in range(-bound, bound + 1):
                    if math.gcd(a, d) == 1:
                        c = a * pow(d, -1, modulus) % modulus
                        assert c not in expected  # 2 * bound^2 < modulus
                        expected[c] = ([a], d)
        for c in range(modulus):
            assert asep._reconstruct([c], modulus) == expected.get(c), (c, modulus)


def test_generator_solve_reserves_its_peak_first(monkeypatch):
    monkeypatch.setattr(_budget, "_MEM_BUDGET", 4_000_000)
    with pytest.raises(ValueError, match="reducible"):
        steady_state_via_generator(10, AsepParams(0, 1, 0, 1, u=1, q=0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MB"):
            steady_state_via_generator(10, AsepParams(2, 1, 3, 1, u=1, q=F(1, 2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20  # the 2^10 x 2^10 int64 matrix alone takes 8 MiB


@pytest.mark.parametrize("size", [True, 2.0, "3"])
def test_a_size_that_is_not_an_int_is_refused(size):
    p = AsepParams(2, 1, 3, 1, u=1, q=F(1, 2))
    for route in (cross_validate, steady_state_via_tableaux, steady_state_via_generator):
        with pytest.raises(ValueError, match=f"size must be an int, got {size!r}"):
            route(size, p)


def test_cross_validate_resolves_the_convention():
    report = cross_validate(1, AsepParams(2, 1, 3, 1, u=1, q=1))
    assert report["matching_conventions"] == ["alpha_delta"]
    by_name = {c["convention"]: c for c in report["conventions"]}
    assert not by_name["paper_alpha_gamma"]["matches"]
    state1 = by_name["alpha_delta"]["per_state"][1]
    assert state1 == {"state": "1", "tableaux_prob": "3/7",
                      "generator_prob": "3/7", "equal": True}

    # gamma = delta makes the two readings agree
    sym = cross_validate(1, AsepParams(2, 1, 3, 3, u=1, q=1))
    assert sym["matching_conventions"] == list(CONVENTIONS)

    with pytest.raises(ValueError):
        cross_validate(11, AsepParams(1, 1, 1, 1))
    with pytest.raises(ValueError):
        cross_validate(2, AsepParams(1, 1, 1, 1, u=0, q=1))


def test_cross_validate_rescales_u():
    p = AsepParams(2, 1, 3, 1, u=2, q=F(1, 2))
    report = cross_validate(2, p)
    assert report["params"]["u"] == "2"
    assert report["rescaled_params"] == {
        "alpha": "1", "beta": "1/2", "gamma": "3/2", "delta": "1/2",
        "u": "1", "q": "1/4",
    }
    assert "alpha_delta" in report["matching_conventions"]


def test_each_route_is_unchanged_by_a_common_scale_of_the_rates():
    routes = [steady_state_via_generator] + [
        lambda n, p, c=convention: steady_state_via_tableaux(n, p, c)
        for convention in CONVENTIONS]
    for p in PINNED_RATES:
        scaled = [AsepParams(*(r * F(3, 7) for r in _rates(p)))]
        if p.u > 0:
            scaled.append(p.unit_u())
        for n in range(1, 7):
            for route in routes:
                law = route(n, p)
                for other in scaled:
                    assert route(n, other) == law, (n, p, other)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_alpha_delta_reading_matches_generator_on_random_rates(n):
    rng = random.Random(90 + n)
    for _ in range(10):
        rates = [F(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(4)]
        q = F(rng.randint(0, 5), rng.randint(1, 3))
        p = AsepParams(*rates, u=1, q=q)
        report = cross_validate(n, p)
        assert "alpha_delta" in report["matching_conventions"]


@pytest.mark.parametrize("p", [
    AsepParams(2, 1, 3, 1, u=1, q=F(1, 2)),
    AsepParams(F(1, 2), F(2, 3), F(3, 5), F(5, 7), u=F(7, 4), q=F(11, 13)),
])
def test_alpha_delta_reading_matches_generator_at_n7(p):
    assert cross_validate(7, p)["matching_conventions"] == ["alpha_delta"]


@pytest.mark.parametrize("n, p", [
    (9, AsepParams(F(3, 2), F(2, 3), F(1, 3), F(1, 5), u=1, q=0)),
    (9, AsepParams(F(1, 2), F(4, 3), 0, 0, u=F(7, 4), q=F(11, 13))),
    (10, AsepParams(2, 1, 3, 1, u=1, q=F(1, 2))),
])
def test_alpha_delta_reading_matches_generator_at_the_largest_sizes(n, p):
    # cross_validate certifies the tableaux law here, so the solve runs only below
    assert steady_state_via_generator(n, p) == steady_state_via_tableaux(n, p, "alpha_delta")
    assert "alpha_delta" in cross_validate(n, p)["matching_conventions"]


def pinned_digest():
    digest = hashlib.sha256()
    for n in range(1, 7):
        for p in PINNED_RATES:
            report = cross_validate(n, p)
            digest.update((json.dumps(report, sort_keys=True, separators=(",", ":"))
                           + "\n").encode())
    return digest.hexdigest()


def test_cross_validate_reports_are_pinned():
    assert pinned_digest() == PINNED_REPORTS


def _fails(*args):
    raise AssertionError("this route must not run")


def test_pinned_reports_need_no_generator_solve(monkeypatch):
    monkeypatch.setattr(asep, "steady_state_via_generator", _fails)
    assert pinned_digest() == PINNED_REPORTS


def solve_first_report(n, p):
    """The report as cross_validate built it before it certified: one
    generator solve, then each convention's law state by state."""
    scaled = p.unit_u()
    solved = steady_state_via_generator(n, scaled)
    conventions = []
    for convention in CONVENTIONS:
        law = asep.steady_state_via_tableaux(n, scaled, convention)
        per_state = [{"state": format(s, f"0{n}b"), "tableaux_prob": str(law.mass(s)),
                      "generator_prob": str(solved.mass(s)),
                      "equal": law.mass(s) == solved.mass(s)} for s in range(1 << n)]
        conventions.append({"convention": convention, "per_state": per_state,
                            "matches": all(entry["equal"] for entry in per_state)})
    return {"n": n, "params": p.as_dict(), "rescaled_params": scaled.as_dict(),
            "conventions": conventions,
            "matching_conventions": [c["convention"] for c in conventions if c["matches"]]}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_the_certificate_accepts_exactly_the_generator_s_law(n, monkeypatch):
    rng = random.Random(1000 + n)
    cases = PINNED_RATES + ([random_rates(rng) for _ in range(6)] if n <= 6 else [])
    solved = [steady_state_via_generator(n, p) for p in cases]
    reports = [solve_first_report(n, p) for p in cases] if n <= 6 else None
    monkeypatch.setattr(asep, "steady_state_via_generator", _fails)
    for k, (p, law) in enumerate(zip(cases, solved)):
        moves, outflow = asep._chain(n, _integer_rates(p))
        for convention in CONVENTIONS:
            reading = steady_state_via_tableaux(n, p, convention)
            accepted = asep._balanced(moves, outflow, reading.numerators, reading.denominator)
            assert accepted == (reading == law), (p, convention)
        report = cross_validate(n, p)
        for convention in report["conventions"]:
            assert [F(entry["generator_prob"]) for entry in convention["per_state"]] == [
                law.mass(s) for s in range(1 << n)], (p, convention["convention"])
        if reports:
            assert report == reports[k], p


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_one_unit_of_mass_moved_breaks_the_certificate(n):
    rng = random.Random(1100 + n)
    for p in PINNED_RATES[:4] + [random_rates(rng)]:
        moves, outflow = asep._chain(n, _integer_rates(p))
        law = steady_state_via_tableaux(n, p)
        nums, den = list(law.numerators), law.denominator
        assert len(nums) == 1 << n and asep._balanced(moves, outflow, nums, den)
        pairs = [(a, b) for a in range(1 << n) for b in range(1 << n) if a != b]
        for a, b in pairs if n <= 3 else rng.sample(pairs, 60):
            moved = nums.copy()
            moved[a] -= 1
            moved[b] += 1
            assert not asep._balanced(moves, outflow, moved, den), (p, a, b)
        emptied = [nums[0] + nums[-1]] + nums[1:-1]  # the last state's mass, trimmed
        assert not asep._balanced(moves, outflow, emptied, den)


def _perturbed(route):
    """A tableaux route gone wrong: the stationary law, read as
    alpha_delta, with one unit of its largest weight moved to the next
    state, or to the one before for the other reading.  So no law it
    returns balances, even where the two readings differ by one unit."""
    def wrong(n, p, convention="alpha_delta"):
        law = route(n, p, "alpha_delta")
        nums = list(law.numerators)
        k = nums.index(max(nums))
        nums[k] -= 1
        nums[(k + (1 if convention == "alpha_delta" else -1)) % len(nums)] += 1
        return Pmf.from_integers(nums, law.denominator)
    return wrong


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_a_law_that_does_not_balance_falls_back_to_the_solve(n, monkeypatch):
    rng = random.Random(1200 + n)
    monkeypatch.setattr(asep, "steady_state_via_tableaux",
                        _perturbed(asep.steady_state_via_tableaux))
    solves = []
    solve = asep.steady_state_via_generator
    monkeypatch.setattr(asep, "steady_state_via_generator",
                        lambda n, p: solves.append(n) or solve(n, p))
    for p in PINNED_RATES[:3] + [random_rates(rng)]:
        expected = solve_first_report(n, p)
        del solves[:]
        assert cross_validate(n, p) == expected, p
        assert solves == [n] and expected["matching_conventions"] == []


def test_reducible_rates_are_refused_before_any_tableau_sum(monkeypatch):
    monkeypatch.setattr(asep, "steady_state_via_tableaux", _fails)
    for n, p in [(1, AsepParams(1, 0, 0, 1, u=1, q=1)),  # fills but can never empty
                 (2, AsepParams(0, 1, 0, 1, u=1, q=0)),  # site 1 unreachable
                 (6, AsepParams(0, 1, 0, 1, u=1, q=0))]:
        with pytest.raises(ValueError, match="^the chain is reducible with these rates; "
                                             "the stationary law is not unique$"):
            cross_validate(n, p)

"""The bridge between weighted tableaux and the open boundary-driven
exclusion process.

A four-symbol tableau's main diagonal encodes a particle configuration
(its type), and the tableau weight, after filling every empty box with
a hop rate u or q, gives that configuration's stationary weight.  This
module computes the stationary law two independent ways, both in
integers after the rates are cleared of their common denominator:

* summing u/q-filled four-symbol tableau weights by type
  (:func:`steady_state_via_tableaux`, by the column transfer of
  :mod:`growth`), and
* solving the continuous-time Markov generator, which never reads a
  tableau (:func:`steady_state_via_generator`),

so their agreement is a machine-checked fact rather than an assumption:
:func:`cross_validate` compares them under both readings of the
diagonal (:func:`tableau_type`), from one sum of each tableau column,
since a column's weights do not depend on the reading.

Sites are numbered 1..n from the top end of the diagonal, and a state
packs site 1 into the most significant bit of its index.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Dict, Iterable, List, Sequence, Tuple

from . import _budget, growth
from .core import Tableau, _check_choice, _check_size
from .measure import _as_fraction
from .pmf import Pmf

#: Each reading of the diagonal by the two codes it reads as a filled site.
_FILLED = {"paper_alpha_gamma": "AG", "alpha_delta": "AD"}
CONVENTIONS = tuple(_FILLED)

_RATE_NAMES = ("alpha", "beta", "gamma", "delta", "u", "q")
#: Largest size either route, and so cross_validate, accepts.
_N_MAX = 10


@dataclass(frozen=True, slots=True)
class AsepParams:
    """Rates of the open exclusion process.

    Particles enter at site 1 with rate alpha and leave it with rate
    gamma; they enter at site n with rate delta and leave it with rate
    beta; in the bulk they hop right with rate u and left with rate q.
    """

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    u: Fraction = Fraction(1)
    q: Fraction = Fraction(0)

    def __post_init__(self):
        for name in _RATE_NAMES:
            value = _as_fraction(getattr(self, name), name)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
            object.__setattr__(self, name, value)
        if self.alpha + self.delta == 0:
            raise ValueError("some entry rate (alpha or delta) must be positive")
        if self.u + self.q == 0:
            raise ValueError("some hop rate (u or q) must be positive")

    def unit_u(self) -> "AsepParams":
        """Time-rescaled so the right-hop rate is 1."""
        if self.u == 0:
            raise ValueError("u must be positive to normalize by it")
        return AsepParams(self.alpha / self.u, self.beta / self.u,
                          self.gamma / self.u, self.delta / self.u,
                          Fraction(1), self.q / self.u)

    def as_dict(self) -> Dict[str, str]:
        return {name: str(getattr(self, name)) for name in _RATE_NAMES}


def tableau_type(t: Tableau, convention: str = "alpha_delta") -> Tuple[int, ...]:
    """The particle configuration a tableau's diagonal encodes.

    Site i reads the i-th diagonal entry; which two symbols mean
    "filled" is the convention choice that cross_validate resolves.
    """
    _check_choice(convention, "convention", CONVENTIONS)
    return tuple(int(code in _FILLED[convention]) for code in t.diagonal_entries())


def uq_fill(t: Tableau) -> Tuple[str, ...]:
    """The rows of ``t`` with every empty box resolved to u or q.

    Boxes left of a beta become u and boxes left of a delta become q;
    since a beta or delta is always the leftmost symbol of its row,
    these are exactly the empties whose nearest symbol to the right is
    one of the two.  Every other empty box sits above some symbol in
    its column (the diagonal box at the bottom is never empty) and
    becomes u when the nearest one below is an alpha or a delta, q
    when it is a beta or a gamma.
    """
    n = t.n
    for i, row in enumerate(t.rows, 1):
        if row[-1] == ".":
            raise ValueError(f"box ({i}, {n + 1 - i}) on the main diagonal is empty")
    out = []
    for i in range(1, n + 1):
        row = t.rows[i - 1]
        cells = []
        for j in range(1, n + 2 - i):
            code = row[j - 1]
            if code != ".":
                cells.append(code)
                continue
            right = next(c for c in row[j:] if c != ".")
            if right in "BD":
                cells.append("u" if right == "B" else "q")
            else:
                below = next(
                    c for k in range(i + 1, n + 2 - j)
                    if (c := t.rows[k - 1][j - 1]) != "."
                )
                cells.append("u" if below in "AD" else "q")
        out.append("".join(cells))
    return tuple(out)


def _integer_rates(p: AsepParams) -> Tuple[int, ...]:
    """The six rates times their common denominator, a scale that moves
    neither stationary law (see :func:`cross_validate`)."""
    scale = math.lcm(*(getattr(p, f).denominator for f in _RATE_NAMES))
    return tuple(int(getattr(p, f) * scale) for f in _RATE_NAMES)


# ----------------------------------------------------------------------
# stationary law via weighted tableaux

def steady_state_via_tableaux(n: int, p: AsepParams,
                              convention: str = "alpha_delta") -> Pmf:
    """Stationary law as normalized type-grouped tableau weights.

    Sums every u/q-filled four-symbol tableau by the column transfer
    of :func:`growth.type_laws`, so no tableau is ever materialized.
    """
    _check_choice(convention, "convention", CONVENTIONS)
    _check_size(n, 1, _N_MAX)
    return growth.type_laws(n, _integer_rates(p), [_FILLED[convention]])[0]


# ----------------------------------------------------------------------
# stationary law via the Markov generator

def _transitions(n: int, rates: Sequence[int], s: int) -> Iterable[Tuple[int, int]]:
    """Moves out of state s with their rates, given in the order of
    ``_RATE_NAMES``."""
    alpha, beta, gamma, delta, u, q = rates
    top = 1 << (n - 1)  # site 1
    if s & top:
        if gamma:
            yield s ^ top, gamma
    elif alpha:
        yield s ^ top, alpha
    if s & 1:  # site n
        if beta:
            yield s ^ 1, beta
    elif delta:
        yield s ^ 1, delta
    for i in range(n - 1):  # bond between sites n-1-i and n-i
        pair = 0b11 << i
        both = s & pair
        if both == (0b10 << i):
            if u:
                yield s ^ pair, u
        elif both == (0b01 << i):
            if q:
                yield s ^ pair, q


def _chain(n: int, rates: Sequence[int]) -> Tuple[List[List[Tuple[int, int]]], List[int]]:
    """(moves, outflow): each state's moves with their summed rates and
    its total rate out, for a chain checked to be irreducible."""
    moves = []
    for s in range(1 << n):  # at n = 1, alpha and delta both fill the one site
        out: Dict[int, int] = {}
        for t, rate in _transitions(n, rates, s):
            out[t] = out.get(t, 0) + rate
        moves.append(list(out.items()))
    _check_irreducible(moves)
    return moves, [sum(rate for _, rate in out) for out in moves]


def _check_irreducible(moves: List[List[Tuple[int, int]]]) -> None:
    size = len(moves)
    forward = [[t for t, _ in out] for out in moves]
    backward: List[List[int]] = [[] for _ in range(size)]
    for s, targets in enumerate(forward):
        for t in targets:
            backward[t].append(s)
    for edges in (forward, backward):
        seen = {0}
        queue = deque([0])
        while queue:
            for t in edges[queue.popleft()]:
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        if len(seen) != size:
            raise ValueError(
                "the chain is reducible with these rates; "
                "the stationary law is not unique"
            )


#: Dixon's lift reduces the replaced generator and its inverse modulo
#: a prime below 2^26.  Gauss-Jordan subtracts from each entry one
#: product of reduced values, below (p-1)^2, per pivot, and the inverse
#: times a reduced residue sums 2^n such products: up to _N_MAX
#: sites neither wraps int64.  Only the matrix modulo p enters int64,
#: so rates of any size are safe; the residual stays in Python integers.
_PRIME_LIMIT = 1 << 26
assert _PRIME_LIMIT + (1 << _N_MAX) * (_PRIME_LIMIT - 1) ** 2 < 1 << 63

#: The largest primes below _PRIME_LIMIT, tried in turn until one does
#: not divide the determinant.
_PRIMES = (67108859, 67108837, 67108819, 67108777,
           67108763, 67108757, 67108753, 67108747)
assert max(_PRIMES) < _PRIME_LIMIT


def _inverse_mod(matrix, p: int):
    """(C, perm) with C @ v[perm] = matrix^-1 @ v modulo p, by
    Gauss-Jordan in place, or None if p divides the determinant.

    Each step keeps the eliminated column's part of the inverse in that
    column, so no identity is carried alongside, and row swaps permute
    the right-hand side, which ``perm`` records.  Only the pivot row
    and column are reduced as they are used: every other entry takes
    one product below (p-1)^2 per step and is reduced once at the end.
    """
    import numpy as np

    size = len(matrix)
    perm = np.arange(size)
    product = np.empty_like(matrix)
    for k in range(size):
        factors = matrix[:, k] % p
        if not factors[k]:
            nonzero = np.flatnonzero(factors[k:])
            if not nonzero.size:
                return None
            pivot = k + int(nonzero[0])
            for vector in (matrix, factors, perm):
                vector[[k, pivot]] = vector[[pivot, k]]
        inverse = pow(int(factors[k]), -1, p)
        row = matrix[k]
        row %= p
        row[k] = 1
        row *= inverse
        row %= p
        factors[k] = 0
        matrix[:, k] = 0
        row[k] = inverse
        np.multiply(factors[:, None], row, out=product)
        matrix -= product
    matrix %= p
    return matrix, perm


def _reconstruct(residues: Sequence[int], modulus: int):
    """(numerators, d) with numerators[i] = d * residues[i] modulo
    ``modulus``, or None.

    Let B = isqrt((modulus - 1) / 2), so that 2 * B^2 < modulus.  One
    entry comes back as the only fraction a/d with |a| <= B and
    0 < d <= B, if there is one.  A vector of fractions a_i/d with
    |a_i| <= d <= B, such as a law, comes back whole: each entry times
    the denominator so far is either small already or rebuilt by the
    half extended Euclidean algorithm, whose cofactor multiplies the
    denominator (von zur Gathen and Gerhard, Modern Computer Algebra,
    section 5.10).
    """
    bound = math.isqrt((modulus - 1) // 2)
    nums: List[int] = []
    den = 1
    for x in residues:
        c = x * den % modulus
        if c > modulus - c:
            c -= modulus
        if abs(c) > bound:
            r0, r1, t0, t1 = modulus, c % modulus, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if t1 < 0:
                r1, t1 = -r1, -t1
            if t1 * den > bound or math.gcd(r1, t1) != 1:
                return None
            nums = [a * t1 for a in nums]
            den *= t1
            c = r1
        nums.append(c)
    return nums, den


def _balanced(moves: List[List[Tuple[int, int]]], outflow: List[int],
              nums: Sequence[int], den: int) -> bool:
    """Whether nums/den sums to 1 and inflow equals outflow at every
    state; numerators missing at the end, as a ``Pmf`` trims them, are 0."""
    if sum(nums) != den:
        return False
    inflow = [0] * len(moves)
    for out, a in zip(moves, nums):
        for t, rate in out:
            inflow[t] += rate * a
    return all(i == o * a for i, o, a in zip_longest(inflow, outflow, nums, fillvalue=0))


def steady_state_via_generator(n: int, p: AsepParams) -> Pmf:
    """Exact stationary vector of the continuous-time generator.

    Builds the transpose generator over all 2^n configurations at
    integer rates and swaps one (redundant) balance equation for the
    normalization.  The rows of the transpose generator sum to zero, so
    dropping any one of them keeps full information and the replaced
    system A x = e_last is nonsingular for an irreducible chain.

    It is solved by Dixon's p-adic lifting (Numer. Math. 40, 1982): A
    is inverted once modulo a prime p, and each step takes one more
    base-p digit y = A^-1 r mod p of x, then replaces the residual r by
    (r - A y)/p, exactly and from the sparse moves.  After each step
    the masses are rebuilt from x mod p^k by rational reconstruction,
    and a candidate is accepted only if it balances inflow and outflow
    at every state and sums to 1, which only the stationary law does.
    Once p^k passes twice the squared Hadamard bound on det A, the true
    masses are within reach of the reconstruction, so a further miss
    raises ``RuntimeError``.
    """
    import numpy as np

    _check_size(n, 1, _N_MAX)
    size = 1 << n
    moves, outflow = _chain(n, _integer_rates(p))
    squares = [0] * size  # A's squared row norms
    targets, sources, values = [], [], []
    for s, out in enumerate(moves):
        for t, rate in out + [(s, -outflow[s])]:
            targets.append(t)
            sources.append(s)
            values.append(rate)
            squares[t] += rate * rate
    squares[-1] = size  # A's last row is the normalization, all ones
    cap = 2 * math.prod(squares)  # twice the squared Hadamard bound on det A
    # the numpy peak: the int64 matrix, inverted in place, and one product
    with _budget.reserve(2 * 8 * size * size, f"a generator solve at n={n}"):
        for prime in _PRIMES:
            matrix = np.zeros((size, size), dtype=np.int64)
            matrix[targets, sources] = [v % prime for v in values]
            matrix[-1] = 1
            solved = _inverse_mod(matrix, prime)
            if solved is not None:
                break
        else:
            raise RuntimeError("the generator is singular modulo every prime tried")
        inverse, perm = solved
        residual = [0] * (size - 1) + [1]
        x = [0] * size
        modulus = 1
        while True:
            reduced = np.array([r % prime for r in residual], dtype=np.int64)
            digits = (inverse @ reduced[perm] % prime).tolist()
            image = [-o * y for o, y in zip(outflow, digits)]  # A @ digits
            for out, y in zip(moves, digits):
                for t, rate in out:
                    image[t] += rate * y
            image[-1] = sum(digits)
            residual = [(r - a) // prime for r, a in zip(residual, image)]
            x = [xi + y * modulus for xi, y in zip(x, digits)]
            modulus *= prime
            candidate = _reconstruct(x, modulus)
            if candidate is not None and _balanced(moves, outflow, *candidate):
                return Pmf.from_integers(*candidate)
            if modulus > cap:
                raise RuntimeError("p-adic lifting passed the Hadamard bound "
                                   "without a balanced law")


# ----------------------------------------------------------------------
# the two routes against each other

def _mass_strings(law: Pmf, size: int) -> List[str]:
    """``str`` of each of the ``size`` masses' ``Fraction``, built from
    the law's integers: "0" past its trimmed tail."""
    d = law.denominator
    out = [str(x // g) if (g := math.gcd(x, d)) == d else f"{x // g}/{d // g}"
           for x in law.numerators]
    return out + ["0"] * (size - len(out))


def cross_validate(n: int, p: AsepParams) -> Dict:
    """Compare both stationary-law routes state by state.

    Both laws are invariant under a common scale of the six rates: the
    generator's by time scaling, and the tableau law because every
    filled grid carries one rate per box.  The comparison still runs at
    u rescaled to 1, which the report records as ``rescaled_params``,
    so u = 0 is refused.  The report is JSON-ready, and a mismatch is
    an outcome, not an error.

    The generator certifies before it solves.  Once the chain is known
    to be irreducible (reducible rates raise before any tableau is
    summed), its stationary law is the one law that sums to 1 and
    balances inflow and outflow at every state.  So a tableaux law that
    passes ``_balanced`` is the generator's law, exactly, and it stands
    in for it; ``steady_state_via_generator`` runs only when neither
    convention's law balances.  Both laws come from one sum of each
    column (:func:`growth.type_laws`), and each mass is written from the
    law's integers, as ``str(Fraction)`` writes it; states are equal
    when their strings are, which are canonical.
    """
    _check_size(n, 1, _N_MAX)
    scaled = p.unit_u()
    rates = _integer_rates(scaled)
    moves, outflow = _chain(n, rates)
    laws = growth.type_laws(n, rates, list(_FILLED.values()))
    certified = (law for law in laws
                 if _balanced(moves, outflow, law.numerators, law.denominator))
    generator = next(certified, None) or steady_state_via_generator(n, scaled)
    report = {
        "n": n,
        "params": p.as_dict(),
        "rescaled_params": scaled.as_dict(),
        "conventions": [],
        "matching_conventions": [],
    }
    size = 1 << n
    labels = [format(s, f"0{n}b") for s in range(size)]  # site 1 first
    generator_strs = _mass_strings(generator, size)
    for convention, law in zip(CONVENTIONS, laws):
        # the certified law is the generator's: its strings are built once
        law_strs = generator_strs if law is generator else _mass_strings(law, size)
        per_state = [
            {"state": label, "tableaux_prob": t_str,
             "generator_prob": g_str, "equal": t_str == g_str}
            for label, t_str, g_str in zip(labels, law_strs, generator_strs)
        ]
        matches = all(entry["equal"] for entry in per_state)
        report["conventions"].append({
            "convention": convention,
            "per_state": per_state,
            "matches": matches,
        })
        if matches:
            report["matching_conventions"].append(convention)
    return report

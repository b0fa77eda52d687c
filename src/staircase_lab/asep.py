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
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from . import _budget, growth
from .core import Tableau, _check_choice, _check_size
from .measure import _as_fraction, _over_common_denominator
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


def _integer_rates(p: AsepParams) -> List[int]:
    """The six rates times their common denominator, a scale that moves
    neither stationary law (see :func:`cross_validate`)."""
    return _over_common_denominator(getattr(p, f) for f in _RATE_NAMES)[0]


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


def _moves(n: int) -> List[Tuple[List[int], List[int]]]:
    """The chain's moves at n sites by the rate that drives them, in the
    order of ``_RATE_NAMES``: (sources, targets) per rate."""
    table: List[Tuple[List[int], List[int]]] = [([], []) for _ in _RATE_NAMES]
    for s in range(1 << n):
        for t, k in _transitions(n, range(1, 7), s):  # each rate tagged by its place, from 1
            sources, targets = table[k - 1]
            sources.append(s)
            targets.append(t)
    return table


def _moves_bytes(n: int) -> int:
    """Bytes of the table: per move a slot in each of two lists, with
    their spare room, and per state past the small ints Python keeps
    (0 to 256), its own int and one per move into it."""
    size = 1 << n
    moves = (n + 3) * size // 2  # 2^(n-1) per boundary rate, (n-1) 2^(n-2) per hop
    big = max(0, size - 257)
    return 19 * moves + 32 * big * (size + moves) // size + 2048


def _chain(n: int, rates: Sequence[int]) -> List[Tuple[int, List[int], List[int]]]:
    """(rate, sources, targets) per nonzero rate, from the table of
    moves kept for n, once the zero rates are known to leave the chain
    irreducible: a particle can enter (alpha or delta) and leave (beta
    or gamma), and every state is reached at one site, with hops both
    ways, with right hops fed at site 1 and emptied at site n or the
    mirror of that, or at two sites with all four boundary rates."""
    alpha, beta, gamma, delta, u, q = rates
    if not ((alpha or delta) and (beta or gamma) and (
            n == 1 or u and q or u and alpha and beta or q and delta and gamma
            or n == 2 and alpha and beta and gamma and delta)):
        raise ValueError("the chain is reducible with these rates; "
                         "the stationary law is not unique")
    table = _budget.get(_moves, _moves_bytes, "the chain's moves for n={0}", n)
    return [(rate, *moves) for rate, moves in zip(rates, table) if rate]


def _net_flow(chain: List[Tuple[int, List[int], List[int]]], x: Sequence[int]) -> List[int]:
    """Inflow minus outflow at each state under the masses x: the
    transpose generator times x."""
    net = [0] * len(x)
    for rate, sources, targets in chain:
        for s, t in zip(sources, targets):
            flow = rate * x[s]
            net[t] += flow
            net[s] -= flow
    return net


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


def _balanced(n: int, chain: List[Tuple[int, List[int], List[int]]],
              nums: Sequence[int], den: int) -> bool:
    """Whether nums/den sums to 1 and inflow equals outflow at every
    state of ``chain``; numerators missing at the end, as a ``Pmf``
    trims them, are 0."""
    if sum(nums) != den:
        return False
    return not any(_net_flow(chain, [*nums, *[0] * ((1 << n) - len(nums))]))


def steady_state_via_generator(n: int, p: AsepParams) -> Pmf:
    """Exact stationary vector of the continuous-time generator.

    Builds the transpose generator over all 2^n configurations at
    integer rates, from the moves kept for n (:func:`_chain`), and
    swaps one (redundant) balance equation for the normalization.  The
    rows of the transpose generator sum to zero, so dropping any one of
    them keeps full information and the replaced system A x = e_last is
    nonsingular for an irreducible chain.

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
    chain = _chain(n, _integer_rates(p))
    entries: Dict[Tuple[int, int], int] = {}  # A by (row, column)
    for rate, sources, targets in chain:  # at n = 1 two rates drive each move
        for s, t in zip(sources, targets):
            entries[t, s] = entries.get((t, s), 0) + rate
            entries[s, s] = entries.get((s, s), 0) - rate
    squares = [0] * size  # A's squared row norms
    for (t, _), value in entries.items():
        squares[t] += value * value
    squares[-1] = size  # A's last row is the normalization, all ones
    targets, sources = zip(*entries)
    cap = 2 * math.prod(squares)  # twice the squared Hadamard bound on det A
    # the numpy peak: the int64 matrix, inverted in place, and one product
    with _budget.reserve(2 * 8 * size * size, f"a generator solve at n={n}"):
        for prime in _PRIMES:
            matrix = np.zeros((size, size), dtype=np.int64)
            matrix[targets, sources] = [v % prime for v in entries.values()]
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
            image = _net_flow(chain, digits)  # A @ digits
            image[-1] = sum(digits)
            residual = [(r - a) // prime for r, a in zip(residual, image)]
            x = [xi + y * modulus for xi, y in zip(x, digits)]
            modulus *= prime
            candidate = _reconstruct(x, modulus)
            if candidate is not None and _balanced(n, chain, *candidate):
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
    filled grid carries one rate per box.  So both run on the rates
    cleared of their common denominator (:func:`_integer_rates`), and
    ``rescaled_params`` records the rates over u, so u = 0 is refused.
    The report is JSON-ready, and a mismatch is an outcome, not an error.

    The generator certifies before it solves.  :func:`_chain` reads
    from the zero rates that the chain is irreducible (reducible rates
    raise before any tableau is summed), so its stationary law is the
    one law that sums to 1 and balances inflow and outflow at every
    state.  So a tableaux law that passes ``_balanced`` over the moves
    kept for n is the generator's law, exactly, and it stands in for
    it; ``steady_state_via_generator`` runs only when neither
    convention's law balances.  Both laws come from one sum of each
    column (:func:`growth.type_laws`), and each mass is written from the
    law's integers, as ``str(Fraction)`` writes it; states are equal
    when their strings are, which are canonical.
    """
    _check_size(n, 1, _N_MAX)
    rates = _integer_rates(p)
    if not (u := rates[4]):
        raise ValueError("u must be positive to normalize by it")
    chain = _chain(n, rates)
    laws = growth.type_laws(n, rates, list(_FILLED.values()))
    # alpha_delta first: it balances at every rate set run, so most calls check one law
    certified = (law for law in reversed(laws)
                 if _balanced(n, chain, law.numerators, law.denominator))
    generator = next(certified, None) or steady_state_via_generator(n, p)
    report = {
        "n": n,
        "params": p.as_dict(),
        "rescaled_params": {name: str(Fraction(r, u)) for name, r in zip(_RATE_NAMES, rates)},
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

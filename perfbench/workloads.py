"""Workload definitions: seeded query lists, execution and answer checks.

Every workload is a closed loop of *rounds*.  A round is a fixed
multiset of query templates (kind, size, weight class, batch size);
the seed only picks the concrete inputs inside each template and the
order of queries inside a round.  Whole rounds keep the mix, and with
it the cost of a run, the same for every seed, which is what keeps the
end-to-end numbers steady from seed to seed.

The exact workloads (``dp_laws``, ``poisson_limits``, ``asep_bridge``)
draw their inputs from reference pools under ``reference/``: inputs
plus a digest of the answer the library gave when the pool was built,
cross-checked once against an independent route (see
``make_reference.py``).  ``sampling`` has random outputs, so its
inputs come straight from the seed and its answers are checked by
validity and by a 5-sigma law gate.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

STATS = ("A2", "B2", "X2", "A3", "X3", "Nalpha", "Nbeta")
REQUIREMENTS = ("alpha", "beta", "nonempty", "empty")

# ----------------------------------------------------------------------
# exact-number helpers shared with make_reference.py


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _is_prime31(x: int) -> bool:
    if x < 2 or x % 2 == 0:
        return x == 2
    d, s = x - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7):  # deterministic below 3.2e9
        y = pow(base, d, x)
        if y in (1, x - 1):
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


_PRIMES31: List[int] = []


def primes_covering(bound: int) -> int:
    """How many of the largest primes below 2^31 multiply past ``bound``."""
    product, k = 1, 0
    while product <= bound:
        if k == len(_PRIMES31):
            c = _PRIMES31[-1] - 2 if _PRIMES31 else (1 << 31) - 1
            while not _is_prime31(c):
                c -= 2
            _PRIMES31.append(c)
        product *= _PRIMES31[k]
        k += 1
    return k


def dp_prime_count(n: int, a: Fraction, b: Fraction) -> int:
    """Size of the counting engine's CRT prime plan for (n, a, b).

    The engine scales the weights to integers over q = lcm of the
    denominators and covers prod_i (q (pa + pb) + i q^2); this mirrors
    that plan so the benchmark can label work counts as computed.
    """
    q = math.lcm(a.denominator, b.denominator)
    pa, pb = int(a * q), int(b * q)
    return primes_covering(math.prod(q * (pa + pb) + i * q * q for i in range(n)))


def statistic_slots(n: int, stat: str) -> int:
    """Counter slots of a statistic sweep: structural cap plus two."""
    if stat in ("Nalpha", "Nbeta"):
        cap = n
    elif stat in ("A2", "B2", "X2"):
        cap = n // 2
    else:
        m = max(n - 2, 0)
        cap = ((m + 1) // 2 + 1) // 2 + (m // 2 + 1) // 2
    return cap + 2


def sweep_cells(n: int) -> int:
    """Sum over boxes of 2^height of the box's column: one slot, one prime."""
    return sum(h << h for h in range(1, n + 1))


# ----------------------------------------------------------------------
# seeded input pools


def _coprime_over(rng: random.Random, top: int, den: int) -> Fraction:
    while True:
        k = rng.randint(1, top)
        if math.gcd(k, den) == 1:
            return Fraction(k, den)


def draw_weights(rng: random.Random, cls: str) -> Tuple[Fraction, Fraction]:
    """A pair (a, b) from one weight class.

    ``tiny`` holds integers with a + b <= 2, ``unit`` small integers,
    ``half`` small denominators, ``d13`` the denominators 13, 11 and
    143, ``d1000`` exactly 1000 against 143.  Zero (an infinite alpha
    or beta) occurs in every class but ``d1000``.  Reduced denominators
    are fixed per class, so the counting engine's prime plan stays in a
    narrow band per class and size; together the classes span it from
    one prime to fifteen.
    """
    while True:
        if cls == "tiny":
            a = Fraction(rng.randint(0, 2))
            b = Fraction(rng.randint(0, 2 - int(a)))
        elif cls == "unit":
            a, b = Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3))
        elif cls == "half":
            a = Fraction(rng.randint(0, 7), rng.choice((2, 3, 4)))
            b = Fraction(rng.randint(1, 7), rng.choice((2, 3, 4)))
        elif cls == "d13":
            a = Fraction(0) if rng.random() < 0.15 else _coprime_over(rng, 25, 13)
            b = _coprime_over(rng, 25, rng.choice((11, 143)))
        elif cls == "d1000":
            a = _coprime_over(rng, 2999, 1000)
            b = _coprime_over(rng, 400, 143)
        else:
            raise ValueError(f"unknown weight class {cls!r}")
        if rng.random() < 0.5:
            a, b = b, a
        if a or b:
            return a, b


def staircase_box(rng: random.Random, n: int) -> Tuple[int, int]:
    i = rng.randint(1, n)
    return i, rng.randint(1, n + 1 - i)


def draw_event(rng: random.Random, n: int, size: int,
               avoid: Sequence[Tuple[int, int]] = ()) -> List[List[Any]]:
    """``size`` distinct boxes, each with a cell requirement.

    Boxes favour the second and third diagonals, where the paper's
    statistics live, and fall back to anywhere in the staircase.
    """
    out: List[List[Any]] = []
    used = set(map(tuple, avoid))
    while len(out) < size:
        pick = rng.random()
        if pick < 0.4:
            j = rng.randint(1, n - 1)
            box = (n - j, j)
        elif pick < 0.7:
            j = rng.randint(1, n - 2)
            box = (n - j - 1, j)
        else:
            box = staircase_box(rng, n)
        if box in used:
            continue
        used.add(box)
        out.append([box[0], box[1], rng.choice(REQUIREMENTS)])
    return out


def draw_rates(rng: random.Random) -> Dict[str, str]:
    """Open-ASEP rates from small rationals; q = 0 in about 40% of draws."""
    vals = ("1/3", "1/2", "2/3", "1", "3/2", "2", "3")
    return {
        "alpha": rng.choice(vals),
        "beta": rng.choice(vals),
        "gamma": rng.choice(("0",) + vals),
        "delta": rng.choice(("0",) + vals),
        "u": rng.choice(("1/2", "1", "3/2", "2")),
        "q": "0" if rng.random() < 0.4 else rng.choice(("1/3", "1/2", "1")),
    }


# ----------------------------------------------------------------------
# round templates

#: dp_laws: statistic sweeps at (n, weight class); the statistic of
#: slot k in round r is STATS[(k + r) % 7], so every seed sees the same
#: sequence of round costs while seven rounds cover every pairing.
DP_STAT_SLOTS = ((11, "d1000"), (12, "d13"), (13, "half"), (14, "unit"),
                 (15, "unit"), (11, "tiny"), (12, "d1000"))
DP_EVENT_SLOTS = ((12, "d1000"), (13, "d13"), (14, "half"), (15, "unit"),
                  (16, "unit"))
DP_COND_SLOTS = ((12, "d13"), (13, "half"), (14, "unit"), (15, "unit"),
                 (16, "unit"))

#: poisson_limits: (statistic, ladder of sizes, weight class).  Ladders
#: are picked per statistic and class so that the templates fall into
#: three bands of like cost: small tables (tens of ms), mid tables
#: (about 0.15 s) and large ones (about 0.5 s) that end at n = 256.
#: Half of every round is the mid band, so the median sits inside it,
#: and a run's large band holds well over ten samples, so the tail (ten
#: samples beyond it) sits inside that band too: both are medians over
#: many samples spread through the run, not the time of one query.
POISSON_SLOTS = (("X2", (8, 12, 32, 64), "unit"),
                 ("B2", (8, 12, 32, 64), "half"),
                 ("A2", (8, 12, 32, 64), "d1000"),
                 ("A2", (12, 64, 128), "unit"),
                 ("A2", (12, 64, 112), "d13"),
                 ("B2", (12, 64, 96), "d1000"),
                 ("B2", (12, 64, 128), "half"),
                 ("X2", (64, 96, 192), "d13"),
                 ("X2", (32, 64, 256), "unit"),
                 ("A2", (12, 128, 256), "unit"),
                 ("B2", (12, 64, 256), "half"),
                 ("X2", (64, 192, 256), "d1000"))


def poisson_key(stat: str, ns: Sequence[int], cls: str) -> str:
    return f"convergence_report/{stat}/{'-'.join(map(str, ns))}/{cls}"


#: asep_bridge: n = 5 is the middle of every round, so the median sits
#: inside that class; three n = 6 solves per round give a run well over
#: ten of them, so the tail (ten samples beyond it) sits inside the
#: n = 6 class, which takes most of the run time
ASEP_SLOTS = (3, 4, 5, 5, 5, 5, 6, 6, 6)

#: sampling: hot chain_rule keys, hot enum_alias keys, and the batch
#: sizes each round sends to them.  Hot weights all have largest scaled
#: factor 2, so every seed's hot tables carry the same prime plan, and
#: they walk at about the same speed ((1, 2) is left out: its batches
#: visit half again as many states).  The small n = 12 batches, batch 1
#: twice, are the middle of a round's costs, so the median sits inside
#: that band rather than between two templates.
HOT_WEIGHTS = (("2", "1"), ("2", "2"), ("0", "2"), ("2", "0"))
SAMPLING_HOT = (("chain_rule", 8, (1, 4, 64, 256)),
                ("chain_rule", 10, (2, 16, 128)),
                ("chain_rule", 12, (1, 1, 2, 4, 64)),
                ("chain_rule", 14, (1, 32, 2)),
                ("enum_alias", 5, (8,)),
                ("enum_alias", 7, (1, 256)))
#: cold queries use weights no earlier query used: (method, n, batch)
SAMPLING_COLD = (("chain_rule", 10, 4), ("chain_rule", 12, 1),
                 ("enum_alias", 6, 16))
#: prime plan of cold chain_rule tables, the most common one among the
#: candidate weights at that size
COLD_CHAIN_PRIMES = {10: 10, 12: 14}


def template_keys(workload: str) -> List[Tuple[str, Dict[str, Any]]]:
    """Every pool key a workload can draw from, with its template."""
    keys = []
    if workload == "dp_laws":
        for n, cls in DP_STAT_SLOTS:
            for stat in STATS:
                keys.append((f"statistic_pmf/{n}/{cls}/{stat}",
                             {"kind": "statistic_pmf", "n": n, "cls": cls, "stat": stat}))
        for n, cls in DP_EVENT_SLOTS:
            keys.append((f"event_prob/{n}/{cls}",
                         {"kind": "event_prob", "n": n, "cls": cls}))
        for n, cls in DP_COND_SLOTS:
            keys.append((f"conditional_cell_law/{n}/{cls}",
                         {"kind": "conditional_cell_law", "n": n, "cls": cls}))
    elif workload == "poisson_limits":
        for stat, ns, cls in POISSON_SLOTS:
            keys.append((poisson_key(stat, ns, cls),
                         {"kind": "convergence_report", "stat": stat,
                          "ns": list(ns), "cls": cls}))
    elif workload == "asep_bridge":
        for n in sorted(set(ASEP_SLOTS)):
            keys.append((f"cross_validate/{n}", {"kind": "cross_validate", "n": n}))
    else:
        raise ValueError(f"{workload} has no reference pool")
    return keys


def round_keys(workload: str, r: int) -> List[str]:
    """Pool keys of round r, in template order (shuffled per seed later)."""
    if workload == "dp_laws":
        out = [f"statistic_pmf/{n}/{cls}/{STATS[(k + r) % len(STATS)]}"
               for k, (n, cls) in enumerate(DP_STAT_SLOTS)]
        out += [f"event_prob/{n}/{cls}" for n, cls in DP_EVENT_SLOTS]
        out += [f"conditional_cell_law/{n}/{cls}" for n, cls in DP_COND_SLOTS]
        return out
    if workload == "poisson_limits":
        return [poisson_key(*slot) for slot in POISSON_SLOTS]
    if workload == "asep_bridge":
        return [f"cross_validate/{n}" for n in ASEP_SLOTS]
    raise ValueError(workload)


def make_pool_inputs(template: Dict[str, Any], rng: random.Random) -> Dict[str, Any]:
    """Concrete inputs for one pool entry of a template (no answer yet)."""
    kind = template["kind"]
    q: Dict[str, Any] = {"kind": kind}
    if kind == "cross_validate":
        q["n"] = template["n"]
        q["rates"] = draw_rates(rng)
        return q
    a, b = draw_weights(rng, template["cls"])
    q["a"], q["b"] = str(a), str(b)
    if kind == "convergence_report":
        q["stat"], q["ns"] = template["stat"], template["ns"]
        return q
    n = q["n"] = template["n"]
    if kind == "statistic_pmf":
        q["stat"] = template["stat"]
    elif kind == "event_prob":
        q["event"] = draw_event(rng, n, rng.randint(1, 3))
    elif kind == "conditional_cell_law":
        box = staircase_box(rng, n)
        q["box"] = list(box)
        # a third of the laws are unconditioned, which box_law checks
        q["given"] = None if rng.random() < 1 / 3 else draw_event(
            rng, n, rng.randint(1, 2), avoid=[box])
    return q


# ----------------------------------------------------------------------
# query lists


@dataclass
class Query:
    qid: int
    round: int
    spec: Dict[str, Any]  # JSON-ready inputs, hashed into the list digest
    expect: Dict[str, Any] = field(default_factory=dict)  # reference answer


def load_pool(workload: str, reference_dir: Path = REFERENCE_DIR) -> Dict[str, Any]:
    with open(reference_dir / f"{workload}.json") as fh:
        return json.load(fh)


def stratified(costs: Sequence[float], uses: int, rng: random.Random) -> List[int]:
    """``uses`` entry indices, spread evenly over the entries' cost ranks.

    Entries are ranked by the cost recorded when the pool was built and
    cut into ``uses`` equal strata; one entry is drawn from each.  Every
    seed so gets different inputs with the same spread of costs, which
    keeps per-run medians and totals steady.  Past one use per entry the
    picks start over.
    """
    ranked = sorted(range(len(costs)), key=lambda i: costs[i])
    picks: List[int] = []
    while len(picks) < uses:
        m = min(uses - len(picks), len(ranked))
        for s in range(m):
            lo, hi = s * len(ranked) // m, (s + 1) * len(ranked) // m
            picks.append(ranked[rng.randrange(lo, hi)])
    rng.shuffle(picks)
    return picks


def _pool_queries(workload: str, seed: int, rounds: int,
                  pool: Dict[str, Any]) -> List[Query]:
    rng = random.Random(f"{workload}:{seed}")
    entries = pool["entries"]
    plan = [round_keys(workload, r) for r in range(rounds)]
    uses: Dict[str, int] = {}
    for keys in plan:
        for key in keys:
            uses[key] = uses.get(key, 0) + 1
    picks = {key: stratified([e["cost_s"] for e in entries[key]], uses[key], rng)
             for key in sorted(uses)}
    out: List[Query] = []
    for r, keys in enumerate(plan):
        rng.shuffle(keys)
        for key in keys:
            entry = entries[key][picks[key].pop()]
            spec = {f: v for f, v in entry.items() if f not in ("answer", "cost_s")}
            spec["template"] = key
            out.append(Query(len(out), r, spec, entry["answer"]))
    return out


def chain_prime_count(n: int, a: Fraction, b: Fraction) -> int:
    """Primes of the chain_rule tables: they cover (3 x largest factor)^boxes."""
    q = math.lcm(a.denominator, b.denominator)
    worst = max(q * int(b * q), q, q * int(a * q))
    return primes_covering((3 * worst) ** (n * (n + 1) // 2))


def _cold_weights(rng: random.Random, method: str, n: int) -> List[Tuple[str, str]]:
    """Fresh weights for cold queries, in the order they are used.

    chain_rule candidates come first with the prime plan of
    COLD_CHAIN_PRIMES, so every seed's cold table builds cost alike;
    the rest follow only if a long run uses those up.
    """
    cands = sorted({(Fraction(x, d), Fraction(y, e)) for x in range(7)
                    for y in range(1, 7) for d in (1, 2, 3) for e in (1, 2, 3)})
    rng.shuffle(cands)
    if method == "chain_rule":
        target = COLD_CHAIN_PRIMES[n]
        cands.sort(key=lambda w: chain_prime_count(n, *w) != target)
    return [(str(a), str(b)) for a, b in cands]


def _sampling_queries(seed: int, rounds: int) -> List[Query]:
    rng = random.Random(f"sampling:{seed}")
    hot = {(method, n): rng.choice(HOT_WEIGHTS) for method, n, _ in SAMPLING_HOT}
    cold = {(method, n): [w for w in _cold_weights(rng, method, n)
                          if w != hot.get((method, n))]
            for method, n, _ in SAMPLING_COLD}
    templates = []
    for method, n, batches in SAMPLING_HOT:
        templates += [("hot", method, n, batch) for batch in batches]
    templates += [("cold", method, n, batch) for method, n, batch in SAMPLING_COLD]
    out: List[Query] = []
    for r in range(rounds):
        todo = list(templates)
        rng.shuffle(todo)
        for temp, method, n, batch in todo:
            # a cold query takes weights no earlier query used at this size
            a, b = hot[(method, n)] if temp == "hot" else cold[(method, n)].pop(0)
            spec = {"kind": "sample_many", "method": method, "n": n, "a": a,
                    "b": b, "count": batch, "cold": temp == "cold",
                    "rng": rng.getrandbits(64)}
            out.append(Query(len(out), r, spec))
    return out


def hot_keys(queries: Sequence[Query]) -> List[Tuple[str, int, str, str]]:
    keys = []
    for q in queries:
        s = q.spec
        key = (s["method"], s["n"], s["a"], s["b"])
        if not s["cold"] and key not in keys:
            keys.append(key)
    return keys


def build_queries(workload: str, seed: int, rounds: int,
                  pool: Optional[Dict[str, Any]] = None) -> List[Query]:
    if workload == "sampling":
        return _sampling_queries(seed, rounds)
    return _pool_queries(workload, seed, rounds, pool)


def list_digest(queries: Sequence[Query]) -> str:
    return hashlib.sha256(
        canonical_json([q.spec for q in queries]).encode()).hexdigest()


# ----------------------------------------------------------------------
# preparing and running queries against the library


def _constraints(lib, n: int, items) -> Any:
    reqs = {r.value: r for r in lib.Requirement}
    return lib.ConstraintSet.of(n, {(i, j): reqs[req] for i, j, req in items})


def prepare(lib, spec: Dict[str, Any]) -> Tuple[str, tuple]:
    """(public function name, arguments) for one query.

    Building weights, constraint sets and RNGs is input preparation and
    happens before the clock starts; only the named call is timed.
    """
    kind = spec["kind"]
    if kind == "cross_validate":
        rates = {k: Fraction(v) for k, v in spec["rates"].items()}
        return kind, (spec["n"], lib.AsepParams(**rates))
    w = lib.Weights(Fraction(spec["a"]), Fraction(spec["b"]))
    if kind == "statistic_pmf":
        return kind, (spec["n"], w, spec["stat"])
    if kind == "event_prob":
        return kind, (spec["n"], w, _constraints(lib, spec["n"], spec["event"]))
    if kind == "conditional_cell_law":
        given = spec["given"]
        return kind, (spec["n"], w, tuple(spec["box"]),
                      None if given is None else _constraints(lib, spec["n"], given))
    if kind == "convergence_report":
        return kind, (spec["ns"], w, spec["stat"])
    if kind == "sample_many":
        return kind, (spec["n"], w, random.Random(spec["rng"]), spec["count"],
                      spec["method"])
    raise ValueError(f"unknown query kind {kind!r}")


def canonical_answer(kind: str, answer: Any) -> Dict[str, Any]:
    """Exact answers as p/q digests; floats (tv) kept as numbers."""
    if kind == "statistic_pmf":
        return {"digest": digest(",".join(frac(m) for m in answer.masses))}
    if kind == "event_prob":
        return {"digest": digest(frac(answer))}
    if kind == "conditional_cell_law":
        return {"digest": digest(",".join(
            frac(x) for x in (answer.alpha, answer.beta, answer.empty)))}
    if kind == "convergence_report":
        text = ";".join(f"{row.n}:" + ",".join(frac(m) for m in row.moments)
                        for row in answer)
        return {"digest": digest(text), "tv": [row.tv for row in answer]}
    if kind == "cross_validate":
        return {"digest": digest(canonical_json(answer)),
                "alpha_delta": "alpha_delta" in answer["matching_conventions"]}
    raise ValueError(kind)


#: tv distances carry a 1e-12 enclosure contract; twice that is a miss
TV_TOLERANCE = 2e-12


def answer_matches(kind: str, got: Dict[str, Any], want: Dict[str, Any]) -> bool:
    if got["digest"] != want["digest"]:
        return False
    if kind == "convergence_report":
        return len(got["tv"]) == len(want["tv"]) and all(
            abs(x - y) <= TV_TOLERANCE for x, y in zip(got["tv"], want["tv"]))
    if kind == "cross_validate":
        return got["alpha_delta"]
    return True


# ----------------------------------------------------------------------
# sampler gate


@dataclass
class SamplerGate:
    """Validity of every draw, and the pooled X2 law of each hot key."""

    lib: Any
    counts: Dict[Tuple, Dict[int, int]] = field(default_factory=dict)

    def check_batch(self, spec: Dict[str, Any], draws: Sequence[Any]) -> bool:
        if len(draws) != spec["count"]:
            return False
        if not all(t.n == spec["n"] and t.is_valid for t in draws):
            return False
        if not spec["cold"]:
            key = (spec["method"], spec["n"], spec["a"], spec["b"])
            bins = self.counts.setdefault(key, {})
            for t in draws:
                k = self.lib.diagonal_statistic(t, "X2")
                bins[k] = bins.get(k, 0) + 1
        return True

    def failing_keys(self) -> List[Tuple]:
        """Hot keys whose pooled X2 law leaves 5 sigma in some bin.

        Bins with exact mass 0 must stay empty.  The upper tail is
        pooled until its expected count reaches 25, so the normal
        approximation behind 5 sigma holds in every bin tested.
        """
        bad = []
        for key, bins in self.counts.items():
            method, n, a, b = key
            law = self.lib.exact_statistic_pmf(
                n, self.lib.Weights(Fraction(a), Fraction(b)), "X2")
            draws = sum(bins.values())
            if any(k > law.max_value or law.mass(k) == 0 for k in bins):
                bad.append(key)
                continue
            cells: List[Tuple[float, int]] = []
            p_acc, c_acc = 0.0, 0
            for k in range(law.max_value, -1, -1):
                p_acc += float(law.mass(k))
                c_acc += bins.get(k, 0)
                if p_acc * draws >= 25 or k == 0:
                    cells.append((p_acc, c_acc))
                    p_acc, c_acc = 0.0, 0
            for p, c in cells:
                sigma = math.sqrt(p * (1 - p) / draws)
                if abs(c / draws - p) > 5 * sigma + 1e-15:
                    bad.append(key)
                    break
        return bad


# ----------------------------------------------------------------------
# warm-up


def warm_up(lib, workload: str, queries: Sequence[Query]) -> None:
    """Pay one-off costs before timing: first calls into numpy and
    mpmath, and for sampling the tables of every hot key."""
    w = lib.Weights(1, 1)
    if workload == "dp_laws":
        lib.statistic_pmf(4, w, "X2")
        lib.event_prob(4, w, lib.ConstraintSet.empty(4))
        lib.conditional_cell_law(4, w, (1, 1))
    elif workload == "poisson_limits":
        lib.convergence_report([4, 8], w, "A2")
    elif workload == "asep_bridge":
        lib.cross_validate(3, lib.AsepParams(1, 1, 0, 0))
    elif workload == "sampling":
        for method, n, a, b in hot_keys(queries):
            lib.sample_many(n, lib.Weights(Fraction(a), Fraction(b)),
                            random.Random(0), 1, method)


WORKLOADS = ("dp_laws", "poisson_limits", "sampling", "asep_bridge")

#: Seconds one round takes on the machine the benchmark was sized on
#: (2 cores, 7 GB RAM); a run issues round(seconds / ROUND_S) rounds,
#: so a run measures about --seconds there and the query list, and
#: with it the tail percentile, is fixed by seed and seconds alone.
ROUND_S = {"dp_laws": 3.6, "poisson_limits": 3.6, "sampling": 1.4,
           "asep_bridge": 3.9}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))

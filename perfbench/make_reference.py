"""Build the reference pools the exact workloads draw their queries from.

    python3 perfbench/make_reference.py [workload ...]

For every template of ``dp_laws``, ``poisson_limits`` and
``asep_bridge`` this draws a fixed number of concrete inputs from a
fixed pool seed, asks the library for the answer and stores a digest
of its canonical ``p/q`` form next to the inputs in
``reference/<workload>.json``.  Before writing, every answer is
cross-checked once against an independent route:

* statistic laws of A2, B2 and X2: the moment route
  (``exact_statistic_pmf``) against the counting DP;
* unconditioned cell laws: ``box_law`` against ``conditional_cell_law``;
* convergence rows at n <= 12: moments and tv from the DP law;
* ASEP reports: ``alpha_delta`` among the matching conventions;
* one small shadow instance per template, at n <= 7, against the
  enumeration oracle.

A failed cross-check aborts without writing anything.  Takes a few
minutes on two cores.
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as wl  # noqa: E402
import calibrate  # noqa: E402
from run import load_library  # noqa: E402


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


POOL_SIZE = {"statistic_pmf": 4, "event_prob": 12, "conditional_cell_law": 12,
             "convergence_report": 12, "cross_validate": 16}
DP_KINDS = ("statistic_pmf", "event_prob", "conditional_cell_law")


def modal_prime_count(n: int, cls: str) -> int:
    """The counting engine's most common prime plan for a weight class."""
    counts = Counter(
        wl.dp_prime_count(n, *wl.draw_weights(random.Random(f"mode:{k}"), cls))
        for k in range(200))
    return counts.most_common(1)[0][0]


def entries_for(workload: str, key: str, template, lib):
    """K distinct input sets for one template, answered by the library.

    Counting queries keep only weights with the class's modal prime
    plan, so entries of one template do the same amount of work.  The
    time of each call, calibrated like the benchmark's latencies, is
    stored as ``cost_s``; query lists use it to draw entries evenly
    across the cost range.
    """
    size = POOL_SIZE[template["kind"]]
    primes = (modal_prime_count(template["n"], template["cls"])
              if template["kind"] in DP_KINDS else None)
    if template["kind"] == "cross_validate":
        size *= wl.ASEP_SLOTS.count(template["n"])
    out, seen = [], set()
    k = 0
    while len(out) < size:
        rng = random.Random(f"pool:{key}:{k}")
        k += 1
        spec = wl.make_pool_inputs(template, rng)
        ident = wl.canonical_json(spec)
        if ident in seen or (primes is not None and primes != wl.dp_prime_count(
                spec["n"], Fraction(spec["a"]), Fraction(spec["b"]))):
            continue
        fn, args = wl.prepare(lib, spec)
        try:
            before = calibrate.slowdown(workload)
            t0 = time.perf_counter()
            answer = getattr(lib, fn)(*args)
            cost = ((time.perf_counter() - t0) * 2
                    / (before + calibrate.slowdown(workload)))
        except ValueError as exc:
            # conditioning on an impossible event, or a reducible chain:
            # not a query any workload should send
            print(f"  skip {key}: {exc}", file=sys.stderr)
            continue
        seen.add(ident)
        out.append((dict(spec, cost_s=cost), args, answer))
    return out


def cross_check(lib, spec, args, answer, tally) -> None:
    kind = spec["kind"]
    if kind == "statistic_pmf" and spec["stat"] in ("A2", "B2", "X2"):
        n, w, stat = args
        require(lib.exact_statistic_pmf(n, w, stat) == answer, spec)
        tally["moment_route_vs_dp"] += 1
    elif kind == "conditional_cell_law" and spec["given"] is None:
        n, w, box, _ = args
        law = lib.box_law(n, w, box)
        require((law.alpha, law.beta, law.empty) ==
            (answer.alpha, answer.beta, answer.empty), spec)
        tally["box_law_vs_conditional"] += 1
    elif kind == "convergence_report":
        ns, w, stat = args
        for row in answer:
            if row.n <= 12:
                law = lib.statistic_pmf(row.n, w, stat)
                moments = tuple(law.factorial_moment(r) for r in range(1, 5))
                require(moments == row.moments, (spec, row.n))
                tv = lib.tv_to_poisson(law, lib.POISSON_RATES[stat])
                require(abs(tv - row.tv) <= wl.TV_TOLERANCE, (spec, row.n))
                tally["moment_route_vs_dp"] += 1
    elif kind == "cross_validate":
        require("alpha_delta" in answer["matching_conventions"], spec)
        tally["alpha_delta_matches"] += 1


def shadow_check(lib, key, template, tally) -> None:
    """The template's kind at a size the enumeration oracle can reach."""
    if template["kind"] not in ("statistic_pmf", "event_prob",
                                "conditional_cell_law"):
        return
    small = dict(template, n=5 + template["n"] % 3)
    for k in range(50):
        spec = wl.make_pool_inputs(small, random.Random(f"shadow:{key}:{k}"))
        fn, args = wl.prepare(lib, spec)
        n, w = args[0], args[1]
        if fn == "statistic_pmf":
            require(lib.statistic_pmf(*args) ==
                lib.oracle_statistic_pmf(n, w, args[2]), spec)
            break
        if fn == "event_prob":
            require(lib.event_prob(*args) == lib.oracle_event_prob(n, w, args[2]), spec)
            break
        given = args[3] if args[3] is not None else lib.ConstraintSet.empty(n)
        denominator = lib.oracle_event_prob(n, w, given)
        if denominator == 0:
            continue
        law = lib.conditional_cell_law(*args)
        for name, req in (("alpha", lib.Requirement.MUST_ALPHA),
                          ("beta", lib.Requirement.MUST_BETA),
                          ("empty", lib.Requirement.MUST_EMPTY)):
            extended = lib.ConstraintSet(n, given.items + ((args[2], req),))
            require(getattr(law, name) ==
                lib.oracle_event_prob(n, w, extended) / denominator, spec)
        break
    else:
        require(False, f"no possible shadow event for {key}")
    tally["oracle_n_le_7"] += 1


def build(workload: str, lib) -> dict:
    tally = {"moment_route_vs_dp": 0, "box_law_vs_conditional": 0,
             "alpha_delta_matches": 0, "oracle_n_le_7": 0}
    entries = {}
    for key, template in wl.template_keys(workload):
        t0 = time.perf_counter()
        rows = []
        for spec, args, answer in entries_for(workload, key, template, lib):
            cross_check(lib, spec, args, answer, tally)
            rows.append(dict(spec, answer=wl.canonical_answer(spec["kind"], answer)))
        shadow_check(lib, key, template, tally)
        entries[key] = rows
        print(f"  {key}: {len(rows)} entries, {time.perf_counter() - t0:.1f} s",
              file=sys.stderr, flush=True)
    return {"workload": workload, "cross_checks": tally, "entries": entries}


def main(argv) -> int:
    lib = load_library()
    names = argv or ["dp_laws", "poisson_limits", "asep_bridge"]
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        print(f"{name}:", file=sys.stderr)
        pool = build(name, lib)
        print(f"  cross-checks passed: {pool['cross_checks']}", file=sys.stderr)
        with open(wl.REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(pool, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

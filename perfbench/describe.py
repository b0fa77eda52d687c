"""Input properties of each workload's query list.

    python3 perfbench/describe.py [--seed 1] [--seconds 20]

Writes ``properties.json`` next to this file: per workload, the share
of queries whose (n, w, kind) key repeats an earlier query, and
histograms of sizes, CRT prime-plan sizes and batch sizes.  Round
composition is fixed, so every seed gives the same histograms up to
the weights drawn inside each weight class.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402


def properties(workload: str, seed: int, seconds: float) -> dict:
    pool = None if workload == "sampling" else wl.load_pool(workload)
    queries = wl.build_queries(workload, seed, wl.rounds_for(workload, seconds), pool)
    seen, repeats = set(), 0
    sizes, primes, batches = Counter(), Counter(), Counter()
    for q in queries:
        s = q.spec
        if s["kind"] == "cross_validate":
            key = (s["n"], wl.canonical_json(s["rates"]), s["kind"])
        else:
            n = s.get("n", tuple(s.get("ns", ())))
            key = (n, s["a"], s["b"], s.get("method", s["kind"]))
        repeats += key in seen
        seen.add(key)
        for n in s.get("ns", [s.get("n")]):
            sizes[n] += 1
        if workload == "dp_laws":
            primes[wl.dp_prime_count(s["n"], Fraction(s["a"]), Fraction(s["b"]))] += 1
        if workload == "sampling":
            batches[s["count"]] += 1
            if s["method"] == "chain_rule":
                primes[wl.chain_prime_count(s["n"], Fraction(s["a"]), Fraction(s["b"]))] += 1
    out = {
        "queries": len(queries),
        "rounds": queries[-1].round + 1,
        "repeat_share": repeats / len(queries),
        "size_histogram": dict(sorted(sizes.items())),
    }
    if primes:
        out["prime_count_histogram"] = dict(sorted(primes.items()))
    if batches:
        out["batch_size_histogram"] = dict(sorted(batches.items()))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args(argv)
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "sized_on": "2 cores (nproc = 2), 7 GB RAM, one client thread",
        "workloads": {name: properties(name, args.seed, args.seconds)
                      for name in wl.WORKLOADS},
    }
    with open(HERE / "properties.json", "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

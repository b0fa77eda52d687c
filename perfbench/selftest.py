"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke: every workload runs with ``--seconds 1`` (one round) in both
   modes, and the last output line must match the contract: exactly
   ``correct``, ``attempted``, ``failed`` and ``metrics``, with every
   end-to-end (``--trace 0``) or per-layer (``--trace 1``) metric of
   ``BENCHMARK.json`` present with its unit, and no failure.
2. Determinism: the same seed yields a byte-identical query list, and
   another seed a different one.
3. Gate: a deliberately corrupted reference digest makes the answers
   it covers count as failed.

Exits 0 when all hold, 1 otherwise.  Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads as wl  # noqa: E402


def check(ok: bool, what: str, problems: list) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def smoke(spec: dict, problems: list) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for name in wl.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT, timeout=170)
            what = f"smoke {name} --trace {trace}"
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                check(False, f"{what}: exit {proc.returncode}", problems)
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = out.get("metrics", {})
            check(set(out) == {"correct", "attempted", "failed", "metrics"}
                  and out["correct"] is True and out["failed"] == 0
                  and isinstance(out["attempted"], int) and out["attempted"] >= 1
                  and set(metrics) == set(want)
                  and all(metrics[k]["unit"] == u
                          and isinstance(metrics[k]["value"], (int, float))
                          for k, u in want.items()),
                  what, problems)


def determinism(problems: list) -> None:
    for name in wl.WORKLOADS:
        pool = None if name == "sampling" else wl.load_pool(name)
        first = wl.list_digest(wl.build_queries(name, 11, 3, pool))
        again = wl.list_digest(wl.build_queries(name, 11, 3, pool))
        other = wl.list_digest(wl.build_queries(name, 12, 3, pool))
        check(first == again != other, f"query list determinism {name}", problems)


def corrupted_reference(problems: list) -> None:
    pool = wl.load_pool("dp_laws")
    key = "event_prob/12/d1000"
    for entry in pool["entries"][key]:
        d = entry["answer"]["digest"]
        entry["answer"]["digest"] = ("0" if d[0] != "0" else "1") + d[1:]
    bad_dir = run.OUT_DIR / "selftest-reference"
    bad_dir.mkdir(parents=True, exist_ok=True)
    with open(bad_dir / "dp_laws.json", "w") as fh:
        json.dump(pool, fh)
    lib, queries, calls, _ = run.set_up("dp_laws", 7, 1, bad_dir)
    result = run.run_loop(lib, "dp_laws", queries, calls, 1)
    hit = sum(q.spec["template"] == key for q in queries)
    check(result["failed"] == hit > 0,
          f"corrupted reference fails {result['failed']} of {result['attempted']}"
          f" queries (failed_ratio > 0)", problems)


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems: list = []
    determinism(problems)
    corrupted_reference(problems)
    smoke(spec, problems)
    print("selftest " + ("passed" if not problems else f"FAILED: {problems}"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

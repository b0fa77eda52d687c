"""The staircase-lab benchmark.

    python3 perfbench/run.py --workload dp_laws --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop with a single client: queries go to
the public library API back to back, one thread, in this fresh
process.  The query list is fixed by ``--seed`` and ``--seconds``
(``--seconds`` sets the number of rounds, sized so a run measures
about that long on a 2-core machine).  Every answer is checked outside
the timed region, and the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Their timings are
calibrated: a fixed kernel that calls no library code runs between
queries, untimed, and each latency is divided by how much slower than
its reference time the kernel ran around that query (see
``calibrate.py``), so a run reads about the same on a shared host whose
speed swings by half or more from minute to minute.  The summary lines
print the uncalibrated figures too.  Set-up (import, input
generation, warm-up) is timed here and in four more fresh processes,
each calibrated by the slowdown measured right after it, and the
median is reported.  ``--trace 1`` reports per-layer metrics
on a list of half the rounds: an untraced run of it in a child
process gives the base throughput, then this process wraps the
library's layers (see ``tracing.py``), runs the list again and writes
the spans to ``.perfbench_out/`` under the checkout root.

The library is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

#: Extra fresh processes that repeat set-up, for the set-up median.
SETUP_REPEATS = 4
#: Stop issuing rounds once the loop has run this many times --seconds,
#: so a much slower library or machine keeps a run near its time slot.
LOOP_CAP = 1.3
CHILD_TIMEOUT_S = 170


class MissingLibrary(RuntimeError):
    pass


def load_library():
    """Import staircase_lab from this checkout's src/, nowhere else."""
    src = ROOT / "src"
    if not (src / "staircase_lab" / "__init__.py").is_file():
        raise MissingLibrary(f"no library source under {src}")
    sys.path.insert(0, str(src))
    import staircase_lab

    if Path(staircase_lab.__file__).resolve().parent != (src / "staircase_lab").resolve():
        raise MissingLibrary(f"imported staircase_lab from {staircase_lab.__file__}")
    return staircase_lab


def set_up(workload: str, seed: int, seconds: float, reference_dir: Path):
    """Import, input generation and warm-up.

    Returns the library, the query list, the prepared calls and the
    seconds all of it took.
    """
    t0 = time.perf_counter()
    lib = load_library()
    pool = None if workload == "sampling" else wl.load_pool(workload, reference_dir)
    queries = wl.build_queries(workload, seed, wl.rounds_for(workload, seconds), pool)
    calls = [wl.prepare(lib, q.spec) for q in queries]
    wl.warm_up(lib, workload, queries)
    return lib, queries, calls, time.perf_counter() - t0


def run_loop(lib, workload: str, queries, calls, seconds: float,
             tracer=None) -> Dict[str, Any]:
    """Issue every query back to back; check each answer untimed.

    The calibration kernel (``calibrate.py``) runs between queries,
    outside the timed region; each query's calibrated latency is its
    latency divided by the mean slowdown measured just before and just
    after it.
    """
    gate = wl.SamplerGate(lib) if workload == "sampling" else None
    latencies: List[float] = []
    slowdowns: List[float] = []
    failed_ids = set()
    wall0 = time.perf_counter()
    for i, (q, (name, args)) in enumerate(zip(queries, calls)):
        if (i and q.round != queries[i - 1].round
                and time.perf_counter() - wall0 > LOOP_CAP * seconds):
            break
        slowdowns.append(calibrate.slowdown(workload))
        fn = getattr(lib, name)
        if tracer is not None:
            tracer.query, tracer.active = q.qid, True
        t0 = time.perf_counter()
        try:
            answer = fn(*args)
            error = None
        except Exception as exc:  # a failed query is a result, not a crash
            error = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        latencies.append(t1 - t0)
        if error is None:
            try:
                if gate is not None:
                    ok = gate.check_batch(q.spec, answer)
                else:
                    ok = wl.answer_matches(
                        name, wl.canonical_answer(name, answer), q.expect)
            except Exception as exc:  # a malformed answer is a wrong answer
                ok, error = False, exc
            if not ok and error is None:
                error = "wrong answer"
        if error is not None:
            print(f"query {q.qid} ({q.spec.get('template', q.spec['kind'])}) "
                  f"failed: {error!r}", file=sys.stderr)
            failed_ids.add(q.qid)
    slowdowns.append(calibrate.slowdown(workload))
    calibrated = [t * 2 / (s0 + s1)
                  for t, s0, s1 in zip(latencies, slowdowns, slowdowns[1:])]
    done = queries[:len(latencies)]
    if gate is not None:
        bad = set(gate.failing_keys())
        for q in done:
            s = q.spec
            if (s["method"], s["n"], s["a"], s["b"]) in bad:
                failed_ids.add(q.qid)
        if bad:
            print(f"hot keys outside 5 sigma: {sorted(bad)}", file=sys.stderr)
    return {"latencies": latencies, "calibrated": calibrated,
            "slowdown": statistics.median(slowdowns), "failed": len(failed_ids),
            "attempted": len(done), "service_s": sum(latencies)}


def tail(latencies: List[float]):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def child(args, phase: str) -> Dict[str, Any]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--phase", phase]
    env = {k: v for k, v in os.environ.items() if k != "STAIRCASE_LAB_THREADS"}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{phase} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, result, setup_s: float) -> Dict[str, Dict[str, Any]]:
    """Timings are calibrated: wall-clock latencies scaled to the
    reference speed, so that a run reads the same on a busy host."""
    lat = result["calibrated"]
    tail_s, _, _ = tail(lat)
    setups = [setup_s] + [child(args, "setup")["setup_s"] for _ in range(SETUP_REPEATS)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = result["attempted"]
    return {
        "throughput_qps": {"value": attempted / sum(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "latency_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
        "correct_ratio": {"value": (attempted - result["failed"]) / attempted,
                          "unit": "ratio"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def dp_work(span) -> int:
    """Computed state updates of one counting sweep: primes x slots x cells."""
    if span.name == "dpcount.statistic_pmf":
        n, w, stat = span.args[:3]
        slots = wl.statistic_slots(n, stat)
    elif span.name == "dpcount.constrained_partition":
        n, w = span.args[:2]
        if len(span.args) > 3 and span.args[3] == "fractions":
            return 0
        slots = 1
    else:
        return 0
    return wl.dp_prime_count(n, w.a, w.b) * slots * wl.sweep_cells(n)


def per_layer(args, lib, queries, calls) -> tuple:
    base = child(args, "loop")
    tracer = tracing.Tracer()
    tracer.install(lib)
    result = run_loop(lib, args.workload, queries, calls, args.seconds, tracer)
    metrics = tracing.layer_metrics(tracer.spans, queries, result["service_s"], dp_work)
    traced_qps = result["attempted"] / sum(result["calibrated"])
    metrics["trace.traced_qps"] = traced_qps
    metrics["trace.untraced_qps"] = base["throughput_qps"]
    metrics["trace.overhead_ratio"] = traced_qps / base["throughput_qps"]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(path)
    print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    units = {"calls": "count", "self_s": "s", "self_share": "ratio",
             "p50_ms": "ms", "state_updates_computed": "count",
             "state_updates_per_s": "1/s", "draws": "count", "draws_per_s": "1/s",
             "ms_per_draw": "ms", "tableaux_yielded": "count", "spans": "count",
             "overhead_ratio": "ratio", "traced_qps": "1/s", "untraced_qps": "1/s"}
    out = {}
    for name, value in metrics.items():
        suffix = name.rsplit(".", 1)[-1]
        out[name] = {"value": value, "unit": units[suffix]}
    return result, out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the fresh processes this script starts for itself
    p.add_argument("--phase", choices=("full", "setup", "loop"), default="full",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.trace:
        # the list runs twice, untraced and traced: half a list each
        # keeps a traced run as long as an untraced one
        args.seconds /= 2
    os.environ.pop("STAIRCASE_LAB_THREADS", None)
    try:
        lib, queries, calls, setup_s = set_up(
            args.workload, args.seed, args.seconds, wl.REFERENCE_DIR)
    except (MissingLibrary, FileNotFoundError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_s /= calibrate.slowdown(args.workload)
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.phase == "loop":
        result = run_loop(lib, args.workload, queries, calls, args.seconds)
        print(json.dumps({"throughput_qps": result["attempted"] / sum(result["calibrated"])}))
        return 0

    if args.trace:
        result, metrics = per_layer(args, lib, queries, calls)
    else:
        result = run_loop(lib, args.workload, queries, calls, args.seconds)
        metrics = end_to_end(args, result, setup_s)
    attempted, failed = result["attempted"], result["failed"]
    _, pct, beyond = tail(result["latencies"])
    print(f"workload={args.workload} seed={args.seed} rounds={queries[-1].round + 1} "
          f"queries={attempted} query_list_sha256={wl.list_digest(queries)}")
    print(f"service_s={result['service_s']:.3f} failed_ratio={failed / attempted} "
          f"latency_tail=p{pct:.2f} ({beyond} samples beyond, {attempted} total)")
    raw = result["latencies"]
    print(f"uncalibrated: throughput_qps={attempted / result['service_s']:.4f} "
          f"latency_p50_ms={statistics.median(raw) * 1e3:.3f} "
          f"latency_tail_ms={tail(raw)[0] * 1e3:.3f} "
          f"median_slowdown={result['slowdown']:.3f}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

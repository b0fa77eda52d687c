"""Spans around the public functions of the library's layers.

The tracer wraps, from outside, every public function defined in the
layer modules and rebinds each name wherever the package holds it,
including names one module imported from another (``asep`` and
``sampler`` call ``enumeration.enumerate_tableaux`` by their own
binding).  No library file changes.  A span records its name, layer,
start, end, parent span and the benchmark query it served; spans stay
in memory and are written out at the end of the run.

A call that returns a generator keeps its span open while the
generator runs: only the time spent inside ``next`` counts as the
span's duration, and each yielded item is counted.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import statistics
import time
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

LAYERS = ("dpcount", "moments", "sampler", "asep", "enumeration")


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    layer: str
    parent: Optional[int]
    query: Optional[int]
    args: tuple
    start: float
    end: float = 0.0
    active: float = 0.0  # seconds inside the call (and inside next())
    items: int = 0  # values yielded, for generator results


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.query: Optional[int] = None
        self.active = False

    # ------------------------------------------------------------------
    # installation

    def install(self, package) -> int:
        """Wrap the layers' public functions; returns how many."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrapped: Dict[int, tuple] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", layer, obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return len(wrapped)

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self.stack[-1].sid if self.stack else None
            span = Span(len(self.spans), name, layer, parent, self.query,
                        args, time.perf_counter())
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span.end = time.perf_counter()
                span.active = span.end - span.start
            if isinstance(result, types.GeneratorType):
                return self._follow(span, result)
            return result

        return traced

    def _follow(self, span: Span, gen):
        try:
            while True:
                self.stack.append(span)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = time.perf_counter()
                    self.stack.pop()
                    span.active += t1 - t0
                    span.end = t1
                span.items += 1
                yield item
        finally:
            gen.close()

    # ------------------------------------------------------------------
    # output

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent,
                    "query": s.query, "start": s.start, "end": s.end,
                    "active_s": s.active, "items": s.items,
                }) + "\n")


# ----------------------------------------------------------------------
# per-layer metrics


def _p50_ms(values: Sequence[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(spans: Sequence[Span], queries: Sequence[Any],
                  service_s: float, work: Callable[[Span], int]) -> Dict[str, float]:
    """Self times, call counts and work counts per layer.

    A span's self time is its duration minus its children's; a
    function's *layer* self time also keeps the time of children in the
    same layer, so ``moments.exact_pmf`` includes the moment formulas
    and inversion it calls but not any counting sweep.  ``calls``
    counts entries into a layer from outside it.  ``work`` maps a span
    to the computed state updates it performs.
    """
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    by_id = {s.sid: s for s in spans}

    def own(s: Span) -> float:
        return s.active - sum(c.active for c in children.get(s.sid, ()))

    def layer_own(s: Span) -> float:
        return s.active - sum(
            c.active if c.layer != s.layer else c.active - layer_own(c)
            for c in children.get(s.sid, ()))

    def named(name: str) -> List[Span]:
        return [s for s in spans if s.name == name]

    def entries(layer: str) -> List[Span]:
        return [s for s in spans if s.layer == layer and (
            s.parent is None or by_id[s.parent].layer != layer)]

    out: Dict[str, float] = {}
    for layer in LAYERS:
        self_s = sum(own(s) for s in spans if s.layer == layer)
        out[f"{layer}.calls"] = len(entries(layer))
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.self_share"] = self_s / service_s if service_s else 0.0

    updates = sum(work(s) for s in spans if s.layer == "dpcount")
    out["dpcount.statistic_pmf.p50_ms"] = _p50_ms(
        [s.active for s in named("dpcount.statistic_pmf")])
    out["dpcount.event.p50_ms"] = _p50_ms(
        [s.active for s in named("dpcount.event_prob")])
    out["dpcount.state_updates_computed"] = updates
    out["dpcount.state_updates_per_s"] = (
        updates / out["dpcount.self_s"] if out["dpcount.self_s"] else 0.0)

    out["moments.exact_pmf.self_s"] = sum(
        layer_own(s) for s in named("moments.exact_statistic_pmf"))
    out["moments.tv.self_s"] = sum(
        layer_own(s) for s in named("moments.tv_to_poisson"))

    batches = named("sampler.sample_many")
    draws = sum(_draw_count(s) for s in batches)
    sampler_in = entries("sampler")
    out["sampler.draws"] = draws
    out["sampler.draws_per_s"] = (
        draws / sum(s.active for s in sampler_in) if sampler_in else 0.0)
    spec = {q.qid: q.spec for q in queries}
    warm_chain = [s for s in sampler_in if not spec[s.query]["cold"]
                  and spec[s.query]["method"] == "chain_rule"]
    out["sampler.small_batch.p50_ms"] = _p50_ms(
        [s.active for s in warm_chain if spec[s.query]["count"] <= 4])
    large = [s for s in warm_chain if spec[s.query]["count"] >= 64]
    large_draws = sum(spec[s.query]["count"] for s in large)
    out["sampler.large_batch.ms_per_draw"] = (
        sum(s.active for s in large) * 1e3 / large_draws if large_draws else 0.0)
    out["sampler.cold_call.p50_ms"] = _p50_ms(
        [s.active for s in sampler_in if spec[s.query]["cold"]])

    out["asep.generator.self_s"] = sum(
        layer_own(s) for s in named("asep.steady_state_via_generator"))
    out["asep.tableaux.self_s"] = sum(
        layer_own(s) for s in named("asep.steady_state_via_tableaux"))
    out["enumeration.tableaux_yielded"] = sum(
        s.items for s in named("enumeration.enumerate_tableaux"))
    out["trace.spans"] = len(spans)
    return out


def _draw_count(s: Span) -> int:
    # sample_many(n, w, rng, count, method="chain_rule")
    return s.args[3] if len(s.args) > 3 else 0

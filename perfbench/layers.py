"""Outside-in layer tracing: spans recorded around the library's entry points.

Nothing in the program is edited.  :func:`install` replaces public entry
points *where their callers look them up* with thin wrappers that open a
span, call the original and close the span; :func:`uninstall` puts the
originals back.  A function imported by name into another module is
patched in that module too; a class is patched on the class, which is
where every caller's attribute lookup lands.

Spans are held in memory as ``[name, start, end, parent, tag]`` lists and
written out only when a run ends.  ``tag`` groups the spans of one unit of
work: the op index in library runs, the request's W3C trace id inside the
daemon (read from the ambient trace context the server installs).  Engine
phase timings come from the engine's own
:class:`~repro.congest.engine.PhaseProfiler`, which the ``create_engine``
wrapper passes in; each repetition's phase deltas become child spans of
its ``engine.rep`` span, so that span's self time is the part of the
repetition no profiled phase covers.

Exact work counts ride along, keyed by the same tags, taken from public
results (execution traces, tester results, step records) and from the
engine cache's own hit/miss counters.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Profiled phases of ``FastEngine.run_tester_repetition``.
PHASES = (
    "rank_draws",
    "min_select",
    "priority_mux",
    "round_apply",
    "audit_fold",
    "decision",
)


class Tracer:
    """In-memory span recorder with per-tag exact counters."""

    def __init__(self, tag_fn: Optional[Callable[[], Any]] = None) -> None:
        self.spans: List[list] = []
        self.counts: Dict[Any, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.tag: Any = None
        self._tag_fn = tag_fn
        self._stack: List[int] = []

    def _current_tag(self) -> Any:
        if self._stack:
            return self.spans[self._stack[0]][4]
        return self._tag_fn() if self._tag_fn is not None else self.tag

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        tag = self._current_tag()
        self.spans.append([name, time.perf_counter(), 0.0, parent, tag])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """End span ``idx`` (must be the innermost open span)."""
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add_child(self, name: str, seconds: float, parent: int) -> None:
        """Record a child of ``parent`` known only by its duration."""
        self.spans.append([name, 0.0, seconds, parent, self.spans[parent][4]])

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` of the current unit of work."""
        self.counts[self._current_tag()][name] += value

    def dump(self) -> Dict[str, Any]:
        """JSON-ready form (the daemon writes this when it exits)."""
        return {
            "spans": self.spans,
            "counts": [[tag, dict(c)] for tag, c in self.counts.items()],
        }


def self_times(spans: List[list]) -> List[Tuple[str, float, float, Any, int]]:
    """``(name, inclusive_s, self_s, tag, parent)`` for every span."""
    child_sum = [0.0] * len(spans)
    for name, start, end, parent, tag in spans:
        if parent >= 0:
            child_sum[parent] += end - start
    return [
        (s[0], s[2] - s[1], s[2] - s[1] - child_sum[i], s[4], s[3])
        for i, s in enumerate(spans)
    ]


def _phase_seconds(profiler) -> Dict[str, float]:
    return {
        name: entry["seconds"]
        for name, entry in profiler.report()["phases"].items()
    }


def install(tracer: Tracer, phase_profiler) -> List[Tuple[Any, str, Any]]:
    """Wrap the library's entry points; returns the undo list."""
    import repro.congest.engine as engine_pkg
    from repro.congest.engine import cache as cache_mod
    from repro.congest.engine.cache import EngineCache
    from repro.congest.engine.fast import FastEngine
    from repro.congest.network import Network
    from repro.core import algorithm1 as algorithm1_mod
    from repro.core import tester as tester_mod
    from repro.core.tester import CkFreenessTester
    from repro.dynamic import monitor as monitor_mod
    from repro.dynamic.graph import DynamicGraph
    from repro.dynamic.monitor import CkMonitor
    from repro.dynamic.mutations import ADD_EDGE, REMOVE_EDGE
    from repro.graphs.graph import Graph

    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def spanned(name: str, fn: Callable, counter: str = "") -> Callable:
        """``fn`` inside a span ``name`` (counting calls in ``counter``)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                tracer.count(counter)
            i = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        return wrapper

    # graphs: the ball subgraph of a local recheck.
    from_arrays = Graph.__dict__["from_canonical_edge_arrays"].__func__

    def traced_from_arrays(cls, n, us, vs):
        tracer.count("monitor.ball_vertices", n)
        i = tracer.open("graphs.subgraph")
        try:
            return from_arrays(cls, n, us, vs)
        finally:
            tracer.close(i)

    patch(Graph, "from_canonical_edge_arrays", classmethod(traced_from_arrays))

    # graphs: the whole-graph CSR export, memoised per version.
    cache_csr = EngineCache.csr

    def traced_csr(self, graph, *, key=None):
        hits, misses = self.hits, self.misses
        i = tracer.open("graphs.to_csr")
        try:
            return cache_csr(self, graph, key=key)
        finally:
            tracer.close(i)
            tracer.count("engine.csr_exports", self.misses - misses)
            tracer.count("engine.cache_hits", self.hits - hits)
            tracer.count("engine.cache_lookups")

    patch(EngineCache, "csr", traced_csr)

    cache_get = EngineCache.get

    def traced_get(self, spec, graph, *, strict_bandwidth=False, telemetry=None,
                   profiler=None):
        hits = self.hits
        eng = cache_get(
            self, spec, graph, strict_bandwidth=strict_bandwidth,
            telemetry=telemetry,
            profiler=phase_profiler if profiler is None else profiler,
        )
        tracer.count("engine.cache_hits", self.hits - hits)
        tracer.count("engine.cache_lookups")
        return eng

    patch(EngineCache, "get", traced_get)

    # congest.network
    patch(Network, "__init__", spanned("network.build", Network.__init__))

    # congest.engine: compile, with the phase profiler passed in.
    create_engine = engine_pkg.create_engine

    def traced_create_engine(spec, network, **kwargs):
        if kwargs.get("profiler") is None:
            kwargs["profiler"] = phase_profiler
        tracer.count("engine.half_edges", 2 * network.m)
        i = tracer.open("engine.compile")
        try:
            return create_engine(spec, network, **kwargs)
        finally:
            tracer.close(i)

    for module in (engine_pkg, cache_mod, tester_mod):
        patch(module, "create_engine", traced_create_engine)

    run_rep = FastEngine.run_tester_repetition

    def traced_rep(self, k, rep_seed, *, pruner=None):
        before = _phase_seconds(phase_profiler)
        i = tracer.open("engine.rep")
        try:
            run = run_rep(self, k, rep_seed, pruner=pruner)
        finally:
            tracer.close(i)
            after = _phase_seconds(phase_profiler)
            for phase in PHASES:
                delta = after.get(phase, 0.0) - before.get(phase, 0.0)
                if delta > 0:
                    tracer.add_child("engine." + phase, delta, i)
        trace = run.trace
        tracer.count("congest.rounds", trace.num_rounds)
        tracer.count("congest.messages", trace.total_messages)
        tracer.count("congest.bits", trace.total_bits)
        return run

    patch(FastEngine, "run_tester_repetition", traced_rep)
    patch(FastEngine, "run_detect", spanned("engine.run_detect", FastEngine.run_detect))

    # core.tester
    tester_run = CkFreenessTester.run

    def traced_tester_run(self, graph, **kwargs):
        i = tracer.open("tester.run")
        try:
            result = tester_run(self, graph, **kwargs)
        finally:
            tracer.close(i)
        tracer.count("tester.runs")
        tracer.count("tester.repetitions", result.repetitions_run)
        tracer.count("tester.rejects", 0 if result.accepted else 1)
        return result

    patch(CkFreenessTester, "run", traced_tester_run)

    # core.algorithm1, looked up by name in the monitor module.
    traced_detect = spanned("algorithm1.detect", algorithm1_mod.detect_cycle_through_edge,
                            "algorithm1.detect_calls")
    for module in (algorithm1_mod, monitor_mod):
        patch(module, "detect_cycle_through_edge", traced_detect)

    # dynamic
    patch(DynamicGraph, "apply", spanned("dynamic.apply", DynamicGraph.apply))
    patch(monitor_mod, "full_redetect",
          spanned("monitor.certify", monitor_mod.full_redetect))

    monitor_apply = CkMonitor.apply
    kinds = {ADD_EDGE: "monitor.insert", REMOVE_EDGE: "monitor.delete"}

    def traced_monitor_apply(self, mutation):
        i = tracer.open(kinds.get(mutation.op, "monitor.other"))
        try:
            record = monitor_apply(self, mutation)
        finally:
            tracer.close(i)
        tracer.count("monitor." + record.action + "s")
        return record

    patch(CkMonitor, "apply", traced_monitor_apply)
    return undo


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    """Restore every patched attribute, newest first."""
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()

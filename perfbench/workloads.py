"""The benchmark's three workloads: definitions, reasons, checks, metrics.

Every workload is closed loop (the next op starts when the previous one
has returned), takes its seed as an argument, and builds its inputs with
:mod:`inputs` from ``(seed, op index)``.  An untraced run reports the
end-to-end metrics; a traced run (``trace=True``) reports the per-layer
metrics of :data:`PER_LAYER` instead.

End-to-end times are *host-adjusted*: each op (and each set-up) is
divided by the host's slowdown at that moment, which the benchmark's own
frozen probe kernels measure between ops (:class:`measure.HostProbe`).
The VM this was built on runs the same code up to 1.9x slower for 5-25 s
at a time; raw times swung by 45% between runs while adjusted ones stayed
within a few percent.  A change to the program moves its ops and not the
probe, so it moves the adjusted times in full.  Raw times are printed
beside them.

This module imports nothing from ``repro`` at import time, so
``coldstart.py`` can time ``import repro`` itself.

Per-layer shares quoted below were measured by the traced run on the
commit that introduced this benchmark, on a shared 2-vCPU VM.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import inputs
import layers
from measure import HostProbe, host_adjusted, peak_rss_mb, timing_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

K = 5
EPSILON = 0.1
REPETITIONS = 8
WARMUP_INDEX = -1

#: Per-layer metrics of a traced run (``BENCHMARK.json`` ``per_layer``).
#: Times are ms per op unless the name ends in ``_s``; a layer a
#: workload never enters reads 0.
PER_LAYER: List[Tuple[str, str]] = [
    ("graphs.build_ms", "ms"),
    ("network.build_ms", "ms"),
    ("engine.compile_ms", "ms"),
    ("engine.rank_draws_ms", "ms"),
    ("engine.min_select_ms", "ms"),
    ("engine.priority_mux_ms", "ms"),
    ("engine.round_apply_ms", "ms"),
    ("engine.audit_fold_ms", "ms"),
    ("engine.decision_ms", "ms"),
    ("engine.rep_other_ms", "ms"),
    ("engine.run_detect_ms", "ms"),
    ("tester.self_ms", "ms"),
    ("algorithm1.detect_ms", "ms"),
    ("graphs.to_csr_ms", "ms"),
    ("graphs.subgraph_ms", "ms"),
    ("dynamic.apply_ms", "ms"),
    ("monitor.insert_ms", "ms"),
    ("monitor.delete_ms", "ms"),
    ("monitor.self_ms", "ms"),
    ("monitor.certify_tester_s", "s"),
    ("monitor.certify_scan_s", "s"),
    ("server.write_ms", "ms"),
    ("server.read_ms", "ms"),
    ("server.create_ms", "ms"),
    ("session.apply_ms", "ms"),
    ("server.http_ms", "ms"),
    ("wait.write_ms", "ms"),
    ("wait.read_ms", "ms"),
    ("op.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("host.probe_ms", "ms"),
    ("tester.repetitions", "count"),
    ("congest.rounds", "count"),
    ("congest.messages", "count"),
    ("congest.bits", "count"),
    ("engine.half_edges", "count"),
    ("monitor.local_rechecks", "count"),
    ("monitor.cache_hits", "count"),
    ("monitor.full_retests", "count"),
    ("monitor.ball_vertices", "count"),
    ("algorithm1.detect_calls", "count"),
    ("engine.csr_exports", "count"),
    ("server.requests", "count"),
    ("client.retries", "count"),
    ("server.bytes_in", "count"),
    ("server.bytes_out", "count"),
    ("monitor.cache_hit_rate", "ratio"),
    ("engine.cache_hit_rate", "ratio"),
    ("tester.reject_rate", "ratio"),
    ("server.ok_rate", "ratio"),
]

#: The exact counts: identical across runs of one seed.
EXACT_COUNTS = [name for name, unit in PER_LAYER if unit == "count"]

#: Span name -> per-layer metric fed by the span's self time.
SELF_TIME_METRICS = {
    "graphs.build": "graphs.build_ms",
    "network.build": "network.build_ms",
    "engine.compile": "engine.compile_ms",
    "engine.rep": "engine.rep_other_ms",
    "engine.run_detect": "engine.run_detect_ms",
    "tester.run": "tester.self_ms",
    "algorithm1.detect": "algorithm1.detect_ms",
    "graphs.to_csr": "graphs.to_csr_ms",
    "graphs.subgraph": "graphs.subgraph_ms",
    "dynamic.apply": "dynamic.apply_ms",
    "op": "op.unattributed_ms",
}
SELF_TIME_METRICS.update({"engine." + p: f"engine.{p}_ms" for p in layers.PHASES})


class Outcome:
    """What one run measured and checked."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.report: List[str] = []

    def fail(self, what: str) -> None:
        """Record one failed op or check (reason to stderr)."""
        self.failed += 1
        print(f"FAIL [{self.workload}] {what}", file=sys.stderr)

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        """Record a reported metric, with a human-readable note."""
        self.metrics[name] = (value, unit)
        self.report.append(f"{name:<26} {value:>14.4f} {unit:<6} {note}")

    def timing(self, prefix: str, samples: List[float], tail_pct: float,
               what: str) -> None:
        """``<prefix>_p50_ms`` and ``<prefix>_tail_ms`` of ``samples`` (s)."""
        t = timing_summary(samples, tail_pct)
        self.metric(f"{prefix}_p50_ms", t["p50_ms"], "ms",
                    f"median {what}, n={t['count']}")
        self.metric(f"{prefix}_tail_ms", t["tail_ms"], "ms",
                    f"p{tail_pct:g} {what}, n={t['count']}, "
                    f"{t['beyond']} beyond")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _report_setup(out: Outcome, setups: List[Tuple[float, float]], probe: HostProbe,
                  mix: Dict[str, float], what: str) -> None:
    """``setup_s``: the host-adjusted median of ``(start, seconds)`` setups."""
    adjusted = host_adjusted(setups, probe, mix)
    raw = statistics.median(d for _, d in setups)
    out.metric("setup_s", statistics.median(adjusted), "s",
               f"median of {len(setups)} {what}, host-adjusted (raw {raw:.4f} s)")


def _report_ops(out: Outcome, ops: List[Tuple[float, float]], probe: HostProbe,
                mix: Dict[str, float], tail_pct: float, what: str, per: str) -> None:
    """End-to-end metrics of a single-client closed loop (host-adjusted)."""
    adjusted = host_adjusted(ops, probe, mix)
    out.metric("throughput_per_s", len(adjusted) / sum(adjusted), "1/s",
               f"{per} per busy second, host-adjusted, n={len(adjusted)}")
    out.timing("op", adjusted, tail_pct, f"{what}, host-adjusted")
    raw = [d for _, d in ops]
    whole = timing_summary(raw, tail_pct)
    out.report.append(
        f"{'(raw, not adjusted)':<26} p50 {whole['p50_ms']:.4f} ms, p{tail_pct:g} "
        f"{whole['tail_ms']:.4f} ms, {len(raw) / sum(raw):.4f}/s")


def _timed_setup(probe: HostProbe, setup: Callable[[], Any]) -> Tuple[Any, Tuple[float, float]]:
    """Run ``setup`` between two host probes: ``(result, (start, seconds))``."""
    probe.run()
    t0 = time.perf_counter()
    result = setup()
    elapsed = time.perf_counter() - t0
    probe.run()
    return result, (t0 + elapsed / 2, elapsed)


def _timed_phase(out: Outcome, seconds: float, min_ops: int,
                 make_input: Callable[[int], Any], op: Callable[[Any], Any],
                 check: Callable[[Any, Any], Optional[str]],
                 probe: HostProbe, probe_every: int,
                 tracer: Optional[layers.Tracer] = None,
                 first_index: int = 0) -> List[Tuple[float, float]]:
    """Closed loop for ``seconds`` (and at least ``min_ops`` ops).

    Inputs are made outside the timed region.  Returns ``(start, seconds)``
    per op; stops at the first failure.  With a tracer, each op is a root
    span ``op`` tagged with its index (counted from ``first_index``).
    """
    samples: List[Tuple[float, float]] = []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < min_ops:
        x = make_input(first_index + i)
        root = -1
        if tracer is not None:
            tracer.tag = first_index + i
            root = tracer.open("op")
        out.attempted += 1
        try:
            t0 = time.perf_counter()
            result = op(x)
            t1 = time.perf_counter()
        except Exception:  # noqa: BLE001 - report, count, stop
            out.fail(f"op {i} raised:\n{traceback.format_exc()}")
            break
        finally:
            if tracer is not None:
                tracer.close(root)
        problem = check(x, result)
        if problem:
            out.fail(f"op {i}: {problem}")
            break
        samples.append((t0, t1 - t0))
        i += 1
        if i % probe_every == 0:
            probe.run()
    return samples


def _traced_phase(out: Outcome, seconds: float, count_ops: int, block: int,
                  make_input: Callable[[bool, int], Any],
                  op: Callable[[Any, Optional[layers.Tracer]], Any],
                  check: Callable[[Any, Any], Optional[str]],
                  probe: HostProbe, probe_every: int, tracer: layers.Tracer,
                  profiler) -> Tuple[List[float], List[float]]:
    """A traced run's timed phase: ``(traced, untraced)`` op seconds.

    Blocks of ``block`` ops alternate between traced (wrappers installed)
    and untraced, so both see the same host phases and their medians
    give the tracing overhead.  The first block is traced and covers the
    count window (ops ``0 .. count_ops-1``), so exact counts always come
    from the same inputs.
    """
    traced: List[float] = []
    plain: List[float] = []
    start = time.perf_counter()
    on = True
    while (time.perf_counter() - start < seconds or len(traced) < count_ops
           or not plain):
        done = traced if on else plain
        n = max(block, count_ops - len(traced)) if on else block
        undo = layers.install(tracer, profiler) if on else []
        try:
            ops = _timed_phase(
                out, 0.0, n, lambda i, on=on: make_input(on, i),
                lambda x, on=on: op(x, tracer if on else None), check, probe,
                probe_every, tracer if on else None, first_index=len(done))
        finally:
            layers.uninstall(undo)
        done.extend(d for _, d in ops)
        if len(ops) < n:
            break
        on = not on
    return traced, plain


# ----------------------------------------------------------------------
# Per-layer aggregation
# ----------------------------------------------------------------------
def _span_table(rows, tags) -> Dict[str, List[float]]:
    """name -> [calls, inclusive_s, self_s] over spans whose tag is in ``tags``."""
    table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for name, incl, self_s, tag, _parent in rows:
        if tag in tags:
            entry = table[name]
            entry[0] += 1
            entry[1] += incl
            entry[2] += self_s
    return table


def _certify_halves(rows) -> Tuple[float, float]:
    """Mean ``(tester, scan)`` seconds per ``full_redetect`` in ``rows``."""
    certify = [i for i, r in enumerate(rows) if r[0] == "monitor.certify"]
    if not certify:
        return 0.0, 0.0
    parents = set(certify)
    total = sum(rows[i][1] for i in certify)
    tester = sum(r[1] for r in rows if r[0] == "tester.run" and r[4] in parents)
    return tester / len(certify), (total - tester) / len(certify)


def _counts_metrics(counts: Dict[str, float]) -> Dict[str, float]:
    """Exact counts and ratios from the counters of the count window."""
    out: Dict[str, float] = {name: int(counts.get(name, 0)) for name in EXACT_COUNTS}
    steps = (counts.get("monitor.cache_hits", 0)
             + counts.get("monitor.local_rechecks", 0)
             + counts.get("monitor.full_retests", 0))
    out["monitor.cache_hit_rate"] = _ratio(counts.get("monitor.cache_hits", 0), steps)
    out["engine.cache_hit_rate"] = _ratio(
        counts.get("engine.cache_hits", 0), counts.get("engine.cache_lookups", 0))
    out["tester.reject_rate"] = _ratio(
        counts.get("tester.rejects", 0), counts.get("tester.runs", 0))
    out["server.ok_rate"] = _ratio(
        counts.get("server.ok", 0), counts.get("server.requests", 0))
    return out


def _sum_counts(tracer_counts, tags) -> Dict[str, float]:
    total: Dict[str, float] = defaultdict(float)
    for tag, counts in tracer_counts:
        if tag in tags:
            for name, value in counts.items():
                total[name] += value
    return total


def _emit_layers(out: Outcome, table: Dict[str, List[float]], n_ops: int,
                 op_time_s: float, extra: Dict[str, float]) -> None:
    """Fill every :data:`PER_LAYER` metric and print the layer table."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    for span, metric in SELF_TIME_METRICS.items():
        if span in table:
            values[metric] = table[span][2] / n_ops * 1e3
    ins, dele = table.get("monitor.insert"), table.get("monitor.delete")
    if ins or dele:
        values["monitor.insert_ms"] = (ins[1] if ins else 0.0) / n_ops * 1e3
        values["monitor.delete_ms"] = (dele[1] if dele else 0.0) / n_ops * 1e3
        values["monitor.self_ms"] = (
            (ins[2] if ins else 0.0) + (dele[2] if dele else 0.0)) / n_ops * 1e3
    values.update(extra)
    out.report.append(
        f"{'span (self time)':<22} {'calls':>8} {'total_ms':>11} "
        f"{'mean_ms':>10} {'share':>7}")
    for name, (calls, _incl, self_s) in sorted(
            table.items(), key=lambda kv: -kv[1][2]):
        share = self_s / op_time_s if op_time_s else 0.0
        out.report.append(
            f"{name:<22} {int(calls):>8} {self_s * 1e3:>11.2f} "
            f"{self_s / calls * 1e3:>10.4f} {share:>7.1%}")
    out.report.append(
        f"per op (n={n_ops}): op.unattributed_ms={values['op.unattributed_ms']:.4f} "
        f"trace.overhead_ms={values['trace.overhead_ms']:.4f} (traced minus untraced "
        f"op p50) host.probe_ms={values['host.probe_ms']:.4f}")
    out.report.append("exact counts over the count window: " + " ".join(
        f"{name}={values[name]}" for name in EXACT_COUNTS if values[name]))
    for name, unit in PER_LAYER:
        out.metrics[name] = (values[name], unit)


# ----------------------------------------------------------------------
# tester-accept
# ----------------------------------------------------------------------
# Why: under the paper's tester a C_k-free input pays for every one of its
# repetitions, each (1 + floor(k/2)) rounds; a bipartite graph is C5-free,
# so all 8 repetitions run and nothing exits early.  Every op builds a new
# graph, so no cache can serve it.
# Loads: graphs (Graph build), congest.network (Network over the whole
# graph), congest.engine (compile, then per repetition rank_draws,
# min_select, priority_mux, round_apply, audit_fold, decision), core.tester
# (the verdict fold over run.outputs).
# Traced shares of the op on the introducing commit (seed 1, 20 s, 27
# traced ops of ~400 ms): priority_mux 36%, decision 13%, min_select 11%,
# round_apply 10%, repetition remainder (engine.rep self) 9%, rank_draws 9%,
# Network build 5%, compile 3%, Graph build 2%, tester self 1%,
# audit_fold 0.3%, unattributed 0.3%.  No whole-graph CSR cache lookup.
TESTER_N, TESTER_M = 5000, 10000
TESTER_MIX = {"sort": 0.6, "py": 0.4}  # host-probe parts this op tracks
TESTER_TAIL_PCT = 75.0  # ~40 ops in 20 s: the highest with >= 10 beyond
TESTER_COUNT_OPS = 3
TESTER_SETUPS = 5


class TesterInstance(NamedTuple):
    n: int
    edges: List[Tuple[int, int]]
    tester_seed: int


def tester_instance(seed: int, index: int) -> TesterInstance:
    """Instance ``index`` of ``tester-accept`` (pure Python, seeded)."""
    rng = inputs.rng_for(seed, "tester", index)
    _side, edges = inputs.bipartite_graph(TESTER_N, TESTER_M, rng)
    return TesterInstance(TESTER_N, edges, rng.getrandbits(32))


def tester_op(instance: TesterInstance, tracer: Optional[layers.Tracer] = None):
    """One op: build the graph, run the 8-repetition tester on it."""
    from repro.core.tester import CkFreenessTester
    from repro.graphs.graph import Graph

    if tracer is None:
        graph = Graph(instance.n, instance.edges)
    else:
        i = tracer.open("graphs.build")
        graph = Graph(instance.n, instance.edges)
        tracer.close(i)
    tester = CkFreenessTester(K, EPSILON, repetitions=REPETITIONS, engine="fast")
    return tester.run(graph, seed=instance.tester_seed)


def _tester_check(_instance, result) -> Optional[str]:
    if not result.accepted:
        return "tester rejected a C5-free instance"
    if result.repetitions_run != REPETITIONS:
        return f"ran {result.repetitions_run} of {REPETITIONS} repetitions"
    return None


def _cold_starts(out: Outcome, seed: int, count: int,
                 probe: HostProbe) -> List[Tuple[float, float]]:
    """``count`` cold starts in fresh interpreters: ``(at, setup_s)`` each."""
    samples = []
    for _ in range(count):
        proc, (at, _) = _timed_setup(probe, lambda: subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), str(seed)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120,
        ))
        out.attempted += 1
        if proc.returncode != 0:
            out.fail(f"cold start exited {proc.returncode}: {proc.stderr}")
            continue
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if not doc["accepted"] or doc["repetitions"] != REPETITIONS:
            out.fail(f"cold-start warm-up op failed its check: {doc}")
            continue
        samples.append((at, doc["setup_s"]))
    return samples


def run_tester_accept(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome("tester-accept")
    warm = tester_instance(seed, WARMUP_INDEX)
    import repro  # noqa: F401

    problem = _tester_check(warm, tester_op(warm))
    if problem:
        out.fail(f"warm-up: {problem}")
        return out
    first = tester_instance(seed, 0)
    _fingerprint(out, TESTER_N, first.edges)
    probe = HostProbe()

    if not trace:
        setups = _cold_starts(out, seed, TESTER_SETUPS, probe)
        ops = _timed_phase(out, seconds, 1, lambda i: tester_instance(seed, i),
                           tester_op, _tester_check, probe, 1)
        if not setups or out.failed:
            return out
        _report_setup(out, setups, probe, TESTER_MIX,
                      "cold starts (import repro + warm-up op)")
        _report_ops(out, ops, probe, TESTER_MIX, TESTER_TAIL_PCT,
                    "tester call (build + run)", "tester calls")
        out.metric("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM of the benchmark")
        _probe_line(out, probe, TESTER_MIX)
        return out

    from repro.congest.engine import PhaseProfiler

    tracer = layers.Tracer()
    traced, plain = _traced_phase(
        out, seconds, TESTER_COUNT_OPS, 2,
        lambda on, i: tester_instance(seed, i if on else 100000 + i),
        tester_op, _tester_check, probe, 2, tracer, PhaseProfiler())
    if out.failed:
        return out
    rows = layers.self_times(tracer.spans)
    table = _span_table(rows, set(range(len(traced))))
    counts = _sum_counts(tracer.counts.items(), set(range(TESTER_COUNT_OPS)))
    extra = _counts_metrics(counts)
    extra["trace.overhead_ms"] = (
        statistics.median(traced) - statistics.median(plain)) * 1e3
    extra["host.probe_ms"] = probe.median_ms()
    _emit_layers(out, table, len(traced), sum(traced), extra)
    return out


# ----------------------------------------------------------------------
# monitor-churn
# ----------------------------------------------------------------------
# Why: the mirror image of tester-accept.  Each churn step inserts an
# absent cross edge (the monitor re-checks it locally, inside the edge's
# floor(k/2)-ball, and stays ACCEPT) and deletes another present edge (a
# cache hit), so m stays constant and every step does the same work; no
# tester kernel runs after set-up.  Set-up is the monitor's construction:
# the initial exact certification (full_redetect: 8-repetition tester,
# then Algorithm 1 through all m edges).
# Loads: dynamic (DynamicGraph.apply, CkMonitor.apply), graphs (the
# whole-graph Graph.to_csr via EngineCache.csr once per version, the ball
# subgraph), congest.network and congest.engine on the ball (Network,
# compile, run_detect), core.algorithm1 (detect_cycle_through_edge).
# Traced shares of a step on the introducing commit (seed 1, 20 s, 2500
# traced steps of ~4 ms): graphs.to_csr 79%, run_detect 5%, compile 5%,
# insert self (ball BFS + bookkeeping) 5%, Network 3%, DynamicGraph.apply
# 2%, detect self 0.7%, ball subgraph 0.4%, unattributed 0.2%, delete self
# 0.1%.  Set-up: certify_tester ~0.37 s, certify_scan ~2.8 s of ~3.2 s.
MONITOR_N, MONITOR_M = 2000, 4000
MONITOR_MIX = {"csr": 0.6, "sort": 0.2, "py": 0.2}  # host-probe parts this op tracks
MONITOR_TAIL_PCT = 99.0  # ~5000 steps in 20 s
MONITOR_COUNT_OPS = 300
MONITOR_SETUPS = 3


def monitor_base(seed: int):
    """``(side, edges)`` of the ``monitor-churn`` base graph."""
    return inputs.bipartite_graph(MONITOR_N, MONITOR_M, inputs.rng_for(seed, "base", 0))


def _churn_mutations(stream: inputs.ChurnStream):
    from repro.dynamic.mutations import ADD_EDGE, REMOVE_EDGE, Mutation

    ins, dele = stream.step()
    return Mutation(ADD_EDGE, *ins), Mutation(REMOVE_EDGE, *dele)


def _churn_check(_pair, records) -> Optional[str]:
    ins, dele = records
    if ins.action != "local_recheck" or not ins.accepted:
        return f"insert gave {ins.action}/accepted={ins.accepted}"
    if dele.action != "cache_hit" or not dele.accepted:
        return f"delete gave {dele.action}/accepted={dele.accepted}"
    return None


def run_monitor_churn(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome("monitor-churn")
    from repro.congest.engine import PhaseProfiler
    from repro.dynamic.monitor import CkMonitor
    from repro.graphs.graph import Graph

    side, edges = monitor_base(seed)
    base = Graph(MONITOR_N, edges)
    _fingerprint(out, MONITOR_N, edges)
    probe = HostProbe()

    def construct():
        out.attempted += 1
        monitor, sample = _timed_setup(probe, lambda: CkMonitor(base, K, engine="fast"))
        if not monitor.accepted:
            out.fail("monitor rejected a C5-free base")
        return monitor, sample

    def op(pair, _tracer=None):
        return monitor.apply(pair[0]), monitor.apply(pair[1])

    stream = inputs.ChurnStream(side, edges, seed)
    if not trace:
        setups = []
        for _ in range(MONITOR_SETUPS):
            monitor, sample = construct()
            setups.append(sample)
        ops = _timed_phase(out, seconds, 1, lambda i: _churn_mutations(stream),
                           op, _churn_check, probe, 100)
        _monitor_final_checks(out, monitor)
        if out.failed:
            return out
        _report_setup(out, setups, probe, MONITOR_MIX, "CkMonitor constructions")
        _report_ops(out, ops, probe, MONITOR_MIX, MONITOR_TAIL_PCT,
                    "churn step (insert + delete)", "churn steps")
        out.metric("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM of the benchmark")
        _probe_line(out, probe, MONITOR_MIX)
        return out

    tracer = layers.Tracer()
    tracer.tag = "setup"
    profiler = PhaseProfiler()
    undo = layers.install(tracer, profiler)
    try:
        monitor, _ = construct()
    finally:
        layers.uninstall(undo)
    traced, plain = _traced_phase(
        out, seconds, MONITOR_COUNT_OPS, 100, lambda on, i: _churn_mutations(stream),
        op, _churn_check, probe, 100, tracer, profiler)
    _monitor_final_checks(out, monitor)
    if out.failed:
        return out
    rows = layers.self_times(tracer.spans)
    table = _span_table(rows, set(range(len(traced))))
    counts = _sum_counts(tracer.counts.items(), set(range(MONITOR_COUNT_OPS)))
    extra = _counts_metrics(counts)
    tester_s, scan_s = _certify_halves(_setup_rows(rows, "setup"))
    extra["monitor.certify_tester_s"] = tester_s
    extra["monitor.certify_scan_s"] = scan_s
    extra["trace.overhead_ms"] = (
        statistics.median(traced) - statistics.median(plain)) * 1e3
    extra["host.probe_ms"] = probe.median_ms()
    _emit_layers(out, table, len(traced), sum(traced), extra)
    return out


def _setup_rows(rows, *tags):
    """The rows of ``tags``, with parent indices renumbered to match."""
    keep = [i for i, r in enumerate(rows) if r[3] in tags]
    index = {old: new for new, old in enumerate(keep)}
    return [
        (r[0], r[1], r[2], r[3], index.get(r[4], -1))
        for r in (rows[i] for i in keep)
    ]


def _monitor_final_checks(out: Outcome, monitor) -> None:
    out.attempted += 1
    stats = monitor.stats
    if stats.full_retests or monitor.graph.m != MONITOR_M or not monitor.accepted:
        out.fail(f"after churn: full_retests={stats.full_retests}, "
                 f"m={monitor.graph.m}, accepted={monitor.accepted}")


# ----------------------------------------------------------------------
# service-rw
# ----------------------------------------------------------------------
# Why: one real `repro serve` daemon in its own process, two keep-alive
# connections (= nproc) from one load-generator process, each owning one
# session (bipartite base, n=400, m=800, k=5, engine "fast").  Each loop
# writes (POST .../mutations: insert one cross edge, delete another edge)
# then reads (GET .../verdict).  A read is almost pure HTTP parsing,
# routing, JSON and telemetry; a write adds a small local recheck; two
# connections on a single-loop daemon let queueing show.
# Loads: service (request parse, routing, session lock, JSON, wide event),
# then the monitor path of monitor-churn on a smaller graph per write.
# Traced shares of a loop on the introducing commit (seed 1, 20 s, 4000
# traced loops; client sees write 3.6 + read 1.5 ms, the server 3.1 +
# 1.0 ms): server HTTP/JSON/telemetry 43%, graphs.to_csr 17%, client-side
# wait (queueing behind the other connection, loopback) 19%, run_detect 6%,
# insert self 4%, compile 4%, Network 3%, detect self 3%, the rest < 1%.
# The session's verdict after every write is checked on the response; the
# final state is checked against an offline replay after the timed phase.
# Both connections start each short round together, so every round starts
# from the same queueing state.  With rounds of 50 loops the two
# connections drifted into one of two phase patterns for most of a run
# (reads waiting behind the other connection's write, or not): read p50
# was 0.55 ms in some runs and 1.5 ms in others, and write p50 moved with
# it.  Rounds of 10 loops kept read p50 within 0.36-0.44 ms over 5 seeds.
SESSION_N, SESSION_M = 400, 800
CONNECTIONS = 2
SERVICE_MIX = {"csr": 0.4, "sort": 0.2, "py": 0.4}  # host-probe parts this loop tracks
SERVICE_TAIL_PCT = 99.0  # ~7000 writes in 20 s
SERVICE_COUNT_LOOPS = 100  # per connection
SERVICE_ROUND = 10  # loops per connection per round
SERVICE_PROBE_EVERY = 50  # loops per connection between host probes
SERVICE_SETUPS = 5
_WRITE, _READ, _CREATE = 0, 1, 2


def _trace_id(seed: int, conn: int, loop: int, kind: int) -> str:
    return f"{seed & 0xffffffff:08x}{conn + 1:08x}{loop * 4 + kind + 1:016x}"


def _traceparent(trace_id: str) -> str:
    return f"00-{trace_id}-{trace_id[16:]}-01"


def session_base(seed: int, conn: int):
    """``(side, edges)`` of connection ``conn``'s session base."""
    return inputs.bipartite_graph(SESSION_N, SESSION_M, inputs.rng_for(seed, "session", conn))


class _Lane:
    """One connection's session, mutation stream and records."""

    def __init__(self, seed: int, conn: int) -> None:
        self.seed = seed
        self.conn_index = conn
        self.name = f"bench{conn}"
        self.side, self.edges = session_base(seed, conn)
        self.stream = inputs.ChurnStream(self.side, self.edges, seed * 131 + conn)
        self.version = 0
        self.loops = 0
        self.log: List[str] = []
        self.pending: List[str] = []
        self.starts: List[float] = []
        self.writes: List[float] = []
        self.reads: List[float] = []
        self.trace_ids: List[Tuple[str, int, int]] = []
        self.problem: Optional[str] = None
        self.conn = None

    def base_text(self) -> str:
        lines = [f"{SESSION_N} {len(self.edges)}"]
        lines += [f"{u} {v}" for u, v in sorted(self.edges)]
        return "\n".join(lines) + "\n"

    def refill(self, count: int) -> None:
        """Make the next ``count`` write bodies (outside any timed region)."""
        self.pending = []
        for _ in range(count):
            (a, b), (c, d) = self.stream.step()
            self.pending.append(f"+ {a} {b}\n- {c} {d}\n")

    def create(self) -> None:
        body = json.dumps({"name": self.name, "k": K, "engine": "fast",
                           "base": self.base_text()}).encode()
        tid = _trace_id(self.seed, self.conn_index, 0, _CREATE)
        status, payload = self.conn.json("POST", "/v1/sessions", body, _traceparent(tid))
        if status != 201 or payload.get("accepted") is not True:
            raise RuntimeError(f"session create failed: {status} {payload}")

    def run_round(self) -> None:
        """The pending loops: write, then read, each timed and checked."""
        mut_path = f"/v1/sessions/{self.name}/mutations"
        verdict_path = f"/v1/sessions/{self.name}/verdict"
        conn = self.conn
        for body in self.pending:
            if self.problem:
                return
            wid = _trace_id(self.seed, self.conn_index, self.loops, _WRITE)
            rid = _trace_id(self.seed, self.conn_index, self.loops, _READ)
            t0 = time.perf_counter()
            wstatus, wraw = conn.request("POST", mut_path, body.encode(), _traceparent(wid))
            t1 = time.perf_counter()
            rstatus, rraw = conn.request("GET", verdict_path, b"", _traceparent(rid))
            t2 = time.perf_counter()
            self.problem = self._check(wstatus, wraw, rstatus, rraw)
            if self.problem:
                return
            self.starts.append(t0)
            self.writes.append(t1 - t0)
            self.reads.append(t2 - t1)
            self.trace_ids.append((wid, self.loops, _WRITE))
            self.trace_ids.append((rid, self.loops, _READ))
            self.log.append(body)
            self.version += 2
            self.loops += 1

    def _check(self, wstatus, wraw, rstatus, rraw) -> Optional[str]:
        if not (200 <= wstatus < 300 and 200 <= rstatus < 300):
            return f"loop {self.loops}: status {wstatus}/{rstatus}: {wraw[:200]!r}"
        w, r = json.loads(wraw), json.loads(rraw)
        want = self.version + 2
        if w.get("applied") != 2 or w.get("accepted") is not True \
                or w.get("version") != want \
                or w.get("actions") != {"local_recheck": 1, "cache_hit": 1}:
            return f"loop {self.loops}: write answered {w}"
        if r.get("accepted") is not True or r.get("version") != want:
            return f"loop {self.loops}: read answered {r}"
        return None


def _start_service(out: Outcome, lanes: List[_Lane], argv: List[str]):
    """Spawn the daemon, wait for health, create one session per lane."""
    from wire import Connection, Daemon

    daemon = Daemon(ROOT, argv)
    try:
        daemon.wait_healthy()
        for lane in lanes:
            lane.conn = Connection(daemon.port)
        for lane in lanes:
            out.attempted += 1
            lane.create()
    except BaseException:
        _stop_service(daemon, lanes)
        raise
    return daemon


def _stop_service(daemon, lanes: List[_Lane]) -> None:
    for lane in lanes:
        if lane.conn is not None:
            lane.conn.close()
            lane.conn = None
    daemon.stop()


def _service_phase(lanes: List[_Lane], seconds: float, min_loops: int,
                   probe: HostProbe) -> None:
    """Closed-loop rounds of :data:`SERVICE_ROUND` loops on every lane at
    once, until ``seconds`` have passed and every lane has ``min_loops``.

    Between rounds the lanes wait while the next bodies are made and,
    every :data:`SERVICE_PROBE_EVERY` loops, the host probe runs, so
    neither lands inside a timed request.
    """
    start_gate = threading.Barrier(len(lanes) + 1)
    end_gate = threading.Barrier(len(lanes) + 1)
    stop = False

    def worker(lane: _Lane) -> None:
        while True:
            start_gate.wait()
            if stop:
                return
            try:
                lane.run_round()
            except Exception:  # noqa: BLE001 - surfaced by the main thread
                lane.problem = traceback.format_exc()
            end_gate.wait()

    threads = [threading.Thread(target=worker, args=(lane,), daemon=True)
               for lane in lanes]
    for t in threads:
        t.start()
    begin = time.perf_counter()
    try:
        while (time.perf_counter() - begin < seconds
               or min(lane.loops for lane in lanes) < min_loops):
            for lane in lanes:
                lane.refill(SERVICE_ROUND)
            if lanes[0].loops % SERVICE_PROBE_EVERY == 0:
                probe.run()
            start_gate.wait()
            end_gate.wait()
            if any(lane.problem for lane in lanes):
                break
    finally:
        stop = True
        start_gate.wait()
        for t in threads:
            t.join(timeout=60)


def _account(out: Outcome, lanes: List[_Lane]) -> None:
    """Count every request the lanes made; record their failures."""
    for lane in lanes:
        out.attempted += 2 * lane.loops
        if lane.problem:
            out.attempted += 1
            out.fail(f"{lane.name}: {lane.problem}")


def _service_parity(out: Outcome, lanes: List[_Lane]) -> None:
    """Each session's snapshot must equal an offline CkMonitor replay.

    The replay adopts a :class:`DynamicGraph` rebuilt from the session's
    base and the lane's mutations, and certifies the final state exactly;
    the per-step verdicts were already checked on every response.  (A
    step-by-step monitor replay of ~6000 steps would take longer than
    the timed phase.)
    """
    from repro.dynamic.graph import DynamicGraph
    from repro.dynamic.monitor import CkMonitor
    from repro.graphs.graph import Graph
    from repro.graphs.io import loads_stream

    for lane in lanes:
        out.attempted += 1
        status, snap = lane.conn.json("GET", f"/v1/sessions/{lane.name}/snapshot")
        replay = DynamicGraph.replay(Graph(SESSION_N, lane.edges),
                                     loads_stream("".join(lane.log)))
        monitor = CkMonitor(replay, K, engine="fast")
        want = (monitor.dynamic.content_hash(), monitor.version, monitor.accepted)
        got = (snap.get("content_hash"), snap.get("version"), snap.get("accepted"))
        if status != 200 or got != want:
            out.fail(f"{lane.name}: snapshot {got} != offline replay {want}")


def run_service_rw(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome("service-rw")
    import repro  # noqa: F401  (the offline replay needs it)

    side, edges = session_base(seed, 0)
    _fingerprint(out, SESSION_N, edges)
    probe = HostProbe()
    plain_argv = ["-m", "repro.cli", "serve", "--max-sessions", "8"]
    if not trace:
        setups = []
        for attempt in range(SERVICE_SETUPS):
            lanes = [_Lane(seed, c) for c in range(CONNECTIONS)]
            daemon, sample = _timed_setup(
                probe, lambda: _start_service(out, lanes, plain_argv))
            setups.append(sample)
            if attempt < SERVICE_SETUPS - 1:
                _stop_service(daemon, lanes)
        try:
            _service_phase(lanes, seconds, 1, probe)
            _account(out, lanes)
            if not out.failed:
                _service_parity(out, lanes)
            rss = peak_rss_mb(daemon.pid)
        finally:
            _stop_service(daemon, lanes)
        if out.failed:
            return out
        _report_setup(out, setups, probe, SERVICE_MIX,
                      f"daemon starts + {CONNECTIONS} session creates")
        _report_loops(out, lanes, probe)
        out.metric("peak_rss_mb", rss, "MB", "VmHWM of the daemon")
        _probe_line(out, probe, SERVICE_MIX)
        return out
    return _traced_service(out, seed, seconds, probe, plain_argv)


def _report_loops(out: Outcome, lanes: List[_Lane], probe: HostProbe) -> None:
    """End-to-end metrics of the service loops (host-adjusted); reads are
    printed but not gated."""
    loops = [(lane.starts[i], lane.writes[i], lane.reads[i])
             for lane in lanes for i in range(lane.loops)]
    writes = host_adjusted([(s, w) for s, w, _ in loops], probe, SERVICE_MIX)
    reads = host_adjusted([(s, r) for s, _, r in loops], probe, SERVICE_MIX)
    busy = (sum(writes) + sum(reads)) / CONNECTIONS
    out.metric("throughput_per_s", 2 * len(loops) / busy, "1/s",
               f"requests per busy second, {CONNECTIONS} connections, "
               f"host-adjusted, n={2 * len(loops)}")
    out.timing("op", writes, SERVICE_TAIL_PCT, "write request, host-adjusted")
    t = timing_summary(reads, SERVICE_TAIL_PCT)
    out.report.append(
        f"{'read_p50_ms':<26} {t['p50_ms']:>14.4f} ms     median verdict request, "
        f"host-adjusted, n={t['count']} (not gated)")
    out.report.append(
        f"{'read_tail_ms':<26} {t['tail_ms']:>14.4f} ms     p{SERVICE_TAIL_PCT:g} "
        f"verdict request, {t['beyond']} beyond (not gated)")
    raw = timing_summary([w for _, w, _ in loops], SERVICE_TAIL_PCT)
    out.report.append(
        f"{'(raw, not adjusted)':<26} write p50 {raw['p50_ms']:.4f} ms, "
        f"p{SERVICE_TAIL_PCT:g} {raw['tail_ms']:.4f} ms")


def _traced_service(out: Outcome, seed: int, seconds: float, probe: HostProbe,
                    plain_argv: List[str]) -> Outcome:
    from repro.obs.events import read_events

    workdir = ROOT / ".perfbench" / f"trace-{seed}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans_path = workdir / "spans.json"
    events_path = workdir / "events.jsonl"
    traced_argv = [str(HERE / "serve_traced.py"), str(spans_path), "serve",
                   "--max-sessions", "8", "--telemetry", str(events_path)]
    # Two daemons, one traced and one not, take rounds in turn, so both
    # see the same host phases; the traced one runs first and covers the
    # count window.
    lanes = [_Lane(seed, c) for c in range(CONNECTIONS)]
    plain = [_Lane(seed, c) for c in range(CONNECTIONS)]
    daemon = _start_service(out, lanes, traced_argv)
    try:
        plain_daemon = _start_service(out, plain, plain_argv)
        try:
            _service_phase(lanes, 0.0, SERVICE_COUNT_LOOPS, probe)
            begin = time.perf_counter()
            while (time.perf_counter() - begin < seconds
                   and not any(lane.problem for lane in lanes + plain)):
                _service_phase(plain, 0.0, plain[0].loops + 1, probe)
                _service_phase(lanes, 0.0, lanes[0].loops + 1, probe)
            _account(out, lanes + plain)
            if not out.failed:
                _service_parity(out, lanes)
        finally:
            _stop_service(plain_daemon, plain)
    finally:
        _stop_service(daemon, lanes)
    if out.failed:
        return out
    events = read_events(events_path)
    dump = json.loads(spans_path.read_text())
    for path in (spans_path, events_path, Path(f"{events_path}.prom")):
        if path.exists():
            path.unlink()
    workdir.rmdir()
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run's scratch files are still there
    _service_layers(out, seed, lanes, plain, events, dump, probe)
    return out


def _service_layers(out: Outcome, seed: int, lanes: List[_Lane], plain: List[_Lane],
                    events: List[Dict], dump: Dict, probe: HostProbe) -> None:
    """Join wide events, session.apply spans and daemon-side wrapper spans
    to the client's requests by trace id."""
    request_events = [e for e in events if e.get("type") == "request"]
    requests = {e["trace_id"]: e for e in request_events}
    applies = {e["trace_id"]: e["elapsed_ms"] for e in events
               if e.get("type") == "span" and e.get("name") == "session.apply"}
    client: Dict[str, Tuple[float, int, int]] = {}
    for lane in lanes:
        for (tid, loop, kind), i in zip(lane.trace_ids, range(len(lane.trace_ids))):
            seconds = lane.writes[i // 2] if kind == _WRITE else lane.reads[i // 2]
            client[tid] = (seconds, loop, kind)
    writes = [tid for tid, (_, _, kind) in client.items() if kind == _WRITE]
    reads = [tid for tid, (_, _, kind) in client.items() if kind == _READ]
    missing = [tid for tid in client if tid not in requests]
    out.attempted += 1
    if missing:
        out.fail(f"{len(missing)} client requests have no server wide event")
        return
    n_ops = len(writes)
    rows = layers.self_times(dump["spans"])
    write_set = set(writes)
    table = _span_table(rows, write_set)
    apply_ms = sum(applies.get(tid, 0.0) for tid in writes)
    covered_ms = sum(r[1] for r in rows if r[3] in write_set and r[4] == -1) * 1e3
    server_w = sum(requests[t]["elapsed_ms"] for t in writes)
    server_r = sum(requests[t]["elapsed_ms"] for t in reads)
    client_w = sum(client[t][0] for t in writes) * 1e3
    client_r = sum(client[t][0] for t in reads) * 1e3
    creates = [e["elapsed_ms"] for e in events
               if e.get("type") == "request" and e.get("endpoint") == "create"]
    window = {t for t, (_, loop, _) in client.items() if loop < SERVICE_COUNT_LOOPS}
    counts = _sum_counts(dump["counts"], window)
    # Every client request carries its own trace id, so server requests
    # beyond one per id are retries.
    served = [e for e in request_events if e["trace_id"] in window]
    counts["server.requests"] = len(served)
    counts["server.ok"] = sum(1 for e in served if 200 <= e["status"] < 300)
    counts["server.bytes_in"] = sum(e["bytes_in"] for e in served)
    counts["server.bytes_out"] = sum(e["bytes_out"] for e in served)
    counts["client.retries"] = len(served) - len(window)
    extra = _counts_metrics(counts)
    setup = _setup_rows(rows, *[_trace_id(seed, c, 0, _CREATE) for c in range(CONNECTIONS)])
    tester_s, scan_s = _certify_halves(setup)
    plain_writes = [s for lane in plain for s in lane.writes]
    traced_writes = [client[t][0] for t in writes]
    extra.update({
        "server.write_ms": server_w / n_ops,
        "server.read_ms": server_r / len(reads),
        "server.create_ms": statistics.mean(creates) if creates else 0.0,
        "session.apply_ms": apply_ms / n_ops,
        "server.http_ms": (server_w + server_r - apply_ms) / n_ops,
        "wait.write_ms": (client_w - server_w) / n_ops,
        "wait.read_ms": (client_r - server_r) / n_ops,
        "op.unattributed_ms": (apply_ms - covered_ms) / n_ops,
        "monitor.certify_tester_s": tester_s,
        "monitor.certify_scan_s": scan_s,
        "trace.overhead_ms": (statistics.median(traced_writes)
                              - statistics.median(plain_writes)) * 1e3,
        "host.probe_ms": probe.median_ms(),
    })
    out.report.append(
        f"loop = write + read, n={n_ops}; client {client_w / n_ops:.3f} + "
        f"{client_r / n_ops:.3f} ms = server {server_w / n_ops:.3f} + {server_r / n_ops:.3f}"
        f" ms + wait")
    # Server-side and client-side remainders, as rows of the same table.
    table["server.http"] = [2 * n_ops, 0.0, (server_w + server_r - apply_ms) / 1e3]
    table["session.apply"] = [n_ops, 0.0, (apply_ms - covered_ms) / 1e3]
    table["wait.write"] = [n_ops, 0.0, (client_w - server_w) / 1e3]
    table["wait.read"] = [len(reads), 0.0, (client_r - server_r) / 1e3]
    _emit_layers(out, table, n_ops, (client_w + client_r) / 1e3, extra)


# ----------------------------------------------------------------------
def _fingerprint(out: Outcome, n: int, edges) -> None:
    """n, m and content hash of the workload's first instance or base."""
    from repro.graphs.graph import Graph

    graph = Graph(n, edges)
    out.report.append(
        f"input: first instance n={graph.n} m={graph.m} "
        f"content_hash={graph.content_hash()}")


def _probe_line(out: Outcome, probe: HostProbe, mix: Dict[str, float]) -> None:
    factors = probe.factors(mix)
    out.report.append(
        f"{'host.probe_ms':<26} {probe.median_ms():>14.4f} ms     "
        f"median of {len(factors)} host probes, host factor "
        f"{min(factors):.3f}..{max(factors):.3f} (diagnostic, not gated)")


WORKLOADS = {
    "tester-accept": run_tester_accept,
    "monitor-churn": run_monitor_churn,
    "service-rw": run_service_rw,
}

"""Campaign execution: serial or process-parallel, always deterministic.

:func:`execute_row` is a pure function of its :class:`RunRow` — the graph
is rebuilt from the registry with the row's derived seed, the named
algorithm variant runs on it, and the returned record contains only
deterministic fields (no wall-clock timestamps).  That property is what
lets :func:`run_campaign` promise byte-identical JSONL output whether it
runs serially or across a :class:`~concurrent.futures.ProcessPoolExecutor`:
results are always consumed in submission order, so the store sees the
same record stream either way.

Scheduling policy (wall clock only, never results):

* **Persistent pools** — process pools outlive a single
  :func:`run_campaign`/:func:`ordered_parallel_map` call, keyed by
  worker count, so repeated invocations (campaign resume, suite reruns,
  benchmark repeats) skip interpreter spawn and import costs.

Wall-clock throughput is reported separately in the returned
:class:`ExecutionReport` (and measured by ``benchmarks/bench_campaign.py``).
"""

from __future__ import annotations

import atexit
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..baselines.gather import gather_detect_cycle_through_edge
from ..baselines.naive import naive_detect_cycle_through_edge
from ..core.algorithm1 import detect_cycle_through_edge
from ..core.phase1 import RANK_SCHEME
from ..core.tester import CkFreenessTester
from ..errors import ConfigurationError, ReproError
from ..graphs.graph import Graph
from . import registry
from .runtable import STREAM_ALGORITHMS, RunRow, RunTable, derive_seed
from .store import CampaignStore

__all__ = [
    "ExecutionReport",
    "execute_row",
    "ordered_parallel_map",
    "run_campaign",
    "shutdown_persistent_pools",
]

#: Live process pools, by worker count (see :func:`_persistent_pool`).
_PERSISTENT_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _persistent_pool(workers: int) -> ProcessPoolExecutor:
    """The shared process pool for ``workers``, created on first use.

    Pools persist until interpreter exit (or an explicit
    :func:`shutdown_persistent_pools`), so consecutive campaign or
    benchmark invocations in one process reuse warm workers.  A pool
    broken by a dead worker is discarded and respawned.
    """
    pool = _PERSISTENT_POOLS.get(workers)
    if pool is not None and getattr(pool, "_broken", False):
        pool.shutdown(wait=False, cancel_futures=True)
        pool = None
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _PERSISTENT_POOLS[workers] = pool
    return pool


def shutdown_persistent_pools() -> None:
    """Tear down every persistent pool (also runs at interpreter exit)."""
    pools = list(_PERSISTENT_POOLS.values())
    _PERSISTENT_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_persistent_pools)


def ordered_parallel_map(
    fn: Callable[[Any], Any],
    items: List[Any],
    *,
    workers: int = 1,
    chunksize: int = 1,
) -> Iterator[Any]:
    """Yield ``fn(item)`` for each item, serially or across a process pool.

    Results arrive in submission order either way, which is the property
    both the campaign runner (for byte-identical JSONL) and the benchmark
    runner (for order-stable artifacts) depend on.  ``fn`` and every item
    must be picklable when ``workers > 1``.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if chunksize < 1:
        raise ConfigurationError(f"chunksize must be >= 1, got {chunksize}")
    if workers == 1:
        for item in items:
            yield fn(item)
        return
    yield from _persistent_pool(workers).map(fn, items, chunksize=chunksize)


def _probe_edge(graph: Graph) -> tuple:
    """Deterministic probe edge for through-edge variants: the canonical
    smallest edge."""
    try:
        return next(iter(graph.edges()))
    except StopIteration:
        raise ConfigurationError("graph has no edges to probe") from None


def _run_tester(
    graph: Graph, k: int, eps: float, seed: int, engine: str, faults=None,
    telemetry=None,
) -> Dict[str, Any]:
    result = CkFreenessTester(
        k, eps, engine=engine, faults=faults, telemetry=telemetry
    ).run(graph, seed=seed)
    return {
        "accepted": result.accepted,
        "repetitions_run": result.repetitions_run,
        "repetitions_planned": result.repetitions_planned,
        "rounds_per_repetition": result.rounds_per_repetition,
        "evidence": list(result.evidence) if result.evidence is not None else None,
    }


def _run_detect(
    graph: Graph, k: int, eps: float, seed: int, engine: str, faults=None,
    telemetry=None,
) -> Dict[str, Any]:
    det = detect_cycle_through_edge(
        graph, _probe_edge(graph), k, engine=engine, faults=faults,
        telemetry=telemetry,
    )
    return {
        "detected": det.detected,
        "rounds": det.run.trace.num_rounds,
        "max_sequences_per_message": det.run.trace.max_sequences_per_message,
        "max_message_bits": det.run.trace.max_message_bits,
    }


def _run_naive(
    graph: Graph, k: int, eps: float, seed: int, engine: str, faults=None,
    telemetry=None,
) -> Dict[str, Any]:
    # Baselines run on the reference scheduler regardless of the engine
    # factor: their point is the per-message congestion audit.
    res = naive_detect_cycle_through_edge(graph, _probe_edge(graph), k)
    return {
        "detected": res.detected,
        "max_sequences_per_message": res.max_sequences_per_message,
        "cap_tripped": res.cap_tripped,
    }


def _run_gather(
    graph: Graph, k: int, eps: float, seed: int, engine: str, faults=None,
    telemetry=None,
) -> Dict[str, Any]:
    res = gather_detect_cycle_through_edge(graph, _probe_edge(graph), k)
    return {
        "detected": res.detected,
        "max_message_bits": res.max_message_bits,
    }


_ALGORITHMS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "tester": _run_tester,
    "detect": _run_detect,
    "naive": _run_naive,
    "gather": _run_gather,
}


def _run_stream_row(
    graph: Graph, row: RunRow, seed: int, faults=None, telemetry=None
) -> Dict[str, Any]:
    """Execute a temporal row: replay the row's scenario over ``graph``.

    ``monitor`` rows run the incremental :class:`~repro.dynamic.monitor.
    CkMonitor`; ``tester`` rows run the naive per-step from-scratch
    baseline on the identical seed schedule, so their verdict
    trajectories are directly comparable (and must agree).
    """
    # Imported lazily: repro.dynamic sits above the runner layer.
    from ..dynamic.campaign import run_monitor_stream, run_naive_stream

    run = run_monitor_stream if row.algorithm == "monitor" else run_naive_stream
    return run(
        graph, row.stream, row.k,
        engine=row.engine, seed=seed, epsilon=row.eps, faults=faults,
        telemetry=telemetry,
    )


def execute_row(row: RunRow) -> Dict[str, Any]:
    """Execute one run row and return its (deterministic) result record.

    Never raises on algorithm/generator errors: failures become records
    with ``"status": "error"`` so a campaign survives bad factor
    combinations and the failure is persisted rather than retried forever.

    Every row runs under a *private* :class:`~repro.obs.Telemetry`
    (metrics only, no event sink), and the record's ``"telemetry"``
    field carries its flat summary — counters summed, gauges peaked, no
    wall clock — so per-run rounds/messages/cache-hit figures are
    deterministic and byte-identical between serial and parallel
    execution.  ``"rank_scheme"`` names the Phase-1 rank function
    (:data:`~repro.core.phase1.RANK_SCHEME`) the seeded outcome depends
    on.
    """
    from ..obs import Telemetry

    record = dict(row.factors())
    record["run_id"] = row.run_id
    record["seed"] = row.seed
    record["rank_scheme"] = RANK_SCHEME
    # Independent sub-seeds for instance sampling and protocol randomness.
    graph_seed = derive_seed(row.seed, "graph")
    algo_seed = derive_seed(row.seed, "algorithm")
    if row.stream is None:
        if row.algorithm not in _ALGORITHMS:
            raise ConfigurationError(f"unknown algorithm {row.algorithm!r}")
    elif row.algorithm not in STREAM_ALGORITHMS:
        raise ConfigurationError(
            f"algorithm {row.algorithm!r} cannot replay a stream; "
            f"temporal rows take one of {', '.join(STREAM_ALGORITHMS)}"
        )
    try:
        # The row's k/eps double as family parameters (flower, eps-far, ...)
        # unless the generator entry pinned its own values.
        gen_params = {"k": row.k, "eps": row.eps, **row.params_dict()}
        graph = registry.build_graph(row.generator, seed=graph_seed, **gen_params)
        record["n"] = graph.n
        record["m"] = graph.m
        faults = None
        if row.faults is not None:
            from ..congest.faults import build_fault_model

            faults = build_fault_model(
                row.faults, seed=derive_seed(row.seed, "faults")
            )
        tel = Telemetry()
        if row.stream is not None:
            record["outcome"] = _run_stream_row(
                graph, row, algo_seed, faults, tel
            )
        else:
            record["outcome"] = _ALGORITHMS[row.algorithm](
                graph, row.k, row.eps, algo_seed, row.engine, faults, tel
            )
        record["telemetry"] = tel.summary()
        record["status"] = "ok"
    except ReproError as exc:
        record["status"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


@dataclass
class ExecutionReport:
    """What one ``run_campaign`` invocation actually did."""

    campaign: str
    total_rows: int
    executed: int
    skipped: int
    errors: int
    workers: int
    wall_seconds: float
    executed_ids: List[str] = field(default_factory=list)

    @property
    def rows_per_second(self) -> float:
        """Executed-row throughput of this invocation."""
        return self.executed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def render(self) -> str:
        """One-line human summary of the invocation."""
        return (
            f"campaign {self.campaign!r}: {self.executed} executed, "
            f"{self.skipped} skipped (already done), {self.errors} errors, "
            f"{self.workers} worker(s), {self.wall_seconds:.2f}s "
            f"({self.rows_per_second:.1f} rows/s)"
        )


def run_campaign(
    table: RunTable,
    store: CampaignStore,
    *,
    workers: int = 1,
    chunksize: int = 1,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> ExecutionReport:
    """Execute every not-yet-completed row of ``table`` into ``store``.

    Rows whose ``run_id`` already appears in the store are skipped, which
    makes a second invocation of the same campaign a cheap resume (and a
    completed campaign a no-op).  A store holding records of another
    rank scheme, or records that name none, is refused with a
    :class:`~repro.errors.ConfigurationError`: their seeded outcomes
    would not match this code's.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if chunksize < 1:
        raise ConfigurationError(f"chunksize must be >= 1, got {chunksize}")
    records = store.records()
    foreign = {rec.get("rank_scheme") for rec in records} - {RANK_SCHEME}
    if foreign:
        found = ", ".join(sorted(repr(s) if s else "none" for s in foreign))
        raise ConfigurationError(
            f"{store.path}: its records carry rank scheme {found}, not "
            f"{RANK_SCHEME!r}; seeded outcomes differ across schemes, so "
            "run this campaign into a new store"
        )
    done = {rec["run_id"] for rec in records if "run_id" in rec}
    pending = [row for row in table.rows if row.run_id not in done]
    t0 = time.perf_counter()
    errors = 0
    executed_ids: List[str] = []
    if pending:
        with store.writer() as write:
            # Ordered map keeps the JSONL stream identical to the serial one.
            for record in ordered_parallel_map(
                execute_row, pending, workers=workers, chunksize=chunksize
            ):
                write(record)
                executed_ids.append(record["run_id"])
                if record.get("status") == "error":
                    errors += 1
                if progress is not None:
                    progress(record)
    wall = time.perf_counter() - t0
    return ExecutionReport(
        campaign=table.name,
        total_rows=len(table.rows),
        executed=len(executed_ids),
        skipped=len(table.rows) - len(pending),
        errors=errors,
        workers=workers,
        wall_seconds=wall,
        executed_ids=executed_ids,
    )

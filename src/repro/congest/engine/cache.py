"""Bounded cache of compiled engine instances, keyed by graph content.

Every :func:`~repro.congest.engine.create_engine` call re-compiles the
network into the backend's execution form (CSR adjacency, half-edge
tables).  Compilation is pure — it depends only on the graph's content,
the engine name and the bandwidth mode — so repeated detect/tester calls
against the *same* graph version can reuse one compiled instance.
:class:`EngineCache` is that reuse point: a small LRU keyed by
``(engine name, strict_bandwidth, graph.content_hash())``.

Three properties keep cached execution bit-identical to uncached:

* **Snapshot isolation.**  A cache miss compiles a *copy* of the caller's
  graph (:meth:`~repro.graphs.graph.Graph.copy`), never the live object:
  dynamic workloads mutate graphs in place, and a cached engine must
  stay consistent with the content hash it is filed under.
* **Rebinding.**  Engines hold references to the telemetry registry and
  phase profiler they were created with; a cache hit rebinds both to the
  *caller's* before returning, so traces and counters land exactly where
  a freshly created engine would put them.
* **Global-only cache metrics.**  Hit/miss/eviction counters and the
  resident-bytes gauge are recorded on the process-global registry
  (:func:`~repro.obs.resolve_telemetry` of ``None``), never on a
  caller-supplied registry.  Campaign rows summarise their own private
  registries into the result store; keeping cache bookkeeping out of
  them preserves the serial == parallel byte-identity of campaign JSONL.

The cache also memoises plain CSR exports (:meth:`EngineCache.csr`) for
the dynamic monitor's ⌊k/2⌋-ball extraction, under the same LRU bound
and the same content-hash keying.

Engines compiled with a fault model are never cached: fault models are
stateful (they carry their own RNG stream), so two runs through one
instance would not be independent.  Callers enforce this by bypassing
the cache whenever ``faults is not None``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

import numpy as np

from ...errors import ConfigurationError
from ...graphs.graph import Graph
from ...obs import resolve_telemetry
from ..network import Network
from . import create_engine, ensure_engine_available
from .base import CongestEngine
from .profiler import NULL_PROFILER

__all__ = ["EngineCache"]


class EngineCache:
    """LRU cache of compiled :class:`CongestEngine` instances.

    Parameters
    ----------
    max_entries:
        Maximum resident entries (compiled engines plus memoised CSR
        exports).  The least recently used entry is evicted first.
    """

    def __init__(self, max_entries: int = 8) -> None:
        max_entries = int(max_entries)
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(
        self,
        spec: str,
        graph: Graph,
        *,
        strict_bandwidth: bool = False,
        telemetry=None,
        profiler=None,
    ) -> CongestEngine:
        """A compiled engine for ``spec`` on the current ``graph`` content.

        On a hit the cached instance is rebound to the caller's
        ``telemetry``/``profiler`` and returned; on a miss a fresh engine
        is compiled for a snapshot copy of ``graph`` (identity node IDs,
        as ``Network(graph)`` assigns).  Never pass a fault model through
        this path — fault runs must bypass the cache.
        """
        ensure_engine_available(spec)  # surface bad names before hashing
        key = ("engine", str(spec), bool(strict_bandwidth), graph.content_hash())
        eng = self._entries.get(key)
        if eng is not None:
            self._entries.move_to_end(key)
            eng._telemetry = resolve_telemetry(telemetry)
            eng._profiler = profiler if profiler is not None else NULL_PROFILER
            self._record(hit=True)
            return eng  # type: ignore[return-value]
        eng = create_engine(
            spec,
            Network(graph.copy()),
            strict_bandwidth=strict_bandwidth,
            telemetry=telemetry,
            profiler=profiler,
        )
        self._insert(key, eng)
        self._record(hit=False)
        return eng

    def csr(self, graph: Graph, *, key=None) -> Tuple[np.ndarray, np.ndarray]:
        """Memoised ``(indptr, indices)`` CSR export of ``graph``.

        Keyed by content hash like engine entries; the arrays are
        consistent snapshots, safe to hold across later mutations of
        ``graph``.  A caller that already knows a unique identity for
        the current content (e.g. the dynamic monitor's never-reused
        version tokens) may pass it as ``key`` to skip the hash; the
        caller then owns the correctness of that keying.
        """
        key = ("csr", graph.content_hash() if key is None else key)
        arrays = self._entries.get(key)
        if arrays is not None:
            self._entries.move_to_end(key)
            self._record(hit=True)
            return arrays  # type: ignore[return-value]
        arrays = graph.to_csr()
        self._insert(key, arrays)
        self._record(hit=False)
        return arrays

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Evict every entry."""
        self._entries.clear()
        self._publish_bytes()

    @property
    def nbytes(self) -> int:
        """Bytes resident across all cached entries."""
        total = 0
        for entry in self._entries.values():
            total += self._entry_nbytes(entry)
        return total

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"EngineCache(entries={len(self._entries)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )

    # ------------------------------------------------------------------
    def _insert(self, key: tuple, entry: object) -> None:
        self._entries[key] = entry
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            self._record_eviction()

    @staticmethod
    def _entry_nbytes(entry: object) -> int:
        if isinstance(entry, CongestEngine):
            return entry.compiled_nbytes
        indptr, indices = entry  # type: ignore[misc]
        return int(indptr.nbytes + indices.nbytes)

    # ------------------------------------------------------------------
    # Cache metrics: process-global registry only (see module docstring).
    # ------------------------------------------------------------------
    def _record(self, *, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        tel = resolve_telemetry(None)
        if tel.enabled:
            name = (
                "repro_engine_cache_hits_total"
                if hit
                else "repro_engine_cache_misses_total"
            )
            verb = "served from" if hit else "compiled into"
            tel.counter(
                name, f"Engine-cache lookups {verb} the cache."
            ).inc()
            self._publish_bytes(tel)

    def _record_eviction(self) -> None:
        tel = resolve_telemetry(None)
        if tel.enabled:
            tel.counter(
                "repro_engine_cache_evictions_total",
                "Entries evicted from the engine cache (LRU order).",
            ).inc()

    def _publish_bytes(self, tel=None) -> None:
        tel = tel if tel is not None else resolve_telemetry(None)
        if tel.enabled:
            tel.gauge(
                "repro_engine_cache_bytes",
                "Bytes resident in the compiled-engine cache.",
            ).set(self.nbytes)

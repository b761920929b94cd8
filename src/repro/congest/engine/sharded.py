"""The sharded engine: multi-process numpy execution over shared memory.

This backend scales the :mod:`fast <repro.congest.engine.fast>` engine's
batched CSR execution to 10^5–10^6-node graphs by partitioning the node
range into ``P`` contiguous shards and running every per-round kernel
(Phase-1 rank draws, minimum selection, the §3.1 priority multiplexing,
and the per-node sequence work) shard-by-shard — either inline in the
parent process or on a persistent ``fork``-based worker pool.

Design, and why determinism survives the sharding:

* **Contiguous node ranges, balanced by half-edge count.**  Shard ``s``
  owns nodes ``[lo_s, hi_s)`` and therefore the contiguous CSR half-edge
  slice ``[indptr[lo_s], indptr[hi_s])``.  Cut points are chosen so each
  shard carries roughly ``2m/P`` half-edges.
* **Mutable round state lives in ``multiprocessing.shared_memory``.**
  The per-edge rank stack, the per-node ``(rank, edge index)``
  execution tags ``(R, E)`` (double-buffered against ``bestR/bestE``),
  and the sending/sending-next flags are numpy views over one shared
  block, so workers read any neighbour's tag directly and write only
  their own node range — disjoint slices, no locks needed.
* **One priority-rule kernel.**  Each shard runs the fast engine's
  :func:`~repro.congest.engine.fast.segmented_min` /
  :func:`~repro.congest.engine.fast.priority_mux` over its contiguous
  half-edge slice, with the segment starts offset by the slice start.
* **RNG cannot be perturbed by shard boundaries.**  Phase-1 ranks come
  from :func:`~repro.congest.engine.fast.draw_owned_ranks`, which draws
  one independent ``SeedSequence((rep_seed & 0x7FFFFFFF, node_id))``
  stream per node.  A shard draws exactly the streams of the owners it
  holds, in the same per-owner order as the fast engine — the draws are
  bit-identical no matter how the owners are split.
* **Audits merge with a fixed shard-order reduction.**  Per-round
  message/bit aggregates are summed shard-by-shard in ascending shard
  order; because shards hold ascending disjoint vertex ranges, "first
  shard achieving the strict maximum" reproduces the reference
  scheduler's first-occurrence-of-argmax delivery order, and the first
  strict-bandwidth violation is the globally first one.  The parent —
  not a worker — raises :class:`~repro.errors.BandwidthExceededError`,
  so the error path never crosses a process boundary.
* **Sequences cross shard boundaries through the parent.**  Per-node
  sequence dicts are worker-local; after each round every worker returns
  the sends of its *boundary* nodes (nodes with a neighbour outside the
  shard) and the parent routes them to the shards that hold those nodes
  in their halo.  Round-2 seed sequences are synthesized in-worker
  (every non-isolated node sends ``[(id,)]``), so the first routed round
  is round 3.

The worker pool uses the ``fork`` start method only: workers inherit the
compiled CSR arrays and the shared-memory views at no serialization
cost.  Where ``fork`` is unavailable (or for a non-picklable custom
pruner) the engine transparently runs the same kernels inline, in shard
order, with identical results — the pool changes wall-clock, never
bits.  Verdict/trace equivalence against ``reference``/``fast`` is
asserted by :func:`repro.testing.engine_equivalence_report` and
``tests/test_sharded.py``.

Requirements: numpy, ``multiprocessing.shared_memory`` (Python ≥ 3.8),
and node IDs below ``2**32`` (inherited from the fast engine).
"""

from __future__ import annotations

import os
import pickle
import time
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import (
    BandwidthExceededError,
    CongestError,
    ConfigurationError,
    EngineUnavailableError,
)
from ..instrumentation import ExecutionTrace
from ..network import Network
from ..scheduler import RunResult
from .base import CongestEngine
from .fast import _INF, FastEngine, draw_owned_ranks, priority_mux, segmented_min

__all__ = ["ShardedEngine", "default_shard_count"]

#: Upper bound for the automatic shard count (beyond this the routing
#: overhead on random graphs outweighs the extra parallelism).
_MAX_AUTO_SHARDS = 4


def default_shard_count() -> int:
    """The automatic shard count: ``min(4, cpu_count)``."""
    return max(1, min(_MAX_AUTO_SHARDS, os.cpu_count() or 1))


def _fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _worker_main(worker: "_ShardWorker", conn) -> None:
    """Pool worker loop: receive a command, run the kernel, reply.

    Any kernel exception is stringified and shipped back — the parent
    re-raises it as :class:`~repro.errors.CongestError` — so a worker
    never dies silently mid-protocol.
    """
    while True:
        msg = conn.recv()
        if msg[0] == "stop":
            conn.close()
            return
        try:
            conn.send(("ok", worker.dispatch(msg)))
        except BaseException as exc:  # pragma: no cover - defensive
            import traceback

            conn.send(
                ("error", f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            )


def _release_resources(res: Dict[str, Any]) -> None:
    """Tear down pool processes and unlink shared memory (idempotent).

    Fork-safe: an engine inherited by a forked process (campaign pool
    workers fork while cached engines are alive) merely drops its copies
    of the handles — only the creating process may stop and join the
    shard workers or unlink the shared-memory segment.  Sending ``stop``
    from a fork child would kill the *parent's* workers through the
    inherited pipes.
    """
    owns = res.get("owner_pid") == os.getpid()
    for proc, conn in res.get("pool") or ():
        if owns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if not owns:
            continue
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - defensive
            proc.terminate()
            proc.join(timeout=1.0)
    res["pool"] = None
    shm = res.get("shm")
    if shm is not None:
        res["shm"] = None
        try:
            shm.close()
        except BufferError:  # pragma: no cover - live numpy views remain
            pass  # the mapping stays until the views die; unlink regardless
        if owns:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class _ShardWorker:
    """Per-shard kernels over the shared round state.

    One instance per shard; in pool mode the instance is inherited by a
    forked worker process (no pickling), in inline mode the parent calls
    it directly.  All mutable protocol state it *writes* is confined to
    its node range ``[lo, hi)`` of the shared arrays; reads may touch
    any index (neighbour tags).
    """

    def __init__(
        self,
        index: int,
        lo: int,
        hi: int,
        engine: "ShardedEngine",
        state: Dict[str, np.ndarray],
    ) -> None:
        self.index = index
        self.lo = lo
        self.hi = hi
        self.m = engine.network.graph.m
        self.ids = engine._ids
        self.id_list = engine._id_list
        self.indptr = engine._indptr
        self.indices = engine._indices
        self.degrees = engine._degrees
        self.he_src = engine._he_src
        self.he_dst = engine._he_dst
        self.edge_of_he = engine._edge_of_he
        self.h0 = int(self.indptr[lo])
        self.h1 = int(self.indptr[hi])
        # This shard's non-empty rows (relative to lo) and their segment
        # starts within the half-edge slice [h0, h1).
        self.rows_s = np.nonzero(self.degrees[lo:hi] > 0)[0]
        self.starts_s = self.indptr[lo:hi][self.rows_s] - self.h0
        # Owned-edge draw schedule restricted to this shard's owners.
        # ``_owned_he`` is grouped by ascending owner, so the restriction
        # is a contiguous slice and preserves the global draw order.
        owners, counts = engine._owners, engine._owner_counts
        i0, i1 = np.searchsorted(owners, [lo, hi])
        self.owners_s = owners[i0:i1]
        self.counts_s = counts[i0:i1]
        self.offsets_s = (
            np.concatenate(([0], np.cumsum(self.counts_s[:-1])))
            if len(self.counts_s)
            else np.zeros(0, dtype=np.int64)
        )
        slot0 = int(engine._owner_offsets[i0]) if i0 < len(owners) else 0
        self.owned_he_s = engine._owned_he[slot0: slot0 + int(self.counts_s.sum())]
        # Boundary mask over [lo, hi): nodes with a neighbour outside.
        outside = (self.he_dst[self.h0: self.h1] < lo) | (
            self.he_dst[self.h0: self.h1] >= hi
        )
        boundary = np.zeros(hi - lo, dtype=bool)
        boundary[self.he_src[self.h0: self.h1][outside] - lo] = True
        self.boundary = boundary
        # Audit constants (identical to the fast engine's).
        self.size_model = engine._size_model
        self.bits_tagged_overhead = engine._bits_tagged_overhead
        self.bits_untagged_overhead = engine._bits_untagged_overhead
        self.budget = engine._budget
        self._seq_bits_cache: Dict[int, int] = {}
        # Shared mutable state (numpy views over one shm block).
        self.edge_rank = state["edge_rank"]
        self.R = state["R"]
        self.E = state["E"]
        self.bestR = state["bestR"]
        self.bestE = state["bestE"]
        self.sending = state["sending"]
        self.sending_next = state["sending_next"]
        # Per-repetition worker-local state.
        self.k = 0
        self.pruner = None
        self.seed_shortcut = False
        self.sent_seqs: Dict[int, list] = {}

    # ------------------------------------------------------------------
    def dispatch(self, msg: Tuple) -> Tuple[float, Any]:
        """Run one kernel command; return ``(wall_seconds, payload)``."""
        t0 = time.perf_counter()
        cmd = msg[0]
        if cmd == "begin":
            out = self.begin_chunk(*msg[1:])
        elif cmd == "select":
            out = self.select_and_seed(*msg[1:])
        elif cmd == "round":
            out = self.phase2_round(*msg[1:])
        elif cmd == "fin":
            out = self.finalize_tester(*msg[1:])
        elif cmd == "dstart":
            out = self.detect_start(*msg[1:])
        elif cmd == "dround":
            out = self.detect_round(*msg[1:])
        elif cmd == "dfin":
            out = self.detect_final(*msg[1:])
        else:  # pragma: no cover - protocol bug
            raise CongestError(f"unknown shard command {cmd!r}")
        return time.perf_counter() - t0, out

    # ------------------------------------------------------------------
    def _seq_bits(self, seq_len: int) -> int:
        """Bit cost of one length-``seq_len`` ID sequence (cached)."""
        bits = self._seq_bits_cache.get(seq_len)
        if bits is None:
            bits = self.size_model.sequence_bits((0,) * seq_len)
            self._seq_bits_cache[seq_len] = bits
        return bits

    def _audit(
        self, senders: np.ndarray, bits: np.ndarray, seqs: np.ndarray
    ) -> Optional[Tuple[int, int, int, int, int, Optional[Tuple[int, int]]]]:
        """This shard's aggregate-audit contribution for one round.

        ``senders`` must be ascending vertex indices within the shard.
        Returns ``(messages, total_bits, max_bits, argmax_vertex,
        max_seqs, first_violation)`` — the fixed shard-order reduction in
        the parent folds these into :class:`RoundStats` exactly as the
        fast engine's :meth:`_record_broadcasts` would.
        """
        if not len(senders):
            return None
        degs = self.degrees[senders]
        imax = int(np.argmax(bits))
        violation = None
        over = np.nonzero(bits > self.budget)[0]
        if len(over):
            violation = (int(senders[over[0]]), int(bits[over[0]]))
        return (
            int(degs.sum()),
            int((bits * degs).sum()),
            int(bits[imax]),
            int(senders[imax]),
            int(seqs.max()),
            violation,
        )

    def _resolve_pruner(self, pruner) -> None:
        from ...core.pruning import HittingSetPruner

        self.pruner = pruner if pruner is not None else HittingSetPruner()
        self.seed_shortcut = type(self.pruner) is HittingSetPruner

    # ------------------------------------------------------------------
    # Tester kernels
    # ------------------------------------------------------------------
    def begin_chunk(self, k: int, rep_seeds: Sequence[int], pruner) -> None:
        """Reset per-repetition state and draw this shard's edge ranks
        for a chunk of repetitions (a serial repetition is a chunk of
        one).

        :func:`~repro.congest.engine.fast.draw_owned_ranks` over this
        shard's owners only: per-``(repetition, owner)`` streams are
        independent, so row ``r`` of the shared rank stack is bit-exact
        whatever the shard boundaries.
        """
        self.k = k
        self._resolve_pruner(pruner)
        self.sent_seqs = {}
        if len(self.owners_s):
            cols = self.edge_of_he[self.owned_he_s]
            self.edge_rank[: len(rep_seeds), cols] = draw_owned_ranks(
                rep_seeds,
                self.ids[self.owners_s],
                self.counts_s,
                self.offsets_s,
                self.m * self.m,
            )
        return None

    def select_and_seed(self, rep: int = 0):
        """Round 2 for this shard: per-node minimum incident tag, then
        every non-isolated node broadcasts its singleton seed.  ``rep``
        names the row of the shared rank stack to read (chunked runs
        pre-draw several repetitions' ranks)."""
        lo, hi, h0, h1 = self.lo, self.hi, self.h0, self.h1
        he_edge = self.edge_of_he[h0:h1]
        no_tag = np.full((1, hi - lo), _INF, dtype=np.int64)
        R, E = segmented_min(
            self.edge_rank[rep: rep + 1, he_edge],
            he_edge[None, :],
            self.starts_s,
            self.rows_s,
            no_tag,
            no_tag,
        )
        self.R[lo:hi] = R[0]
        self.E[lo:hi] = E[0]
        send_local = self.degrees[lo:hi] > 0
        self.sending[lo:hi] = send_local
        senders = np.nonzero(send_local)[0] + lo
        self.sent_seqs = {
            int(v): [(self.id_list[v],)] for v in senders.tolist()
        }
        seed_bits = self.bits_tagged_overhead + self._seq_bits(1)
        return self._audit(
            senders,
            np.full(len(senders), seed_bits, dtype=np.int64),
            np.ones(len(senders), dtype=np.int64),
        )

    def _mux_local(self):
        """§3.1 priority rule restricted to this shard's receivers.

        Neighbour tags are read straight from the shared arrays (they
        may live in other shards); winners are written back only for
        ``[lo, hi)``.  Returns the surviving half-edge matches as
        ``(receivers, senders)`` plus the local winning tags.
        """
        lo, hi, h0, h1 = self.lo, self.hi, self.h0, self.h1
        src = self.he_src[h0:h1]
        dst = self.he_dst[h0:h1]
        bR, bE, match_mask = priority_mux(
            self.R[None, :],
            self.E[None, :],
            self.sending[None, :],
            src,
            dst,
            self.starts_s,
            self.rows_s,
            lo,
            hi,
        )
        matches = np.nonzero(match_mask[0])[0]
        return src[matches], dst[matches], bR[0], bE[0]

    def _gather(
        self, receivers: np.ndarray, senders: np.ndarray, halo
    ) -> Dict[int, list]:
        """Bucket surviving senders' sequences per receiving node.

        ``halo`` maps out-of-shard senders to their sequences; ``None``
        means round 2's closed form (every sender's send is its
        singleton seed), which needs no routing at all.
        """
        lo, hi = self.lo, self.hi
        recv: Dict[int, list] = {}
        for v, u in zip(receivers.tolist(), senders.tolist()):
            if lo <= u < hi:
                seqs = self.sent_seqs.get(u)
            elif halo is None:
                seqs = [(self.id_list[u],)]
            else:
                seqs = halo.get(u)
            if not seqs:
                continue
            bucket = recv.get(v)
            if bucket is None:
                recv[v] = list(seqs)
            else:
                bucket.extend(seqs)
        return recv

    def _boundary_out(self) -> Dict[int, list]:
        """The subset of this round's sends other shards may need."""
        lo = self.lo
        boundary = self.boundary
        return {v: s for v, s in self.sent_seqs.items() if boundary[v - lo]}

    def phase2_round(self, t: int, halo):
        """One multiplexed Phase-2 round for this shard's receivers."""
        from ...core.algorithm1 import process_phase2_round
        from ...core.sequences import sort_sequences

        lo, hi = self.lo, self.hi
        receivers, senders, bR, bE = self._mux_local()
        recv = self._gather(receivers, senders, halo)
        self.bestR[lo:hi] = bR
        self.bestE[lo:hi] = bE
        new_sent: Dict[int, list] = {}
        send_next = np.zeros(hi - lo, dtype=bool)
        if t == 2 and self.seed_shortcut:
            keep = self.k - 1
            for v, lst in recv.items():
                lst.sort()
                my = self.id_list[v]
                new_sent[v] = [s + (my,) for s in lst[:keep]]
                send_next[v - lo] = True
        else:
            for v, lst in recv.items():
                send = process_phase2_round(
                    self.id_list[v], sort_sequences(lst), self.k, t, self.pruner
                )
                if send:
                    new_sent[v] = send
                    send_next[v - lo] = True
        self.sending_next[lo:hi] = send_next
        self.sent_seqs = new_sent
        per_seq = self._seq_bits(t)
        sender_arr = np.fromiter(new_sent, dtype=np.int64, count=len(new_sent))
        sender_arr.sort()
        lens = np.fromiter(
            (len(new_sent[int(v)]) for v in sender_arr),
            dtype=np.int64,
            count=len(sender_arr),
        )
        audit = self._audit(
            sender_arr, self.bits_tagged_overhead + lens * per_seq, lens
        )
        return audit, self._boundary_out()

    def finalize_tester(self, halo):
        """The final (communication-free) decision for this shard."""
        from ...core.algorithm1 import find_detection_evidence
        from ...core.sequences import sort_sequences

        lo = self.lo
        receivers, senders, bR, bE = self._mux_local()
        recv = self._gather(receivers, senders, halo)
        switched = (self.R[lo: self.hi] != bR) | (self.E[lo: self.hi] != bE)
        stale = set((np.flatnonzero(switched) + lo).tolist())
        rejects: Dict[int, tuple] = {}
        for v, lst in recv.items():
            received = sort_sequences(lst)
            own = self.sent_seqs.get(v, [])
            if own and v in stale:
                own = []  # stale tag: the node switched executions
            cycle = find_detection_evidence(self.id_list[v], self.k, own, received)
            if cycle is not None:
                rejects[int(v)] = cycle
        return rejects

    # ------------------------------------------------------------------
    # Detect (Algorithm 1) kernels
    # ------------------------------------------------------------------
    def detect_start(self, k: int, endpoints: Sequence[Tuple[int, int]], pruner):
        """Round 1 of Algorithm 1: endpoints in this shard broadcast."""
        self.k = k
        self._resolve_pruner(pruner)
        sent: Dict[int, list] = {}
        for vtx, nid in endpoints:
            if self.lo <= vtx < self.hi and self.degrees[vtx] > 0:
                sent[vtx] = [(nid,)]
        self.sent_seqs = sent
        bits = self.bits_untagged_overhead + self._seq_bits(1)
        audit = self._audit(
            np.array(sorted(sent), dtype=np.int64),
            np.full(len(sent), bits, dtype=np.int64),
            np.ones(len(sent), dtype=np.int64),
        )
        return audit, self._boundary_out()

    def _deliver(self, halo) -> Dict[int, list]:
        """Flood local + halo senders' sequences to in-shard receivers."""
        lo, hi = self.lo, self.hi
        indptr, indices = self.indptr, self.indices
        recv: Dict[int, list] = {}
        sources = [self.sent_seqs] if halo is None else [self.sent_seqs, halo]
        for seq_map in sources:
            for s, seqs in seq_map.items():
                for w in indices[indptr[s]: indptr[s + 1]].tolist():
                    if not lo <= w < hi:
                        continue
                    bucket = recv.get(w)
                    if bucket is None:
                        recv[w] = list(seqs)
                    else:
                        bucket.extend(seqs)
        return recv

    def detect_round(self, t: int, halo):
        """One Phase-2 round of Algorithm 1 for this shard."""
        from ...core.algorithm1 import process_phase2_round
        from ...core.sequences import sort_sequences

        recv = self._deliver(halo)
        new_sent: Dict[int, list] = {}
        for v, lst in recv.items():
            send = process_phase2_round(
                self.id_list[v], sort_sequences(lst), self.k, t, self.pruner
            )
            if send:
                new_sent[v] = send
        self.sent_seqs = new_sent
        per_seq = self._seq_bits(t)
        sender_arr = np.fromiter(new_sent, dtype=np.int64, count=len(new_sent))
        sender_arr.sort()
        lens = np.fromiter(
            (len(new_sent[int(v)]) for v in sender_arr),
            dtype=np.int64,
            count=len(sender_arr),
        )
        audit = self._audit(
            sender_arr, self.bits_untagged_overhead + lens * per_seq, lens
        )
        return audit, self._boundary_out()

    def detect_final(self, halo):
        """Final decision of Algorithm 1 for this shard's receivers."""
        from ...core.algorithm1 import find_detection_evidence
        from ...core.sequences import sort_sequences

        recv = self._deliver(halo)
        rejects: Dict[int, tuple] = {}
        for v, lst in recv.items():
            received = sort_sequences(lst)
            cycle = find_detection_evidence(
                self.id_list[v], self.k, self.sent_seqs.get(v, []), received
            )
            if cycle is not None:
                rejects[int(v)] = cycle
        return rejects


class ShardedEngine(FastEngine):
    """Sharded shared-memory execution (same verdicts, multi-process).

    Extra parameters on top of :class:`FastEngine`:

    shards:
        Number of contiguous node-range shards (``None`` → automatic,
        :func:`default_shard_count`; clamped to ``n``).  Must be ≥ 1.
    use_pool:
        ``None`` (default) runs a ``fork`` worker pool when the platform
        supports it and more than one shard exists, and falls back to
        inline execution otherwise.  ``True`` requires the pool (raises
        :class:`~repro.errors.EngineUnavailableError` without ``fork``);
        ``False`` forces inline execution.  Pool or inline, the results
        are bit-identical.
    """

    name = "sharded"

    def __init__(
        self,
        network: Network,
        *,
        shards: Optional[int] = None,
        use_pool: Optional[bool] = None,
        **kwargs,
    ) -> None:
        super().__init__(network, **kwargs)
        if shards is None:
            shards = default_shard_count()
        shards = int(shards)
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        n = network.graph.n
        self._requested_shards = shards
        if use_pool is None:
            self._use_pool = shards > 1 and _fork_available()
        else:
            if use_pool and not _fork_available():
                raise EngineUnavailableError(
                    "the sharded engine's worker pool needs the 'fork' "
                    "start method, which this platform lacks; run with "
                    "use_pool=False (inline) or another engine"
                )
            self._use_pool = bool(use_pool)
        self._bounds = self._plan_shards(min(shards, max(n, 1)))
        self._state, self._shm, self._shm_bytes = self._alloc_state(n)
        self._workers = [
            _ShardWorker(i, int(lo), int(hi), self, self._state)
            for i, (lo, hi) in enumerate(self._bounds)
        ]
        # Halo membership per shard: outside nodes adjacent to the shard.
        self._halo_masks: List[np.ndarray] = []
        for (lo, hi), w in zip(self._bounds, self._workers):
            mask = np.zeros(n, dtype=bool)
            ext = self._he_dst[w.h0: w.h1]
            mask[ext[(ext < lo) | (ext >= hi)]] = True
            self._halo_masks.append(mask)
        self._pool: Optional[List[Tuple[Any, Any]]] = None
        self._res: Dict[str, Any] = {
            "pool": None, "shm": self._shm, "owner_pid": os.getpid(),
        }
        self._finalizer = weakref.finalize(self, _release_resources, self._res)
        if self._telemetry.enabled:
            self._telemetry.gauge(
                "repro_shard_shm_bytes",
                "Shared-memory block size allocated by the sharded "
                "engine, in bytes (high-water mark).",
            ).set_max(self._shm_bytes)
            self._telemetry.gauge(
                "repro_shard_count",
                "Effective shard count of the most recent sharded-engine "
                "compile.",
            ).set(len(self._workers))

    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        """The effective shard count (requested, clamped to ``n``)."""
        return len(self._workers)

    @property
    def uses_pool(self) -> bool:
        """Whether dispatches may run on the fork worker pool."""
        return self._use_pool

    @property
    def compiled_nbytes(self) -> int:
        """Compiled CSR bytes plus the shared-memory round state."""
        return super().compiled_nbytes + self._shm_bytes

    def _plan_shards(self, shards: int) -> List[Tuple[int, int]]:
        """Cut ``[0, n)`` into contiguous ranges balanced by half-edges."""
        n = self._net.graph.n
        if n == 0 or shards <= 1:
            return [(0, max(n, 0))] if n else [(0, 0)]
        total = int(self._indptr[-1])
        targets = [total * s // shards for s in range(1, shards)]
        cuts = np.searchsorted(self._indptr, targets, side="left")
        bounds = np.unique(np.concatenate(([0], cuts, [n])))
        return [
            (int(bounds[i]), int(bounds[i + 1])) for i in range(len(bounds) - 1)
        ]

    def _alloc_state(self, n: int):
        """One shared-memory block holding all mutable round state.

        The rank array is a ``(rep_chunk, m)`` stack so chunked runs can
        pre-draw a whole chunk of repetitions' ranks in one worker pass;
        serial runs use row 0 only.
        """
        from multiprocessing import shared_memory

        m = self._net.graph.m
        cap = max(1, self.rep_chunk)
        self._rep_capacity = cap
        int_fields = ("R", "E", "bestR", "bestE")
        nbytes = 8 * (cap * m + len(int_fields) * n) + 2 * n
        shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        state: Dict[str, np.ndarray] = {}
        state["edge_rank"] = np.ndarray(
            (cap, m), dtype=np.int64, buffer=shm.buf, offset=0
        )
        off = 8 * cap * m
        for field in int_fields:
            count = n
            state[field] = np.ndarray(
                (count,), dtype=np.int64, buffer=shm.buf, offset=off
            )
            off += 8 * count
        for field in ("sending", "sending_next"):
            state[field] = np.ndarray(
                (n,), dtype=np.bool_, buffer=shm.buf, offset=off
            )
            off += n
        for arr in state.values():
            arr[:] = 0
        return state, shm, off

    # ------------------------------------------------------------------
    # Pool + dispatch machinery
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> None:
        import multiprocessing

        if self._pool is not None:
            return
        ctx = multiprocessing.get_context("fork")
        pool = []
        for w in self._workers:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(w, child_conn), daemon=True
            )
            proc.start()
            child_conn.close()
            pool.append((proc, parent_conn))
        self._pool = pool
        self._res["pool"] = pool
        if self._telemetry.enabled:
            self._telemetry.counter(
                "repro_shard_pool_spawns_total",
                "Worker processes spawned by sharded-engine pools.",
            ).inc(len(pool))

    def _pool_for(self, pruner) -> bool:
        """Whether this run's dispatches can use the worker pool.

        A custom pruner must cross the pipe, so it has to pickle; when
        it does not, the run silently executes inline (identical bits).
        """
        if not self._use_pool:
            return False
        if pruner is None:
            return True
        try:
            pickle.dumps(pruner)
        except Exception:
            return False
        return True

    def _dispatch(self, kind: str, cmds: Sequence[Tuple], pooled: bool):
        """Run one command per shard; collect replies in shard order."""
        tel = self._telemetry
        if tel.enabled:
            tel.counter(
                "repro_shard_dispatch_total",
                "Kernel dispatches to shard workers, by command kind.",
                ("kind",),
            ).inc(len(cmds), kind=kind)
        replies = []
        if pooled:
            self._ensure_pool()
            assert self._pool is not None
            for (_, conn), cmd in zip(self._pool, cmds):
                conn.send(cmd)
            for proc, conn in self._pool:
                status, payload = conn.recv()
                if status != "ok":
                    raise CongestError(f"sharded worker failed: {payload}")
                replies.append(payload)
        else:
            for worker, cmd in zip(self._workers, cmds):
                replies.append(worker.dispatch(cmd))
        if tel.enabled:
            hist = tel.histogram(
                "repro_shard_round_seconds",
                "Per-shard kernel wall time, by shard index.",
                ("shard",),
                buckets=_LATENCY_BUCKETS,
            )
            for i, (wall, _) in enumerate(replies):
                hist.observe(wall, shard=str(i))
        if self._profiler.enabled:
            # Worker kernels time themselves and ship the wall seconds
            # back with each reply (the existing Pipe protocol), so
            # per-shard compute is attributed without extra IPC.
            for i, (wall, _) in enumerate(replies):
                self._profiler.add(f"shard{i}_compute", wall)
        return [payload for _, payload in replies]

    def close(self) -> None:
        """Shut down the worker pool and release shared memory."""
        self._res["pool"] = self._pool
        self._pool = None
        self._finalizer()

    def __enter__(self) -> "ShardedEngine":
        """Context-manager entry (returns the engine itself)."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit: always :meth:`close`."""
        self.close()

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def _fold_audits(self, stats, round_index: int, parts) -> None:
        """Fold per-shard audit contributions in fixed shard order.

        Ascending shards hold ascending vertex ranges, so summing in
        shard order and keeping the *first* strict maximum reproduces
        the reference scheduler's delivery-order argmax, and the first
        recorded violation is the globally first over-budget sender.
        The parent raises the strict-mode error so the exception never
        needs to cross a process boundary.
        """
        with self._profiler.phase("parent_fold"):
            best_bits = -1
            best_v = -1
            max_seqs = 0
            violation = None
            for part in parts:
                if part is None:
                    continue
                messages, total, mb, mv, ms, pv = part
                stats.messages += messages
                stats.total_bits += total
                if mb > best_bits:
                    best_bits, best_v = mb, mv
                if ms > max_seqs:
                    max_seqs = ms
                if violation is None and pv is not None:
                    violation = pv
            if best_v >= 0:
                stats.max_message_bits = best_bits
                stats.max_edge = (
                    self._id_list[best_v],
                    self._first_neighbor_id(best_v),
                )
                stats.max_sequences = max_seqs
        if self._strict and violation is not None:
            w, wbits = violation
            raise BandwidthExceededError(
                round_index,
                (self._id_list[w], self._first_neighbor_id(w)),
                wbits,
                self._budget,
            )

    def _route_halos(self, boundary_parts) -> List[Dict[int, list]]:
        """Route boundary sends to every shard holding the sender in its
        halo (parent-side; shard key ranges are disjoint)."""
        with self._profiler.phase("halo_routing"):
            merged: Dict[int, list] = {}
            for part in boundary_parts:
                merged.update(part)
            per_shard: List[Dict[int, list]] = []
            if not merged:
                return [{} for _ in self._workers]
            us = np.fromiter(merged, dtype=np.int64, count=len(merged))
            for mask in self._halo_masks:
                sel = us[mask[us]]
                per_shard.append(
                    {int(u): merged[int(u)] for u in sel.tolist()}
                )
            return per_shard

    def _swap_state(self) -> None:
        """Publish the round's winners: best tags and next-round senders
        become current (one parent-side copy, after the barrier)."""
        st = self._state
        np.copyto(st["R"], st["bestR"])
        np.copyto(st["E"], st["bestE"])
        np.copyto(st["sending"], st["sending_next"])

    # ------------------------------------------------------------------
    # Engine entry points
    # ------------------------------------------------------------------
    def run_tester_repetition(
        self, k: int, rep_seed: int, *, pruner=None
    ) -> RunResult:
        """One tester repetition, sharded: rank draws, selection and the
        multiplexed rounds run shard-by-shard (pooled or inline), audits
        merge in fixed shard order.  Verdict- and trace-identical to the
        ``reference``/``fast`` engines under the same ``rep_seed``."""
        if self._net.graph.m == 0:
            # Edgeless network: no shard has work, so the in-process
            # kernel runs the empty rounds and the pool stays down.
            return super().run_tester_repetition(k, rep_seed, pruner=pruner)
        self._check_k(k)
        pooled = self._pool_for(pruner)
        P = len(self._workers)
        self._dispatch(
            "begin", [("begin", k, [int(rep_seed)], pruner)] * P, pooled
        )
        return self._finish(self._run_tester_rounds(k, 0, pooled))

    def _run_tester_rounds(self, k: int, rep: int, pooled: bool) -> RunResult:
        """Rounds 1..fin of one repetition whose ranks are already drawn
        into row ``rep`` of the shared rank stack.  Returns the raw
        (unexported) :class:`RunResult`."""
        from ...core.algorithm1 import DetectionOutcome
        from ...core.phase1 import protocol_rounds

        g = self._net.graph
        n = g.n
        trace = ExecutionTrace(n=n, m=g.m, size_model=self._size_model)
        accept = DetectionOutcome(rejects=False)
        outputs: Dict[int, DetectionOutcome] = {v: accept for v in range(n)}
        P = len(self._workers)

        # Round 1 — ranks cross every edge; the audit is uniform, so the
        # parent records it directly (exactly as the fast engine does).
        self._record_rank_round(trace)

        # Round 2 — minimum selection + seed broadcast, per shard.
        stats = self._begin_round(trace, 2)
        parts = self._dispatch("select", [("select", rep)] * P, pooled)
        self._fold_audits(stats, 2, parts)

        halos: Optional[List[Dict[int, list]]] = None  # None → seed round
        for t in range(2, k // 2 + 1):
            stats = self._begin_round(trace, t + 1)
            cmds = [
                ("round", t, None if halos is None else halos[i])
                for i in range(P)
            ]
            replies = self._dispatch("round", cmds, pooled)
            self._fold_audits(stats, t + 1, [audit for audit, _ in replies])
            self._swap_state()
            halos = self._route_halos([bout for _, bout in replies])

        cmds = [
            ("fin", None if halos is None else halos[i]) for i in range(P)
        ]
        for rejects in self._dispatch("fin", cmds, pooled):
            for v, cycle in rejects.items():
                outputs[v] = DetectionOutcome(rejects=True, cycle=cycle)
        assert trace.num_rounds == protocol_rounds(k)
        return RunResult(outputs, trace)

    def iter_tester_chunk(self, k: int, rep_seeds, *, pruner=None):
        """Chunked tester iteration: each shard pre-draws a whole chunk
        of repetitions' ranks in one batched worker pass (``beginc``),
        then the rounds replay per repetition against the pre-drawn
        rank rows.  Telemetry export is deferred to each yield; the
        serial base path handles chunk size 1, strict audits, and
        edgeless graphs.  Note: one ``beginc`` dispatch per chunk
        replaces per-repetition ``begin`` dispatches, so the
        engine-internal ``repro_shard_dispatch_total`` diagnostics
        differ from serial runs; protocol-level counters and traces do
        not.
        """
        chunk = min(self.rep_chunk, self._rep_capacity)
        if chunk <= 1 or self._strict or self._net.graph.m == 0:
            yield from CongestEngine.iter_tester_chunk(
                self, k, rep_seeds, pruner=pruner
            )
            return
        self._check_k(k)
        seeds = [int(s) for s in rep_seeds]
        pooled = self._pool_for(pruner)
        P = len(self._workers)
        for i in range(0, len(seeds), chunk):
            batch = seeds[i: i + chunk]
            self._dispatch("beginc", [("begin", k, batch, pruner)] * P, pooled)
            for r in range(len(batch)):
                yield self._finish(self._run_tester_rounds(k, r, pooled))

    # ------------------------------------------------------------------
    def run_detect(
        self, k: int, edge_ids: Tuple[int, int], *, pruner=None
    ) -> RunResult:
        """Algorithm 1 for one edge, sharded: frontier floods run per
        shard with parent-routed boundary sequences."""
        from ...core.algorithm1 import DetectionOutcome, phase2_rounds

        self._check_k(k)
        u_id, v_id = edge_ids
        if u_id == v_id:
            raise ConfigurationError("edge endpoints must differ")
        g = self._net.graph
        n = g.n
        endpoints = [(self._net.vertex_of(nid), nid) for nid in (u_id, v_id)]
        trace = ExecutionTrace(n=n, m=g.m, size_model=self._size_model)
        accept = DetectionOutcome(rejects=False)
        outputs: Dict[int, DetectionOutcome] = {v: accept for v in range(n)}

        pooled = self._pool_for(pruner)
        P = len(self._workers)
        stats = self._begin_round(trace, 1)
        replies = self._dispatch(
            "dstart", [("dstart", k, endpoints, pruner)] * P, pooled
        )
        self._fold_audits(stats, 1, [audit for audit, _ in replies])
        halos = self._route_halos([bout for _, bout in replies])

        for t in range(2, phase2_rounds(k) + 1):
            stats = self._begin_round(trace, t)
            replies = self._dispatch(
                "dround", [("dround", t, halos[i]) for i in range(P)], pooled
            )
            self._fold_audits(stats, t, [audit for audit, _ in replies])
            halos = self._route_halos([bout for _, bout in replies])

        for rejects in self._dispatch(
            "dfin", [("dfin", halos[i]) for i in range(P)], pooled
        ):
            for v, cycle in rejects.items():
                outputs[v] = DetectionOutcome(rejects=True, cycle=cycle)
        return self._finish(RunResult(outputs, trace))


#: Latency-style histogram buckets for per-shard kernel timings.
_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

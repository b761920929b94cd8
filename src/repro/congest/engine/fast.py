"""The fast engine: batched numpy execution of the paper's protocols.

Instead of instantiating one Python program object per node and routing
dict-of-dict inboxes message by message, this backend compiles the
network once into CSR-style adjacency arrays and advances *all* nodes
per round with vectorized array operations:

* **Phase-1 rank draws** are replicated bit-exactly through
  :mod:`repro.congest.engine.fastrng` (vectorized SeedSequence → PCG64 →
  Lemire pipeline), so the fast engine consumes the exact random stream
  the reference engine's per-node Generators would; an owner of many
  edges draws from that very Generator (:func:`draw_owned_ranks`).
* **Minimum-rank selection and the §3.1 priority rule** are segmented
  minima over CSR rows (:func:`segmented_min`): each node's current
  execution tag is a ``(rank, edge index)`` pair held in two int64
  arrays — the edge index is the edge's row in the ``(a, b)``-sorted
  canonical edge table, so ``(rank, edge)`` order is exactly the
  reference ``(rank, a, b)`` order — and the per-round multiplexing
  (take the lexicographically smallest tag among your own and your
  sending neighbours') is two ``np.minimum.reduceat`` passes over the
  half-edge arrays: O(H) work, no sort.
* **Repetitions run in chunks**: one kernel advances ``C`` repetitions
  side by side over ``(C, …)`` stacks; a serial repetition is a chunk
  of one.
* **Sequence processing** (Instructions 10–27 and the final decision)
  runs through the *same* pure functions as the reference engine —
  :func:`~repro.core.algorithm1.process_phase2_round` and
  :func:`~repro.core.algorithm1.find_detection_evidence` — but only for
  the nodes that actually received sequences under their winning tag,
  which is what makes the verdict equivalence structural rather than
  statistical.
* **The bit audit is aggregate instead of per-message**: a broadcast
  costs the same bits on every incident edge, so per-round totals,
  maxima and strict-mode budget violations are computed from per-sender
  counts.  ``strict_bandwidth`` raises the same
  :class:`~repro.errors.BandwidthExceededError` (round, edge, bits,
  budget) as the reference engine; only the partially-recorded trace on
  that error path may differ.

The trace's per-round ``messages``/``total_bits``/``max_message_bits``/
``max_edge``/``max_sequences`` match the reference audit exactly (asserted in
``tests/test_engines.py``); verdict equivalence across the registry's
stress instances is asserted by ``repro.testing`` and the cross-engine
grid test.

Requirements: numpy, and node IDs below ``2**32`` (the standard
polynomial-in-n ID space up to n = 65535).  Networks outside that range
should use the reference engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import BandwidthExceededError, CongestError, ConfigurationError
from ..instrumentation import ExecutionTrace, RoundStats
from ..message import SequenceBundle
from ..network import Network
from ..scheduler import RunResult
from .base import CongestEngine
from .fastrng import MAX_UINT32_ENTROPY, RankStreams

__all__ = ["FastEngine", "draw_owned_ranks", "priority_mux", "segmented_min"]

#: Sentinel rank (and edge index) for "no tag"; real ranks are in
#: [1, m**2] and edge indices in [0, m).
_INF = np.int64(1) << np.int64(62)


#: Owners with more owned edges than this draw from their own numpy
#: Generator instead of the batched :class:`RankStreams` loop, whose
#: every step costs one numpy pass however few streams still draw (a
#: hub owning half the edges would otherwise take ~n/2 passes).
_HEAVY_OWNER = 32


def draw_owned_ranks(
    rep_seeds: Sequence[int],
    owner_ids: np.ndarray,
    counts: np.ndarray,
    offsets: np.ndarray,
    hi: int,
) -> np.ndarray:
    """Phase-1 rank draws of a set of edge owners, one row per repetition.

    Owner ``i`` (CONGEST ID ``owner_ids[i]``) draws ``counts[i]`` ranks
    in ``[1, hi]``, stored from slot ``offsets[i]`` on.  Each
    ``(repetition, owner)`` pair is an independent stream, so stacking
    repetitions preserves every stream's draw order exactly.  Returns
    ``(len(rep_seeds), counts.sum())``.
    """
    C = len(rep_seeds)
    slots = int(counts.sum())
    words = [int(s) & 0x7FFFFFFF for s in rep_seeds]
    ranks = np.zeros((C, slots), dtype=np.int64)
    heavy = counts > _HEAVY_OWNER
    # A heavy owner's stream is the reference's own Generator; one
    # ``integers(size=c)`` call consumes it exactly as c scalar draws.
    for i in np.flatnonzero(heavy).tolist():
        lo, c = int(offsets[i]), int(counts[i])
        for r, word in enumerate(words):
            seq = np.random.SeedSequence((word, int(owner_ids[i])))
            gen = np.random.default_rng(seq)
            ranks[r, lo: lo + c] = gen.integers(1, hi + 1, size=c)
    light = np.flatnonzero(~heavy)
    if not len(light):
        return ranks
    n_light = len(light)
    streams = RankStreams(
        np.repeat(np.asarray(words, dtype=np.uint64), n_light),
        np.tile(owner_ids[light], C),
    )
    rep_counts = np.tile(counts[light], C)
    rep_offsets = np.tile(offsets[light], C) + np.repeat(
        np.arange(C, dtype=np.int64) * slots, n_light
    )
    flat = ranks.reshape(-1)
    for j in range(int(counts[light].max())):
        active = np.nonzero(rep_counts > j)[0]
        flat[rep_offsets[active] + j] = streams.integers(active, 1, hi + 1)
    return ranks


def segmented_min(
    r: np.ndarray,
    e: np.ndarray,
    starts: np.ndarray,
    rows: np.ndarray,
    own_r: np.ndarray,
    own_e: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row lexicographic minimum of ``(rank, edge)`` tags over CSR rows.

    ``r`` is a ``(C, H)`` stack of candidate ranks — one row per
    repetition — and ``e`` the candidates' edge indices (broadcastable
    to ``r``), laid out in CSR order: segment ``i`` is columns
    ``starts[i]`` up to ``starts[i + 1]`` (the last one up to ``H``) and
    belongs to output row ``rows[i]``.  ``starts`` lists the non-empty
    segments only and begins at 0; ``rows`` ascends.

    Each output row starts from its own tag ``(own_r, own_e)`` — two
    ``(C, rows_out)`` arrays, the sentinel ``_INF`` meaning "no tag" —
    and returns the smallest rank among it and its segment, then the
    smallest edge among the tags tying that rank.  Rows outside
    ``rows`` keep their own tag.  Two ``np.minimum.reduceat`` passes:
    O(C·H) work, no sort.
    """
    best_r = own_r.copy()
    best_e = own_e.copy()
    if not len(rows):
        return best_r, best_e
    mine_r, mine_e = best_r[:, rows], best_e[:, rows]
    min_r = np.minimum(np.minimum.reduceat(r, starts, axis=1), mine_r)
    lens = np.diff(starts, append=r.shape[1])
    tie = r == np.repeat(min_r, lens, axis=1)
    min_e = np.minimum.reduceat(np.where(tie, e, _INF), starts, axis=1)
    best_r[:, rows] = min_r
    best_e[:, rows] = np.where(mine_r == min_r, np.minimum(min_e, mine_e), min_e)
    return best_r, best_e


def priority_mux(
    R: np.ndarray,
    E: np.ndarray,
    sending: np.ndarray,
    he_src: np.ndarray,
    he_dst: np.ndarray,
    starts: np.ndarray,
    rows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The §3.1 priority rule for every receiver, vectorized.

    ``R``/``E``/``sending`` are ``(C, n)`` stacks of every node's
    current tag and send flag; ``he_src``/``he_dst`` are the half-edges
    in CSR order, and ``starts``/``rows`` their non-empty segments as
    :func:`segmented_min` takes them.  Returns the winning tags
    ``(C, n)`` — each node's lexicographic minimum of its own tag and
    its sending neighbours' — and a ``(C, half_edges)`` mask of the
    messages that survive the rule (sender's tag equals the receiver's
    winner).
    """
    send_mask = sending[:, he_dst]
    nb_r = R[:, he_dst]
    nb_e = E[:, he_dst]
    best_r, best_e = segmented_min(
        np.where(send_mask, nb_r, _INF),
        np.where(send_mask, nb_e, _INF),
        starts,
        rows,
        R,
        E,
    )
    matches = send_mask & (nb_r == best_r[:, he_src]) & (nb_e == best_e[:, he_src])
    return best_r, best_e, matches


class FastEngine(CongestEngine):
    """Batched CSR/numpy execution (same verdicts, array speed)."""

    name = "fast"

    def __init__(self, network: Network, **kwargs) -> None:
        super().__init__(network, **kwargs)
        if self._faults is not None:
            raise ConfigurationError(
                f"fault injection requires the reference engine (the "
                f"{self.name!r} backend batches deliveries and cannot drop "
                "them individually); run with engine='reference'"
            )
        g = network.graph
        ids = np.asarray(network.ids(), dtype=np.int64)
        if ids.size and int(ids.max()) >= MAX_UINT32_ENTROPY:
            raise CongestError(
                "fast engine requires node IDs < 2**32; "
                "use the reference engine for larger ID spaces"
            )
        self._ids = ids
        self._id_list: List[int] = ids.tolist()
        indptr, indices = g.to_csr()
        self._indptr = indptr
        self._indices = indices
        degrees = np.diff(indptr)
        self._degrees = degrees
        n = g.n
        # Half-edge arrays: one (src, dst) entry per directed adjacency.
        he_src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        self._he_src = he_src
        self._he_dst = indices
        # Non-empty CSR rows and their first half-edge: the segments the
        # priority rule's segmented minima reduce over.
        self._rows = np.nonzero(degrees > 0)[0]
        self._row_starts = indptr[self._rows]
        src_id = ids[he_src]
        dst_id = ids[indices]
        a = np.minimum(src_id, dst_id)
        b = np.maximum(src_id, dst_id)
        # Canonical edge index per half-edge (IDs fit 32 bits: pack
        # exactly).  np.unique sorts, so edge order is (a, b) order.
        packed = (a.astype(np.uint64) << np.uint64(32)) | b.astype(np.uint64)
        uniq, edge_of_he = np.unique(packed, return_inverse=True)
        if len(uniq) != g.m:  # pragma: no cover - Graph guarantees simple
            raise CongestError("inconsistent edge count in CSR compile")
        self._edge_of_he = edge_of_he
        # Owned half-edges (src ID < dst ID), in the reference draw order:
        # by owner vertex, then ascending neighbour ID (packed like the
        # edge table: vertex indices and IDs both fit 32 bits).
        owned = np.nonzero(src_id < dst_id)[0]
        owner = he_src[owned].astype(np.uint64)
        draw_key = (owner << np.uint64(32)) | dst_id[owned].astype(np.uint64)
        self._owned_he = owned[np.argsort(draw_key, kind="stable")]
        owner_of_owned = he_src[self._owned_he]
        owners, counts = np.unique(owner_of_owned, return_counts=True)
        self._owners = owners
        self._owner_counts = counts
        # Slot offsets of each owner's first draw in self._owned_he order.
        self._owner_offsets = np.concatenate(
            ([0], np.cumsum(counts[:-1]))
        ) if len(counts) else np.zeros(0, dtype=np.int64)
        # Audit constants (computed through the public SizeModel API so the
        # aggregate audit charges exactly what per-message observe() would).
        model = self._size_model
        self._bits_rank_msg = model.rank_bits
        self._bits_tagged_overhead = model.bundle_bits(
            SequenceBundle(frozenset(), rank=1, edge=(0, 1))
        )
        self._bits_untagged_overhead = model.bundle_bits(SequenceBundle(frozenset()))
        self._seq_bits_cache: Dict[int, int] = {}
        self._budget = model.budget_bits(n)

    def _seq_bits(self, seq_len: int) -> int:
        """Bit cost of one length-``seq_len`` ID sequence."""
        bits = self._seq_bits_cache.get(seq_len)
        if bits is None:
            bits = self._size_model.sequence_bits((0,) * seq_len)
            self._seq_bits_cache[seq_len] = bits
        return bits

    @property
    def compiled_nbytes(self) -> int:
        """Bytes held by the compiled CSR/half-edge arrays (cache telemetry)."""
        return sum(
            arr.nbytes
            for arr in (
                self._ids, self._indptr, self._indices, self._degrees,
                self._rows, self._row_starts, self._he_src, self._he_dst,
                self._edge_of_he, self._owned_he, self._owners,
                self._owner_counts, self._owner_offsets,
            )
        )

    # ------------------------------------------------------------------
    # Audit helpers
    # ------------------------------------------------------------------
    def _begin_round(self, trace: ExecutionTrace, round_index: int) -> RoundStats:
        stats = RoundStats(round_index=round_index)
        trace.rounds.append(stats)
        return stats

    def _first_neighbor_id(self, v: int) -> int:
        """ID of the first receiver in reference delivery order (the
        smallest-index neighbour, as :meth:`Graph.neighbors` yields)."""
        return self._id_list[self._indices[self._indptr[v]]]

    def _record_broadcasts(
        self,
        stats: RoundStats,
        round_index: int,
        senders: np.ndarray,
        bits: np.ndarray,
        seqs: np.ndarray,
    ) -> None:
        """Aggregate-audit one round of broadcasts.

        ``senders`` must be ascending vertex indices (the reference
        scheduler's delivery order); a broadcast reaches every neighbour
        at the same cost, so the aggregates below reproduce exactly what
        per-message ``observe()`` calls would record — including which
        edge realises the maximum (first strictly-greater in delivery
        order == first occurrence of the argmax).
        """
        if not len(senders):
            return
        degs = self._degrees[senders]
        stats.messages += int(degs.sum())
        stats.total_bits += int((bits * degs).sum())
        imax = int(np.argmax(bits))
        v = int(senders[imax])
        stats.max_message_bits = int(bits[imax])
        stats.max_edge = (self._id_list[v], self._first_neighbor_id(v))
        stats.max_sequences = int(seqs.max())
        if self._strict:
            over = np.nonzero(bits > self._budget)[0]
            if len(over):
                w = int(senders[over[0]])
                raise BandwidthExceededError(
                    round_index,
                    (self._id_list[w], self._first_neighbor_id(w)),
                    int(bits[over[0]]),
                    self._budget,
                )

    def _bundle_bits(self, num_seqs: int, seq_len: int, *, tagged: bool) -> int:
        overhead = (
            self._bits_tagged_overhead if tagged else self._bits_untagged_overhead
        )
        return overhead + num_seqs * self._seq_bits(seq_len)

    # ------------------------------------------------------------------
    # Shared phase-2 machinery
    # ------------------------------------------------------------------
    def _gather_received(
        self, matches: np.ndarray, sent_seqs: Dict[int, list]
    ) -> Dict[int, list]:
        """Concatenate surviving senders' sequences per receiving node."""
        recv: Dict[int, list] = {}
        src = self._he_src[matches].tolist()
        dst = self._he_dst[matches].tolist()
        for v, u in zip(src, dst):
            seqs = sent_seqs.get(u)
            if not seqs:
                continue
            bucket = recv.get(v)
            if bucket is None:
                recv[v] = list(seqs)
            else:
                bucket.extend(seqs)
        return recv

    # ------------------------------------------------------------------
    # Phase 1: rank draws
    # ------------------------------------------------------------------
    def _draw_edge_ranks(self, rep_seeds: List[int]) -> np.ndarray:
        """Per-edge Phase-1 ranks, one row per repetition (row ``r`` is
        bit-identical to the reference draws under ``rep_seeds[r]``)."""
        m = self._net.graph.m
        edge_rank = np.zeros((len(rep_seeds), m), dtype=np.int64)
        if len(self._owners):
            edge_rank[:, self._edge_of_he[self._owned_he]] = draw_owned_ranks(
                rep_seeds,
                self._ids[self._owners],
                self._owner_counts,
                self._owner_offsets,
                m * m,
            )
        return edge_rank

    def _record_rank_round(self, trace: ExecutionTrace) -> None:
        """Audit round 1: every owned edge's rank crosses it once."""
        stats = self._begin_round(trace, 1)
        if not len(self._owners):
            return
        m = self._net.graph.m
        bits = self._bits_rank_msg
        stats.messages = m
        stats.total_bits = bits * m
        stats.max_message_bits = bits
        # Rank outboxes insert in ascending neighbour-ID order, so the
        # first delivery is the first owner's smallest owned neighbour.
        first_he = int(self._owned_he[0])
        stats.max_edge = (
            self._id_list[int(self._owners[0])],
            self._id_list[int(self._he_dst[first_he])],
        )
        if self._strict and bits > self._budget:
            raise BandwidthExceededError(1, stats.max_edge, bits, self._budget)

    # ------------------------------------------------------------------
    # The tester kernel
    # ------------------------------------------------------------------
    def _run_tester_chunk(self, k: int, rep_seeds: List[int], pruner) -> list:
        """Run ``len(rep_seeds)`` repetitions side by side; returns
        per-repetition :class:`RunResult` objects **without** exporting
        their traces (callers export on yield, so early exit exports
        exactly what serial execution would).

        The rank draws, round-2 selection and every round's priority
        rule run once per chunk over ``(repetitions, …)`` stacks;
        per-repetition Python sequence work and the per-round audit fold
        stay serial per repetition — they are state-dependent.  A serial
        repetition is a chunk of one.
        """
        from ...core.algorithm1 import (
            DetectionOutcome,
            find_detection_evidence,
            process_phase2_round,
        )
        from ...core.phase1 import protocol_rounds
        from ...core.pruning import HittingSetPruner
        from ...core.sequences import sort_sequences

        self._check_k(k)
        pruner = pruner if pruner is not None else HittingSetPruner()
        prof = self._profiler
        g = self._net.graph
        n = g.n
        C = len(rep_seeds)
        ids = self._id_list
        he_src, he_dst = self._he_src, self._he_dst
        starts, rows = self._row_starts, self._rows
        accept = DetectionOutcome(rejects=False)
        traces = [
            ExecutionTrace(n=n, m=g.m, size_model=self._size_model)
            for _ in range(C)
        ]
        outputs = [{v: accept for v in range(n)} for _ in range(C)]

        # Round 1 — rank draws, batched across the whole chunk.
        with prof.phase("rank_draws"):
            edge_rank = self._draw_edge_ranks(rep_seeds)
        for trace in traces:
            self._record_rank_round(trace)

        # Round 2 — per-node minimum incident tag; every non-isolated
        # node broadcasts its seed sequence under it.
        with prof.phase("min_select"):
            no_tag = np.full((C, n), _INF, dtype=np.int64)
            R, E = segmented_min(
                edge_rank[:, self._edge_of_he],
                self._edge_of_he[None, :],
                starts,
                rows,
                no_tag,
                no_tag,
            )
        sending = np.broadcast_to(self._degrees > 0, (C, n)).copy()
        sender_arr = np.nonzero(self._degrees > 0)[0]
        sent_seqs = [
            {v: [(ids[v],)] for v in sender_arr.tolist()} for _ in range(C)
        ]
        seed_bits = self._bundle_bits(1, 1, tagged=True)
        with prof.phase("audit_fold"):
            for trace in traces:
                self._record_broadcasts(
                    self._begin_round(trace, 2),
                    2,
                    sender_arr,
                    np.full(len(sender_arr), seed_bits, dtype=np.int64),
                    np.ones(len(sender_arr), dtype=np.int64),
                )

        # The round-2 send of the default pruner has a closed form: the
        # received sequences are singleton seeds (none containing the
        # receiving ID), and HittingSetPruner keeps exactly the first
        # k-1 of them in sorted order (the residues are disjoint
        # singletons, so the q = k-2 hitting-set test passes while at
        # most k-2 sequences are kept).  Skipping the generic pruner for
        # this one round removes most per-node Python work.
        seed_shortcut = type(pruner) is HittingSetPruner

        # Rounds 3..1+⌊k/2⌋ — prioritized multiplexed Phase 2.
        for t in range(2, k // 2 + 1):
            with prof.phase("priority_mux"):
                R, E, match_mask = priority_mux(
                    R, E, sending, he_src, he_dst, starts, rows
                )
            new_sending = np.zeros((C, n), dtype=bool)
            per_seq = self._seq_bits(t)
            for r in range(C):
                with prof.phase("priority_mux"):
                    matches = np.nonzero(match_mask[r])[0]
                    recv = self._gather_received(matches, sent_seqs[r])
                new_sent: Dict[int, list] = {}
                with prof.phase("round_apply"):
                    if t == 2 and seed_shortcut:
                        keep = k - 1
                        for v, lst in recv.items():
                            lst.sort()
                            my = ids[v]
                            new_sent[v] = [s + (my,) for s in lst[:keep]]
                            new_sending[r, v] = True
                    else:
                        for v, lst in recv.items():
                            send = process_phase2_round(
                                ids[v], sort_sequences(lst), k, t, pruner
                            )
                            if send:
                                new_sent[v] = send
                                new_sending[r, v] = True
                sent_seqs[r] = new_sent
                senders = np.fromiter(
                    new_sent, dtype=np.int64, count=len(new_sent)
                )
                senders.sort()
                lens = np.fromiter(
                    (len(new_sent[int(v)]) for v in senders),
                    dtype=np.int64,
                    count=len(senders),
                )
                with prof.phase("audit_fold"):
                    self._record_broadcasts(
                        self._begin_round(traces[r], t + 1),
                        t + 1,
                        senders,
                        self._bits_tagged_overhead + lens * per_seq,
                        lens,
                    )
            sending = new_sending

        # Final decision (no further communication round).  At this
        # point sent_seqs / (R, E) hold the final round's non-empty sends
        # and the tags they were sent under.
        with prof.phase("priority_mux"):
            bestR, bestE, match_mask = priority_mux(
                R, E, sending, he_src, he_dst, starts, rows
            )
        # Nodes whose winning tag moved off the one they last sent under.
        switched = (R != bestR) | (E != bestE)
        runs = []
        for r in range(C):
            with prof.phase("priority_mux"):
                matches = np.nonzero(match_mask[r])[0]
                recv = self._gather_received(matches, sent_seqs[r])
            with prof.phase("decision"):
                stale = set(np.flatnonzero(switched[r]).tolist())
                for v, lst in recv.items():
                    received = sort_sequences(lst)
                    own = sent_seqs[r].get(v, [])
                    if own and v in stale:
                        own = []  # stale tag: the node switched executions
                    cycle = find_detection_evidence(ids[v], k, own, received)
                    if cycle is not None:
                        outputs[r][v] = DetectionOutcome(
                            rejects=True, cycle=cycle
                        )
            assert traces[r].num_rounds == protocol_rounds(k)
            runs.append(RunResult(outputs[r], traces[r]))
        return runs

    # ------------------------------------------------------------------
    # Engine entry points
    # ------------------------------------------------------------------
    def run_tester_repetition(
        self, k: int, rep_seed: int, *, pruner=None
    ) -> RunResult:
        """One tester repetition: the batched kernel on a chunk of one
        seed.  Verdict-identical to the reference engine under the same
        ``rep_seed``."""
        (run,) = self._run_tester_chunk(k, [int(rep_seed)], pruner)
        return self._finish(run)

    def iter_tester_chunk(self, k: int, rep_seeds, *, pruner=None):
        """Chunked tester iteration: :attr:`rep_chunk` repetitions per
        kernel pass, each repetition's telemetry export deferred to its
        yield.  Chunk size 1 and strict-bandwidth audits take the base
        loop of :meth:`run_tester_repetition` calls (a strict raise must
        happen in execution order).
        """
        if self.rep_chunk <= 1 or self._strict:
            yield from super().iter_tester_chunk(k, rep_seeds, pruner=pruner)
            return
        seeds = [int(s) for s in rep_seeds]
        for i in range(0, len(seeds), self.rep_chunk):
            for run in self._run_tester_chunk(
                k, seeds[i: i + self.rep_chunk], pruner
            ):
                yield self._finish(run)

    # ------------------------------------------------------------------
    def run_detect(
        self, k: int, edge_ids: Tuple[int, int], *, pruner=None
    ) -> RunResult:
        """Algorithm 1 for one edge over CSR arrays: frontier-based
        delivery, shared pure per-node instructions, aggregate audit."""
        from ...core.algorithm1 import (
            DetectionOutcome,
            find_detection_evidence,
            phase2_rounds,
            process_phase2_round,
        )
        from ...core.pruning import HittingSetPruner
        from ...core.sequences import sort_sequences
        from ...errors import ConfigurationError

        self._check_k(k)
        u_id, v_id = edge_ids
        if u_id == v_id:
            raise ConfigurationError("edge endpoints must differ")
        pruner = pruner if pruner is not None else HittingSetPruner()
        prof = self._profiler
        g = self._net.graph
        n = g.n
        ids = self._id_list
        indptr, indices = self._indptr, self._indices
        trace = ExecutionTrace(n=n, m=g.m, size_model=self._size_model)
        accept = DetectionOutcome(rejects=False)
        outputs: Dict[int, DetectionOutcome] = {v: accept for v in range(n)}

        # Round 1: the endpoints broadcast their singleton sequences.
        stats = self._begin_round(trace, 1)
        sent: Dict[int, list] = {}
        for nid in (u_id, v_id):
            vtx = self._net.vertex_of(nid)
            if self._degrees[vtx] > 0:
                sent[vtx] = [(nid,)]
        with prof.phase("audit_fold"):
            self._record_broadcasts(
                stats,
                1,
                np.array(sorted(sent), dtype=np.int64),
                np.full(
                    len(sent),
                    self._bundle_bits(1, 1, tagged=False),
                    dtype=np.int64,
                ),
                np.ones(len(sent), dtype=np.int64),
            )

        def deliver(senders: Dict[int, list]) -> Dict[int, list]:
            recv: Dict[int, list] = {}
            for s in senders:
                seqs = senders[s]
                for w in indices[indptr[s]: indptr[s + 1]].tolist():
                    bucket = recv.get(w)
                    if bucket is None:
                        recv[w] = list(seqs)
                    else:
                        bucket.extend(seqs)
            return recv

        # Rounds 2..⌊k/2⌋: receive, prune, append, broadcast.
        for t in range(2, phase2_rounds(k) + 1):
            stats = self._begin_round(trace, t)
            with prof.phase("priority_mux"):
                recv = deliver(sent)
            sent = {}
            with prof.phase("round_apply"):
                for v, lst in recv.items():
                    send = process_phase2_round(
                        ids[v], sort_sequences(lst), k, t, pruner
                    )
                    if send:
                        sent[v] = send
            per_seq = self._seq_bits(t)
            sender_arr = np.fromiter(sent, dtype=np.int64, count=len(sent))
            sender_arr.sort()
            lens = np.fromiter(
                (len(sent[int(v)]) for v in sender_arr),
                dtype=np.int64,
                count=len(sender_arr),
            )
            with prof.phase("audit_fold"):
                self._record_broadcasts(
                    stats,
                    t,
                    sender_arr,
                    self._bits_untagged_overhead + lens * per_seq,
                    lens,
                )

        # Final decision from the last round's deliveries.
        with prof.phase("priority_mux"):
            recv = deliver(sent)
        with prof.phase("decision"):
            for v, lst in recv.items():
                received = sort_sequences(lst)
                cycle = find_detection_evidence(
                    ids[v], k, sent.get(v, []), received
                )
                if cycle is not None:
                    outputs[v] = DetectionOutcome(rejects=True, cycle=cycle)
        return self._finish(RunResult(outputs, trace))

"""The fast engine: batched numpy execution of the paper's protocols.

Instead of instantiating one Python program object per node and routing
dict-of-dict inboxes message by message, this backend compiles the
network once into CSR-style adjacency arrays and advances *all* nodes
per round with vectorized array operations:

* **Phase-1 rank draws** are one call of
  :func:`~repro.core.phase1.edge_ranks` per repetition over the
  canonical edge table — the very function each reference node calls
  over its owned edges, so both engines draw the same ranks by
  construction.
* **Minimum-rank selection and the §3.1 priority rule** are scattered
  minima (:func:`segmented_min`): each node's current execution tag is
  one int64 that orders as its ``(rank, edge index)`` pair — the edge
  index is the edge's row in the ``(a, b)``-sorted canonical edge table,
  so ``(rank, edge)`` order is exactly the reference ``(rank, a, b)``
  order.  The tag is ``rank·m + edge`` up to ``_PACKED_MAX_M`` edges,
  and the edge's position in one stable sort of the ranks beyond.
  Selection scatters each edge's tag to its two endpoints; the
  per-round multiplexing (take the smallest tag among your own and your
  sending neighbours') scatters over the half-edges.  Both are
  ``np.minimum.at`` passes: O(m) work per round, no sort and no per-row
  cost.
* **Sequence processing** (Instructions 10–27 and the final decision)
  holds each repetition's sends as int64 ID pools — node ``v``'s are
  the rows ``ptr[v]:ptr[v + 1]`` of one ``(rows, t)`` matrix.  Once its
  tag is fixed, a node prunes and decides exactly as in Algorithm 1, so
  the tester runs those steps on the edge axis's functions (below), with
  the receiving vertex as the slot.  The default pruner's round-2 sends
  are a closed form over the matched half-edges (each node's first
  ``k − 1`` matched neighbours by ID); at rounds ``t ≥ 3``, and at every
  round for other pruners, delivery is one array gather sorted by
  (receiver, sequence).  The decision is prefiltered by Lemma 1 (a node
  whose decision inputs all start at one endpoint cannot reject): each
  sender's first-ID range is scattered to its matched receivers, and
  only the nodes that pass collect their received rows.
* **Algorithm 1 over an edge axis** (:meth:`FastEngine.first_cycle_edge`,
  the exact scan of :func:`~repro.dynamic.monitor.full_redetect`) runs
  one execution per edge of a block side by side over the compiled
  instance, as ``(slot, holder, sequence)`` int64 pools: broadcast is a
  CSR expansion plus one sort, Instruction 12 a mask, and the pruner
  runs once per (slot, vertex) group — under the default pruner only on
  groups of two or more rows at rounds ``t ≥ 3``.  The decision's exact
  Lemma-1 prefilter leaves
  :func:`~repro.core.algorithm1.find_detection_evidence` only the groups
  that can still reject.  The pruner and the evidence search are the
  *same* pure functions the reference nodes call, which is what makes
  the verdict equivalence structural rather than statistical.
  Executions through different edges never interact (Algorithm 1 has no
  priority rule), so each one's outputs are
  :meth:`FastEngine.run_detect`'s.  Blocks double while they fit a row
  budget, and a block is cut to fit it before each broadcast, so a pool
  of two or more executions never exceeds it.  Single-edge detection
  stays per node: a block of one with the audit is slower than
  :meth:`FastEngine.run_detect` on small balls (``docs/engines.md``).
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

Requirements: numpy.  Node IDs are packed as their dense ranks, so the
engine takes every ID space :class:`~repro.congest.network.Network`
accepts (IDs below ``2**63``); compile reads the ID array and the ranks
that ``Network`` validated once (``id_array``, ``id_ranks``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ...errors import BandwidthExceededError, CongestError, ConfigurationError
from ..instrumentation import ExecutionTrace, RoundStats
from ..message import SequenceBundle
from ..network import Network
from ..scheduler import RunResult
from .base import CongestEngine

__all__ = ["FastEngine", "priority_mux", "segmented_min"]

#: Sentinel tag for "no tag": every real tag is below it.
_INF = np.int64(1) << np.int64(62)

#: Largest edge count whose tags pack as ``rank * m + edge``: ranks lie
#: in [1, m**2], so every packed tag is below ``m**3 + m``, and this is
#: the largest m with ``m**3 + m < _INF``.  Larger graphs take dense
#: positions from a stable sort instead (``_edge_tags``).
_PACKED_MAX_M = 1_664_510

#: One round's sequences of one repetition (see ``FastEngine._pool``).
Pool = Tuple[np.ndarray, np.ndarray]

#: One round's sequences of a block of Algorithm-1 executions, as
#: ``(slot, holder, mat)`` (see ``FastEngine._broadcast``).
EdgePool = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Row budget of :meth:`FastEngine.first_cycle_edge`: before each
#: broadcast a block of edges drops the trailing executions that would
#: take it past this many rows, keeping at least one edge.
_SCAN_ROW_BUDGET = 4096


def _edge_tags(rank: np.ndarray) -> np.ndarray:
    """One int64 execution tag per edge, in ``(rank, edge)`` order.

    ``rank[e]`` is edge ``e``'s Phase-1 rank.  Tags are distinct, below
    ``_INF``, and ``tag[e] < tag[f]`` exactly when ``(rank[e], e) <
    (rank[f], f)``.  Up to ``_PACKED_MAX_M`` edges the tag is ``rank·m +
    e``; beyond, it is the edge's position in one stable ``argsort`` of
    the ranks, which keeps tied ranks in edge order.
    """
    m = len(rank)
    if m <= _PACKED_MAX_M:
        return rank * m + np.arange(m, dtype=np.int64)
    tags = np.empty(m, dtype=np.int64)
    tags[np.argsort(rank, kind="stable")] = np.arange(m, dtype=np.int64)
    return tags


def segmented_min(t: np.ndarray, owner: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Per-row minimum tag, scattered.

    ``t`` holds candidate tags (``_edge_tags``) and ``owner`` the output
    row of each, in any order (for the half-edges, ``he_src``).  Each
    output row starts from its own tag ``own`` — the sentinel ``_INF``
    meaning "no tag" — and returns the smallest tag among it and the
    entries it owns; a row that owns none keeps its own tag.  One
    ``np.minimum.at`` pass: linear work, no sort, no per-row cost.
    """
    best = own.copy()
    np.minimum.at(best, owner, t)
    return best


def priority_mux(
    T: np.ndarray,
    sending: np.ndarray,
    he_src: np.ndarray,
    he_dst: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The §3.1 priority rule for every receiver, vectorized.

    ``T``/``sending`` are every node's current tag and send flag;
    ``he_src``/``he_dst`` are the half-edges (receiver, sender) in CSR
    order; every sending node's tag is below ``_INF``.  Returns ``(best,
    matches)``: each node's winning tag — the minimum of its own and its
    sending neighbours' — and a per-half-edge mask of the messages that
    survive the rule (the sender sends, and its tag equals the
    receiver's winner).  Senders are masked per node, before the one
    gather of tags over the half-edges.
    """
    nb = np.where(sending, T, _INF)[he_dst]
    best = segmented_min(nb, he_src, T)
    return best, (nb == best[he_src]) & (nb != _INF)


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
        ids = network.id_array
        self._ids = ids
        self._id_list: Tuple[int, ...] = network.ids()
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
        # Non-empty CSR rows: the nodes that send their seed at round 2.
        self._rows = np.nonzero(degrees > 0)[0]
        # Dense ID ranks order vertices as their IDs do, and pack into
        # int64 keys whatever the ID space (n**2 < 2**63).
        id_rank = network.id_ranks
        src_rank = id_rank[he_src]
        dst_rank = id_rank[indices]
        # The canonical edge table, in (smaller ID, larger ID) order: each
        # edge's owned half-edge (src ID < dst ID), sorted by its ranks
        # packed into one key.
        owned = src_rank < dst_rank
        mine = np.flatnonzero(owned)
        key = src_rank[mine]
        key *= n
        key += dst_rank[mine]
        mine = mine[np.argsort(key)]
        if len(mine) != g.m:  # pragma: no cover
            raise CongestError("inconsistent edge count in CSR compile")
        # The edge table's endpoint vertices — where the minimum-rank
        # selection scatters each edge's tag, and the scan's endpoints —
        # and IDs, the rank draws' keys.
        self._edge_ends = np.stack((he_src[mine], indices[mine]))
        self._edge_a, self._edge_b = ids[self._edge_ends]
        # Half-edges by (receiving vertex, sender ID), packed like the
        # edge table (keys are unique).  This is the order of the
        # round-2 seeds each node receives.  (Its keys reuse src_rank's
        # buffer, which nothing reads any more.  CSR order already
        # groups them by receiver, so the merge sort of kind="stable"
        # runs faster than the default, and unique keys sort the same.)
        by_id = np.multiply(he_src, n, out=src_rank)
        by_id += dst_rank
        self._he_by_id = np.argsort(by_id, kind="stable")
        # Reference rank outboxes go out by owner vertex, each in
        # ascending neighbour-ID order: the round-1 audit's first
        # delivery is the first owned half-edge in that order.
        self._first_owned_he = (
            int(self._he_by_id[np.argmax(owned[self._he_by_id])]) if g.m else -1
        )
        # Audit constants (computed through the public SizeModel API so the
        # aggregate audit charges exactly what per-message observe() would).
        model = self._size_model
        self._bits_rank_msg = model.rank_bits
        self._bits_tagged_overhead = model.bundle_bits(
            SequenceBundle(frozenset(), rank=1, edge=(0, 1))
        )
        self._bits_untagged_overhead = model.bundle_bits(SequenceBundle(frozenset()))
        self._seq_bits_cache: Dict[int, int] = {}
        # One more than the largest ID: the radix of packed scan sort keys.
        self._id_base = int(ids.max()) + 1 if n else 1
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
        """Bytes held by the compiled CSR/half-edge arrays (cache telemetry;
        ``_he_dst`` is ``_indices``, counted once)."""
        return sum(
            arr.nbytes
            for arr in (
                self._ids,
                self._indptr,
                self._indices,
                self._degrees,
                self._rows,
                self._he_src,
                self._edge_ends,
                self._edge_a,
                self._edge_b,
                self._he_by_id,
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
    # Phase-2 sequence pools
    # ------------------------------------------------------------------
    # A pool is one repetition's sends of one round as ``(mat, ptr)``:
    # node ``v`` sent the rows ``ptr[v]:ptr[v + 1]`` of the ``(rows, t)``
    # int64 ID matrix ``mat``, in the order it sent them.  What nodes
    # receive is an edge pool (see "Algorithm 1 over an edge axis") whose
    # slot and holder are the receiving vertex.
    @staticmethod
    def _pool(mat: np.ndarray, counts: np.ndarray) -> Pool:
        """A pool from its rows and each node's row count."""
        ptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        return mat, ptr

    @staticmethod
    def _blocks(ptr: np.ndarray, senders: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The pool rows of each sender's block, concatenated in
        ``senders`` order, and each block's length."""
        lens = ptr[senders + 1] - ptr[senders]
        at = np.repeat(ptr[senders] - (np.cumsum(lens) - lens), lens)
        at += np.arange(len(at))
        return at, lens

    def _order(
        self, lead: np.ndarray, span: int, mat: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """The order that sorts the rows ``mat[rows]`` by (``lead``,
        sequence), for ``0 <= lead < span``: one ``argsort`` of a packed
        int64 key when it fits, a ``lexsort`` otherwise."""
        base = self._id_base
        if span * base ** mat.shape[1] < 2**63:
            key = lead
            for col in mat.T:
                key = key * base + col[rows]
            return np.argsort(key)
        return np.lexsort((*mat[rows].T[::-1], lead))

    def _gather(self, he: np.ndarray, sent: Pool) -> EdgePool:
        """What the receivers of the half-edges ``he`` get: each one's
        sender block, as an edge pool whose slot and holder are the
        receiving vertex, sorted by (receiver, sequence).

        Delivery for the pruner at rounds ``t >= 3``, and at round 2 for
        a pruner other than :class:`~repro.core.pruning.HittingSetPruner`
        (:meth:`_edge_round`), and for the decision at the nodes that
        pass its prefilter (:meth:`_edge_decide`).
        """
        mat, ptr = sent
        at, lens = self._blocks(ptr, self._he_dst[he])
        recv = np.repeat(self._he_src[he], lens)
        order = self._order(recv, len(ptr) - 1, mat, at)
        recv = recv[order]
        return recv, recv, mat[at[order]]

    def _seed_round(self, matched: np.ndarray, k: int) -> Pool:
        """Round-2 sends of :class:`~repro.core.pruning.HittingSetPruner`
        in closed form.

        A node receives one singleton seed per matched neighbour, none
        holding its own ID.  The residues of kept seeds are disjoint
        singletons, so the ``q = k - 2`` hitting-set test keeps exactly
        the first ``k - 1`` seeds in sorted order: each node sends
        ``(seed, own ID)`` for its first ``k - 1`` matched neighbours by
        ID.  Only the matched half-edges are ranked.
        """
        order = self._he_by_id
        # The matched half-edges by (receiver, sender ID).  (Indexed
        # through ``flatnonzero``: a boolean index of an irregular mask
        # this long takes ~4x as long.)
        hm = order[np.flatnonzero(matched[order])]
        recv = self._he_src[hm]
        got = np.bincount(recv, minlength=len(self._ids))
        # A seed's rank among its receiver's: its position past the
        # receiver's first.
        rank = np.arange(len(hm)) - (np.cumsum(got) - got)[recv]
        keep = hm[rank < k - 1]
        mat = np.stack(
            (self._ids[self._he_dst[keep]], self._ids[self._he_src[keep]]), axis=1
        )
        return self._pool(mat, np.minimum(got, k - 1))

    @staticmethod
    def _first_id_range(pool: Pool) -> Tuple[np.ndarray, np.ndarray]:
        """Per node, the smallest and largest first ID of its sequences
        (the int64 maximum and ``-1`` for a node holding none)."""
        mat, ptr = pool
        n = len(ptr) - 1
        holder = np.repeat(np.arange(n), np.diff(ptr))
        lo = np.full(n, np.iinfo(np.int64).max)
        hi = np.full(n, -1, dtype=np.int64)
        np.minimum.at(lo, holder, mat[:, 0])
        np.maximum.at(hi, holder, mat[:, 0])
        return lo, hi

    def _decide(
        self, k: int, matched: np.ndarray, sent: Pool, stale: np.ndarray
    ) -> Dict[int, Tuple[int, ...]]:
        """Instructions 31–42 for one repetition: ``{vertex: cycle}`` of
        the rejecting nodes.

        ``matched`` masks the half-edges whose final message survives the
        priority rule, ``sent`` is the final round's send pool and
        ``stale`` marks the nodes whose tag switched off the one they
        last sent under.

        Prefilter (Lemma 1): every sequence held under a tag starts at an
        endpoint of that tag's edge, and ``|L1 ∪ L2 ∪ {ID}| = k`` needs
        two disjoint sequences — two received ones for odd ``k``; the
        node's own last send (unless stale) and a received one for even
        ``k`` — which start at different endpoints.  So only nodes whose
        decision inputs start at two different IDs can reject.  Each
        sender's first-ID range over its sends is scattered to its
        matched receivers (and, for even ``k``, taken as the node's own
        unless stale), so no row is delivered to find them.  A node that
        passes knows its tag edge's endpoints: they are its two first
        IDs.  Only those nodes collect what they received, sorted, and
        :meth:`_edge_decide` runs on them with the receiving vertex as
        the slot and, for even ``k``, the non-stale ones' own sends:
        its exact prefilter leaves
        :func:`~repro.core.algorithm1.find_detection_evidence` only the
        nodes that can still reject.
        """
        mat, ptr = sent
        n = len(ptr) - 1
        hm = np.flatnonzero(matched)
        recv, senders = self._he_src[hm], self._he_dst[hm]
        send_lo, send_hi = self._first_id_range(sent)
        lo = np.full(n, np.iinfo(np.int64).max)
        hi = np.full(n, -1, dtype=np.int64)
        np.minimum.at(lo, recv, send_lo[senders])
        np.maximum.at(hi, recv, send_hi[senders])
        got = lo <= hi
        if k % 2 == 0:
            lo = np.where(stale, lo, np.minimum(lo, send_lo))
            hi = np.where(stale, hi, np.maximum(hi, send_hi))
        can = got & (lo != hi)
        keep = hm[can[recv]]
        if not len(keep):
            return {}
        own = None
        if k % 2 == 0:
            mine = np.flatnonzero(can & ~stale)
            at, lens = self._blocks(ptr, mine)
            holder = np.repeat(mine, lens)
            own = holder, holder, mat[at]
        rejects = self._edge_decide(k, lo, hi, self._gather(keep, sent), own)
        return {v: cycle for _, v, cycle in rejects}

    # ------------------------------------------------------------------
    # Phase 1: rank draws
    # ------------------------------------------------------------------
    def _draw_edge_ranks(self, rep_seed: int) -> np.ndarray:
        """Per-edge Phase-1 ranks under ``rep_seed``, in edge-table order
        (each one the reference owner's draw for that edge)."""
        from ...core.phase1 import edge_ranks

        m = self._net.graph.m
        if not m:
            return np.zeros(0, dtype=np.int64)
        return edge_ranks(rep_seed, self._edge_a, self._edge_b, m)

    def _record_rank_round(self, trace: ExecutionTrace) -> None:
        """Audit round 1: every owned edge's rank crosses it once."""
        stats = self._begin_round(trace, 1)
        h = self._first_owned_he
        if h < 0:
            return
        m = self._net.graph.m
        bits = self._bits_rank_msg
        stats.messages = m
        stats.total_bits = bits * m
        stats.max_message_bits = bits
        stats.max_edge = (
            self._id_list[int(self._he_src[h])],
            self._id_list[int(self._he_dst[h])],
        )
        if self._strict and bits > self._budget:
            raise BandwidthExceededError(1, stats.max_edge, bits, self._budget)

    # ------------------------------------------------------------------
    # Engine entry points
    # ------------------------------------------------------------------
    def run_tester_repetition(
        self, k: int, rep_seed: int, *, pruner=None
    ) -> RunResult:
        """One tester repetition, verdict-identical to the reference
        engine under the same ``rep_seed``.

        The rank draws, minimum-rank selection and every round's
        priority rule are array passes over the compiled edges and
        half-edges; the sequences are int64 ID pools.  Round 2 of
        :class:`~repro.core.pruning.HittingSetPruner` is a closed form
        (:meth:`_seed_round`).  Every other round prunes its sorted
        deliveries with :meth:`_edge_round`, and the decision runs
        :meth:`_edge_decide` at the nodes its first-ID prefilter passes
        — the functions of the edge-axis scan, with the receiving vertex
        as the slot.  So the pure pruner runs only per group that needs
        it, and the evidence search only where Lemma 1 allows a reject.
        """
        from ...core.algorithm1 import DetectionOutcome, DetectionOutcomes
        from ...core.phase1 import protocol_rounds
        from ...core.pruning import HittingSetPruner

        self._check_k(k)
        pruner = pruner if pruner is not None else HittingSetPruner()
        prof = self._profiler
        g = self._net.graph
        n = g.n
        he_src, he_dst = self._he_src, self._he_dst
        rows = self._rows
        trace = ExecutionTrace(n=n, m=g.m, size_model=self._size_model)

        # Round 1 — every owner ships its edges' ranks.
        with prof.phase("rank_draws"):
            edge_rank = self._draw_edge_ranks(rep_seed)
        self._record_rank_round(trace)

        # Round 2 — per-node minimum incident tag; every non-isolated
        # node broadcasts its seed sequence under it.
        with prof.phase("min_select"):
            tags = _edge_tags(edge_rank)
            u, v = self._edge_ends
            T = segmented_min(
                tags, v, segmented_min(tags, u, np.full(n, _INF, dtype=np.int64))
            )
        sending = self._degrees > 0
        pool = self._pool(self._ids[rows][:, None], sending.astype(np.int64))
        seed_bits = self._bundle_bits(1, 1, tagged=True)
        with prof.phase("audit_fold"):
            self._record_broadcasts(
                self._begin_round(trace, 2),
                2,
                rows,
                np.full(len(rows), seed_bits, dtype=np.int64),
                np.ones(len(rows), dtype=np.int64),
            )
        closed_form = type(pruner) is HittingSetPruner

        # Rounds 3..1+⌊k/2⌋ — prioritized multiplexed Phase 2.
        for t in range(2, k // 2 + 1):
            with prof.phase("priority_mux"):
                T, matched = priority_mux(T, sending, he_src, he_dst)
            if t == 2 and closed_form:
                with prof.phase("round_apply"):
                    pool = self._seed_round(matched, k)
            else:
                with prof.phase("priority_mux"):
                    recv = self._gather(np.flatnonzero(matched), pool)
                with prof.phase("round_apply"):
                    _, holder, mat = self._edge_round(recv, k, t, pruner)
                    pool = self._pool(mat, np.bincount(holder, minlength=n))
            counts = np.diff(pool[1])
            sending = counts > 0
            senders = np.flatnonzero(sending)
            per_seq = self._seq_bits(t)
            with prof.phase("audit_fold"):
                self._record_broadcasts(
                    self._begin_round(trace, t + 1),
                    t + 1,
                    senders,
                    self._bits_tagged_overhead + counts[senders] * per_seq,
                    counts[senders],
                )

        # Final decision (no further communication round).  At this
        # point pool / T hold the final round's sends and the tags they
        # were sent under.
        with prof.phase("priority_mux"):
            best, matched = priority_mux(T, sending, he_src, he_dst)
        # Nodes whose winning tag moved off the one they last sent under.
        switched = T != best
        with prof.phase("decision"):
            found = self._decide(k, matched, pool, switched)
        rejects = {v: DetectionOutcome(True, cycle) for v, cycle in found.items()}
        assert trace.num_rounds == protocol_rounds(k)
        return self._finish(RunResult(DetectionOutcomes(n, rejects), trace))

    # ------------------------------------------------------------------
    def run_detect(
        self, k: int, edge_ids: Tuple[int, int], *, pruner=None
    ) -> RunResult:
        """Algorithm 1 for one edge over CSR arrays: frontier-based
        delivery, shared pure per-node instructions, aggregate audit."""
        from ...core.algorithm1 import (
            DetectionOutcome,
            DetectionOutcomes,
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
        rejects: Dict[int, DetectionOutcome] = {}

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
                    rejects[v] = DetectionOutcome(rejects=True, cycle=cycle)
        return self._finish(RunResult(DetectionOutcomes(n, rejects), trace))

    # ------------------------------------------------------------------
    # Algorithm 1 over an edge axis
    # ------------------------------------------------------------------
    # An edge pool holds one round's sequences of many executions of
    # Algorithm 1, one per edge of a block, as ``(slot, holder, mat)``:
    # row ``i`` is the ID sequence ``mat[i]``, held by vertex
    # ``holder[i]`` in the execution through block edge ``slot[i]``.
    # Rows stay sorted by (slot, holder, sequence), so each (slot,
    # vertex) group lists its sequences in ``sort_sequences`` order.
    # Executions never interact: Algorithm 1 has no priority rule.
    def _broadcast(self, pool: EdgePool) -> EdgePool:
        """What every vertex receives when each row's holder broadcasts
        it: one row per (row, neighbour), sorted by (slot, receiver,
        sequence)."""
        slot, holder, mat = pool
        deg = self._degrees[holder]
        src = np.repeat(np.arange(len(holder)), deg)
        first = np.repeat(self._indptr[holder] - (np.cumsum(deg) - deg), deg)
        recv = self._indices[first + np.arange(len(src))]
        n = len(self._ids)
        span = (int(slot[-1]) + 1) * n if len(slot) else 0
        order = self._order(slot[src] * n + recv, span, mat, src)
        src = src[order]
        return slot[src], recv[order], mat[src]

    @staticmethod
    def _contains(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Per row of ``mat``: whether the row holds its value of ``x``."""
        hit = mat[:, 0] == x
        for col in mat.T[1:]:
            hit |= col == x
        return hit

    @staticmethod
    def _groups(
        slot: np.ndarray, holder: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """First and past-the-last row of every (slot, holder) group of a
        sorted edge pool."""
        new = np.ones(len(slot), dtype=bool)
        new[1:] = (slot[1:] != slot[:-1]) | (holder[1:] != holder[:-1])
        starts = np.flatnonzero(new)
        return starts, np.append(starts[1:], len(slot))

    def _edge_round(self, recv: EdgePool, k: int, t: int, pruner) -> EdgePool:
        """Instructions 10–27 of round ``t`` at every (slot, holder) group
        of a sorted pool: the round's sends, sorted the same way.

        Instruction 12 is one mask.  The pruner then runs once per group,
        on its rows in ``sort_sequences`` order, and the kept rows keep
        that order, as :class:`~repro.core.pruning.Pruner` returns them.
        Under :class:`~repro.core.pruning.HittingSetPruner` a lone row is
        always kept, and so is every row at round 2 of an Algorithm-1
        pool, where a group holds at most the two endpoint singletons; so
        that pruner runs only on groups of two or more rows at rounds
        ``t >= 3``.  The round-2 shortcut rests on that shape, which a
        tester pool has only through the priority rule (a node's matched
        round-2 senders are its winning edge's endpoints); the tester's
        round 2 under that pruner is :meth:`_seed_round`, which does not
        rely on it.
        """
        from ...core.pruning import HittingSetPruner

        slot, holder, mat = recv
        me = self._ids[holder]
        keep = ~self._contains(mat, me)
        slot, holder, mat, me = slot[keep], holder[keep], mat[keep], me[keep]
        lazy = type(pruner) is HittingSetPruner
        if len(slot) and not (lazy and t == 2):
            starts, ends = self._groups(slot, holder)
            if lazy:
                multi = ends - starts > 1
                starts, ends = starts[multi], ends[multi]
            if len(starts):
                # The groups' rows, gathered: group i is rows[lo_i:hi_i].
                sizes = ends - starts
                his = np.cumsum(sizes)
                at = np.repeat(starts - (his - sizes), sizes) + np.arange(his[-1])
                rows = list(map(tuple, mat[at].tolist()))
                select = pruner.select
                flags: List[bool] = []
                for lo, hi in zip((his - sizes).tolist(), his.tolist()):
                    kept = set(select(rows[lo:hi], k, t))
                    flags += [row in kept for row in rows[lo:hi]]
                keep = np.ones(len(slot), dtype=bool)
                keep[at] = flags
                slot, holder = slot[keep], holder[keep]
                mat, me = mat[keep], me[keep]
        return slot, holder, np.hstack((mat, me[:, None]))

    @classmethod
    def _endpoint_kinds(
        cls, mat: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per row: starts at ``a`` without ``b``; starts at ``b`` without
        ``a`` (``a``/``b`` are the row's execution's endpoint IDs)."""
        first = mat[:, 0]
        from_a = (first == a) & ~cls._contains(mat, b)
        from_b = (first == b) & ~cls._contains(mat, a)
        return from_a, from_b

    def _edge_decide(
        self,
        k: int,
        a_ids: np.ndarray,
        b_ids: np.ndarray,
        recv: EdgePool,
        own: Optional[EdgePool],
    ) -> Iterator[Tuple[int, int, Tuple[int, ...]]]:
        """Instructions 31–42 in every execution: the rejecting ``(slot,
        vertex, cycle)`` triples, in (slot, vertex) order.

        ``a_ids``/``b_ids`` give each slot's endpoint IDs, and ``own``,
        read for even ``k`` only, holds the vertices' own last sends,
        sorted like ``recv``.  Exact prefilter (Lemma 1): ``|L1 ∪ L2 ∪
        {ID}| = k`` needs two disjoint sequences that start at different
        endpoints, so each misses the other's endpoint.  A (slot, vertex)
        group can reject only if it holds a received sequence of one such
        kind that also misses the vertex's ID, and one of the other kind:
        received too for odd ``k``, from the vertex's own last send for
        even ``k``.  Only those groups run
        :func:`~repro.core.algorithm1.find_detection_evidence`.
        """
        from ...core.algorithm1 import find_detection_evidence

        slot, holder, mat = recv
        if not len(slot) or (k % 2 == 0 and not len(own[0])):
            return
        starts, ends = self._groups(slot, holder)
        from_a, from_b = self._endpoint_kinds(mat, a_ids[slot], b_ids[slot])
        lacks_me = ~self._contains(mat, self._ids[holder])
        recv_a = np.logical_or.reduceat(from_a & lacks_me, starts)
        recv_b = np.logical_or.reduceat(from_b & lacks_me, starts)
        if k % 2:
            can = recv_a & recv_b
        else:
            o_slot, o_holder, o_mat = own
            o_starts, o_ends = self._groups(o_slot, o_holder)
            o_from_a, o_from_b = self._endpoint_kinds(
                o_mat, a_ids[o_slot], b_ids[o_slot]
            )
            n = len(self._ids)
            o_key = o_slot[o_starts] * n + o_holder[o_starts]
            key = slot[starts] * n + holder[starts]
            at = np.minimum(np.searchsorted(o_key, key), len(o_key) - 1)
            sent = o_key[at] == key
            own_a = sent & np.logical_or.reduceat(o_from_a, o_starts)[at]
            own_b = sent & np.logical_or.reduceat(o_from_b, o_starts)[at]
            can = (recv_a & own_b) | (recv_b & own_a)
        for g in np.flatnonzero(can).tolist():
            lo, hi = starts[g], ends[g]
            s, v = int(slot[lo]), int(holder[lo])
            own_seqs = []
            if k % 2 == 0:
                o = at[g]
                own_seqs = list(map(tuple, o_mat[o_starts[o] : o_ends[o]].tolist()))
            received = list(map(tuple, mat[lo:hi].tolist()))
            cycle = find_detection_evidence(self._id_list[v], k, own_seqs, received)
            if cycle is not None:
                yield s, v, cycle

    def _fit_budget(self, pool: EdgePool, edges: int) -> Tuple[EdgePool, int]:
        """The leading executions of a block of ``edges`` whose broadcast
        of ``pool`` stays within ``_SCAN_ROW_BUDGET`` rows (at least
        one), with their count."""
        slot, holder, mat = pool
        rows = np.cumsum(self._degrees[holder])
        if not len(rows) or rows[-1] <= _SCAN_ROW_BUDGET:
            return pool, edges
        # Rows are sorted by slot: every slot before the one holding the
        # first row past the budget fits whole.
        over = np.searchsorted(rows, _SCAN_ROW_BUDGET, side="right")
        edges = max(1, int(slot[over]))
        end = np.searchsorted(slot, edges)
        return (slot[:end], holder[:end], mat[:end]), edges

    def _detect_edges(
        self, k: int, lo: int, hi: int
    ) -> Tuple[int, Iterator[Tuple[int, int, Tuple[int, ...]]]]:
        """Algorithm 1 through the edge-table rows ``lo:hi``, side by side.

        Before each broadcast the block keeps only its leading executions
        whose broadcast fits ``_SCAN_ROW_BUDGET`` rows (at least one), so
        no pool of a block of two or more edges exceeds the budget.
        Returns the end of the edge rows that ran and, lazily, their
        rejecting ``(slot, vertex, cycle)`` triples in (slot, vertex)
        order; slot ``s`` is edge ``lo + s``.  Each execution's outputs
        are those of :meth:`run_detect` through that edge.
        """
        from ...core.pruning import HittingSetPruner

        u, v = self._edge_ends[:, lo:hi]
        # Round 1: the endpoints broadcast their singleton sequences.
        slot = np.repeat(np.arange(hi - lo), 2)
        holder = np.stack((np.minimum(u, v), np.maximum(u, v)), axis=1).ravel()
        pool, edges = (slot, holder, self._ids[holder][:, None]), hi - lo
        pruner = HittingSetPruner()
        for t in range(2, k // 2 + 1):
            pool, edges = self._fit_budget(pool, edges)
            pool = self._edge_round(self._broadcast(pool), k, t, pruner)
        pool, edges = self._fit_budget(pool, edges)
        recv = self._broadcast(pool)
        return lo + edges, self._edge_decide(
            k, self._edge_a[lo:hi], self._edge_b[lo:hi], recv, pool
        )

    def first_cycle_edge(self, k: int) -> Optional[Tuple[int, Tuple[int, ...]]]:
        """Algorithm 1 through every edge, in edge-table order, until one
        execution rejects.

        Returns ``(edge, cycle)`` for the first rejecting edge — its row
        in the canonical ``(smaller ID, larger ID)`` edge table — with
        the cycle (node IDs) of its first rejecting vertex, exactly what
        :meth:`run_detect` through each edge in turn would find first;
        ``None`` when no edge lies on a k-cycle.  Edges run in blocks on
        one edge axis (:meth:`_detect_edges`, which cuts a block to fit
        ``_SCAN_ROW_BUDGET``): a block starts at one edge, the next one
        is twice as large after a block that ran whole and as large as
        the cut block after a cut.  No audit is recorded.
        """
        self._check_k(k)
        m = self._net.graph.m
        lo, size = 0, 1
        while lo < m:
            end = min(m, lo + size)
            hi, rejects = self._detect_edges(k, lo, end)
            hit = next(rejects, None)
            if hit is not None:
                return lo + hit[0], hit[2]
            size = (hi - lo) * (2 if hi == end else 1)
            lo = hi
        return None

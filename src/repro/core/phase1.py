"""Phase 1 — random edge ranks and the prioritized multiplexing rule.

Paper §3.1: every edge is *assigned* to its smaller-ID endpoint, which
draws a uniform rank in ``[1, m²]`` and ships it across the edge (one
round).  Every node then starts Phase 2 for its minimum-rank incident
edge.  Concurrent executions share the network under the priority rule:

    a node only ever serves the smallest-rank edge it has become aware
    of; higher-rank messages are discarded, lower-rank messages cause the
    node to switch.

Every rank is one keyed function of (repetition seed, smaller ID, larger
ID) — :func:`edge_ranks`, a counter-based draw in the style of Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11).  The owner
computes it alone, and both engines call the same function, so rank
equality across engines holds by construction.

Ties are broken by the (sorted) edge-ID pair, as the paper suggests.
The rule guarantees that when the globally minimal rank is unique, that
edge's Phase-2 execution proceeds exactly as if it ran alone — which is
all the correctness proof needs (Lemma 5 lower-bounds the probability of
uniqueness by ``1/e²``).

:class:`MultiplexedCkProgram` packages rank exchange + selection + the
multiplexed Algorithm 1 into a single CONGEST node program of
``1 + ⌊k/2⌋`` rounds (one rank round, then Phase 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._types import IdSequence
from ..congest.message import SequenceBundle, tag_order_key
from ..congest.node import Broadcast, NodeContext, NodeProgram, Outbox
from ..errors import ConfigurationError
from .algorithm1 import (
    DetectionOutcome,
    find_detection_evidence,
    phase2_rounds,
    process_phase2_round,
)
from .pruning import HittingSetPruner, Pruner
from .sequences import sort_sequences

__all__ = [
    "MultiplexedCkProgram",
    "RANK_SCHEME",
    "draw_ranks",
    "edge_ranks",
    "protocol_rounds",
    "RankDraw",
]

Tag = Tuple[int, Tuple[int, int]]


def protocol_rounds(k: int) -> int:
    """Rounds of one full repetition: 1 rank round + ``⌊k/2⌋`` Phase-2."""
    return 1 + phase2_rounds(k)


@dataclass(frozen=True)
class RankDraw:
    """A rank drawn for an owned edge (for introspection in tests)."""

    edge: Tuple[int, int]  # (smaller ID, larger ID)
    rank: int


#: Name of the rank scheme :func:`edge_ranks` implements.  Seeded
#: verdicts, evidence and Phase-2 counts depend on it, so campaign
#: records carry it and a store never mixes two schemes.
RANK_SCHEME = "splitmix64-v1"

#: Ranks must stay below the fast engine's ``2**62`` "no tag" sentinel,
#: so ``m**2 < 2**62``.
_MAX_EDGES = 1 << 31

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One SplitMix64 step over a uint64 array (wraps mod ``2**64``)."""
    x = x + _GAMMA
    x = (x ^ (x >> _S30)) * _MUL1
    x = (x ^ (x >> _S27)) * _MUL2
    return x ^ (x >> _S31)


def edge_ranks(rep_seed: int, a_ids, b_ids, m: int) -> np.ndarray:
    """Phase-1 ranks of the edges ``(a_ids[i], b_ids[i])``, uniform on
    ``[1, m²]``.

    ``a_ids`` holds each edge's smaller endpoint ID and ``b_ids`` its
    larger one.  The rank is the SplitMix64 step applied to the
    repetition seed (taken mod ``2**64``), then after XOR-ing in the
    smaller ID, then after XOR-ing in the larger ID, reduced mod ``m²``
    and shifted by one.  It is a pure function of
    ``(rep_seed, a, b, m)``: independent across edges and repetitions
    for the purposes of Lemma 5, and computable by the owner alone.
    The reduction's bias is below ``m² / 2**64``.

    Returns an int64 array.  Raises
    :class:`~repro.errors.ConfigurationError` unless
    ``1 <= m < 2**31``.
    """
    m = int(m)
    if m < 1:
        raise ConfigurationError("network must have at least one edge")
    if m >= _MAX_EDGES:
        raise ConfigurationError(
            f"rank draws support m < 2**31 edges (got m={m}): ranks in "
            "[1, m**2] must stay below 2**62"
        )
    # Array arithmetic throughout: numpy warns when a uint64 scalar wraps.
    h = _splitmix64(np.array([int(rep_seed) & _MASK64], dtype=np.uint64))
    h = _splitmix64(h ^ np.asarray(a_ids, dtype=np.uint64))
    h = _splitmix64(h ^ np.asarray(b_ids, dtype=np.uint64))
    return (h % np.uint64(m * m)).astype(np.int64) + 1


def draw_ranks(
    my_id: int, neighbor_ids: Tuple[int, ...], m: int, rep_seed: int
) -> List[RankDraw]:
    """Ranks of the edges assigned to this node (those whose other
    endpoint has a larger ID), in ascending neighbour order.

    Ranks are uniform on ``[1, m²]`` — O(log n) random bits per edge, as
    the paper notes — and come from :func:`edge_ranks` under
    ``rep_seed``.
    """
    owned = sorted(nb for nb in neighbor_ids if my_id < nb)
    ranks = edge_ranks(rep_seed, [my_id] * len(owned), owned, m)
    return [
        RankDraw(edge=(my_id, nb), rank=rank)
        for nb, rank in zip(owned, ranks.tolist())
    ]


class MultiplexedCkProgram(NodeProgram):
    """Phase 1 + prioritized Phase 2 for one repetition of the tester.

    Parameters
    ----------
    ctx:
        Node context.
    k:
        Cycle length.
    master_seed:
        Seed for the repetition; the node's ranks are
        :func:`edge_ranks` of its owned edges under it.
    pruner:
        Pruning strategy (default: :class:`HittingSetPruner`).
    """

    def __init__(
        self,
        ctx: NodeContext,
        k: int,
        master_seed: int,
        pruner: Optional[Pruner] = None,
    ) -> None:
        if k < 3:
            raise ConfigurationError(f"k must be >= 3, got {k}")
        self._k = k
        self._pruner = pruner if pruner is not None else HittingSetPruner()
        self._rep_seed = int(master_seed)
        self._own_draws: Dict[Tuple[int, int], int] = {}
        self._tag: Optional[Tag] = None
        self._last_sent: List[IdSequence] = []
        self._last_sent_tag: Optional[Tag] = None

    # ------------------------------------------------------------------
    # Round 1: rank exchange
    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> Outbox:
        """Round 1: draw and ship ranks for the owned edges."""
        if ctx.degree == 0:
            return None
        draws = draw_ranks(ctx.my_id, ctx.neighbor_ids, ctx.m_hint, self._rep_seed)
        outbox: Dict[int, int] = {}
        for d in draws:
            self._own_draws[d.edge] = d.rank
            other = d.edge[1] if d.edge[0] == ctx.my_id else d.edge[0]
            outbox[other] = d.rank
        return outbox if outbox else {}

    # ------------------------------------------------------------------
    # Rounds 2..: selection then multiplexed Phase 2
    # ------------------------------------------------------------------
    def on_round(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Outbox:
        """Round 2: select the minimum; later rounds: multiplexed Phase 2."""
        if round_index == 2:
            return self._select_and_seed(ctx, inbox)
        return self._phase2_step(ctx, round_index, inbox)

    def _select_and_seed(self, ctx: NodeContext, inbox: Dict[int, int]) -> Outbox:
        """Collect all incident ranks, pick the minimum, send the seed."""
        if ctx.degree == 0:
            return None
        ranks: Dict[Tuple[int, int], int] = dict(self._own_draws)
        for sender, rank in inbox.items():
            if not isinstance(rank, int):
                continue  # ignore stray payloads defensively
            edge = (sender, ctx.my_id) if sender < ctx.my_id else (ctx.my_id, sender)
            ranks[edge] = rank
        if not ranks:  # pragma: no cover - degree>0 implies ranks exist
            return None
        edge, rank = min(ranks.items(), key=lambda kv: (kv[1], kv[0]))
        self._tag = (rank, edge)
        seed = (ctx.my_id,)
        self._last_sent = [seed]
        self._last_sent_tag = self._tag
        return Broadcast(SequenceBundle(frozenset([seed]), rank=rank, edge=edge))

    def _phase2_step(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Outbox:
        t = round_index - 1  # Phase-2 round number
        best, received = self._mux(inbox)
        if best is None:
            self._last_sent = []
            return None
        self._tag = best
        send = process_phase2_round(ctx.my_id, received, self._k, t, self._pruner)
        self._last_sent = send
        self._last_sent_tag = best
        if not send:
            return None
        rank, edge = best
        return Broadcast(SequenceBundle(frozenset(send), rank=rank, edge=edge))

    def on_finish(self, ctx: NodeContext, inbox: Dict) -> DetectionOutcome:
        """Final decision under the winning tag's sequences."""
        best, received = self._mux(inbox)
        if best is None:
            return DetectionOutcome(rejects=False)
        own = self._last_sent if self._last_sent_tag == best else []
        cycle = find_detection_evidence(ctx.my_id, self._k, own, received)
        return DetectionOutcome(rejects=cycle is not None, cycle=cycle)

    # ------------------------------------------------------------------
    def _mux(self, inbox: Dict) -> Tuple[Optional[Tag], List[IdSequence]]:
        """Apply the priority rule: find the smallest tag among the current
        one and all inbound bundles; return it with the matching sequences
        (messages with other tags are discarded, §3.1)."""
        tags: List[Tag] = [] if self._tag is None else [self._tag]
        bundles: List[Tuple[int, SequenceBundle]] = []
        for sender in sorted(inbox):
            msg = inbox[sender]
            if isinstance(msg, SequenceBundle) and msg.tag is not None:
                bundles.append((sender, msg))
                tags.append(msg.tag)
        if not tags:
            return None, []
        best = min(tags, key=tag_order_key)
        received: List[IdSequence] = []
        for _, msg in bundles:
            if msg.tag == best:
                received.extend(msg.sequences)
        return best, sort_sequences(received)

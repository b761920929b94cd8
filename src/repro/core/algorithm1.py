"""Algorithm 1 — deterministic detection of a k-cycle through a fixed edge.

This module implements Phase 2 of the paper as a CONGEST node program:
``DetectCkProgram`` runs ``⌊k/2⌋`` communication rounds and, at the end,
every node outputs *accept* or *reject* together with cycle evidence.

Protocol recap (paper §3.2–§3.3, Algorithm 1):

* **Round 1.** The endpoints of ``e = {u, v}`` broadcast the singleton
  sequence ``(my_id,)``.
* **Rounds t = 2 .. ⌊k/2⌋.** A node that received sequences last round
  drops those containing its own ID (Instr. 12), prunes the remainder with
  the representative-family rule (Instr. 15–23, see
  :mod:`repro.core.pruning`), appends its own ID (Instr. 24) and
  broadcasts the result.
* **Final decision (Instr. 31–42).**

  - odd ``k``: reject iff two sequences *received at round ⌊k/2⌋* satisfy
    ``|L1 ∪ L2 ∪ {my_id}| = k``;
  - even ``k``: reject iff one sequence from the node's *own final send*
    ``S`` (which ends with ``my_id``) and one sequence *received at round
    ⌊k/2⌋* satisfy the same cardinality condition.

  **Deviation note (documented in DESIGN.md):** the paper's listing says
  "received at round ⌊k/2⌋ − 1" for even k, but then no pair could ever
  reach cardinality k (``|L1| = k/2`` including ``my_id`` and
  ``|L2| = k/2 − 1`` give a union of at most ``k − 1``).  The proof of
  Lemma 2 (even case) explicitly pairs a length-k/2 member of S with a
  length-k/2 sequence *not* containing ``ID(w)``, i.e. one received at the
  final round; we implement the proof's version.

The cardinality condition alone guarantees soundness: by Lemma 1 every
sequence is a simple path starting at ``u`` or ``v`` and ending at the
sender, so any pair reaching cardinality ``k`` closes into a genuine
k-cycle through ``e`` (we return that cycle as evidence; tests verify it
edge-by-edge against the input graph).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from numbers import Integral
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .._types import IdSequence
from ..congest.message import SequenceBundle
from ..congest.network import Network
from ..congest.node import Broadcast, NodeContext, NodeProgram, Outbox
from ..congest.scheduler import RunResult
from ..errors import ConfigurationError
from .pruning import HittingSetPruner, Pruner
from .sequences import drop_containing, sort_sequences

__all__ = [
    "DetectCkProgram",
    "DetectionOutcome",
    "DetectionOutcomes",
    "EdgeDetectionResult",
    "phase2_rounds",
    "detect_cycle_through_edge",
    "find_detection_evidence",
]


def phase2_rounds(k: int) -> int:
    """Number of communication rounds of Algorithm 1: ``⌊k/2⌋``."""
    if k < 3:
        raise ConfigurationError(f"k must be >= 3, got {k}")
    return k // 2


@dataclass(frozen=True)
class DetectionOutcome:
    """Per-node output of Algorithm 1.

    ``rejects`` is true when the node detected a k-cycle; ``cycle`` then
    holds the k node IDs in cyclic order (closing edge implicit).
    """

    rejects: bool
    cycle: Optional[Tuple[int, ...]] = None


_ACCEPT = DetectionOutcome(rejects=False)


class DetectionOutcomes(Mapping[int, DetectionOutcome]):
    """The per-vertex outputs of one engine run, stored sparsely.

    A read-only mapping over the vertices ``0..n-1`` that stores only
    the rejecting ones: every other vertex maps to the accepting
    outcome.  :attr:`rejecting` lists the rejecting vertices in
    ascending order, so a verdict needs no scan of all ``n`` outcomes.
    Indexing, iteration (in vertex order), ``.items()`` and ``==``
    against an equal plain dict work as on the dict it stands for.

    ``rejects`` maps each rejecting vertex to its outcome.
    """

    __slots__ = ("_n", "_rejects", "_rejecting")

    def __init__(self, n: int, rejects: Mapping[int, DetectionOutcome]) -> None:
        self._n = n
        self._rejects = dict(rejects)
        self._rejecting = tuple(sorted(self._rejects))

    @classmethod
    def of(cls, outputs: Mapping[int, DetectionOutcome]) -> "DetectionOutcomes":
        """The sparse form of a dense ``{vertex: outcome}`` mapping over
        ``0..n-1``."""
        return cls(len(outputs), {v: o for v, o in outputs.items() if o.rejects})

    @property
    def rejecting(self) -> Tuple[int, ...]:
        """The rejecting vertices, ascending."""
        return self._rejecting

    def __getitem__(self, v: int) -> DetectionOutcome:
        out = self._rejects.get(v)
        if out is not None:
            return out
        # Plain ints first: an isinstance check against the ABC is slow.
        if (type(v) is int or isinstance(v, Integral)) and 0 <= v < self._n:
            return _ACCEPT
        raise KeyError(v)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"DetectionOutcomes(n={self._n}, rejecting={self._rejecting})"


class DetectCkProgram(NodeProgram):
    """Node program for "does a k-cycle pass through ``edge``?".

    Parameters
    ----------
    ctx:
        Node context (injected by the scheduler factory).
    k:
        Cycle length, >= 3.
    edge:
        The target edge as a pair of *node IDs*.
    pruner:
        Pruning strategy; defaults to the fast :class:`HittingSetPruner`.
    """

    def __init__(
        self,
        ctx: NodeContext,
        k: int,
        edge: Tuple[int, int],
        pruner: Optional[Pruner] = None,
    ) -> None:
        if k < 3:
            raise ConfigurationError(f"k must be >= 3, got {k}")
        u, v = edge
        if u == v:
            raise ConfigurationError("edge endpoints must differ")
        self._k = k
        self._edge = (u, v) if u < v else (v, u)
        self._pruner = pruner if pruner is not None else HittingSetPruner()
        #: The set S sent at the most recent round (Instruction 28).
        self._last_sent: List[IdSequence] = []
        self._received_any = False

    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> Outbox:
        """Round 1 (Instr. 1-9): endpoints broadcast their singletons."""
        if ctx.my_id in self._edge:
            seed = (ctx.my_id,)
            self._last_sent = [seed]
            return Broadcast(SequenceBundle(frozenset([seed])))
        self._last_sent = []
        return None

    def on_round(
        self, ctx: NodeContext, round_index: int, inbox: Dict[int, SequenceBundle]
    ) -> Outbox:
        """Rounds 2..k//2 (Instr. 10-27): drop, prune, append, broadcast."""
        t = round_index  # Phase-2 round number == scheduler round here.
        received = _gather(inbox)
        if received:
            self._received_any = True
        send = process_phase2_round(ctx.my_id, received, self._k, t, self._pruner)
        self._last_sent = send
        if not send:
            return None
        return Broadcast(SequenceBundle(frozenset(send)))

    def on_finish(
        self, ctx: NodeContext, inbox: Dict[int, SequenceBundle]
    ) -> DetectionOutcome:
        """Final decision (Instr. 31-42) with cycle evidence."""
        received = _gather(inbox)
        if received:
            self._received_any = True
        if not self._received_any and not received:
            return DetectionOutcome(rejects=False)  # Instruction 41
        cycle = find_detection_evidence(
            ctx.my_id, self._k, self._last_sent, received
        )
        return DetectionOutcome(rejects=cycle is not None, cycle=cycle)


def _gather(inbox: Dict[int, SequenceBundle]) -> List[IdSequence]:
    """Flatten an inbox of bundles into a deterministic sequence list."""
    out: List[IdSequence] = []
    for sender in sorted(inbox):
        bundle = inbox[sender]
        out.extend(bundle.sequences)
    return sort_sequences(out)


def process_phase2_round(
    my_id: int,
    received: Sequence[IdSequence],
    k: int,
    t: int,
    pruner: Pruner,
) -> List[IdSequence]:
    """Instructions 10–27 for round ``t``: returns the sequences to send.

    ``received`` are the sequences that arrived at round ``t - 1`` (length
    ``t - 1`` each); the result contains sequences of length ``t`` ending
    in ``my_id``.  Returns ``[]`` when nothing was received (Instr. 25–27).
    """
    if not received:
        return []
    R = drop_containing(received, my_id)  # Instruction 12
    if not R:
        return []
    kept = pruner.select(R, k, t)  # Instructions 13-23
    return [seq + (my_id,) for seq in kept]  # Instruction 24


def find_detection_evidence(
    my_id: int,
    k: int,
    last_sent: Sequence[IdSequence],
    received_final: Sequence[IdSequence],
) -> Optional[Tuple[int, ...]]:
    """Instructions 31–42: return the witnessed k-cycle (IDs, cyclic order)
    or ``None``.

    For odd k both sequences come from ``received_final``; for even k one
    comes from ``last_sent`` (ending in ``my_id``) and one from
    ``received_final``.  The only filter is the paper's cardinality
    condition ``|L1 ∪ L2 ∪ {my_id}| = k``, which by Lemma 1 certifies a
    genuine cycle.
    """
    if k % 2 == 1:
        pool = list(received_final)
        for i, L1 in enumerate(pool):
            s1 = set(L1)
            if my_id in s1:
                continue  # cannot reach cardinality k anyway; skip early
            for L2 in pool[i + 1:]:
                s2 = set(L2)
                if len(s1 | s2 | {my_id}) == k:
                    # Cycle: x1..xl, w, ym..y1 (closing edge {x1,y1}={u,v}).
                    return tuple(L1) + (my_id,) + tuple(reversed(L2))
        return None
    for L1 in last_sent:
        s1 = set(L1)  # length k/2, contains my_id (appended last)
        if len(s1) != k // 2 or my_id not in s1:
            continue
        for L2 in received_final:
            s2 = set(L2)
            if len(s1 | s2 | {my_id}) == k:
                # L1 already ends with my_id; reverse L2 to close the cycle.
                return tuple(L1) + tuple(reversed(L2))
    return None


# ---------------------------------------------------------------------------
# High-level convenience runner
# ---------------------------------------------------------------------------
@dataclass
class EdgeDetectionResult:
    """Outcome of running Algorithm 1 on a whole network for one edge."""

    detected: bool
    #: vertex index -> DetectionOutcome (the run's sparse outputs)
    outcomes: DetectionOutcomes
    run: RunResult

    @property
    def rejecting_vertices(self) -> List[int]:
        """Vertex indices that output reject, ascending."""
        return list(self.outcomes.rejecting)

    def any_cycle_ids(self) -> Optional[Tuple[int, ...]]:
        """Some witnessed cycle (node IDs), if any node produced one."""
        for v in self.outcomes.rejecting:
            cycle = self.outcomes[v].cycle
            if cycle is not None:
                return cycle
        return None


def detect_cycle_through_edge(
    graph,
    edge: Tuple[int, int],
    k: int,
    *,
    network: Optional[Network] = None,
    strict_bandwidth: bool = False,
    engine: str = "reference",
    faults=None,
    telemetry=None,
    cache=None,
) -> EdgeDetectionResult:
    """Run Algorithm 1 for ``edge`` (vertex indices) on ``graph``.

    This is the deterministic inner procedure: *"even if there is just a
    single k-cycle passing through e, that cycle will be detected"*
    (paper §1.2).  Completeness and soundness are exact, not statistical.

    Parameters
    ----------
    graph:
        A :class:`repro.graphs.Graph`.
    edge:
        Pair of *vertex indices* (the public API speaks vertices; node IDs
        are an internal naming layer).
    k:
        Cycle length.
    network:
        Optionally a prebuilt :class:`Network` (to control ID assignment).
    engine:
        Scheduler backend (``"reference"`` or ``"fast"``); see
        :mod:`repro.congest.engine`.
    faults:
        Optional :class:`~repro.congest.faults.FaultModel` (reference
        engine only): dropped deliveries can hide the only witness, so
        the deterministic completeness guarantee no longer applies.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`; ``None`` resolves to the
        process global (disabled by default).
    cache:
        Optional :class:`~repro.congest.engine.cache.EngineCache`:
        reuse the compiled engine across calls on the same graph
        content.  Bypassed when ``network`` or ``faults`` is given.
    """
    from ..congest.engine import create_engine
    from ..obs import resolve_telemetry

    tel = resolve_telemetry(telemetry)
    u, v = edge
    if not _csr_has_edge(graph, u, v):
        raise ConfigurationError(f"edge {edge} not in graph")
    if cache is not None and network is None and faults is None:
        eng = cache.get(
            engine, graph, strict_bandwidth=strict_bandwidth, telemetry=tel,
        )
        net = eng.network
    else:
        net = network if network is not None else Network(graph)
        eng = create_engine(
            engine, net, strict_bandwidth=strict_bandwidth, faults=faults,
            telemetry=tel,
        )
    edge_ids = net.edge_ids(u, v)
    with tel.span("detect.run", k=k, engine=engine):
        result = eng.run_detect(k, edge_ids)
    outcomes: DetectionOutcomes = result.outputs
    detected = bool(outcomes.rejecting)
    record_detections(tel, engine, 1, int(detected))
    return EdgeDetectionResult(detected=detected, outcomes=outcomes, run=result)


def _csr_has_edge(graph, u: int, v: int) -> bool:
    """Whether ``{u, v}`` is an edge of ``graph``, by a binary search of
    ``u``'s row in the memoised CSR export that a ``fast`` compile reads
    next; unlike :meth:`~repro.graphs.graph.Graph.has_edge`, it builds
    no adjacency sets."""
    if not (0 <= u < graph.n and 0 <= v < graph.n) or u == v:
        return False
    indptr, indices = graph.to_csr()
    hi = int(indptr[u + 1])
    i = bisect_left(indices, v, int(indptr[u]), hi)
    return i < hi and int(indices[i]) == v


def record_detections(telemetry, engine: str, runs: int, hits: int) -> None:
    """Count ``runs`` edge detections, ``hits`` of which found a k-cycle,
    in ``repro_detect_runs_total`` / ``repro_detect_hits_total``."""
    if not telemetry.enabled:
        return
    telemetry.counter(
        "repro_detect_runs_total",
        "Algorithm 1 edge detections run, by engine backend.",
        ("engine",),
    ).inc(runs, engine=engine)
    if hits:
        telemetry.counter(
            "repro_detect_hits_total",
            "Edge detections that found a k-cycle, by engine backend.",
            ("engine",),
        ).inc(hits, engine=engine)

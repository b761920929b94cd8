"""Batched repetitions: trading bandwidth for rounds.

The paper boosts its per-repetition success probability ``>= ε/e²`` by
*sequentially* repeating the whole protocol ``⌈(e²/ε)·ln 3⌉`` times —
O(1/ε) rounds total.  Nothing in the analysis requires sequentiality:
the repetitions are independent, so ``r`` of them can run *in the same
rounds*, with every message carrying one bundle per repetition.  Round
complexity drops to ``1 + ⌊k/2⌋`` (independent of ε!) while per-edge
bandwidth grows by the factor ``r`` — messages become Θ(r·log n) bits,
leaving the strict CONGEST regime for r = ω(1).

This is exactly the classical rounds-vs-bandwidth tradeoff, and the A2
ablation benchmark quantifies it.  Soundness is per-repetition and hence
preserved verbatim (tests exercise it).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from ..congest.network import Network
from ..congest.node import Broadcast, NodeContext, NodeProgram, Outbox
from ..congest.scheduler import SynchronousScheduler
from ..core.algorithm1 import DetectionOutcome
from ..core.bounds import repetitions_needed
from ..core.phase1 import MultiplexedCkProgram, protocol_rounds
from ..errors import ConfigurationError
from ..graphs.graph import Graph
from ..seeds import repetition_seeds

__all__ = ["BatchedCkProgram", "BatchedCkTester", "BatchedResult"]


def merge_outboxes(ctx: NodeContext, outs: Iterable[Tuple[Hashable, Outbox]]) -> Outbox:
    """Combine the ``(key, outbox)`` pairs of lock-step sub-programs into
    one ``{neighbor: {key: msg}}`` outbox (``None`` when all are silent)."""
    merged: Dict[int, Dict[Hashable, Any]] = {}
    for key, out in outs:
        if out is None:
            continue
        if isinstance(out, Broadcast):
            targets = {nb: out.message for nb in ctx.neighbor_ids}
        elif isinstance(out, Mapping):
            targets = dict(out)
        else:  # pragma: no cover - sub-programs only use these forms
            raise ConfigurationError(f"unexpected outbox {type(out)}")
        for nb, msg in targets.items():
            if msg is None:
                continue
            merged.setdefault(nb, {})[key] = msg
    return merged if merged else None


def split_inbox(inbox: Dict[int, Any], key: Hashable) -> Dict[int, Any]:
    """Sub-program ``key``'s view of an inbox merged by
    :func:`merge_outboxes`."""
    view: Dict[int, Any] = {}
    for sender, payload in inbox.items():
        if isinstance(payload, dict) and key in payload:
            view[sender] = payload[key]
    return view


class BatchedCkProgram(NodeProgram):
    """Runs ``r`` independent :class:`MultiplexedCkProgram` instances in
    lock-step, multiplexing their messages into one per-edge payload
    (a ``{repetition_index: message}`` mapping)."""

    def __init__(self, ctx: NodeContext, k: int, rep_seeds: Tuple[int, ...]) -> None:
        if not rep_seeds:
            raise ConfigurationError("need at least one repetition seed")
        self._subs: List[MultiplexedCkProgram] = [
            MultiplexedCkProgram(ctx, k, seed) for seed in rep_seeds
        ]

    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> Outbox:
        """Round 1: rank rounds of all batched repetitions at once."""
        return merge_outboxes(ctx, enumerate(p.on_start(ctx) for p in self._subs))

    def on_round(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Outbox:
        """Advance every repetition's Phase 2 in lock-step."""
        outs = [
            (rep, p.on_round(ctx, round_index, split_inbox(inbox, rep)))
            for rep, p in enumerate(self._subs)
        ]
        return merge_outboxes(ctx, outs)

    def on_finish(self, ctx: NodeContext, inbox: Dict) -> DetectionOutcome:
        """Evaluate each repetition's final decision."""
        for rep, p in enumerate(self._subs):
            out = p.on_finish(ctx, split_inbox(inbox, rep))
            if isinstance(out, DetectionOutcome) and out.rejects:
                return out
        return DetectionOutcome(rejects=False)


class BatchedResult:
    """Verdict + telemetry of one batched run."""

    __slots__ = ("accepted", "evidence", "rounds", "repetitions", "trace")

    def __init__(self, accepted, evidence, rounds, repetitions, trace):
        self.accepted = accepted
        self.evidence = evidence
        self.rounds = rounds
        self.repetitions = repetitions
        self.trace = trace

    @property
    def rejected(self) -> bool:
        """Whether any repetition rejected."""
        return not self.accepted


class BatchedCkTester:
    """ε-tester with all repetitions folded into one ``1 + ⌊k/2⌋``-round
    execution (bandwidth pays for the parallelism)."""

    def __init__(
        self,
        k: int,
        epsilon: float,
        *,
        repetitions: Optional[int] = None,
    ) -> None:
        if k < 3:
            raise ConfigurationError(f"k must be >= 3, got {k}")
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0,1), got {epsilon}")
        self.k = k
        self.epsilon = epsilon
        self.repetitions = (
            repetitions if repetitions is not None else repetitions_needed(epsilon)
        )

    def run(
        self, graph: Graph, *, seed=None, network: Optional[Network] = None
    ) -> BatchedResult:
        """Run all repetitions inside one widened execution."""
        if graph.m == 0:
            return BatchedResult(True, None, 0, 0, None)
        net = network if network is not None else Network(graph)
        rep_seeds = tuple(repetition_seeds(seed, self.repetitions))
        run = SynchronousScheduler(net).run(
            lambda ctx: BatchedCkProgram(ctx, self.k, rep_seeds),
            num_rounds=protocol_rounds(self.k),
        )
        evidence = None
        for out in run.outputs.values():
            if isinstance(out, DetectionOutcome) and out.rejects:
                evidence = out.cycle
                break
        return BatchedResult(
            accepted=evidence is None,
            evidence=evidence,
            rounds=run.trace.num_rounds,
            repetitions=self.repetitions,
            trace=run.trace,
        )

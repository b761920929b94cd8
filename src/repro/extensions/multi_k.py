"""Simultaneous testing of several cycle lengths (motif scanning).

Runs one :class:`MultiplexedCkProgram` per requested ``k`` inside a
single lock-step execution of ``1 + max⌊k/2⌋`` rounds, multiplexing the
per-k messages the same way :mod:`repro.extensions.parallel_reps`
multiplexes repetitions.  Message sizes grow by a factor ``|ks|`` — fine
in CONGEST for a constant number of lengths (each is O_k(log n) bits).

This is the natural protocol behind `examples/motif_scan.py`: a network
operator asking "which of C3..C8 do we contain?" pays the rounds of the
*largest* k only.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from ..congest.network import Network
from ..congest.node import Broadcast, NodeContext, NodeProgram, Outbox
from ..congest.scheduler import SynchronousScheduler
from ..core.algorithm1 import DetectionOutcome
from ..core.phase1 import MultiplexedCkProgram, protocol_rounds
from ..core.pruning import Pruner
from ..errors import ConfigurationError
from ..graphs.graph import Graph
from ..seeds import repetition_seeds

__all__ = ["MultiKProgram", "MultiKResult", "scan_cycle_lengths"]


class MultiKProgram(NodeProgram):
    """One sub-program per cycle length, sharing the rounds.

    Sub-programs for small k finish early (their protocol has fewer
    rounds); their messages simply stop, which is safe because every
    per-k message stream is self-contained.
    """

    def __init__(
        self,
        ctx: NodeContext,
        ks: Sequence[int],
        master_seed: int,
        pruner: Optional[Pruner] = None,
    ) -> None:
        if not ks:
            raise ConfigurationError("need at least one cycle length")
        if len(set(ks)) != len(ks):
            raise ConfigurationError("cycle lengths must be distinct")
        self._ks = tuple(ks)
        self._subs: Dict[int, MultiplexedCkProgram] = {
            k: MultiplexedCkProgram(
                ctx, k, (master_seed * 1_000_003 + k) & 0x7FFFFFFF, pruner=pruner
            )
            for k in ks
        }
        self._rounds: Dict[int, int] = {k: protocol_rounds(k) for k in ks}
        self._verdicts: Dict[int, DetectionOutcome] = {}

    def _merge(self, ctx: NodeContext, per_k: Dict[int, Outbox]) -> Outbox:
        merged: Dict[int, Dict[int, object]] = {}
        for k, out in per_k.items():
            if out is None:
                continue
            if isinstance(out, Broadcast):
                targets = {nb: out.message for nb in ctx.neighbor_ids}
            elif isinstance(out, Mapping):
                targets = dict(out)
            else:  # pragma: no cover
                raise ConfigurationError(f"unexpected outbox {type(out)}")
            for nb, msg in targets.items():
                if msg is None:
                    continue
                merged.setdefault(nb, {})[k] = msg
        return merged if merged else None

    @staticmethod
    def _split(inbox: Dict, k: int) -> Dict[int, object]:
        view = {}
        for sender, payload in inbox.items():
            if isinstance(payload, dict) and k in payload:
                view[sender] = payload[k]
        return view

    def on_start(self, ctx: NodeContext) -> Outbox:
        """Round 1: rank rounds of every sub-protocol, multiplexed."""
        return self._merge(ctx, {k: p.on_start(ctx) for k, p in self._subs.items()})

    def on_round(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Outbox:
        """Advance each sub-protocol that is still within its rounds."""
        outs: Dict[int, Outbox] = {}
        for k, p in self._subs.items():
            view = self._split(inbox, k)
            if round_index <= self._rounds[k]:
                outs[k] = p.on_round(ctx, round_index, view)
            elif round_index == self._rounds[k] + 1 and k not in self._verdicts:
                # This k's final inbox arrived last round's end; settle it.
                self._verdicts[k] = p.on_finish(ctx, view)
        return self._merge(ctx, outs)

    def on_finish(self, ctx: NodeContext, inbox: Dict) -> Dict[int, DetectionOutcome]:
        """Collect one DetectionOutcome per tested cycle length."""
        for k, p in self._subs.items():
            if k not in self._verdicts:
                self._verdicts[k] = p.on_finish(ctx, self._split(inbox, k))
        return dict(self._verdicts)


class MultiKResult:
    """Per-length verdicts of one scan execution."""

    __slots__ = ("detected", "evidence", "rounds", "trace")

    def __init__(self, detected, evidence, rounds, trace):
        #: {k: bool} — whether a k-cycle was witnessed.
        self.detected = detected
        #: {k: cycle IDs or None}
        self.evidence = evidence
        self.rounds = rounds
        self.trace = trace


def scan_cycle_lengths(
    graph: Graph,
    ks: Sequence[int],
    *,
    repetitions: int = 8,
    seed=None,
    network: Optional[Network] = None,
) -> MultiKResult:
    """Scan for every cycle length in ``ks`` with shared executions.

    Runs ``repetitions`` multi-k executions (fresh ranks each time);
    verdicts accumulate per k.  Soundness per k is inherited from the
    underlying programs; completeness is statistical as usual.
    """
    ks = tuple(sorted(set(ks)))
    if not ks or min(ks) < 3:
        raise ConfigurationError("cycle lengths must all be >= 3")
    net = network if network is not None else Network(graph)
    detected = {k: False for k in ks}
    evidence = {k: None for k in ks}
    rounds = 0
    trace = None
    if graph.m == 0:
        return MultiKResult(detected, evidence, 0, None)
    scheduler = SynchronousScheduler(net)
    rep_seeds = repetition_seeds(seed, repetitions)
    num_rounds = max(protocol_rounds(k) for k in ks)
    for i in range(repetitions):
        rep_seed = int(rep_seeds[i])
        run = scheduler.run(
            lambda ctx: MultiKProgram(ctx, ks, rep_seed),
            num_rounds=num_rounds,
        )
        rounds += run.trace.num_rounds
        trace = run.trace
        for out in run.outputs.values():
            if not isinstance(out, dict):
                continue
            for k, verdict in out.items():
                if isinstance(verdict, DetectionOutcome) and verdict.rejects:
                    if not detected[k]:
                        detected[k] = True
                        evidence[k] = verdict.cycle
        if all(detected.values()):
            break
    return MultiKResult(detected, evidence, rounds, trace)

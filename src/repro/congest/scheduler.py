"""Lock-step synchronous scheduler — the heart of the CONGEST simulation.

Semantics (paper §2.1): computation proceeds in rounds; in every round each
node (a) computes, (b) sends at most one message per incident edge, and
(c) receives the messages its neighbours sent *this* round.  We realise
this with a two-phase loop: collect all outboxes first, then deliver, so
no node can observe a same-round message early.

Round indexing follows Algorithm 1's convention: ``on_start`` produces the
round-1 sends; ``on_round(r, inbox)`` (r >= 2) sees messages sent at round
``r-1``; after the final round, ``on_finish`` sees the last sends.
Total communication rounds = ``num_rounds``.

This scheduler is also the ``reference`` backend of the pluggable engine
layer (:mod:`repro.congest.engine`): protocol-level entry points
(tester, Algorithm 1) go through an engine so the batched ``fast``
backend can be swapped in, while arbitrary node programs (primitives,
extensions, faults) keep using this class directly.  The round-semantics
contract above is restated in prose in ``docs/architecture.md``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from ..errors import ProtocolError
from .instrumentation import ExecutionTrace, Instrumentation
from .message import SizeModel
from .network import Network
from .node import Broadcast, NodeContext, NodeProgram

__all__ = ["SynchronousScheduler", "RunResult"]


class RunResult:
    """Outputs and trace of one scheduled run.

    A scheduler run's ``outputs`` is a dict of whatever each node's
    ``on_finish`` returned.  An engine run's is the sparse
    :class:`~repro.core.algorithm1.DetectionOutcomes` mapping, which
    reads like that dict and also lists its rejecting vertices.
    """

    __slots__ = ("outputs", "trace")

    def __init__(self, outputs: Mapping[int, Any], trace: ExecutionTrace):
        #: vertex index -> whatever ``on_finish`` returned
        self.outputs = outputs
        self.trace = trace

    def outputs_by_id(self, network: Network) -> Dict[int, Any]:
        """Outputs re-keyed by CONGEST ID."""
        return {network.node_id(v): out for v, out in self.outputs.items()}


class SynchronousScheduler:
    """Runs a family of node programs in lock-step on a network.

    Parameters
    ----------
    network:
        The CONGEST network.
    size_model:
        Bit model for the audit; defaults to the network's own.
    strict_bandwidth:
        Raise if any single message exceeds the CONGEST budget.
    """

    def __init__(
        self,
        network: Network,
        *,
        size_model: Optional[SizeModel] = None,
        strict_bandwidth: bool = False,
    ) -> None:
        self._net = network
        self._size_model = (
            size_model if size_model is not None else network.default_size_model()
        )
        self._strict = strict_bandwidth

    def run(
        self,
        make_program: Callable[[NodeContext], NodeProgram],
        num_rounds: int,
    ) -> RunResult:
        """Instantiate one program per node and execute ``num_rounds``.

        ``num_rounds`` counts communication rounds; ``num_rounds >= 1``.
        """
        if num_rounds < 1:
            raise ProtocolError(f"num_rounds must be >= 1, got {num_rounds}")
        net = self._net
        g = net.graph
        programs: List[NodeProgram] = [
            make_program(net.context(v)) for v in g.vertices()
        ]
        instr = Instrumentation(
            self._size_model, strict=self._strict, n=net.n, m=net.m
        )

        # inboxes[v]: sender_id -> message, for the *current* round.
        inboxes: List[Dict[int, Any]] = [dict() for _ in g.vertices()]

        for round_index in range(1, num_rounds + 1):
            instr.begin_round(round_index)
            outboxes: List[Optional[Any]] = [None] * g.n
            for v in g.vertices():
                ctx = net.context(v)
                if round_index == 1:
                    outboxes[v] = programs[v].on_start(ctx)
                else:
                    outboxes[v] = programs[v].on_round(ctx, round_index, inboxes[v])
            inboxes = self._deliver(outboxes, instr, round_index)

        outputs: Dict[int, Any] = {}
        for v in g.vertices():
            outputs[v] = programs[v].on_finish(net.context(v), inboxes[v])
        return RunResult(outputs, instr.trace)

    # ------------------------------------------------------------------
    def _deliver(
        self,
        outboxes: List[Optional[Any]],
        instr: Instrumentation,
        round_index: int,
    ) -> List[Dict[int, Any]]:
        net = self._net
        g = net.graph
        fresh: List[Dict[int, Any]] = [dict() for _ in g.vertices()]
        for v in g.vertices():
            out = outboxes[v]
            if out is None:
                continue
            sender_id = net.node_id(v)
            if isinstance(out, Broadcast):
                msg = out.message
                if msg is None:
                    continue
                for w in g.neighbors(v):
                    instr.observe(sender_id, net.node_id(w), msg)
                    fresh[w][sender_id] = msg
            elif isinstance(out, Mapping):
                nb_ids = set(net.context(v).neighbor_ids)
                for target_id, msg in out.items():
                    if target_id not in nb_ids:
                        raise ProtocolError(
                            f"node {sender_id} tried to message non-neighbour "
                            f"{target_id} at round {round_index}"
                        )
                    if msg is None:
                        continue
                    w = net.vertex_of(target_id)
                    instr.observe(sender_id, target_id, msg)
                    fresh[w][sender_id] = msg
            else:
                raise ProtocolError(
                    f"outbox must be None, Broadcast or mapping, got "
                    f"{type(out).__name__}"
                )
        return fresh

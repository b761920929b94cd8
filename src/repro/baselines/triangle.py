"""Triangle-freeness tester in the spirit of Censor-Hillel et al. [7].

The paper's predecessor result: triangle-freeness is testable in O(1/ε²)
rounds.  The [7] sparse-model tester (as also summarised in [20]) works,
per repetition, as follows: every node picks a *random incident edge*
``{v, w}`` and a *random neighbour* ``u``, and asks ``u`` whether ``u`` is
adjacent to ``w`` — a 2-round exchange of O(log n) bits.  On a graph ε-far
from triangle-free, a constant fraction of such probes hits one of the
>= εm/3 edge-disjoint triangles, so Θ(1/ε²) repetitions reject w.h.p.;
on triangle-free graphs no probe can ever succeed (1-sided error).

We implement it as a faithful CONGEST program and use it as the published
point of comparison for ``k = 3`` (experiment T1's baseline column).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..congest.network import Network
from ..congest.node import NodeContext, NodeProgram, Outbox
from ..congest.scheduler import SynchronousScheduler
from ..errors import ConfigurationError
from ..graphs.graph import Graph
from ..seeds import repetition_seeds

__all__ = ["TriangleProbeProgram", "TriangleTesterCHFSV", "TriangleTesterResult"]


class TriangleProbeProgram(NodeProgram):
    """One probe repetition: propose (round 1), answer (round 2)."""

    def __init__(self, ctx: NodeContext, master_seed: int) -> None:
        self._rng = np.random.default_rng(
            np.random.SeedSequence((int(master_seed) & 0x7FFFFFFF, ctx.my_id))
        )
        self._found = False

    def on_start(self, ctx: NodeContext) -> Outbox:
        """Round 1: every node broadcasts its neighbour list."""
        if ctx.degree < 2:
            return None
        nbs = list(ctx.neighbor_ids)
        w = int(self._rng.choice(nbs))
        u = int(self._rng.choice(nbs))
        if u == w:
            return None
        # Ask u: "are you adjacent to w?" (one ID = O(log n) bits).
        return {u: w}

    def on_round(self, ctx: NodeContext, round_index: int, inbox: Dict) -> Outbox:
        # Round 2: answer the queries received at round 1.
        """Close triangles from the received adjacency information."""
        answers: Dict[int, bool] = {}
        for asker, w in inbox.items():
            if isinstance(w, int) and w in ctx.neighbor_ids:
                answers[asker] = True
        return answers if answers else None

    def on_finish(self, ctx: NodeContext, inbox: Dict) -> bool:
        """Report any witnessed triangle through the probed edge."""
        self._found = any(bool(ans) for ans in inbox.values())
        return self._found


@dataclass
class TriangleTesterResult:
    """Aggregate verdict of the CHFSV-style triangle tester."""
    accepted: bool
    repetitions_run: int
    repetitions_planned: int
    rounds_per_repetition: int = 2

    @property
    def total_rounds(self) -> int:
        """Communication rounds used across all repetitions."""
        return self.repetitions_run * self.rounds_per_repetition


class TriangleTesterCHFSV:
    """Repetition-driven triangle tester ([7]-style, O(1/ε²) rounds)."""

    def __init__(self, epsilon: float, repetitions: Optional[int] = None) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0,1), got {epsilon}")
        self.epsilon = epsilon
        # Θ(1/ε²) repetitions; constant chosen to mirror the e²·ln3 style
        # boosting used by the paper's own tester.
        self.repetitions = (
            repetitions
            if repetitions is not None
            else math.ceil((math.e ** 2 / (epsilon * epsilon)) * math.log(3.0))
        )

    def run(
        self, graph: Graph, *, seed=None, stop_on_reject: bool = True
    ) -> TriangleTesterResult:
        """Execute the triangle tester on ``graph`` and aggregate verdicts."""
        net = Network(graph)
        scheduler = SynchronousScheduler(net)
        rep_seeds = repetition_seeds(seed, self.repetitions)
        run_count = 0
        for i in range(self.repetitions):
            rep_seed = int(rep_seeds[i])
            result = scheduler.run(
                lambda ctx: TriangleProbeProgram(ctx, rep_seed), num_rounds=2
            )
            run_count = i + 1
            if any(bool(o) for o in result.outputs.values()):
                return TriangleTesterResult(
                    accepted=False,
                    repetitions_run=run_count,
                    repetitions_planned=self.repetitions,
                )
            if not stop_on_reject:
                continue
        return TriangleTesterResult(
            accepted=True,
            repetitions_run=run_count,
            repetitions_planned=self.repetitions,
        )

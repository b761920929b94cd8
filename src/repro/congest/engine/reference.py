"""The reference engine: the lock-step scheduler, unchanged.

This is the original per-node simulation promoted behind the engine
interface — :class:`~repro.congest.scheduler.SynchronousScheduler`
driving the existing node programs, with identical semantics, identical
per-message bit audit, and identical traces.  It exists so that every
other backend has an executable specification to be compared against.
"""

from __future__ import annotations

from typing import Tuple

from ..scheduler import RunResult, SynchronousScheduler
from .base import CongestEngine

__all__ = ["ReferenceEngine"]


class ReferenceEngine(CongestEngine):
    """Per-node message-passing execution (the executable specification).

    The only backend that simulates unreliable links: passing a
    ``faults`` model swaps the lock-step scheduler for the
    :class:`~repro.congest.faults.FaultyScheduler`.
    """

    name = "reference"

    def _scheduler(self) -> SynchronousScheduler:
        if self._faults is not None:
            from ..faults import FaultyScheduler

            return FaultyScheduler(
                self._net,
                self._faults,
                size_model=self._size_model,
                strict_bandwidth=self._strict,
            )
        return SynchronousScheduler(
            self._net,
            size_model=self._size_model,
            strict_bandwidth=self._strict,
        )

    def run_tester_repetition(
        self, k: int, rep_seed: int, *, pruner=None
    ) -> RunResult:
        """One tester repetition via the lock-step scheduler."""
        from ...core.phase1 import MultiplexedCkProgram, protocol_rounds

        self._check_k(k)
        # The scheduler is a black box here, so the profiler sees one
        # coarse phase; per-phase attribution is the fast backends' job.
        with self._profiler.phase("scheduler_run"):
            run = self._scheduler().run(
                lambda ctx: MultiplexedCkProgram(
                    ctx, k, rep_seed, pruner=pruner
                ),
                num_rounds=protocol_rounds(k),
            )
        return self._finish(_sparse(run))

    def run_detect(
        self, k: int, edge_ids: Tuple[int, int], *, pruner=None
    ) -> RunResult:
        """Algorithm 1 for one edge via the lock-step scheduler."""
        from ...core.algorithm1 import DetectCkProgram, phase2_rounds

        self._check_k(k)
        with self._profiler.phase("scheduler_run"):
            run = self._scheduler().run(
                lambda ctx: DetectCkProgram(ctx, k, edge_ids, pruner=pruner),
                num_rounds=phase2_rounds(k),
            )
        return self._finish(_sparse(run))


def _sparse(run: RunResult) -> RunResult:
    """``run`` with the scheduler's per-vertex outcome dict wrapped as
    the engines' sparse :class:`~repro.core.algorithm1.DetectionOutcomes`."""
    from ...core.algorithm1 import DetectionOutcomes

    return RunResult(DetectionOutcomes.of(run.outputs), run.trace)

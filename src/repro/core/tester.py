"""The full distributed property tester for Ck-freeness (Theorem 1).

Semantics reproduced exactly:

* **1-sided error**: if G is Ck-free every node accepts in every
  repetition with probability 1 (rejection requires cycle evidence that,
  by Lemma 1, only exists when a k-cycle does).
* **ε-far instances** are rejected with probability >= 2/3 when run with
  the paper's repetition count ``⌈(e²/ε)·ln 3⌉`` (§3.5): each repetition
  succeeds when the minimum rank is unique (Lemma 5, prob >= 1/e²) *and*
  falls on one of the >= εm cycle edges guaranteed by Lemma 4.
* **Round complexity**: ``repetitions * (1 + ⌊k/2⌋)`` — O(1/ε), constant
  in n.

Repetitions are sequential protocol restarts with fresh randomness, as in
the paper ("we repeat the whole process"): one
:meth:`~repro.congest.engine.CongestEngine.run_tester_repetition` call
each, under its own child seed of the master seed.
"""

from __future__ import annotations

from typing import Optional

from ..congest.engine import ensure_engine_available, create_engine
from ..congest.network import Network
from ..errors import ConfigurationError
from ..graphs.graph import Graph
from ..seeds import repetition_seeds
from .bounds import repetitions_needed, rounds_per_repetition
from .verdict import RepetitionReport, TesterResult

__all__ = ["CkFreenessTester", "test_ck_freeness"]


class CkFreenessTester:
    """Distributed property tester for Ck-freeness.

    Parameters
    ----------
    k:
        Cycle length to test for (>= 3).
    epsilon:
        Property-testing parameter in (0, 1).
    repetitions:
        Override for the number of repetitions; defaults to the paper's
        ``⌈(e²/ε)·ln 3⌉``.
    strict_bandwidth:
        Forward to the engine: raise if any message exceeds the
        CONGEST bit budget.
    engine:
        Scheduler backend: ``"reference"`` (per-node simulation) or
        ``"fast"`` (batched numpy); see :mod:`repro.congest.engine`.
        Both produce identical verdicts under a fixed seed.
    faults:
        Optional :class:`~repro.congest.faults.FaultModel`: run every
        repetition over unreliable links (reference engine only).
        Message loss preserves soundness (rejections still carry genuine
        cycle evidence) but voids the completeness guarantee.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`; ``None`` resolves to the
        process global (disabled by default).  Records run/repetition/
        reject counters and a ``tester.run`` span; never affects
        verdicts or randomness.
    """

    def __init__(
        self,
        k: int,
        epsilon: float,
        *,
        repetitions: Optional[int] = None,
        strict_bandwidth: bool = False,
        engine: str = "reference",
        faults=None,
        telemetry=None,
    ) -> None:
        if k < 3:
            raise ConfigurationError(f"k must be >= 3, got {k}")
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0,1), got {epsilon}")
        if repetitions is not None and repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        self.k = k
        self.epsilon = epsilon
        self.repetitions = (
            repetitions if repetitions is not None else repetitions_needed(epsilon)
        )
        ensure_engine_available(engine)
        self.engine = engine
        self._strict = strict_bandwidth
        self._faults = faults
        self._telemetry = telemetry

    # ------------------------------------------------------------------
    def run(
        self,
        graph: Graph,
        *,
        seed=None,
        network: Optional[Network] = None,
        stop_on_reject: bool = True,
        keep_traces: bool = False,
    ) -> TesterResult:
        """Execute the tester on ``graph``.

        Parameters
        ----------
        seed:
            Master seed; repetition ``i`` uses an independent child seed,
            and every edge's rank is
            :func:`~repro.core.phase1.edge_ranks` of
            ``(rep_seed, smaller ID, larger ID)``.
        network:
            Optionally a prebuilt :class:`Network` (to control ID
            assignment, or to compile a second engine from the same
            one); ``Network(graph)`` by default.
        stop_on_reject:
            Stop after the first rejecting repetition (the verdict is
            already determined; the remaining repetitions cannot flip it).
            Set to ``False`` to measure per-repetition statistics.
        keep_traces:
            Retain the full instrumentation trace of every repetition.
        """
        from ..obs import resolve_telemetry

        telemetry = resolve_telemetry(self._telemetry)
        if graph.m == 0:
            # An edgeless graph is trivially Ck-free; all nodes accept.
            return TesterResult(
                accepted=True,
                k=self.k,
                epsilon=self.epsilon,
                repetitions_run=0,
                repetitions_planned=self.repetitions,
                rounds_per_repetition=rounds_per_repetition(self.k),
            )
        net = network if network is not None else Network(graph)
        eng = create_engine(
            self.engine, net, strict_bandwidth=self._strict,
            faults=self._faults, telemetry=telemetry,
        )
        rep_seeds = repetition_seeds(seed, self.repetitions)

        result = TesterResult(
            accepted=True,
            k=self.k,
            epsilon=self.epsilon,
            repetitions_run=0,
            repetitions_planned=self.repetitions,
            rounds_per_repetition=rounds_per_repetition(self.k),
        )
        with telemetry.span("tester.run", k=self.k, engine=self.engine):
            for i in range(self.repetitions):
                run = eng.run_tester_repetition(self.k, int(rep_seeds[i]))
                outputs = run.outputs
                rejecting = outputs.rejecting
                cycle = None
                for v in rejecting:
                    if outputs[v].cycle is not None:
                        cycle = outputs[v].cycle
                        break
                rejected = bool(rejecting)
                result.reports.append(
                    RepetitionReport(
                        index=i,
                        rejected=rejected,
                        cycle_ids=cycle,
                        rejecting_vertices=rejecting,
                        rounds=run.trace.num_rounds,
                    )
                )
                if keep_traces:
                    result.traces.append(run.trace)
                result.repetitions_run = i + 1
                if rejected:
                    result.accepted = False
                    if stop_on_reject:
                        break
        if telemetry.enabled:
            telemetry.counter(
                "repro_tester_runs_total",
                "Full tester executions, by engine backend.",
                ("engine",),
            ).inc(engine=self.engine)
            telemetry.counter(
                "repro_tester_repetitions_total",
                "Tester repetitions executed, by engine backend.",
                ("engine",),
            ).inc(result.repetitions_run, engine=self.engine)
            if not result.accepted:
                telemetry.counter(
                    "repro_tester_rejects_total",
                    "Tester runs ending in rejection, by engine backend.",
                    ("engine",),
                ).inc(engine=self.engine)
        return result


def test_ck_freeness(
    graph: Graph,
    k: int,
    epsilon: float,
    *,
    seed=None,
    repetitions: Optional[int] = None,
    network: Optional[Network] = None,
    engine: str = "reference",
) -> TesterResult:
    """One-call convenience wrapper around :class:`CkFreenessTester`."""
    tester = CkFreenessTester(k, epsilon, repetitions=repetitions, engine=engine)
    return tester.run(graph, seed=seed, network=network)


# The name starts with "test_" because it *is* a property tester; tell
# pytest not to collect it when user code does `from repro import *`.
test_ck_freeness.__test__ = False  # type: ignore[attr-defined]

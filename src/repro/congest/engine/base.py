"""Engine interface: one protocol, pluggable execution strategies.

An *engine* executes the paper's two CONGEST protocols on a fixed
network — Algorithm 1 for one edge (:meth:`CongestEngine.run_detect`)
and one full repetition of the multiplexed tester
(:meth:`CongestEngine.run_tester_repetition`) — and returns the same
:class:`~repro.congest.scheduler.RunResult` either way: per-vertex
:class:`~repro.core.algorithm1.DetectionOutcome` outputs plus a
bit-audited :class:`~repro.congest.instrumentation.ExecutionTrace`.
The outputs are one sparse
:class:`~repro.core.algorithm1.DetectionOutcomes` mapping over the
vertices ``0..n-1``: it stores only the rejecting vertices and lists
them in ascending order as ``rejecting``, so callers read a verdict
without scanning ``n`` outcomes.

Two backends ship with the reproduction:

``reference``
    The per-node message-passing simulation
    (:class:`~repro.congest.scheduler.SynchronousScheduler` driving
    :class:`~repro.core.phase1.MultiplexedCkProgram` /
    :class:`~repro.core.algorithm1.DetectCkProgram`).  Every message is
    an object, every delivery is audited individually.  This is the
    executable specification.

``fast``
    Batched numpy execution over CSR adjacency arrays
    (:mod:`repro.congest.engine.fast`): same verdicts, same round
    counts, same per-round aggregate audit, at array speed.

Engines are constructed per network (so backends can compile/cache
topology) and are required to produce **bit-identical verdicts** for
identical ``(network, k, seed)`` inputs — the contract is enforced by
``repro.testing.engine_equivalence_report`` and
``tests/test_engines.py``.  Every backend draws its Phase-1 ranks from
the one keyed function :func:`~repro.core.phase1.edge_ranks`, so the
ranks agree by construction; the tester calls
:meth:`CongestEngine.run_tester_repetition` once per repetition.  New
backends (async, GPU) plug in by subclassing :class:`CongestEngine` and
registering a factory in :mod:`repro.congest.engine`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

from ...errors import ConfigurationError
from ...obs import resolve_telemetry
from ..message import SizeModel
from ..network import Network
from ..scheduler import RunResult
from .profiler import NULL_PROFILER

__all__ = ["CongestEngine"]


class CongestEngine(ABC):
    """Executes the paper's protocols on one fixed network.

    Parameters
    ----------
    network:
        The CONGEST network (topology + ID assignment) to run on.
    size_model:
        Bit-cost model for the audit; defaults to the network's own.
    strict_bandwidth:
        Raise :class:`~repro.errors.BandwidthExceededError` if any
        message exceeds the CONGEST budget.
    faults:
        Optional :class:`~repro.congest.faults.FaultModel` deciding the
        fate of every delivery.  Only the ``reference`` backend simulates
        unreliable links; other backends must reject a non-``None``
        model with a clear :class:`~repro.errors.ConfigurationError`.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`; ``None`` resolves to the
        process global (disabled by default).  Completed runs export
        their trace aggregates into it via
        :func:`~repro.congest.instrumentation.export_trace`.
    profiler:
        Optional :class:`~repro.congest.engine.profiler.PhaseProfiler`
        attributing wall time to named protocol phases; ``None`` means
        the shared zero-overhead :data:`~repro.congest.engine.profiler
        .NULL_PROFILER`.  Profiling never touches RNG state, so it
        shares telemetry's bit-identity guarantee.
    """

    #: Stable backend name (the value of ``--engine``).
    name: str = "abstract"

    def __init__(
        self,
        network: Network,
        *,
        size_model: Optional[SizeModel] = None,
        strict_bandwidth: bool = False,
        faults=None,
        telemetry=None,
        profiler=None,
    ) -> None:
        self._net = network
        self._size_model = (
            size_model if size_model is not None else network.default_size_model()
        )
        self._strict = strict_bandwidth
        self._faults = faults
        self._telemetry = resolve_telemetry(telemetry)
        self._profiler = profiler if profiler is not None else NULL_PROFILER

    @property
    def network(self) -> Network:
        """The network this engine was compiled for."""
        return self._net

    @property
    def compiled_nbytes(self) -> int:
        """Bytes held by compiled per-network state (cache accounting).

        Zero for backends that compile nothing; the fast backend
        reports its CSR/half-edge arrays.
        """
        return 0

    # ------------------------------------------------------------------
    @abstractmethod
    def run_tester_repetition(
        self, k: int, rep_seed: int, *, pruner=None
    ) -> RunResult:
        """One repetition of the tester: Phase-1 rank exchange, minimum
        selection, and the prioritized multiplexed Phase 2
        (``1 + ⌊k/2⌋`` communication rounds).

        This is the tester's engine entry point, called once per
        repetition; a completed run exports its trace aggregates to
        telemetry before it returns.  ``outputs`` is a
        :class:`~repro.core.algorithm1.DetectionOutcomes`.
        ``pruner=None`` is the default
        :class:`~repro.core.pruning.HittingSetPruner`; the reference
        engine runs any :class:`~repro.core.pruning.Pruner` (the
        executable specification), and ``fast`` refuses all others."""

    @abstractmethod
    def run_detect(
        self, k: int, edge_ids: Tuple[int, int], *, pruner=None
    ) -> RunResult:
        """Algorithm 1 for a fixed edge, given as a pair of node IDs
        (``⌊k/2⌋`` communication rounds); ``outputs`` is a
        :class:`~repro.core.algorithm1.DetectionOutcomes`.  ``pruner`` as
        for :meth:`run_tester_repetition`."""

    # ------------------------------------------------------------------
    def _finish(self, run: RunResult) -> RunResult:
        """Export a completed run's trace aggregates to telemetry."""
        if self._telemetry.enabled:
            from ..instrumentation import export_trace

            export_trace(run.trace, self._telemetry, engine=self.name)
        return run

    @staticmethod
    def _check_k(k: int) -> None:
        if k < 3:
            raise ConfigurationError(f"k must be >= 3, got {k}")

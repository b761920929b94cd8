"""Execution instrumentation: per-round message and bandwidth statistics.

The audit is what turns the simulator into a *model checker* for the
CONGEST constraint: Lemma 3 promises at most ``(k-t+1)^(t-1)`` sequences
per message at round ``t``, hence O_k(log n) bits; the instrumentation
records the realised maxima so experiments T2/F1 can compare them against
the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import BandwidthExceededError
from .message import SequenceBundle, SizeModel

__all__ = [
    "RoundStats",
    "ExecutionTrace",
    "Instrumentation",
    "export_trace",
]


@dataclass
class RoundStats:
    """Aggregated statistics for one synchronous round."""

    round_index: int
    messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    max_sequences: int = 0
    #: (sender_id, receiver_id) realising max_message_bits.
    max_edge: Optional[Tuple[int, int]] = None

    def record(self, sender: int, receiver: int, bits: int, sequences: int) -> None:
        """Fold one delivered message into this round's aggregates."""
        self.messages += 1
        self.total_bits += bits
        if bits > self.max_message_bits:
            self.max_message_bits = bits
            self.max_edge = (sender, receiver)
        if sequences > self.max_sequences:
            self.max_sequences = sequences


@dataclass
class ExecutionTrace:
    """Full per-run record produced by the scheduler."""

    rounds: List[RoundStats] = field(default_factory=list)
    n: int = 0
    m: int = 0
    size_model: Optional[SizeModel] = None

    @property
    def num_rounds(self) -> int:
        """Number of communication rounds recorded."""
        return len(self.rounds)

    @property
    def total_messages(self) -> int:
        """Messages delivered across all rounds."""
        return sum(r.messages for r in self.rounds)

    @property
    def total_bits(self) -> int:
        """Total bits delivered across all rounds."""
        return sum(r.total_bits for r in self.rounds)

    @property
    def max_message_bits(self) -> int:
        """Largest single message of the run, in bits."""
        return max((r.max_message_bits for r in self.rounds), default=0)

    @property
    def max_sequences_per_message(self) -> int:
        """Largest per-message sequence count of the run."""
        return max((r.max_sequences for r in self.rounds), default=0)

    def max_sequences_by_round(self) -> List[int]:
        """Per-round maxima of sequences per message."""
        return [r.max_sequences for r in self.rounds]

    def summary(self) -> Dict[str, Any]:
        """The headline aggregates as a plain dict."""
        return {
            "rounds": self.num_rounds,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "max_message_bits": self.max_message_bits,
            "max_sequences_per_message": self.max_sequences_per_message,
        }


class Instrumentation:
    """Observes every delivery; optionally enforces the bandwidth budget.

    Parameters
    ----------
    size_model:
        Bit-cost model; if ``None`` only message/sequence counts are kept.
    strict:
        When true, a message exceeding ``size_model.budget_bits(n)`` raises
        :class:`BandwidthExceededError` — used in tests to prove baselines
        *violate* CONGEST where Algorithm 1 does not (for fixed small k).
    """

    def __init__(
        self,
        size_model: Optional[SizeModel] = None,
        *,
        strict: bool = False,
        n: int = 0,
        m: int = 0,
    ) -> None:
        self.trace = ExecutionTrace(n=n, m=m, size_model=size_model)
        self._size_model = size_model
        self._strict = strict
        self._n = n
        self._current: Optional[RoundStats] = None

    def begin_round(self, round_index: int) -> None:
        """Open a fresh RoundStats for ``round_index``."""
        self._current = RoundStats(round_index=round_index)
        self.trace.rounds.append(self._current)

    def observe(self, sender: int, receiver: int, message: Any) -> None:
        """Audit one delivery; in strict mode, enforce the bit budget."""
        if self._current is None:
            raise RuntimeError("observe() outside of a round")
        bits = 0
        sequences = 0
        if isinstance(message, SequenceBundle):
            sequences = len(message)
            if self._size_model is not None:
                bits = self._size_model.bundle_bits(message)
        else:
            sequences = _nested_sequences(message)
            if self._size_model is not None:
                bits = _generic_bits(message, self._size_model)
        self._current.record(sender, receiver, bits, sequences)
        if (
            self._strict
            and self._size_model is not None
            and bits > self._size_model.budget_bits(self._n)
        ):
            raise BandwidthExceededError(
                self._current.round_index,
                (sender, receiver),
                bits,
                self._size_model.budget_bits(self._n),
            )


def export_trace(trace: ExecutionTrace, telemetry, *, engine: str) -> None:
    """Fold one run's aggregates into ``telemetry``'s metric registry.

    This is the single bridge between the per-run
    :class:`ExecutionTrace` audit and the process-wide
    :mod:`repro.obs` registry — engines call it once per completed run,
    so trace aggregates and exported metrics cannot drift apart.  A
    disabled telemetry returns immediately (the bit-identity guarantee:
    nothing here touches RNG state or protocol data).
    """
    if not getattr(telemetry, "enabled", False):
        return
    telemetry.counter(
        "repro_congest_runs_total",
        "Completed CONGEST protocol runs, by engine backend.",
        ("engine",),
    ).inc(engine=engine)
    telemetry.counter(
        "repro_congest_rounds_total",
        "Communication rounds executed, by engine backend.",
        ("engine",),
    ).inc(trace.num_rounds, engine=engine)
    telemetry.counter(
        "repro_congest_messages_total",
        "Messages delivered, by engine backend.",
        ("engine",),
    ).inc(trace.total_messages, engine=engine)
    telemetry.counter(
        "repro_congest_bits_total",
        "Audited message bits delivered, by engine backend.",
        ("engine",),
    ).inc(trace.total_bits, engine=engine)
    telemetry.gauge(
        "repro_congest_max_message_bits",
        "Largest single audited message seen, in bits.",
        ("engine",),
    ).set_max(trace.max_message_bits, engine=engine)
    telemetry.gauge(
        "repro_congest_max_sequences_per_message",
        "Largest per-message sequence count seen (Lemma 3 audit).",
        ("engine",),
    ).set_max(trace.max_sequences_per_message, engine=engine)


def _nested_sequences(message: Any) -> int:
    """Total sequence count inside nested payloads (batched/multi-k
    messages wrap one bundle per sub-protocol in a dict)."""
    if isinstance(message, SequenceBundle):
        return len(message)
    if isinstance(message, dict):
        return sum(_nested_sequences(v) for v in message.values())
    if isinstance(message, (tuple, list)):
        return sum(_nested_sequences(v) for v in message)
    return 0


def _generic_bits(message: Any, model: SizeModel) -> int:
    """Bit cost for non-bundle payloads (ranks, raw ID containers, and
    nested bundles as produced by the batched-repetition extension)."""
    if message is None:
        return 0
    if isinstance(message, SequenceBundle):
        return model.bundle_bits(message)
    if isinstance(message, bool):
        return 1
    if isinstance(message, int):
        return model.rank_bits
    if isinstance(message, (tuple, list, set, frozenset)):
        return sum(_generic_bits(x, model) for x in message) + 8
    if isinstance(message, dict):
        return sum(
            _generic_bits(k, model) + _generic_bits(v, model)
            for k, v in message.items()
        ) + 8
    # Fallback: charge one ID.
    return model.id_bits

"""Engine phase profiler: wall-time attribution to named protocol phases.

``/metrics`` can say a run was slow; the profiler says *where*: Phase-1
rank draws vs. the priority mux vs. the per-round apply vs. the audit
fold.

The default is :data:`NULL_PROFILER`, whose :meth:`~NullProfiler.phase`
returns one shared no-op context manager — entering it allocates
nothing and touches no clock, so profiling is zero-overhead when off
and can never perturb verdicts (the same bit-identity stance as
:mod:`repro.obs.telemetry`).

A live :class:`PhaseProfiler` aggregates ``{calls, seconds}`` per phase
and exports the schema-validated ``PROFILE.json`` artifact consumed by
``repro obs profile``::

    profiler = PhaseProfiler()
    engine = create_engine("fast", network, profiler=profiler)
    engine.run_tester_repetition(k=5, rep_seed=42)
    profiler.write("PROFILE.json", engine="fast")
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Union

from ...errors import ConfigurationError

__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "PROFILE_SCHEMA",
    "PhaseProfiler",
    "validate_profile",
]

#: Schema identifier stamped into (and required of) every PROFILE.json.
PROFILE_SCHEMA = "repro.profile/v1"


class _NullPhase:
    """Shared no-op context manager handed out by :class:`NullProfiler`."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_PHASE = _NullPhase()


class NullProfiler:
    """Disabled profiler: every operation is a cheap no-op."""

    enabled = False

    __slots__ = ()

    def phase(self, name: str) -> _NullPhase:
        """The shared no-op phase."""
        return _NULL_PHASE

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Discarded."""

    def report(self, engine: str = "") -> Dict[str, Any]:
        """Always empty (no phases)."""
        return {}


#: The shared disabled instance (every engine's default).
NULL_PROFILER = NullProfiler()


class _Phase:
    """One live timed phase; context manager from :meth:`PhaseProfiler.phase`."""

    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Phase":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._profiler.add(self._name, time.perf_counter() - self._t0)


class PhaseProfiler:
    """Accumulates wall seconds and call counts per named phase.

    Phases are timed with ``with profiler.phase("round_apply"):`` or
    folded in externally via :meth:`add`.
    Phase order is first-use order, which :meth:`report` preserves.
    """

    enabled = True

    def __init__(self) -> None:
        self._phases: Dict[str, list] = {}

    def phase(self, name: str) -> _Phase:
        """A context manager timing one occurrence of phase ``name``."""
        return _Phase(self, name)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Fold externally measured ``seconds`` into phase ``name``."""
        entry = self._phases.get(name)
        if entry is None:
            self._phases[name] = [float(seconds), int(calls)]
        else:
            entry[0] += float(seconds)
            entry[1] += int(calls)

    def clear(self) -> None:
        """Drop every accumulated phase (reuse between runs)."""
        self._phases.clear()

    # ------------------------------------------------------------------
    def report(self, engine: str = "") -> Dict[str, Any]:
        """The ``PROFILE.json`` document for the phases seen so far."""
        phases = {
            name: {"calls": calls, "seconds": round(seconds, 6)}
            for name, (seconds, calls) in self._phases.items()
        }
        return {
            "schema": PROFILE_SCHEMA,
            "engine": engine,
            "phases": phases,
            "total_seconds": round(
                sum(seconds for seconds, _ in self._phases.values()), 6
            ),
        }

    def write(
        self, path: Union[str, Path], *, engine: str = ""
    ) -> Dict[str, Any]:
        """Validate and write the profile document to ``path``; returns it."""
        doc = validate_profile(self.report(engine=engine))
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return doc


def validate_profile(doc: Any) -> Dict[str, Any]:
    """Check a ``PROFILE.json`` document against the v1 schema.

    Requires the :data:`PROFILE_SCHEMA` marker, a string ``engine``, a
    numeric ``total_seconds`` and a ``phases`` mapping whose values are
    ``{"calls": int >= 1, "seconds": float >= 0}``.  Raises
    :class:`~repro.errors.ConfigurationError` with the first violation;
    returns the document unchanged when valid.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"profile must be a JSON object, got {type(doc).__name__}"
        )
    if doc.get("schema") != PROFILE_SCHEMA:
        raise ConfigurationError(
            f"profile schema must be {PROFILE_SCHEMA!r}, "
            f"got {doc.get('schema')!r}"
        )
    if not isinstance(doc.get("engine"), str):
        raise ConfigurationError("profile 'engine' must be a string")
    total = doc.get("total_seconds")
    if not isinstance(total, (int, float)) or total < 0:
        raise ConfigurationError(
            "profile 'total_seconds' must be a non-negative number"
        )
    phases = doc.get("phases")
    if not isinstance(phases, dict):
        raise ConfigurationError("profile 'phases' must be an object")
    for name, entry in phases.items():
        if not isinstance(entry, dict):
            raise ConfigurationError(f"phase {name!r} must be an object")
        calls = entry.get("calls")
        seconds = entry.get("seconds")
        if not isinstance(calls, int) or calls < 1:
            raise ConfigurationError(
                f"phase {name!r}: 'calls' must be a positive integer"
            )
        if not isinstance(seconds, (int, float)) or seconds < 0:
            raise ConfigurationError(
                f"phase {name!r}: 'seconds' must be a non-negative number"
            )
        unknown = sorted(set(entry) - {"calls", "seconds"})
        if unknown:
            raise ConfigurationError(
                f"phase {name!r}: unknown field(s) {', '.join(unknown)}"
            )
    return doc

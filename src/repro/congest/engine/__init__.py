"""Pluggable CONGEST execution engines.

One protocol, interchangeable backends (see
:class:`~repro.congest.engine.base.CongestEngine` for the contract):

* ``reference`` — the original per-node lock-step simulation, with a
  per-message bit audit.
* ``fast`` — batched numpy execution over CSR adjacency arrays with an
  aggregate (per-sender) bit audit.

numpy is a core dependency, so both backends run wherever ``repro``
imports.

Select a backend by name::

    from repro.congest.engine import create_engine

    engine = create_engine("fast", network, strict_bandwidth=True)
    run = engine.run_tester_repetition(k=5, rep_seed=42)

or end to end through ``CkFreenessTester(..., engine="fast")``,
``detect_cycle_through_edge(..., engine="fast")``, the CLI's
``--engine`` flag, and the campaign runner's ``engines`` factor.

All backends are verdict-equivalent under fixed seeds: both draw
Phase-1 ranks from :func:`repro.core.phase1.edge_ranks`.  See
``docs/engines.md`` and :func:`repro.testing.engine_equivalence_report`.
"""

from __future__ import annotations

from typing import Tuple

from ...errors import ConfigurationError
from ..network import Network
from .base import CongestEngine
from .fast import FastEngine
from .profiler import (
    NULL_PROFILER,
    NullProfiler,
    PhaseProfiler,
    validate_profile,
)
from .reference import ReferenceEngine

__all__ = [
    "ENGINE_NAMES",
    "NULL_PROFILER",
    "CongestEngine",
    "NullProfiler",
    "PhaseProfiler",
    "create_engine",
    "ensure_engine_available",
    "validate_profile",
]

#: All backend names, in preference order for documentation/CLI listings.
ENGINE_NAMES: Tuple[str, ...] = ("reference", "fast")


def ensure_engine_available(name: str) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless ``name`` is
    one of :data:`ENGINE_NAMES`."""
    if name not in ENGINE_NAMES:
        raise ConfigurationError(
            f"unknown engine {name!r}; choose from {', '.join(ENGINE_NAMES)}"
        )


def create_engine(spec: str, network: Network, **kwargs) -> CongestEngine:
    """Instantiate the backend named ``spec`` for ``network``.

    ``kwargs`` are forwarded to the engine constructor (``size_model``,
    ``strict_bandwidth``, ``faults`` — the last only honoured by the
    reference backend — ``telemetry`` and ``profiler``, a
    :class:`PhaseProfiler` attributing wall time to protocol phases).
    """
    ensure_engine_available(spec)
    if spec == "reference":
        return ReferenceEngine(network, **kwargs)
    return FastEngine(network, **kwargs)

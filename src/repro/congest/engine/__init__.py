"""Pluggable CONGEST execution engines.

One protocol, interchangeable backends (see
:class:`~repro.congest.engine.base.CongestEngine` for the contract):

* ``reference`` — the original per-node lock-step simulation, with a
  per-message bit audit.  Always available.
* ``fast`` — batched numpy execution over CSR adjacency arrays with an
  aggregate (per-sender) bit audit.  Requires numpy
  (``pip install repro-cycles[fast]``) and node IDs below ``2**32``.

Select a backend by name::

    from repro.congest.engine import create_engine

    engine = create_engine("fast", network, strict_bandwidth=True)
    run = engine.run_tester_repetition(k=5, rep_seed=42)

or end to end through ``CkFreenessTester(..., engine="fast")``,
``detect_cycle_through_edge(..., engine="fast")``, the CLI's
``--engine`` flag, and the campaign runner's ``engines`` factor.  The
fast backend additionally accepts a repetition chunk size for its
batched tester kernel, spelled ``"fast:chunk=8"`` in any engine-name
position (or ``--rep-chunk 8`` on the CLI); :func:`parse_engine_spec`
is the one parser for that syntax.

All backends are verdict-equivalent under fixed seeds; see
``docs/engines.md`` and :func:`repro.testing.engine_equivalence_report`.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ...errors import ConfigurationError, EngineUnavailableError
from ..network import Network
from .base import CongestEngine
from .profiler import (
    NULL_PROFILER,
    NullProfiler,
    PhaseProfiler,
    validate_profile,
)

__all__ = [
    "ENGINE_NAMES",
    "NULL_PROFILER",
    "CongestEngine",
    "NullProfiler",
    "PhaseProfiler",
    "available_engines",
    "create_engine",
    "ensure_engine_available",
    "parse_engine_spec",
    "validate_profile",
]

#: All backend names, in preference order for documentation/CLI listings.
ENGINE_NAMES: Tuple[str, ...] = ("reference", "fast")


def _numpy_missing() -> str:
    """Import-check numpy; return an empty string or the failure reason."""
    try:
        import numpy  # noqa: F401
    except ImportError as exc:  # pragma: no cover - numpy ships in [test]
        return str(exc)
    return ""


def parse_engine_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Split an engine spec string into ``(name, constructor_kwargs)``.

    The grammar is ``reference`` | ``fast[:chunk=C]``: plain names pass
    through with no options, and ``chunk=C`` is the repetition chunk
    size of the fast engine's batched tester kernel — ``"fast:chunk=8"``
    → ``("fast", {"rep_chunk": 8})``.

    These spellings are accepted anywhere an engine name is (the CLI's
    ``--engine``, the campaign ``engines`` factor, service session
    specs).  Raises :class:`~repro.errors.ConfigurationError` for
    unknown names, options on ``reference``, unknown or repeated
    options, and non-positive or non-integer chunk sizes.
    """
    name, sep, opts = str(spec).partition(":")
    if name not in ENGINE_NAMES:
        raise ConfigurationError(
            f"unknown engine {name!r}; choose from {', '.join(ENGINE_NAMES)}"
        )
    if not sep:
        return name, {}
    if name == "reference":
        raise ConfigurationError(
            f"engine 'reference' takes no options (got {spec!r}); "
            "'fast' accepts chunk=C, e.g. 'fast:chunk=8'"
        )
    kwargs: Dict[str, Any] = {}
    for item in opts.split(","):
        key, eq, value = item.partition("=")
        if key != "chunk" or not eq:
            raise ConfigurationError(
                f"unknown option {item!r} in engine spec {spec!r}; "
                "supported: chunk=C, e.g. 'fast:chunk=8'"
            )
        if "rep_chunk" in kwargs:
            raise ConfigurationError(f"chunk given twice in engine spec {spec!r}")
        try:
            chunk = int(value)
        except ValueError:
            raise ConfigurationError(
                f"bad chunk size in engine spec {spec!r}; expected an "
                "integer, e.g. 'fast:chunk=8'"
            ) from None
        if chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {chunk}")
        kwargs["rep_chunk"] = chunk
    return name, kwargs


def ensure_engine_available(spec: str) -> None:
    """Validate an engine spec and this environment's ability to run it.

    Raises :class:`~repro.errors.ConfigurationError` for unknown names
    or malformed specs and
    :class:`~repro.errors.EngineUnavailableError` when the backend's
    dependencies are missing (e.g. ``fast`` without numpy).
    """
    name, _ = parse_engine_spec(spec)
    if name == "fast":
        reason = _numpy_missing()
        if reason:
            raise EngineUnavailableError(
                f"the {name!r} engine requires numpy, which is not installed "
                f"({reason}); install it with `pip install repro-cycles[fast]` "
                "or run with --engine reference"
            )


def available_engines() -> Tuple[str, ...]:
    """The subset of :data:`ENGINE_NAMES` that can run here."""
    out = []
    for name in ENGINE_NAMES:
        try:
            ensure_engine_available(name)
        except ConfigurationError:
            continue
        out.append(name)
    return tuple(out)


def create_engine(spec: str, network: Network, **kwargs) -> CongestEngine:
    """Instantiate the backend named by ``spec`` for ``network``.

    ``spec`` is an engine name or spec string (see
    :func:`parse_engine_spec`); options embedded in the spec may not be
    repeated in ``kwargs``.  ``kwargs`` are forwarded to the engine
    constructor (``size_model``, ``strict_bandwidth``, ``faults`` — the
    last only honoured by the reference backend — ``telemetry`` and
    ``profiler`` (a :class:`PhaseProfiler` attributing wall time to
    protocol phases), plus ``rep_chunk`` for the fast backend).
    """
    ensure_engine_available(spec)
    name, opts = parse_engine_spec(spec)
    for key in opts:
        if key in kwargs:
            raise ConfigurationError(
                f"engine option {key!r} given both in the spec {spec!r} "
                "and as a keyword argument"
            )
    kwargs = {**opts, **kwargs}
    if name == "reference":
        from .reference import ReferenceEngine

        return ReferenceEngine(network, **kwargs)
    from .fast import FastEngine

    return FastEngine(network, **kwargs)

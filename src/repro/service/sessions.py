"""Service sessions: one monitored dynamic graph per client, LRU-bounded.

A :class:`Session` pairs a named :class:`~repro.dynamic.CkMonitor` with
an :class:`asyncio.Lock` that enforces **single-writer ordering**: every
state-changing operation (mutation batches) and every atomic read
(snapshots) runs under the lock, so concurrent clients hammering one
session observe a serializable interleaving — the mutation log is the
serialization order, versions increment strictly, and a snapshot's
``(version, content_hash, graph, log)`` quadruple is taken at one
consistent point.

The :class:`SessionManager` owns the sessions, bounds their count, and
evicts the **least recently used** idle session when a create would
exceed the cap (an evicted name simply becomes ``unknown_session`` on
its next request).  A session whose lock is held is never evicted — the
single writer inside it would otherwise mutate a zombie — so when every
session is busy at the cap, creation fails with 503 instead.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from ..dynamic.monitor import CkMonitor
from ..dynamic.mutations import Mutation
from ..errors import ConfigurationError, GraphError
from ..graphs import io as graph_io
from ..graphs.graph import Graph
from ..obs import resolve_telemetry
from .protocol import SESSION_NAME_RE, ServiceError

__all__ = ["Session", "SessionManager"]


class Session:
    """One monitored dynamic graph behind the service.

    Construction runs the monitor's initial full detection, so a freshly
    created session already has an exact verdict.  All later access goes
    through the owning :class:`SessionManager` / server, which take
    :attr:`lock` around writes and atomic reads.
    """

    def __init__(
        self,
        name: str,
        base: Graph,
        k: int,
        *,
        engine: str = "reference",
        seed: int = 0,
        epsilon: float = 0.1,
        tester_repetitions: Optional[int] = 8,
        telemetry=None,
    ) -> None:
        self.name = name
        self.telemetry = resolve_telemetry(telemetry)
        self.monitor = CkMonitor(
            base,
            k,
            engine=engine,
            epsilon=epsilon,
            tester_repetitions=tester_repetitions,
            seed=seed,
            telemetry=telemetry,
        )
        self.seed = seed
        self.lock = asyncio.Lock()

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Applied mutations so far (names the current state)."""
        return self.monitor.version

    def verdict_payload(self) -> Dict[str, Any]:
        """The cheap per-query view: verdict, witness, version."""
        witness = self.monitor.witness
        return {
            "name": self.name,
            "k": self.monitor.k,
            "version": self.version,
            "accepted": self.monitor.accepted,
            "witness": list(witness) if witness is not None else None,
        }

    def info_payload(self) -> Dict[str, Any]:
        """Full session description: verdict view plus config and stats."""
        g = self.monitor.graph
        payload = self.verdict_payload()
        payload.update({
            "engine": self.monitor.engine,
            "seed": self.seed,
            "epsilon": self.monitor.epsilon,
            "n": g.n,
            "m": g.m,
            "stats": self.monitor.stats.as_dict(),
        })
        return payload

    def apply_batch(self, batch: List[Tuple[int, Mutation]]) -> Dict[str, Any]:
        """Apply a parsed mutation batch in order; caller holds the lock.

        Applies mutations one at a time through the monitor.  A mutation
        that is invalid against the *current graph state* (duplicate
        insert, deleting an absent edge, out-of-range endpoint) stops
        the batch: the valid prefix stays applied and the failure is
        reported as a 409 :class:`ServiceError` with the offending line
        number and the applied count — so a client always knows exactly
        which prefix of its batch is in the log.

        Runs inside a ``session.apply`` span, so the monitor's own spans
        (``monitor.full_redetect`` and below) chain to it — and, through
        the ambient request context, to the request wide event.
        """
        applied = 0
        actions: Dict[str, int] = {}
        with self.telemetry.span("session.apply", session=self.name, batch=len(batch)):
            for lineno, mutation in batch:
                try:
                    record = self.monitor.apply(mutation)
                except GraphError as exc:
                    raise ServiceError(
                        409,
                        "invalid_mutation",
                        str(exc),
                        line=lineno,
                        applied=applied,
                        version=self.version,
                    ) from exc
                applied += 1
                actions[record.action] = actions.get(record.action, 0) + 1
        payload = self.verdict_payload()
        payload.update({"applied": applied, "actions": actions})
        return payload

    def snapshot_payload(self) -> Dict[str, Any]:
        """Atomic state capture; caller holds the lock.

        The version, content hash, serialised graph and serialised
        mutation log are all taken under the session lock at one point
        of the mutation history, so they are mutually consistent even
        while other clients queue writes (the regression target of the
        snapshot/mutation race fix — see ``DynamicGraph.snapshot``).
        """
        snap = self.monitor.dynamic.snapshot()
        return {
            "name": self.name,
            "version": snap.version,
            "content_hash": snap.content_hash,
            "n": snap.graph.n,
            "m": snap.graph.m,
            "accepted": self.monitor.accepted,
            "graph": graph_io.dumps(snap.graph),
            "log": graph_io.dumps_stream(self.monitor.dynamic.log),
            "stats": self.monitor.stats.as_dict(),
        }


class SessionManager:
    """Named sessions with a hard count bound and LRU eviction.

    ``touch`` order is access order: every successful lookup moves the
    session to most-recently-used, so steady traffic protects a session
    from eviction and abandoned sessions age out first.
    """

    def __init__(self, max_sessions: int, *, telemetry=None) -> None:
        if max_sessions < 1:
            raise ConfigurationError(f"max_sessions must be >= 1, got {max_sessions}")
        self.max_sessions = max_sessions
        self._telemetry = resolve_telemetry(telemetry)
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self._auto_names = itertools.count()
        self.evictions = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def names(self) -> List[str]:
        """Session names, least recently used first."""
        return list(self._sessions)

    def get(self, name: str) -> Session:
        """Look up (and LRU-touch) a session; 404 when unknown."""
        session = self._sessions.get(name)
        if session is None:
            raise ServiceError(
                404,
                "unknown_session",
                f"no session named {name!r} (expired or never created)",
            )
        self._sessions.move_to_end(name)
        return session

    def delete(self, name: str) -> Session:
        """Remove a session; 404 when unknown."""
        session = self._sessions.pop(name, None)
        if session is None:
            raise ServiceError(
                404,
                "unknown_session",
                f"no session named {name!r} (expired or never created)",
            )
        self._gauge_sessions()
        return session

    # ------------------------------------------------------------------
    def create(
        self,
        base: Graph,
        k: int,
        *,
        name: Optional[str] = None,
        engine: str = "reference",
        seed: int = 0,
        epsilon: float = 0.1,
        tester_repetitions: Optional[int] = 8,
    ) -> Session:
        """Create (and register) a session, evicting LRU idle if full.

        The victim is chosen before the session is built (503 when every
        session is busy) but evicted only once the build has succeeded,
        so a create the monitor refuses costs no session.  Nothing here
        awaits, so no request can take the victim's lock in between.
        """
        if name is None:
            name = self._next_auto_name()
        elif not SESSION_NAME_RE.match(name):
            raise ServiceError(
                400,
                "bad_request",
                f"invalid session name {name!r} " f"(need {SESSION_NAME_RE.pattern})",
            )
        if name in self._sessions:
            raise ServiceError(
                409, "session_exists", f"session {name!r} already exists"
            )
        victim = self._eviction_victim()
        try:
            # The initial full detection happens in the constructor, so
            # the span covers the expensive part of session creation.
            with self._telemetry.span(
                "session.create", session=name, engine=str(engine), k=k
            ):
                session = Session(
                    name,
                    base,
                    k,
                    engine=engine,
                    seed=seed,
                    epsilon=epsilon,
                    tester_repetitions=tester_repetitions,
                    telemetry=self._telemetry,
                )
        except (ConfigurationError, GraphError) as exc:
            raise ServiceError(400, "bad_request", str(exc)) from exc
        if victim is not None:
            del self._sessions[victim]
            self.evictions += 1
            self._telemetry.counter(
                "repro_service_evictions_total",
                "Sessions evicted by the LRU capacity bound.",
            ).inc()
        self._sessions[name] = session
        self._gauge_sessions()
        return session

    def _next_auto_name(self) -> str:
        """A fresh auto-assigned name (skips client-claimed names)."""
        while True:
            name = f"s{next(self._auto_names):06d}"
            if name not in self._sessions:
                return name

    def _eviction_victim(self) -> Optional[str]:
        """The least recently used idle session if the table is full
        (``None`` when there is room), or 503 when every one is busy."""
        if len(self._sessions) < self.max_sessions:
            return None
        victim = next(
            (name for name, session in self._sessions.items()
             if not session.lock.locked()),
            None,
        )
        if victim is None:
            raise ServiceError(
                503,
                "session_limit",
                f"all {self.max_sessions} sessions are busy; "
                f"retry or delete one",
            )
        return victim

    def _gauge_sessions(self) -> None:
        """Refresh the open/peak session gauges."""
        tel = self._telemetry
        tel.gauge(
            "repro_service_sessions_open",
            "Sessions currently held by the service.",
        ).set(len(self._sessions))
        tel.gauge(
            "repro_service_sessions_peak",
            "High-water mark of concurrently held sessions.",
        ).set_max(len(self._sessions))

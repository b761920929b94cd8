"""The asyncio HTTP/1.1 daemon serving detection sessions.

:class:`ServiceServer` is a single-process, single-event-loop server
built directly on :func:`asyncio.start_server` — no web framework, no
new runtime dependency (the same zero-dependency stance as
:mod:`repro.obs`).  It implements the small HTTP/1.1 subset the protocol
needs: request line + headers, ``Content-Length`` bodies, keep-alive
connections, and ``Connection: close`` on unrecoverable transport
errors.

Operational properties (each tested in ``tests/test_service*.py``):

* **per-session single-writer ordering** — mutation batches and
  snapshots run under the session's :class:`asyncio.Lock`;
* **per-request timeout** — every handler runs inside
  :func:`asyncio.wait_for`; expiry returns a 504 envelope.  The budget
  covers lock waits and I/O; a long synchronous detection inside the
  monitor cannot be pre-empted mid-call (cooperative scheduling);
* **bounded bodies** — requests larger than ``max_body_bytes`` get a
  413 envelope and the connection is closed (the oversized body is
  never buffered);
* **bounded sessions** — the :class:`~repro.service.sessions
  .SessionManager` LRU-evicts idle sessions at the cap;
* **graceful drain** — :meth:`stop` stops accepting connections, lets
  in-flight requests finish (up to ``drain_timeout``), then closes
  idle keep-alive connections.

Every response is counted in ``repro_service_requests_total`` (by
endpoint and status) and timed into ``repro_service_request_seconds``
(by endpoint); ``GET /metrics`` renders the registry through the
round-trip-safe Prometheus writer of :mod:`repro.obs.exposition`.

Every request is also **traced**: the server parses the client's W3C
``traceparent`` header (malformed values restart the trace with fresh
ids — never an error), assigns the request its own span id, installs the
pair as the ambient :func:`~repro.obs.tracing.activate_trace` context so
monitor/engine spans opened by the handler chain to it, emits one
``request`` *wide event* to the telemetry sink (endpoint, status, bytes
in/out, duration, session, actions, trace ids), and echoes the
``traceparent`` on the response so clients can join their rows to
server-side events (``repro obs trace``).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..congest.engine import ensure_engine_available
from ..errors import ConfigurationError, GraphError
from ..graphs import io as graph_io
from ..graphs.graph import Graph
from ..obs import Telemetry
from ..obs.metrics import DEFAULT_LATENCY_BUCKETS
from ..obs.tracing import (
    TraceContext,
    TraceIdSource,
    activate_trace,
    format_traceparent,
    parse_traceparent,
)
from .protocol import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_SESSIONS,
    DEFAULT_REQUEST_TIMEOUT,
    PROTOCOL_VERSION,
    ServiceError,
    error_body,
    json_dumps,
    parse_stream_batch,
)
from .sessions import SessionManager

__all__ = ["Request", "ServiceConfig", "ServiceServer"]

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Content type of the Prometheus exposition format.
_PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    oversized: bool = False  #: Content-Length beyond the body cap

    def json(self) -> Dict[str, Any]:
        """The body as a JSON object; 400 on anything else."""
        try:
            payload = json.loads(self.body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                400, "bad_request", f"request body is not valid JSON ({exc})"
            ) from exc
        if not isinstance(payload, dict):
            raise ServiceError(
                400,
                "bad_request",
                f"request body must be a JSON object, got " f"{type(payload).__name__}",
            )
        return payload

    def text(self) -> str:
        """The body as UTF-8 text; 400 on undecodable bytes."""
        try:
            return self.body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServiceError(
                400, "bad_request", f"request body is not UTF-8 ({exc})"
            ) from exc


@dataclass
class ServiceConfig:
    """Tunables of one :class:`ServiceServer`."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 binds an ephemeral port (see ``ServiceServer.port``)
    max_sessions: int = DEFAULT_MAX_SESSIONS
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    idle_timeout: float = 60.0  #: keep-alive read patience, seconds
    drain_timeout: float = 10.0  #: stop() patience for in-flight requests
    debug: bool = False  #: enables GET /debug/sleep (timeout testing)
    default_engine: str = "reference"


class ServiceServer:
    """The detection-as-a-service daemon (one asyncio event loop).

    Parameters
    ----------
    config:
        Tunables; defaults serve on an ephemeral localhost port.
    telemetry:
        The :class:`~repro.obs.Telemetry` that backs ``/metrics``.  The
        server always needs a live registry, so ``None`` creates a
        private in-memory one (the library-wide off-by-default global
        is not touched).  Session monitors share it, so the monitor's
        own cache-hit counters are exported alongside the service
        families.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        ids = getattr(self.telemetry, "ids", None)
        self._ids = ids if ids is not None else TraceIdSource()
        self.sessions = SessionManager(
            self.config.max_sessions, telemetry=self.telemetry
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._busy = 0
        self._draining = False
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections; sets :attr:`port`."""
        self._server = await asyncio.start_server(
            self._handle_conn,
            self.config.host,
            self.config.port,
            limit=max(self.config.max_body_bytes, 1 << 16),
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (``repro serve`` runs this)."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: refuse new work, drain, close.

        With ``drain`` the server waits (up to ``drain_timeout``) for
        requests already being handled; idle keep-alive connections are
        then closed immediately.  Without ``drain`` everything is torn
        down at once.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            deadline = time.monotonic() + self.config.drain_timeout
            while self._busy and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._conn_loop(reader, writer)
        except asyncio.CancelledError:
            pass
        except (ConnectionError, EOFError, ValueError, OSError):
            pass  # broken or abusive transport: just drop the connection
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _conn_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve keep-alive requests on one connection until close."""
        while not self._draining:
            try:
                request = await asyncio.wait_for(
                    self._read_request(reader),
                    timeout=self.config.idle_timeout,
                )
            except asyncio.TimeoutError:
                return  # idle keep-alive connection: close silently
            except ServiceError as exc:
                # Transport-level parse failure: answer and close.
                await self._write_response(
                    writer,
                    exc.status,
                    json_dumps(exc.envelope()),
                    close=True,
                )
                self._count_request("_transport", exc.status)
                return
            if request is None:
                return  # clean EOF between requests
            status, payload, content_type, traceparent = await self._dispatch(request)
            close = (
                request.headers.get("connection", "").lower() == "close"
                or status == 413
                or self._draining
            )
            await self._write_response(
                writer,
                status,
                payload,
                content_type=content_type,
                close=close,
                traceparent=traceparent,
            )
            if close:
                return

    async def _read_request(self, reader: asyncio.StreamReader) -> Optional[Request]:
        """Parse one request off the wire; ``None`` on clean EOF."""
        try:
            line = await reader.readline()
        except (ValueError, ConnectionError) as exc:
            raise ServiceError(
                400, "bad_request", f"unreadable request line ({exc})"
            ) from exc
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            raise ServiceError(
                400, "bad_request", f"malformed request line {line!r}"
            ) from None
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(headers) > 64:
                raise ServiceError(400, "bad_request", "too many headers")
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ServiceError(
                400,
                "bad_request",
                f"invalid Content-Length {headers.get('content-length')!r}",
            ) from None
        if length < 0:
            raise ServiceError(400, "bad_request", "negative Content-Length")
        if length > self.config.max_body_bytes:
            # Refuse without buffering; the conn closes after the reply.
            split = urlsplit(target)
            return Request(method.upper(), split.path, {}, headers, b"", oversized=True)
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {key: values[-1] for key, values in parse_qs(split.query).items()}
        return Request(method.upper(), split.path, query, headers, body)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: str,
        *,
        content_type: str = "application/json",
        close: bool = False,
        traceparent: Optional[str] = None,
    ) -> None:
        body = payload.encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        trace_line = f"Traceparent: {traceparent}\r\n" if traceparent else ""
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{trace_line}"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        try:
            await writer.drain()
        except ConnectionError:
            pass

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Request) -> Tuple[int, str, str, str]:
        """Route one request; returns ``(status, payload, content_type,
        traceparent)``.

        The request adopts the trace of a valid incoming ``traceparent``
        header (the client's span becomes ``parent_id``); anything
        invalid restarts the trace with fresh deterministic ids, per the
        W3C spec.  The handler runs under :func:`activate_trace`, so
        every span it opens chains to this request's span id, and one
        ``request`` wide event summarising the exchange is emitted to
        the telemetry sink.
        """
        started = time.perf_counter()
        endpoint = "_unmatched"
        incoming = parse_traceparent(request.headers.get("traceparent"))
        if incoming is not None:
            trace_id: str = incoming.trace_id
            parent_id: Optional[str] = incoming.span_id
        else:
            trace_id = self._ids.trace_id()
            parent_id = None
        span_id = self._ids.span_id()
        try:
            if request.oversized:
                raise ServiceError(
                    413,
                    "payload_too_large",
                    f"request body exceeds {self.config.max_body_bytes} " f"bytes",
                )
            if self._draining:
                raise ServiceError(
                    503, "draining", "server is draining; no new requests"
                )
            endpoint, handler = self._route(request)
            self._busy += 1
            try:
                with activate_trace(TraceContext(trace_id, span_id)):
                    status, payload = await asyncio.wait_for(
                        handler(request),
                        timeout=self.config.request_timeout,
                    )
            finally:
                self._busy -= 1
        except asyncio.TimeoutError:
            status = 504
            payload = error_body(
                504,
                "timeout",
                f"request exceeded the " f"{self.config.request_timeout:g}s budget",
            )
        except ServiceError as exc:
            status, payload = exc.status, exc.envelope()
        except Exception as exc:  # noqa: BLE001 - a daemon must not die
            status = 500
            payload = error_body(500, "internal", f"{type(exc).__name__}: {exc}")
        content_type = "application/json"
        if isinstance(payload, str):
            content_type = _PROM_CONTENT_TYPE
            text = payload
        else:
            text = json_dumps(payload)
        elapsed = time.perf_counter() - started
        self._count_request(endpoint, status)
        self.telemetry.histogram(
            "repro_service_request_seconds",
            "Service request latency by endpoint.",
            ("endpoint",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        ).observe(elapsed, endpoint=endpoint)
        event: Dict[str, Any] = {
            "type": "request",
            "endpoint": endpoint,
            "method": request.method,
            "path": request.path,
            "status": status,
            "bytes_in": len(request.body),
            "bytes_out": len(text.encode("utf-8")),
            "elapsed_ms": round(elapsed * 1e3, 3),
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
        }
        if isinstance(payload, dict):
            if payload.get("name") is not None:
                event["session"] = payload["name"]
            if payload.get("actions") is not None:
                event["actions"] = payload["actions"]
        self.telemetry.sink.emit(event)
        return (
            status,
            text,
            content_type,
            format_traceparent(trace_id, span_id),
        )

    def _count_request(self, endpoint: str, status: int) -> None:
        self.telemetry.counter(
            "repro_service_requests_total",
            "Service requests handled, by endpoint and HTTP status.",
            ("endpoint", "status"),
        ).inc(endpoint=endpoint, status=str(status))

    def _route(self, request: Request):
        """Map ``(method, path)`` to ``(endpoint label, handler)``."""
        method, path = request.method, request.path
        parts = [p for p in path.split("/") if p]
        if path == "/healthz":
            return self._only(method, "GET", "healthz", self._h_healthz)
        if path == "/metrics":
            return self._only(method, "GET", "metrics", self._h_metrics)
        if self.config.debug and path == "/debug/sleep":
            return self._only(method, "GET", "debug", self._h_debug_sleep)
        if parts[:2] == ["v1", "sessions"]:
            if len(parts) == 2:
                if method == "POST":
                    return "create", self._h_create
                return self._only(method, "GET", "list", self._h_list)
            if len(parts) == 3:
                name = parts[2]
                if method == "GET":
                    return "info", self._named(self._h_info, name)
                if method == "DELETE":
                    return "delete", self._named(self._h_delete, name)
                raise ServiceError(
                    405,
                    "method_not_allowed",
                    f"{method} not allowed on {path}",
                )
            if len(parts) == 4:
                name, leaf = parts[2], parts[3]
                if leaf == "mutations":
                    return self._only(
                        method,
                        "POST",
                        "mutate",
                        self._named(self._h_mutate, name),
                    )
                if leaf == "verdict":
                    return self._only(
                        method,
                        "GET",
                        "verdict",
                        self._named(self._h_verdict, name),
                    )
                if leaf == "snapshot":
                    return self._only(
                        method,
                        "GET",
                        "snapshot",
                        self._named(self._h_snapshot, name),
                    )
        raise ServiceError(404, "not_found", f"no route for {method} {path}")

    @staticmethod
    def _only(method: str, expected: str, endpoint: str, handler):
        if method != expected:
            raise ServiceError(
                405,
                "method_not_allowed",
                f"{method} not allowed on this endpoint (use {expected})",
            )
        return endpoint, handler

    @staticmethod
    def _named(handler, name: str):
        async def bound(request: Request):
            return await handler(request, name)

        return bound

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _h_healthz(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "sessions": len(self.sessions),
            "max_sessions": self.sessions.max_sessions,
            "draining": self._draining,
        }

    async def _h_metrics(self, request: Request) -> Tuple[int, str]:
        return 200, self.telemetry.render()

    async def _h_debug_sleep(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        seconds = float(request.query.get("seconds", "0"))
        await asyncio.sleep(seconds)
        return 200, {"slept": seconds}

    async def _h_list(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "sessions": sorted(self.sessions.names()),
            "open": len(self.sessions),
            "max_sessions": self.sessions.max_sessions,
        }

    async def _h_create(self, request: Request) -> Tuple[int, Dict[str, Any]]:
        spec = request.json()
        unknown = sorted(
            set(spec) - {"name", "k", "engine", "seed", "epsilon",
                         "tester_repetitions", "base", "n"}
        )
        if unknown:
            raise ServiceError(
                400,
                "bad_request",
                f"unknown session field(s): {', '.join(unknown)}",
            )
        if "k" not in spec:
            raise ServiceError(400, "bad_request", "missing required field 'k'")
        try:
            k = int(spec["k"])
            seed = int(spec.get("seed", 0))
            epsilon = float(spec.get("epsilon", 0.1))
            reps = spec.get("tester_repetitions", 8)
            reps = None if reps is None else int(reps)
        except (TypeError, ValueError) as exc:
            raise ServiceError(
                400, "bad_request", f"invalid session parameter ({exc})"
            ) from exc
        engine = spec.get("engine", self.config.default_engine)
        try:
            ensure_engine_available(engine)
        except ConfigurationError as exc:
            raise ServiceError(400, "bad_request", str(exc)) from exc
        if ("base" in spec) == ("n" in spec):
            raise ServiceError(
                400,
                "bad_request",
                "give exactly one of 'base' (edge-list text) or 'n' "
                "(vertex count of an empty base graph)",
            )
        try:
            if "base" in spec:
                if not isinstance(spec["base"], str):
                    raise ServiceError(
                        400,
                        "bad_request",
                        "'base' must be edge-list text (string)",
                    )
                base = graph_io.loads(spec["base"])
            else:
                base = Graph(int(spec["n"]))
        except (GraphError, TypeError, ValueError) as exc:
            raise ServiceError(
                400, "bad_request", f"invalid base graph ({exc})"
            ) from exc
        session = self.sessions.create(
            base,
            k,
            name=spec.get("name"),
            engine=engine,
            seed=seed,
            epsilon=epsilon,
            tester_repetitions=reps,
        )
        self._count_verdict(session.monitor.accepted)
        payload = session.info_payload()
        payload["protocol"] = PROTOCOL_VERSION
        return 201, payload

    async def _h_info(self, request: Request, name: str) -> Tuple[int, Dict[str, Any]]:
        return 200, self.sessions.get(name).info_payload()

    async def _h_delete(
        self, request: Request, name: str
    ) -> Tuple[int, Dict[str, Any]]:
        session = self.sessions.delete(name)
        return 200, {"deleted": name, "version": session.version}

    async def _h_verdict(
        self, request: Request, name: str
    ) -> Tuple[int, Dict[str, Any]]:
        session = self.sessions.get(name)
        self._count_verdict(session.monitor.accepted)
        return 200, session.verdict_payload()

    async def _h_mutate(
        self, request: Request, name: str
    ) -> Tuple[int, Dict[str, Any]]:
        session = self.sessions.get(name)
        batch = parse_stream_batch(request.text())
        async with session.lock:
            payload = session.apply_batch(batch)
        self.telemetry.counter(
            "repro_service_mutations_total",
            "Mutations applied through the service.",
        ).inc(payload["applied"])
        self._count_verdict(payload["accepted"])
        return 200, payload

    async def _h_snapshot(
        self, request: Request, name: str
    ) -> Tuple[int, Dict[str, Any]]:
        session = self.sessions.get(name)
        async with session.lock:
            payload = session.snapshot_payload()
        return 200, payload

    def _count_verdict(self, accepted: bool) -> None:
        self.telemetry.counter(
            "repro_service_verdicts_total",
            "Verdicts served, by outcome.",
            ("verdict",),
        ).inc(verdict="accept" if accepted else "reject")

"""Dynamic graphs: an evolving :class:`~repro.graphs.graph.Graph` with an
append-only mutation log and content-hashed snapshots.

A :class:`DynamicGraph` owns a private working copy of its base graph and
applies :class:`~repro.dynamic.mutations.Mutation` objects to it, logging
every update.  The log is append-only, so

* ``version`` (the number of applied mutations) names every historical
  state unambiguously,
* any past state can be rebuilt exactly (:meth:`as_of`), and
* a scenario replayed from the same base and log prefix is byte-identical
  everywhere (the property the incremental/naive parity gates rely on).

Snapshots (:meth:`snapshot`) pair a frozen copy with its
:meth:`~repro.graphs.graph.Graph.content_hash`, so two histories that
reach the same graph state are detectably equal without edge-by-edge
comparison.

The log is stored as three integer columns — a one-byte op code and
the two endpoints as four-byte ints, ``-1`` where an operation has
none — about 9 bytes per mutation; :class:`Mutation` objects are built
only when :attr:`log` or :meth:`as_of` reads them.  Four bytes hold
every vertex index a mutable graph can reach: a mutation builds one
adjacency set per vertex first.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

from ..errors import GraphError
from ..graphs.graph import Graph
from .mutations import ADD_EDGE, ADD_VERTEX, REMOVE_EDGE, Mutation

__all__ = ["DynamicGraph", "Snapshot", "apply_mutation"]

#: Op codes of the compact log, indexed by code.
_LOG_OPS = (ADD_EDGE, REMOVE_EDGE, ADD_VERTEX)
_LOG_CODE = {op: code for code, op in enumerate(_LOG_OPS)}


def apply_mutation(graph: Graph, mutation: Mutation) -> None:
    """Apply one mutation to ``graph`` in place.

    Validity is enforced by the underlying :class:`Graph` operations:
    duplicate insertions, deletions of absent edges, self-loops and
    out-of-range endpoints all raise :class:`~repro.errors.GraphError`.
    """
    if mutation.op == ADD_EDGE:
        graph.add_edge(mutation.u, mutation.v)
    elif mutation.op == REMOVE_EDGE:
        graph.remove_edge(mutation.u, mutation.v)
    elif mutation.op == ADD_VERTEX:
        graph.add_vertex()
    else:  # pragma: no cover - Mutation.__post_init__ rejects unknown ops
        raise GraphError(f"unknown mutation op {mutation.op!r}")


@dataclass(frozen=True)
class Snapshot:
    """A frozen state of a dynamic graph: version, content hash, copy."""

    version: int
    content_hash: str
    graph: Graph


class DynamicGraph:
    """An evolving graph with an append-only mutation log.

    Parameters
    ----------
    base:
        The initial graph.  Copied on construction — later changes to the
        caller's object do not leak into the history.
    """

    def __init__(self, base: Graph) -> None:
        self._base = base.copy()
        self._graph = base.copy()
        # The mutation log as columns: op code, u, v (-1: no endpoint).
        self._ops = array("b")
        self._us = array("i")
        self._vs = array("i")
        # Guards the (graph, log) pair so snapshot()/as_of() observe a
        # single consistent version even when another thread is applying
        # mutations (the service harness runs its event loop on a
        # different thread than test/benchmark callers).  Reentrant so
        # apply_all -> apply nests without deadlock.
        self._state_lock = threading.RLock()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The current graph state (treat as read-only; mutate via
        :meth:`apply`)."""
        return self._graph

    @property
    def base(self) -> Graph:
        """A copy of the version-0 graph."""
        return self._base.copy()

    @property
    def version(self) -> int:
        """Number of applied mutations; names the current state."""
        return len(self._ops)

    @property
    def log(self) -> Tuple[Mutation, ...]:
        """The applied mutations, oldest first."""
        with self._state_lock:
            columns = (self._ops[:], self._us[:], self._vs[:])
        return tuple(_decode(*columns))

    @property
    def n(self) -> int:
        """Current vertex count."""
        return self._graph.n

    @property
    def m(self) -> int:
        """Current edge count."""
        return self._graph.m

    def content_hash(self) -> str:
        """Content hash of the current state (see
        :meth:`Graph.content_hash <repro.graphs.graph.Graph.content_hash>`)."""
        with self._state_lock:
            return self._graph.content_hash()

    def snapshot(self) -> Snapshot:
        """A frozen copy of the current state with its version and hash.

        The version is read and the graph copied under one lock
        acquisition, and the content hash is computed from the *copy*
        (``Graph.__hash__`` is ``None`` — content identity is explicit,
        never Python object hashing), so the ``(version, content_hash,
        graph)`` triple is mutually consistent even when mutations race
        the snapshot from another thread.
        """
        with self._state_lock:
            version = len(self._ops)
            frozen = self._graph.copy()
        return Snapshot(
            version=version,
            content_hash=frozen.content_hash(),
            graph=frozen,
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, mutation: Mutation) -> Mutation:
        """Apply one mutation and log it; returns the canonical mutation.

        An invalid mutation raises :class:`~repro.errors.GraphError` and
        leaves both the graph and the log untouched.
        """
        canonical = mutation.canonical()
        u, v = canonical.edge or (-1, -1)
        with self._state_lock:
            apply_mutation(self._graph, canonical)
            self._ops.append(_LOG_CODE[canonical.op])
            self._us.append(u)
            self._vs.append(v)
        return canonical

    def apply_all(self, mutations: Iterable[Mutation]) -> List[Mutation]:
        """Apply a mutation sequence in order; returns the canonical list."""
        return [self.apply(m) for m in mutations]

    def add_edge(self, u: int, v: int) -> Mutation:
        """Insert edge ``{u, v}`` through the log."""
        return self.apply(Mutation(ADD_EDGE, u, v))

    def remove_edge(self, u: int, v: int) -> Mutation:
        """Delete edge ``{u, v}`` through the log."""
        return self.apply(Mutation(REMOVE_EDGE, u, v))

    def add_vertex(self) -> Mutation:
        """Append a fresh isolated vertex through the log."""
        return self.apply(Mutation(ADD_VERTEX))

    # ------------------------------------------------------------------
    # History
    # ------------------------------------------------------------------
    def as_of(self, version: int) -> Graph:
        """Rebuild the graph exactly as it was at ``version``.

        ``version`` counts applied mutations: 0 is the base graph, the
        current :attr:`version` is the present state.
        """
        with self._state_lock:
            if not 0 <= version <= self.version:
                raise GraphError(
                    f"version {version} out of range [0, {self.version}]"
                )
            prefix = (
                self._ops[:version], self._us[:version], self._vs[:version]
            )
        g = self._base.copy()
        for mutation in _decode(*prefix):
            apply_mutation(g, mutation)
        return g

    @classmethod
    def replay(cls, base: Graph, mutations: Sequence[Mutation]) -> "DynamicGraph":
        """Construct a dynamic graph by applying ``mutations`` to ``base``."""
        dyn = cls(base)
        dyn.apply_all(mutations)
        return dyn

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(n={self.n}, m={self.m}, version={self.version})"
        )


def _decode(ops: array, us: array, vs: array) -> Iterator[Mutation]:
    """The :class:`Mutation` objects of log columns, in order."""
    for code, u, v in zip(ops, us, vs):
        op = _LOG_OPS[code]
        yield Mutation(op) if op == ADD_VERTEX else Mutation(op, u, v)

"""Core undirected simple-graph data structure.

The CONGEST model of the paper works on connected simple graphs (no
self-loops, no parallel edges).  This module provides a small, fast,
dependency-free graph type tuned for the access patterns of the simulator:
O(1) adjacency-set lookups, cheap neighbour iteration in deterministic
(sorted) order, and a vectorised CSR export for the array engines.

A graph is built in array passes.  The constructor converts its pairs
into two int64 endpoint columns and validates them with array
operations (range, self-loops, and one sort of canonical edge keys for
duplicates); :meth:`Graph.from_canonical_edge_arrays` takes trusted
columns as they are.  Either way the columns become the graph's
insertion log, read-only.  The adjacency sets are derived from that
log on the first call that reads them — membership, degrees,
neighbours, edge iteration, the content hash, equality, validation,
subgraphs and every mutation — so ``n``, ``m``, :meth:`Graph.to_csr`
and :meth:`Graph.copy` of a fresh graph allocate no Python set per
vertex.

Derived views — the adjacency sets, the sorted neighbour tuples, the
CSR export and the content hash — are memoised on first use, so
repeated reads of an unchanged graph cost nothing.  A mutation updates
the sets, clears the sorted tuples of its endpoints only, and clears
the CSR export and the hash, so a walk over a few vertices after a
mutation re-sorts those vertices' rows, not the graph's.  Memo writes
happen in readers: a graph shared between threads needs the same
external serialisation of reads against mutations that the sorted
neighbour cache has always needed.

Until its first edge removal a graph keeps that log of the endpoints of
every edge it inserts, in insertion order.  Its first insertion turns
the two arrays into int lists that :meth:`Graph.add_edge` appends to;
:meth:`Graph.add_vertex` keeps the log.  :meth:`Graph.copy` hands the
copy the log as read-only arrays (an array log is shared) and no sets.
The CSR export sorts the log in array passes instead of iterating the
adjacency sets; a graph that has seen a removal exports from the sets.

``networkx`` interop lives in :mod:`repro.graphs.convert` so that the hot
path never imports networkx.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
from typing import Iterable, Iterator, List, Sequence, Set, Tuple, Union

import numpy as np

from .._types import Edge, canonical_edge
from ..errors import GraphError

__all__ = ["Graph"]

#: One column of the insertion log: a read-only int64 array until the
#: graph's first insertion, an int list after it.
Log = Union[List[int], np.ndarray]


def _read_only(*columns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Mark ``columns`` read-only and return them."""
    for column in columns:
        column.flags.writeable = False
    return columns


#: The log of a graph with no edges (shared: nothing writes to it).
_EMPTY_LOG = _read_only(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _log_array(log: Log) -> np.ndarray:
    """An insertion-log column as an int64 array (an array log as it is)."""
    if type(log) is np.ndarray:
        return log
    return np.fromiter(log, dtype=np.int64, count=len(log))


def _checked_log(n: int, us: list, vs: list, strict: bool) -> Tuple[Log, Log] | None:
    """Pairs ``(us[i], vs[i])`` as the insertion log of a graph on ``n``
    vertices, or None if :meth:`Graph.add_edge` would reject one.

    Valid pairs have ``int`` or ``np.integer`` endpoints (bools count
    as ints) in ``[0, n)`` that differ, and, when ``strict``, no edge
    twice in either orientation; otherwise each edge keeps its first
    pair.  Duplicates show as equal neighbours among the sorted
    canonical ``min·n + max`` keys.
    """
    if not us:
        return _EMPTY_LOG
    if not all(
        issubclass(t, (int, np.integer)) for t in {*map(type, us), *map(type, vs)}
    ):
        return None
    try:
        u = np.array(us, dtype=np.int64)
        v = np.array(vs, dtype=np.int64)
    except OverflowError:  # an int beyond int64, so out of range
        return None
    if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n or (u == v).any():
        return None
    keys = np.minimum(u, v)
    keys *= n
    keys += np.maximum(u, v)
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():
        if strict:
            return None
        # A stable sort puts each edge's first pair first among its
        # repeats; drop the rest, keeping insertion order.
        order = np.argsort(keys, kind="stable")
        repeat = np.zeros(len(keys), dtype=bool)
        repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        u, v = u[~repeat], v[~repeat]
    return _read_only(u, v)


class Graph:
    """An undirected simple graph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops raise :class:`GraphError`;
        duplicate edges (in either orientation) are collapsed silently only
        if ``strict=False``, otherwise they raise.
    strict:
        When true (default), duplicate edges raise so construction bugs
        surface early.
    """

    __slots__ = (
        "_n",
        "_m",
        "_adj",
        "_log",
        "_sorted_cache",
        "_csr_cache",
        "_hash_cache",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int]] = (),
        *,
        strict: bool = True,
    ) -> None:
        n = operator.index(n)
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        self._n = n
        # Built from the log on first use (see _sets).
        self._adj: List[Set[int]] | None = None
        self._sorted_cache: List[Tuple[int, ...] | None] | None = None
        self._csr_cache: Tuple[np.ndarray, np.ndarray] | None = None
        self._hash_cache: str | None = None
        us: List[int] = []
        vs: List[int] = []
        try:
            for u, v in edges:
                us.append(u)
                vs.append(v)
        except (TypeError, ValueError):
            # A pair that does not unpack: as with one add_edge per pair,
            # an invalid pair before it raises first.
            self._insert_each(us, vs, strict)
            raise
        # The endpoints of every inserted edge, in insertion order, until
        # the first removal: to_csr sorts them instead of the sets.
        self._log: Tuple[Log, Log] | None = _checked_log(n, us, vs, strict)
        if self._log is not None:
            self._m = len(self._log[0])
        else:
            # Some pair is invalid: inserting one pair at a time raises
            # the first offending pair's error, with add_edge's message.
            self._insert_each(us, vs, strict)

    def _insert_each(self, us: list, vs: list, strict: bool) -> None:
        """Insert pairs ``(us[i], vs[i])`` one :meth:`add_edge` at a time
        into this graph, which has no edges yet."""
        self._m, self._log = 0, _EMPTY_LOG
        for u, v in zip(us, vs):
            self.add_edge(u, v, strict=strict)

    def _sets(self) -> List[Set[int]]:
        """The adjacency sets, built from the insertion log on first use."""
        adj = self._adj
        if adj is None:
            adj = [set() for _ in range(self._n)]
            # A graph without sets has seen no mutation since its log
            # was built, so the log is still the read-only array pair.
            us, vs = self._log
            for u, v in zip(us.tolist(), vs.tolist()):
                adj[u].add(v)
                adj[v].add(u)
            self._adj = adj
        return adj

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, *, strict: bool = True) -> None:
        """Insert the undirected edge ``{u, v}``.

        Endpoints may be any ``int`` or ``np.integer``; the graph stores
        them as plain ints, so equal graphs hash and iterate alike.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop ({u},{v}) not allowed in a simple graph")
        adj = self._adj
        if adj is None:
            adj = self._sets()
        if v in adj[u]:
            if strict:
                raise GraphError(f"duplicate edge ({u},{v})")
            return
        if type(u) is not int or type(v) is not int:
            u, v = int(u), int(v)
        adj[u].add(v)
        adj[v].add(u)
        self._m += 1
        log = self._log
        if log is not None:
            if type(log[0]) is not list:
                log = self._log = (log[0].tolist(), log[1].tolist())
            log[0].append(u)
            log[1].append(v)
        rows = self._sorted_cache
        if rows is not None:
            rows[u] = rows[v] = None
        self._csr_cache = None
        self._hash_cache = None

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the undirected edge ``{u, v}``; raises if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        adj = self._adj
        if adj is None:
            adj = self._sets()
        if v not in adj[u]:
            raise GraphError(f"edge ({u},{v}) not present")
        adj[u].discard(v)
        adj[v].discard(u)
        self._m -= 1
        self._log = None
        rows = self._sorted_cache
        if rows is not None:
            rows[u] = rows[v] = None
        self._csr_cache = None
        self._hash_cache = None

    def add_vertex(self) -> int:
        """Append a fresh isolated vertex and return its index."""
        self._sets().append(set())
        self._n += 1
        if self._sorted_cache is not None:
            self._sorted_cache.append(())
        self._csr_cache = None
        self._hash_cache = None
        return self._n - 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        if not (0 <= u < self._n and 0 <= v < self._n) or u == v:
            return False
        adj = self._adj
        if adj is None:
            adj = self._sets()
        return v in adj[u]

    def degree(self, u: int) -> int:
        """Degree of vertex ``u``."""
        self._check_vertex(u)
        return len(self._sets()[u])

    def neighbors(self, u: int) -> Tuple[int, ...]:
        """Neighbours of ``u`` in ascending order (deterministic).

        The tuple is memoised per vertex.  The first call on a graph
        without the memo sorts every vertex's neighbours in one pass; a
        mutation clears only the rows of its endpoints, which the next
        call re-sorts, so reading a few rows after a mutation costs those
        rows, not the graph.
        """
        self._check_vertex(u)
        rows = self._rows()
        row = rows[u]
        if row is None:
            row = rows[u] = tuple(sorted(self._adj[u]))
        return row

    def _rows(self) -> List[Tuple[int, ...] | None]:
        """The sorted neighbour memo (``None`` rows: cleared by a mutation),
        filled in one pass when the graph has none."""
        rows = self._sorted_cache
        if rows is None:
            rows = self._sorted_cache = [tuple(sorted(s)) for s in self._sets()]
        return rows

    def adjacency_set(self, u: int) -> frozenset:
        """Neighbour set of ``u`` as an immutable set (O(1) membership)."""
        self._check_vertex(u)
        return frozenset(self._sets()[u])

    def vertices(self) -> range:
        """Iterator over vertex indices."""
        return range(self._n)

    def edges(self) -> Iterator[Edge]:
        """Iterate canonical ``(u, v)`` with ``u < v``, ascending."""
        rows = self._rows()
        for u in range(self._n):
            row = rows[u]
            if row is None:
                row = self.neighbors(u)
            for v in row:
                if u < v:
                    yield (u, v)

    def edge_list(self) -> List[Edge]:
        """All canonical edges as a list."""
        return list(self.edges())

    def max_degree(self) -> int:
        """Maximum degree (0 for the empty graph)."""
        return max((len(s) for s in self._sets()), default=0)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the graph is connected (vacuously true for n <= 1)."""
        if self._n <= 1:
            return True
        adj = self._sets()
        seen = bytearray(self._n)
        stack = [0]
        seen[0] = 1
        count = 1
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    stack.append(v)
        return count == self._n

    def connected_components(self) -> List[List[int]]:
        """Connected components as sorted vertex lists."""
        adj = self._sets()
        seen = bytearray(self._n)
        comps: List[List[int]] = []
        for s in range(self._n):
            if seen[s]:
                continue
            seen[s] = 1
            stack = [s]
            comp = [s]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = 1
                        comp.append(v)
                        stack.append(v)
            comps.append(sorted(comp))
        return comps

    def copy(self) -> "Graph":
        """Deep copy: the copy and this graph mutate apart.

        A graph that has seen no removal hands the copy its insertion
        log as read-only int64 arrays, and the copy builds its adjacency
        sets from them on first use, so a snapshot that is only compiled
        or exported holds 16 bytes per edge.  An array log is read-only
        and replaced on the next insertion, so both graphs hold the same
        one.  Only a graph that has seen a removal copies its sets.
        """
        g = Graph(self._n)
        g._m = self._m
        if self._log is None:
            g._log = None
            g._adj = [set(s) for s in self._adj]
        else:
            g._log = _read_only(*map(_log_array, self._log))
        return g

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph, relabelled to ``0..len(vertices)-1``.

        The i-th vertex of the result corresponds to ``vertices[i]``.
        """
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise GraphError("duplicate vertices in subgraph selection")
        g = Graph(len(vertices))
        adj = self._sets()
        vset = set(vertices)
        for u in vertices:
            self._check_vertex(u)
            for v in adj[u]:
                if v in vset and u < v:
                    g.add_edge(index[u], index[v])
        return g

    @classmethod
    def from_canonical_edge_arrays(
        cls, n: int, us: Sequence[int], vs: Sequence[int]
    ) -> "Graph":
        """Fast trusted constructor from parallel endpoint arrays or lists.

        ``us[i] < vs[i]`` must hold for every i, endpoints must be in
        ``[0, n)``, and edges must be distinct — the caller certifies
        this (array extractions from CSR exports satisfy it by
        construction).  Skips per-edge validation; :meth:`validate`
        checks the result when in doubt.
        """
        g = cls(n)
        # The log keeps read-only int64 copies, which to_csr reads as
        # they are and the adjacency sets are built from on first use.
        g._log = log = _read_only(
            np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
        )
        g._m = len(log[0])
        return g

    def relabel(self, permutation: Sequence[int]) -> "Graph":
        """Return the graph with vertex ``i`` renamed ``permutation[i]``."""
        if sorted(permutation) != list(range(self._n)):
            raise GraphError("relabel requires a permutation of 0..n-1")
        g = Graph(self._n)
        for u, v in self.edges():
            g.add_edge(permutation[u], permutation[v])
        return g

    def disjoint_union(self, other: "Graph") -> "Graph":
        """Disjoint union; ``other``'s vertices are shifted by ``self.n``."""
        g = Graph(self._n + other._n)
        for u, v in self.edges():
            g.add_edge(u, v)
        off = self._n
        for u, v in other.edges():
            g.add_edge(u + off, v + off)
        return g

    # ------------------------------------------------------------------
    # Array export
    # ------------------------------------------------------------------
    def to_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Adjacency as CSR ``(indptr, indices)`` int64 arrays.

        Row ``u`` of ``indices`` lists ``u``'s neighbours in ascending
        order.  Both arrays come from one sort of ``row * n + neighbour``
        keys.  A graph that has seen no removal takes the keys and the
        degrees from its insertion log, in array passes; otherwise they
        come from the adjacency sets.  The pair is memoised until the
        next mutation, so both arrays are shared between callers and
        marked read-only.
        """
        csr = self._csr_cache
        if csr is None:
            n = self._n
            # As row * n + neighbour keys, each row's entries sort within
            # the row's own slots: one sort orders every row.
            if self._log is None:
                adj = self._sets()
                degrees = np.fromiter(map(len, adj), dtype=np.int64, count=n)
                keys = np.fromiter(
                    itertools.chain.from_iterable(adj),
                    dtype=np.int64,
                    count=int(degrees.sum()),
                )
                offsets = np.repeat(np.arange(n, dtype=np.int64) * n, degrees)
                keys += offsets
                keys.sort()
                keys -= offsets
            else:
                # Both orientations of every logged edge, written in place:
                # at n = 10^5 each fresh temporary costs page faults.
                us, vs = map(_log_array, self._log)
                m = len(us)
                degrees = np.bincount(us, minlength=n)
                degrees += np.bincount(vs, minlength=n)
                keys = np.empty(2 * m, dtype=np.int64)
                np.multiply(us, n, out=keys[:m])
                keys[:m] += vs
                np.multiply(vs, n, out=keys[m:])
                keys[m:] += us
                keys.sort()
                keys %= n
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            indptr.flags.writeable = False
            keys.flags.writeable = False
            csr = self._csr_cache = (indptr, keys)
        return csr

    def edge_array(self) -> np.ndarray:
        """Canonical edges as an ``(m, 2)`` numpy array."""
        arr = np.empty((self._m, 2), dtype=np.int64)
        for i, (u, v) in enumerate(self.edges()):
            arr[i, 0] = u
            arr[i, 1] = v
        return arr

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __contains__(self, edge: Tuple[int, int]) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and self._m == other._m
            and self._sets() == other._sets()
        )

    # Mutable container: explicitly unhashable (``hash(g)`` raises
    # TypeError).  Identity-keyed caches must use ``content_hash()``.
    __hash__ = None  # type: ignore[assignment]

    def content_hash(self) -> str:
        """SHA-256 hex digest of the graph's canonical serialisation.

        Two graphs have equal hashes iff they have the same vertex count
        and the same canonical edge set — exactly the :meth:`__eq__`
        relation.  The digest is stable across processes and Python
        versions, which is what dynamic-graph snapshots
        (:mod:`repro.dynamic.graph`) key their version store on.  The
        digest is memoised until the next mutation, so cache lookups on
        an unchanged graph do not re-serialise it.
        """
        digest = self._hash_cache
        if digest is None:
            h = hashlib.sha256()
            h.update(f"graph/1 n={self._n}\n".encode())
            for u, v in self.edges():
                h.update(f"{u} {v}\n".encode())
            digest = self._hash_cache = h.hexdigest()
        return digest

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"

    def _check_vertex(self, u: int) -> None:
        if not isinstance(u, (int, np.integer)):
            raise GraphError(f"vertex must be an int, got {type(u).__name__}")
        if not 0 <= u < self._n:
            raise GraphError(f"vertex {u} out of range [0, {self._n})")

    # ------------------------------------------------------------------
    # Validation helper used by generators and tests
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal invariants; raises :class:`GraphError` if broken."""
        adj = self._sets()
        m = 0
        for u in range(self._n):
            for v in adj[u]:
                if not 0 <= v < self._n:
                    raise GraphError(f"neighbour {v} of {u} out of range")
                if v == u:
                    raise GraphError(f"self-loop at {u}")
                if u not in adj[v]:
                    raise GraphError(f"asymmetric adjacency {u}->{v}")
                if u < v:
                    m += 1
        if m != self._m:
            raise GraphError(f"edge count mismatch: counted {m}, stored {self._m}")


def edge_set(edges: Iterable[Tuple[int, int]]) -> Set[Edge]:
    """Canonicalise an iterable of edges into a set of sorted pairs."""
    return {canonical_edge(u, v) for u, v in edges}

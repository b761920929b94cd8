"""Network: a graph plus an ID assignment, ready to run programs on.

Separates the *topology* (vertex indices) from the *names* (CONGEST IDs):
node programs only ever see IDs, exactly as in the model, while the
simulator routes by index internally.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import CongestError
from ..graphs.graph import Graph
from .ids import IdAssigner, IdentityIds
from .message import SizeModel
from .node import NodeContext

__all__ = ["Network"]


class Network:
    """An n-node CONGEST network over an undirected simple graph.

    Parameters
    ----------
    graph:
        The topology.  The paper assumes connected graphs; we allow
        disconnected ones (useful in tests) since the algorithms are
        oblivious to it.
    id_assigner:
        Strategy mapping vertex indices to CONGEST IDs: ``n`` distinct
        integers in ``[0, 2**63)``, else :class:`~repro.errors.CongestError`.
        The array engine and its rank keys read them as int64 values
        (:attr:`id_array`, :attr:`id_ranks`), converted and checked once
        here.
    """

    def __init__(
        self,
        graph: Graph,
        id_assigner: Optional[IdAssigner] = None,
    ) -> None:
        self._graph = graph
        assigner = id_assigner if id_assigner is not None else IdentityIds()
        n = graph.n
        ids = assigner.assign(n)
        if len(ids) != n:
            raise CongestError("ID assignment must give n distinct IDs")
        try:
            id_array = np.array(ids, dtype=np.int64)
        except OverflowError:
            if min(ids) < 0:
                raise CongestError("IDs must be non-negative") from None
            raise CongestError("IDs must be below 2**63") from None
        # One argsort checks the IDs and ranks them: duplicates sit next
        # to each other in sorted order, and the vertex at sorted
        # position i has dense rank i.
        order = np.argsort(id_array)
        by_id = id_array[order]
        if (by_id[1:] == by_id[:-1]).any():
            raise CongestError("ID assignment must give n distinct IDs")
        if n and by_id[0] < 0:
            raise CongestError("IDs must be non-negative")
        ranks = np.empty(n, dtype=np.int64)
        ranks[order] = np.arange(n)
        id_array.flags.writeable = False
        ranks.flags.writeable = False
        self._ids: Tuple[int, ...] = tuple(ids)
        self._id_array = id_array
        self._id_ranks = ranks
        # Built on first vertex_of() call: only Algorithm 1's endpoint
        # lookup and the per-node scheduler map IDs back to vertices.
        self._index_of: Optional[Dict[int, int]] = None
        self._id_space = assigner.id_space(n)
        # Built on first context() call: only the per-node scheduler
        # reads contexts, and the array engines never do.
        self._contexts: List[Optional[NodeContext]] = [None] * n

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The underlying topology."""
        return self._graph

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._graph.n

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._graph.m

    @property
    def id_space(self) -> int:
        """Exclusive upper bound of the ID range."""
        return self._id_space

    def node_id(self, vertex: int) -> int:
        """CONGEST ID of a vertex index."""
        return self._ids[vertex]

    def vertex_of(self, node_id: int) -> int:
        """Vertex index of a CONGEST ID."""
        index_of = self._index_of
        if index_of is None:
            index_of = self._index_of = {nid: v for v, nid in enumerate(self._ids)}
        try:
            return index_of[node_id]
        except KeyError:
            raise CongestError(f"unknown node ID {node_id}") from None

    def ids(self) -> Tuple[int, ...]:
        """All IDs, indexed by vertex."""
        return self._ids

    @property
    def id_array(self) -> np.ndarray:
        """All IDs as one read-only int64 array, indexed by vertex."""
        return self._id_array

    @property
    def id_ranks(self) -> np.ndarray:
        """Each vertex's dense ID rank, read-only int64: the position of
        its ID among the sorted IDs, so ranks order vertices as IDs do."""
        return self._id_ranks

    def context(self, vertex: int) -> NodeContext:
        """The (immutable) context handed to the program at this vertex."""
        ctx = self._contexts[vertex]
        if ctx is None:
            ids = self._ids
            graph = self._graph
            ctx = self._contexts[vertex] = NodeContext(
                my_id=ids[vertex],
                neighbor_ids=tuple(sorted(ids[w] for w in graph.neighbors(vertex))),
                n_hint=graph.n,
                m_hint=graph.m,
            )
        return ctx

    def edge_ids(self, u: int, v: int) -> Tuple[int, int]:
        """The ID pair of an edge given by vertex indices, sorted by ID."""
        a, b = self._ids[u], self._ids[v]
        return (a, b) if a < b else (b, a)

    def default_size_model(self) -> SizeModel:
        """Bit-cost model matching this network's ID space."""
        return SizeModel.for_network(self.n, self.m, id_space=self._id_space)

    def __repr__(self) -> str:
        return f"Network(n={self.n}, m={self.m}, id_space={self._id_space})"

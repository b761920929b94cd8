"""Unit tests for the core Graph data structure."""

import numpy as np
import pytest
from helpers import graphs
from hypothesis import given, settings

from repro.errors import GraphError
from repro.graphs import Graph
from repro.graphs.graph import edge_set


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.n == 0
        assert g.m == 0
        assert list(g.edges()) == []

    def test_basic(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.m == 2
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_negative_n_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_duplicate_edge_rejected_strict(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_duplicate_edge_collapsed_lenient(self):
        g = Graph(3, [(0, 1), (1, 0)], strict=False)
        assert g.m == 1

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    def test_non_int_vertex(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, "a")])  # type: ignore[list-item]


class TestMutation:
    def test_add_remove(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        assert g.m == 2
        g.remove_edge(0, 1)
        assert g.m == 1
        assert not g.has_edge(0, 1)

    def test_remove_missing_raises(self):
        g = Graph(3)
        with pytest.raises(GraphError):
            g.remove_edge(0, 1)

    def test_add_vertex(self):
        g = Graph(2, [(0, 1)])
        w = g.add_vertex()
        assert w == 2
        assert g.n == 3
        assert g.degree(w) == 0
        g.add_edge(w, 0)
        assert g.has_edge(2, 0)


class TestQueries:
    def test_neighbors_sorted(self):
        g = Graph(5, [(3, 0), (3, 4), (3, 1)])
        assert g.neighbors(3) == (0, 1, 4)

    def test_neighbors_cache_invalidation(self):
        g = Graph(4, [(0, 1)])
        assert g.neighbors(0) == (1,)
        g.add_edge(0, 3)
        assert g.neighbors(0) == (1, 3)
        g.remove_edge(0, 1)
        assert g.neighbors(0) == (3,)

    def test_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1
        assert g.max_degree() == 3

    def test_edges_canonical_sorted(self):
        g = Graph(4, [(3, 2), (1, 0), (2, 0)])
        assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]

    def test_contains(self):
        g = Graph(3, [(0, 2)])
        assert (0, 2) in g
        assert (2, 0) in g
        assert (0, 1) not in g

    def test_adjacency_set_immutable_type(self):
        g = Graph(3, [(0, 1)])
        s = g.adjacency_set(0)
        assert isinstance(s, frozenset)
        assert s == {1}


class TestStructure:
    def test_connected(self):
        assert Graph(1).is_connected()
        assert Graph(2, [(0, 1)]).is_connected()
        assert not Graph(2).is_connected()
        assert not Graph(4, [(0, 1), (2, 3)]).is_connected()

    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = g.connected_components()
        assert comps == [[0, 1], [2, 3], [4]]

    def test_copy_independent(self):
        g = Graph(3, [(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.m == 1
        assert h.m == 2
        assert g == Graph(3, [(0, 1)])

    def test_subgraph(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        h = g.subgraph([0, 1, 2])
        assert h.n == 3
        assert sorted(h.edges()) == [(0, 1), (1, 2)]

    def test_subgraph_duplicate_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            g.subgraph([0, 0])

    def test_relabel_roundtrip(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        perm = [3, 2, 1, 0]
        h = g.relabel(perm)
        inverse = [perm.index(i) for i in range(4)]
        assert h.relabel(inverse) == g

    def test_relabel_requires_permutation(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(GraphError):
            g.relabel([0, 0, 1])

    def test_disjoint_union(self):
        a = Graph(2, [(0, 1)])
        b = Graph(3, [(0, 2)])
        u = a.disjoint_union(b)
        assert u.n == 5
        assert sorted(u.edges()) == [(0, 1), (2, 4)]


class TestArrayExport:
    def test_csr_roundtrip(self):
        g = Graph(4, [(0, 1), (0, 2), (2, 3)])
        indptr, indices = g.to_csr()
        assert indptr.tolist() == [0, 2, 3, 5, 6]
        assert indices.tolist() == [1, 2, 0, 0, 3, 2]

    def test_edge_array(self):
        g = Graph(3, [(2, 1), (0, 2)])
        arr = g.edge_array()
        assert arr.tolist() == [[0, 2], [1, 2]]

    def test_from_canonical_edge_arrays_roundtrip(self):
        import numpy as np

        g = Graph(6, [(0, 1), (0, 3), (2, 4), (3, 5)])
        arr = g.edge_array()
        h = Graph.from_canonical_edge_arrays(6, arr[:, 0], arr[:, 1])
        assert h.n == g.n and h.m == g.m
        assert set(h.edges()) == set(g.edges())
        h.validate()
        empty = Graph.from_canonical_edge_arrays(
            3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert (empty.n, empty.m) == (3, 0)


def _per_vertex_csr(g):
    """The per-vertex CSR export that the vectorised one replaced (oracle)."""
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    for u in range(g.n):
        indptr[u + 1] = indptr[u] + g.degree(u)
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for u in range(g.n):
        indices[int(indptr[u]): int(indptr[u + 1])] = g.neighbors(u)
    return indptr, indices


def _assert_csr_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == np.int64
        assert a.tolist() == b.tolist()


class TestMemoisedViews:
    """``to_csr`` and ``content_hash`` are kept until the next mutation."""

    @staticmethod
    def _assert_like_fresh(g):
        fresh = Graph(g.n, g.edge_list())
        _assert_csr_equal(g.to_csr(), fresh.to_csr())
        assert g.content_hash() == fresh.content_hash()

    def test_every_mutation_clears_the_memo(self):
        g = Graph(4, [(0, 1), (1, 2)])
        self._assert_like_fresh(g)
        g.add_edge(3, 2)
        self._assert_like_fresh(g)
        g.remove_edge(1, 0)
        self._assert_like_fresh(g)
        assert g.add_vertex() == 4
        self._assert_like_fresh(g)
        g.add_edge(4, 0)
        self._assert_like_fresh(g)

    def test_memo_is_shared_between_mutations(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        csr = g.to_csr()
        assert g.to_csr() is csr
        assert g.content_hash() is g.content_hash()
        g.add_edge(0, 4)
        assert g.to_csr() is not csr
        assert g.to_csr() is g.to_csr()

    def test_exported_arrays_are_read_only(self):
        indptr, indices = Graph(3, [(0, 1), (1, 2)]).to_csr()
        with pytest.raises(ValueError):
            indptr[0] = 1
        with pytest.raises(ValueError):
            indices[0] = 1

    def test_empty_graph_and_isolated_vertices(self):
        indptr, indices = Graph(0).to_csr()
        assert indptr.tolist() == [0] and indices.tolist() == []
        assert Graph(0).content_hash() == Graph(0, []).content_hash()
        g = Graph(5, [(3, 1)])
        indptr, indices = g.to_csr()
        assert indptr.tolist() == [0, 0, 1, 1, 2, 2]
        assert indices.tolist() == [3, 1]
        self._assert_like_fresh(g)

    def test_mutating_a_copy_leaves_the_original_memo(self):
        g = Graph(4, [(0, 1), (1, 2)])
        csr, digest = g.to_csr(), g.content_hash()
        c = g.copy()
        c.add_edge(2, 3)
        self._assert_like_fresh(c)
        assert g.to_csr() is csr and g.content_hash() == digest
        assert csr[1].tolist() == [1, 0, 2, 1]

    @settings(max_examples=120, deadline=None)
    @given(g=graphs())
    def test_to_csr_matches_per_vertex_oracle(self, g):
        _assert_csr_equal(g.to_csr(), _per_vertex_csr(g))


class TestValidation:
    def test_validate_ok(self):
        Graph(4, [(0, 1), (2, 3)]).validate()

    def test_validate_detects_corruption(self):
        g = Graph(3, [(0, 1)])
        g._adj[0].add(2)  # corrupt: asymmetric
        with pytest.raises(GraphError):
            g.validate()

    def test_edge_set_helper(self):
        assert edge_set([(1, 0), (0, 1), (2, 1)]) == {(0, 1), (1, 2)}

    def test_repr(self):
        assert repr(Graph(3, [(0, 1)])) == "Graph(n=3, m=1)"

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph(1))

    def test_eq_other_type(self):
        assert Graph(1) != 42

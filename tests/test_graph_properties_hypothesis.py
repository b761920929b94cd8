"""Hypothesis property tests on the graph substrate itself."""

import numpy as np
import pytest
from helpers import graphs
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs import Graph, dumps, loads
from repro.graphs.properties import (
    bipartition,
    degree_histogram,
    density,
    diameter,
    is_bipartite,
)


class TestStructuralInvariants:
    @settings(max_examples=120, deadline=None)
    @given(g=graphs())
    def test_handshake_lemma(self, g):
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.m

    @settings(max_examples=120, deadline=None)
    @given(g=graphs())
    def test_validate_never_fails_on_legal_graphs(self, g):
        g.validate()

    @settings(max_examples=100, deadline=None)
    @given(g=graphs())
    def test_degree_histogram_totals(self, g):
        hist = degree_histogram(g)
        assert sum(hist.values()) == g.n
        assert sum(d * c for d, c in hist.items()) == 2 * g.m

    @settings(max_examples=100, deadline=None)
    @given(g=graphs(n_lo=2))
    def test_density_bounds(self, g):
        assert 0.0 <= density(g) <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(g=graphs())
    def test_csr_consistent(self, g):
        indptr, indices = g.to_csr()
        assert indptr[-1] == 2 * g.m
        for u in g.vertices():
            row = indices[int(indptr[u]): int(indptr[u + 1])]
            assert tuple(row.tolist()) == g.neighbors(u)

    @settings(max_examples=80, deadline=None)
    @given(g=graphs())
    def test_copy_equals_but_is_independent(self, g):
        h = g.copy()
        assert h == g
        if h.n >= 2 and not h.has_edge(0, 1):
            h.add_edge(0, 1)
            assert h != g


class TestBipartitenessProperty:
    @settings(max_examples=100, deadline=None)
    @given(g=graphs())
    def test_bipartition_is_proper_when_it_exists(self, g):
        part = bipartition(g)
        if part is None:
            return
        side0, side1 = part
        s0 = set(side0)
        assert len(side0) + len(side1) == g.n
        for u, v in g.edges():
            assert (u in s0) != (v in s0)

    @settings(max_examples=80, deadline=None)
    @given(g=graphs(n_lo=3))
    def test_odd_girth_iff_not_bipartite(self, g):
        from repro.graphs import girth

        gg = girth(g)
        has_odd_cycle = False
        if gg is not None:
            # check all odd lengths up to n for an odd cycle
            from repro.graphs import has_k_cycle

            has_odd_cycle = any(
                has_k_cycle(g, k) for k in range(3, g.n + 1, 2)
            )
        assert is_bipartite(g) == (not has_odd_cycle)


class TestDiameterProperty:
    @settings(max_examples=60, deadline=None)
    @given(g=graphs(n_lo=1))
    def test_diameter_bounds(self, g):
        d = diameter(g)
        if d is None:
            assert g.n == 0 or not g.is_connected()
        else:
            assert 0 <= d <= g.n - 1


class TestIoRoundtripProperty:
    @settings(max_examples=120, deadline=None)
    @given(g=graphs())
    def test_roundtrip(self, g):
        assert loads(dumps(g)) == g


#: How messy_edge_lists hands its pairs to the constructor.
PAIR_FORMS = ("tuples", "lists", "tuple", "generator", "set", "zip", "numpy")


def _as_form(pairs, form):
    """A fresh iterable of ``pairs`` in ``form`` (generators and zips
    are single-use, so each call makes a new one)."""
    if form == "tuples":
        return list(pairs)
    if form == "lists":
        return [list(p) for p in pairs]
    if form == "tuple":
        return tuple(pairs)
    if form == "generator":
        return (p for p in pairs)
    if form == "set":
        return set(pairs)
    if form == "zip":
        whole = [p for p in pairs if len(p) == 2]
        return zip([p[0] for p in whole], [p[1] for p in whole])
    # numpy: (m, 2) rows, whose dtype numpy infers from the endpoints.
    if any(len(p) != 2 for p in pairs):
        return np.array(pairs, dtype=object)
    return np.array(pairs).reshape(len(pairs), 2)


@st.composite
def messy_edge_lists(draw):
    """``(n, pairs, form)``: valid pairs mixed with self-loops, negative
    and ``>= n`` endpoints, floats, strings, ``None``, bools,
    ``np.int64`` and ``np.int32`` endpoints, duplicates in both
    orientations and pairs of the wrong length, handed over as one of
    :data:`PAIR_FORMS`."""
    n = draw(st.integers(0, 8))
    valid = st.integers(0, max(n - 1, 0))
    endpoint = st.one_of(
        valid,
        valid,
        valid,
        st.integers(-3, n + 3),
        valid.map(np.int64),
        valid.map(np.int32),
        st.sampled_from([0.0, 1.5, "0", "a", None, True]),
    )
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), max_size=16))
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), max_size=4)):
            at = draw(st.integers(0, len(pairs)))
            pairs.insert(at, (v, u) if draw(st.booleans()) else (u, v))
        if draw(st.integers(0, 4)) == 0:
            wrong = draw(st.lists(valid, min_size=1, max_size=3).filter(
                lambda p: len(p) != 2))
            pairs.insert(draw(st.integers(0, len(pairs))), tuple(wrong))
    return n, pairs, draw(st.sampled_from(PAIR_FORMS))


class TestConstructorMatchesAddEdge:
    """``Graph(n, edges)`` builds from endpoint arrays; every iterable of
    pairs must land exactly as one ``add_edge`` call per pair would."""

    @settings(max_examples=400, deadline=None)
    @given(case=messy_edge_lists(), strict=st.booleans())
    # A negative endpoint must raise, not wrap around the adjacency list.
    @example(case=(3, [(0, 1), (-1, 1)], "tuples"), strict=True)
    # An invalid pair raises before a later pair of the wrong length.
    @example(case=(3, [(0, 0), (1,)], "generator"), strict=True)
    def test_same_graph_or_same_error(self, case, strict):
        n, pairs, form = case
        expected = Graph(n)
        try:
            for u, v in _as_form(pairs, form):
                expected.add_edge(u, v, strict=strict)
        except GraphError as exc:
            with pytest.raises(GraphError) as got:
                Graph(n, _as_form(pairs, form), strict=strict)
            assert str(got.value) == str(exc)
            return
        except ValueError as exc:  # a pair of the wrong length
            with pytest.raises(type(exc)):
                Graph(n, _as_form(pairs, form), strict=strict)
            return
        g = Graph(n, _as_form(pairs, form), strict=strict)
        # The same insertion log: each edge's first pair, in order.
        assert [list(c) for c in g._log] == [list(c) for c in expected._log]
        assert g == expected
        assert g.m == expected.m
        assert g.content_hash() == expected.content_hash()
        g.validate()


def _assert_csr_matches_neighbors(g):
    """``g.to_csr()`` equals CSR arrays built from ``neighbors()``
    alone, and is read-only."""
    rows = [g.neighbors(u) for u in g.vertices()]
    indptr, indices = g.to_csr()
    assert indptr.dtype == indices.dtype == np.int64
    assert indptr.tolist() == np.cumsum([0] + [len(r) for r in rows]).tolist()
    assert indices.tolist() == [w for r in rows for w in r]
    assert not indptr.flags.writeable
    assert not indices.flags.writeable


@st.composite
def graph_op_sequences(draw):
    """``(n, pairs, strict, ops)``: a constructor call, then mutations.

    Pairs mix plain ints with ``np.int64`` endpoints, both orientations
    and, under ``strict=False``, duplicates.  Each op names the live
    graph it acts on by index (``copy``, ``arrays`` and ``subgraph`` add
    a live graph), so a copy and its source are mutated apart."""
    n = draw(st.integers(2, 8))
    valid = st.integers(0, n - 1)
    endpoint = st.one_of(valid, valid, valid.map(np.int64))
    strict = draw(st.booleans())
    pairs = draw(
        st.lists(
            st.tuples(endpoint, endpoint).filter(lambda p: p[0] != p[1]),
            max_size=14,
        )
    )
    if strict:
        # strict=True raises on a duplicate: keep each edge's first pair.
        first = {}
        for u, v in pairs:
            first.setdefault(frozenset((int(u), int(v))), (u, v))
        pairs = list(first.values())
    op = st.one_of(
        st.tuples(st.just("add"), st.integers(0, 9), endpoint, endpoint),
        st.tuples(st.just("remove"), st.integers(0, 9), st.integers(0, 99)),
        st.tuples(st.just("vertex"), st.integers(0, 9)),
        st.tuples(st.just("copy"), st.integers(0, 9)),
        st.tuples(st.just("arrays"), st.integers(0, 9)),
        st.tuples(
            st.just("subgraph"), st.integers(0, 9), st.randoms(use_true_random=False)
        ),
    )
    return n, pairs, strict, draw(st.lists(op, max_size=12))


class TestCsrFromTheInsertionLog:
    """``to_csr()`` exports from the insertion log until the first
    removal and from the adjacency sets after it; after every operation
    it must equal the ``neighbors()`` oracle, read-only, on every graph
    the sequence has made."""

    @settings(max_examples=200, deadline=None)
    @given(case=graph_op_sequences())
    def test_every_op_keeps_the_export_exact(self, case):
        n, pairs, strict, ops = case
        live = [Graph(n, pairs, strict=strict)]
        _assert_csr_matches_neighbors(live[0])
        for op in ops:
            g = live[op[1] % len(live)]
            kind = op[0]
            if kind == "add" and g.n:
                u, v = op[2] % g.n, op[3] % g.n
                if u != v:
                    g.add_edge(u, v, strict=False)
            elif kind == "remove" and g.m:
                g.remove_edge(*g.edge_list()[op[2] % g.m])
            elif kind == "vertex":
                g.add_vertex()
            elif kind == "copy":
                live.append(g.copy())
            elif kind == "arrays":
                arr = g.edge_array()
                live.append(Graph.from_canonical_edge_arrays(g.n, arr[:, 0], arr[:, 1]))
            elif kind == "subgraph":
                keep = [v for v in g.vertices() if op[2].random() < 0.7]
                op[2].shuffle(keep)
                live.append(g.subgraph(keep))
            for h in live:
                _assert_csr_matches_neighbors(h)


@st.composite
def mutation_reads(draw):
    """``(n, pairs, ops)``: a graph, then interleaved mutations and
    single-row ``neighbors`` reads."""
    n = draw(st.integers(2, 8))
    vertex = st.integers(0, 99)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=14))
    op = st.one_of(
        st.tuples(st.just("add"), vertex, vertex),
        st.tuples(st.just("remove"), vertex),
        st.tuples(st.just("vertex")),
        st.tuples(st.just("read"), vertex),
    )
    return n, pairs, draw(st.lists(op, max_size=20))


class TestNeighborMemo:
    """``neighbors()`` is memoised per vertex: a mutation clears the rows
    of its endpoints only."""

    @settings(max_examples=200, deadline=None)
    @given(case=mutation_reads())
    def test_rows_follow_the_sets_and_keep_untouched_tuples(self, case):
        n, pairs, ops = case
        g = Graph(n, [(u % n, v % n) for u, v in pairs if u % n != v % n],
                  strict=False)
        last = {}
        for op in ops:
            if op[0] == "add":
                u, v = op[1] % g.n, op[2] % g.n
                if u != v and not g.has_edge(u, v):
                    g.add_edge(u, v)
                    last.pop(u, None), last.pop(v, None)
            elif op[0] == "remove" and g.m:
                u, v = g.edge_list()[op[1] % g.m]
                g.remove_edge(u, v)
                last.pop(u, None), last.pop(v, None)
            elif op[0] == "vertex":
                g.add_vertex()
            elif op[0] == "read":
                u = op[1] % g.n
                row = g.neighbors(u)
                assert row == tuple(sorted(g.adjacency_set(u)))
                if u in last:
                    assert row is last[u]
                last[u] = row
        for u in g.vertices():
            assert g.neighbors(u) == tuple(sorted(g.adjacency_set(u)))
        assert list(g.edges()) == sorted(
            (u, v) for u in g.vertices() for v in g.adjacency_set(u) if u < v
        )

    def test_a_mutation_keeps_untouched_rows(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        rows = [g.neighbors(u) for u in g.vertices()]
        g.add_edge(0, 5)
        g.remove_edge(3, 4)
        assert g.add_vertex() == 6
        assert g.neighbors(1) is rows[1] and g.neighbors(2) is rows[2]
        assert (g.neighbors(0), g.neighbors(3), g.neighbors(5)) == ((1, 5), (), (0,))
        assert g.neighbors(6) == ()


@st.composite
def logged_graphs(draw):
    """``(graph, form)``: a graph whose insertion log is the constructor's
    array pair, an int-list pair after an insertion, or gone after a
    removal; its adjacency sets built or not."""
    n = draw(st.integers(2, 8))
    vertex = st.integers(0, n - 1)
    pairs = draw(
        st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), max_size=14)
    )
    g = Graph(n, pairs, strict=False)
    form = draw(st.sampled_from(["array", "list", "sets"]))
    if draw(st.booleans()):
        g.has_edge(0, 1)  # builds the sets from the log
    if form == "list":
        g.add_edge(g.add_vertex(), 0)
    elif form == "sets":
        if not g.has_edge(0, 1):
            g.add_edge(0, 1)
        g.remove_edge(0, 1)
    return g, form


class TestSnapshotCopies:
    """``copy()`` of a graph with an insertion log holds that log as
    read-only arrays and no sets; only a graph without a log copies its
    sets.  Either way the copy equals its source and mutates apart."""

    @settings(max_examples=150, deadline=None)
    @given(case=logged_graphs(), mutate_copy=st.booleans())
    def test_copy_is_equal_and_independent(self, case, mutate_copy):
        g, form = case
        n, edges = g.n, g.edge_list()
        c = g.copy()
        if form == "sets":
            assert c._log is None and c._adj is not None
        else:
            assert c._adj is None
            for column, source in zip(c._log, g._log):
                assert type(column) is np.ndarray and column.dtype == np.int64
                assert not column.flags.writeable
                assert (column is source) == (form == "array")
        assert c == g and c.content_hash() == g.content_hash()
        for a, b in zip(c.to_csr(), g.to_csr()):
            assert a.tolist() == b.tolist()
        changed, kept = (c, g) if mutate_copy else (g, c)
        changed.add_edge(changed.add_vertex(), 0)
        changed.remove_edge(*changed.edge_list()[0])
        fresh = Graph(n, edges)
        assert (kept.n, kept.edge_list()) == (n, edges)
        assert kept == fresh and kept.content_hash() == fresh.content_hash()
        _assert_csr_matches_neighbors(kept)
        _assert_csr_matches_neighbors(changed)

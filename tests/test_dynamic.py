"""Dynamic-graph substrate tests: mutations, DynamicGraph, streams,
edge-stream serialisation, content hashing."""

import pytest

from repro.dynamic import DynamicGraph, Mutation, apply_mutation, build_stream
from repro.dynamic.mutations import ADD_EDGE, ADD_VERTEX, REMOVE_EDGE
from repro.dynamic.streams import names as stream_names, parse_stream_spec
from repro.errors import ConfigurationError, GraphError
from repro.graphs import (
    dumps_stream,
    erdos_renyi_gnp,
    loads_stream,
    read_edge_stream,
    write_edge_stream,
)
from repro.graphs.generators import cycle_graph, path_graph
from repro.graphs.graph import Graph


class TestMutation:
    def test_canonicalises_edge_order(self):
        m = Mutation(ADD_EDGE, 7, 3).canonical()
        assert (m.u, m.v) == (3, 7)
        assert m.edge == (3, 7)

    def test_line_round_trip(self):
        for m in [Mutation(ADD_EDGE, 1, 2), Mutation(REMOVE_EDGE, 0, 9),
                  Mutation(ADD_VERTEX)]:
            assert Mutation.from_line(m.to_line()) == m.canonical()

    def test_invalid_ops_and_shapes(self):
        with pytest.raises(GraphError):
            Mutation("frobnicate", 0, 1)
        with pytest.raises(GraphError):
            Mutation(ADD_EDGE, 3, 3)  # self-loop
        with pytest.raises(GraphError):
            Mutation(ADD_EDGE, 1)  # missing endpoint
        with pytest.raises(GraphError):
            Mutation(ADD_VERTEX, 1, 2)  # endpoints on add_vertex

    @pytest.mark.parametrize("line", [
        "x 1 2", "+ 1", "+ 1 2 3", "+ a b", "+v 3", "- -1 2", "",
    ])
    def test_malformed_lines(self, line):
        with pytest.raises(GraphError):
            Mutation.from_line(line, lineno=5)

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(GraphError, match="line 5"):
            Mutation.from_line("junk", lineno=5)


class TestEdgeStreamFormat:
    def test_text_round_trip(self):
        muts = [Mutation(ADD_EDGE, 0, 1), Mutation(ADD_VERTEX),
                Mutation(REMOVE_EDGE, 0, 1), Mutation(ADD_EDGE, 2, 1)]
        text = dumps_stream(muts, comment="hello\nworld")
        assert text.startswith("# hello\n# world\n")
        parsed = loads_stream(text)
        assert parsed == [m.canonical() for m in muts]

    def test_file_round_trip(self, tmp_path):
        muts = [Mutation(ADD_EDGE, 3, 9), Mutation(ADD_VERTEX)]
        path = tmp_path / "s.stream"
        write_edge_stream(muts, path, comment="c")
        assert read_edge_stream(path) == muts

    def test_blank_lines_and_comments_skipped(self):
        assert loads_stream("\n# c\n\n+ 1 2\n") == [Mutation(ADD_EDGE, 1, 2)]

    def test_malformed_document_points_at_line(self):
        with pytest.raises(GraphError, match="line 3"):
            loads_stream("+ 1 2\n# ok\n+ nope\n")


class TestContentHash:
    def test_equal_graphs_equal_hashes(self):
        a = Graph(4, [(0, 1), (2, 3)])
        b = Graph(4, [(2, 3), (0, 1)])
        assert a.content_hash() == b.content_hash()

    def test_hash_depends_on_edges_and_n(self):
        a = Graph(4, [(0, 1)])
        assert a.content_hash() != Graph(4, [(0, 2)]).content_hash()
        assert a.content_hash() != Graph(5, [(0, 1)]).content_hash()

    def test_mutation_changes_then_restores_hash(self):
        g = Graph(4, [(0, 1), (1, 2)])
        before = g.content_hash()
        g.add_edge(2, 3)
        assert g.content_hash() != before
        g.remove_edge(2, 3)
        assert g.content_hash() == before

    def test_graph_still_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph(2, [(0, 1)]))
        with pytest.raises(TypeError):
            {Graph(1): "nope"}


class TestDynamicGraph:
    def test_logs_and_versions(self):
        dyn = DynamicGraph(path_graph(4))
        dyn.add_edge(0, 3)
        dyn.add_vertex()
        dyn.remove_edge(0, 3)
        assert dyn.version == 3
        assert [m.op for m in dyn.log] == [ADD_EDGE, ADD_VERTEX, REMOVE_EDGE]
        assert dyn.n == 5 and dyn.m == 3

    def test_base_is_copied(self):
        g = path_graph(3)
        dyn = DynamicGraph(g)
        g.add_edge(0, 2)  # caller's copy must not leak into history
        assert dyn.m == 2
        assert dyn.as_of(0).m == 2

    def test_as_of_replays_history(self):
        dyn = DynamicGraph(path_graph(4))
        dyn.add_edge(0, 3)
        dyn.remove_edge(1, 2)
        assert dyn.as_of(0) == path_graph(4)
        assert dyn.as_of(1).has_edge(0, 3)
        assert dyn.as_of(1).has_edge(1, 2)
        assert not dyn.as_of(2).has_edge(1, 2)
        with pytest.raises(GraphError):
            dyn.as_of(3)

    def test_invalid_mutation_leaves_state_untouched(self):
        dyn = DynamicGraph(path_graph(3))
        with pytest.raises(GraphError):
            dyn.add_edge(0, 1)  # duplicate
        with pytest.raises(GraphError):
            dyn.remove_edge(0, 2)  # absent
        assert dyn.version == 0 and dyn.m == 2

    def test_snapshot_and_replay(self):
        dyn = DynamicGraph(cycle_graph(5))
        dyn.add_vertex()
        dyn.add_edge(0, 5)
        snap = dyn.snapshot()
        assert snap.version == 2
        assert snap.content_hash == dyn.content_hash()
        twin = DynamicGraph.replay(cycle_graph(5), dyn.log)
        assert twin.content_hash() == snap.content_hash
        # The snapshot graph is frozen: mutating dyn does not touch it.
        dyn.remove_edge(0, 5)
        assert snap.graph.has_edge(0, 5)

    def test_apply_mutation_helper(self):
        g = path_graph(3)
        apply_mutation(g, Mutation(ADD_EDGE, 0, 2))
        assert g.has_edge(0, 2)


class TestCompactLog:
    """The log is stored as integer columns and decoded on read."""

    MIXED = [
        Mutation(ADD_EDGE, 4, 0),
        Mutation(ADD_VERTEX),
        Mutation(ADD_EDGE, 5, 2),
        Mutation(REMOVE_EDGE, 2, 1),
        Mutation(ADD_VERTEX),
        Mutation(REMOVE_EDGE, 0, 4),
        Mutation(ADD_EDGE, 0, 6),
        Mutation(REMOVE_EDGE, 5, 2),
    ]

    def test_mixed_stream_round_trips(self):
        base = path_graph(5)
        dyn = DynamicGraph(base)
        canonical = dyn.apply_all(self.MIXED)
        assert dyn.log == tuple(canonical)
        assert dyn.log == tuple(m.canonical() for m in self.MIXED)
        assert dyn.version == len(self.MIXED)
        states = [base.copy()]
        for mutation in self.MIXED:
            state = states[-1].copy()
            apply_mutation(state, mutation)
            states.append(state)
        for version, state in enumerate(states):
            assert dyn.as_of(version) == state
        twin = DynamicGraph.replay(base, dyn.log)
        assert twin.log == dyn.log and twin.graph == dyn.graph
        text = dumps_stream(dyn.log)
        assert loads_stream(text) == list(dyn.log)
        assert (
            DynamicGraph.replay(base, loads_stream(text)).content_hash()
            == dyn.content_hash()
        )

    def test_log_memory_per_mutation(self):
        import tracemalloc

        steps = 10_000  # two mutations each

        def churn():
            for i in range(steps):
                u, v = 300 + i % 700, 1000 + (7 * i) % 1000
                yield Mutation(ADD_EDGE, u, v)
                yield Mutation(REMOVE_EDGE, v, u)

        def grown(apply):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for mutation in churn():
                    apply(mutation)
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        bare = Graph(2000)
        dyn = DynamicGraph(Graph(2000))
        net = grown(dyn.apply) - grown(lambda m: apply_mutation(bare, m))
        assert dyn.version == 2 * steps
        assert net / (2 * steps) < 64, f"{net / (2 * steps):.1f} B per mutation"


class TestStreams:
    def test_registry_names(self):
        assert {"uniform-churn", "burst", "near-cycle", "growth"} <= set(
            stream_names()
        )

    def test_parse_stream_spec(self):
        name, params = parse_stream_spec("burst:steps=10,burst=2")
        assert name == "burst"
        assert params == {"steps": 10, "burst": 2}

    @pytest.mark.parametrize("bad", [
        "no-such-stream", "burst:steps", "burst:unknown=3", "", "burst:=4",
    ])
    def test_parse_stream_spec_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            parse_stream_spec(bad)

    @pytest.mark.parametrize("spec", [
        "uniform-churn:steps=15,p=0.5",
        "burst:steps=15,burst=3",
        "near-cycle:steps=15",
        "growth:steps=15,p=0.4,attach=2",
    ])
    def test_streams_are_valid_and_deterministic(self, spec):
        base = erdos_renyi_gnp(14, 0.15, seed=2)
        a = build_stream(spec, base, seed=9, k=5)
        b = build_stream(spec, base, seed=9, k=5)
        assert a.mutations == b.mutations
        assert len(a.mutations) == 15
        # Validity: the whole sequence applies cleanly (Graph ops raise
        # on duplicates/absences) and final_graph is reproducible.
        assert a.final_graph() == b.final_graph()
        assert build_stream(spec, base, seed=10, k=5).mutations != a.mutations

    def test_growth_only_inserts(self):
        base = cycle_graph(6)
        stream = build_stream("growth:steps=20", base, seed=1, k=5)
        assert all(m.op in (ADD_EDGE, ADD_VERTEX) for m in stream.mutations)
        final = stream.final_graph()
        assert final.n >= base.n and final.m >= base.m

    def test_burst_terminates_on_unmutable_graph(self):
        # n < 2: no edge can ever be added or removed; the scenario must
        # return (empty) instead of spinning forever.
        stream = build_stream("burst:steps=6,burst=2", Graph(1), seed=0, k=5)
        assert stream.mutations == ()

    def test_near_cycle_needs_k_vertices(self):
        with pytest.raises(ConfigurationError):
            build_stream("near-cycle:steps=4", path_graph(3), seed=0, k=5)

    def test_near_cycle_toggles_template_edges_only(self):
        base = path_graph(8)
        stream = build_stream("near-cycle:steps=30", base, seed=3, k=5)
        template = {(i, (i + 1) % 5) for i in range(5)}
        template = {(min(u, v), max(u, v)) for u, v in template}
        assert {m.edge for m in stream.mutations} <= template


class TestSnapshotAtomicity:
    """Regression: snapshot() must not tear against concurrent apply().

    Graph.__hash__ is None (content identity is explicit), so the only
    link between a snapshot's fields is construction-time consistency:
    the version, the content hash and the frozen graph must all describe
    the *same* point of the mutation history even when another thread is
    appending mutations mid-snapshot.  Before the fix the three fields
    were read in separate steps, so a racing apply() could produce e.g.
    version V paired with the hash of state V+1.
    """

    def test_snapshot_fields_are_mutually_consistent(self):
        import threading

        dyn = DynamicGraph(Graph(4))
        failures = []
        snapshots = []

        def writer():
            for _ in range(800):
                dyn.add_vertex()

        def snapshotter():
            # Fixed iteration count: overlap with the writer is
            # best-effort (scheduling-dependent), the consistency
            # assertions hold either way.
            for _ in range(150):
                snap = dyn.snapshot()
                # The frozen copy is the state the hash was taken from.
                if snap.graph.content_hash() != snap.content_hash:
                    failures.append("hash does not match frozen graph")
                # Pure vertex growth: n is determined by the version, so
                # a torn (version, graph) pair is directly visible.
                if snap.graph.n != 4 + snap.version:
                    failures.append(
                        f"version {snap.version} paired with n={snap.graph.n}"
                    )
                snapshots.append(snap)

        w = threading.Thread(target=writer)
        s1 = threading.Thread(target=snapshotter)
        s2 = threading.Thread(target=snapshotter)
        for t in (s1, s2, w):
            t.start()
        for t in (w, s1, s2):
            t.join()
        assert not failures, failures[:3]
        assert len(snapshots) == 300
        # Replaying the log prefix reproduces a sample snapshot exactly.
        sample = snapshots[len(snapshots) // 2]
        assert dyn.as_of(sample.version).content_hash() == sample.content_hash

    def test_snapshot_graph_is_frozen_copy(self):
        dyn = DynamicGraph(Graph(3))
        dyn.add_edge(0, 1)
        snap = dyn.snapshot()
        dyn.add_edge(1, 2)
        assert snap.graph.m == 1
        assert snap.version == 1
        assert dyn.version == 2
        assert snap.content_hash != dyn.content_hash()

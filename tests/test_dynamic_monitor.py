"""CkMonitor unit tests: decision rules, witness maintenance, locality,
full re-detection, and the growth/adversarial extremes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import (
    CkMonitor,
    DynamicGraph,
    Mutation,
    build_stream,
    full_redetect,
)
from repro.dynamic.monitor import (
    CACHE_HIT,
    FULL_RETEST,
    LOCAL_RECHECK,
    _ball_subgraph,
    k_neighborhood_ball,
)
from repro.errors import ConfigurationError
from repro.graphs import Graph
from repro.graphs.cycles import has_k_cycle
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi_gnp,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.obs import Telemetry


def witness_is_valid(graph, witness, k):
    """The cached evidence is a genuine k-cycle of ``graph``."""
    if witness is None or len(witness) != k or len(set(witness)) != k:
        return False
    return all(
        graph.has_edge(witness[i], witness[(i + 1) % k]) for i in range(k)
    )


class TestDecisionRules:
    def test_init_verdicts(self):
        assert CkMonitor(cycle_graph(5), 5).accepted is False
        assert CkMonitor(cycle_graph(6), 5).accepted is True
        assert CkMonitor(path_graph(6), 5).accepted is True

    def test_add_vertex_is_cache_hit(self):
        mon = CkMonitor(cycle_graph(5), 5)
        rec = mon.apply(Mutation("add_vertex"))
        assert rec.action == CACHE_HIT
        assert mon.accepted is False
        assert witness_is_valid(mon.graph, mon.witness, 5)

    def test_insert_into_reject_is_cache_hit(self):
        mon = CkMonitor(cycle_graph(5), 5)
        assert not mon.accepted
        rec = mon.apply(Mutation("add_edge", 0, 2))  # chord: cycle survives
        assert rec.action == CACHE_HIT
        assert not mon.accepted
        assert witness_is_valid(mon.graph, mon.witness, 5)

    def test_delete_in_accept_is_cache_hit(self):
        mon = CkMonitor(path_graph(6), 5)
        rec = mon.apply(Mutation("remove_edge", 2, 3))
        assert rec.action == CACHE_HIT and mon.accepted

    def test_insert_local_recheck_flips_to_reject(self):
        mon = CkMonitor(path_graph(5), 5)  # 0-1-2-3-4
        rec = mon.apply(Mutation("add_edge", 0, 4))  # closes a 5-cycle
        assert rec.action == LOCAL_RECHECK
        assert rec.flipped and not mon.accepted
        assert witness_is_valid(mon.graph, mon.witness, 5)

    def test_insert_local_recheck_stays_accept(self):
        mon = CkMonitor(path_graph(6), 5)
        rec = mon.apply(Mutation("add_edge", 0, 2))  # makes a triangle only
        assert rec.action == LOCAL_RECHECK
        assert mon.accepted  # no 5-cycle appeared

    def test_witness_preserving_deletion_is_cache_hit(self):
        g = cycle_graph(5)
        g.add_vertex()
        g.add_edge(0, 5)  # pendant edge, not on the cycle
        mon = CkMonitor(g, 5)
        assert not mon.accepted
        rec = mon.apply(Mutation("remove_edge", 0, 5))
        assert rec.action == CACHE_HIT and not mon.accepted

    def test_witness_destroying_deletion_full_retest(self):
        mon = CkMonitor(cycle_graph(5), 5)
        edge = (mon.witness[0], mon.witness[1])
        rec = mon.apply(Mutation("remove_edge", *edge))
        assert rec.action == FULL_RETEST
        assert mon.accepted and mon.witness is None  # the only cycle died

    def test_full_retest_finds_surviving_cycle(self):
        # Two edge-disjoint 5-cycles sharing vertex 0: killing the cached
        # witness must rediscover the other cycle.
        g = cycle_graph(5)  # 0-1-2-3-4-0
        for _ in range(4):
            g.add_vertex()
        for u, v in [(0, 5), (5, 6), (6, 7), (7, 8), (8, 0)]:
            g.add_edge(u, v)
        mon = CkMonitor(g, 5)
        assert not mon.accepted
        w = mon.witness
        rec = mon.apply(Mutation("remove_edge", w[0], w[1]))
        assert rec.action == FULL_RETEST
        assert not mon.accepted
        assert witness_is_valid(mon.graph, mon.witness, 5)

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError):
            CkMonitor(path_graph(3), 2)

    @pytest.mark.parametrize("bad", [
        {"epsilon": 2.0, "tester_repetitions": 0},
        {"epsilon": 0.0},
        {"tester_repetitions": 0},
        {"engine": "fast", "faults": object()},
    ])
    def test_bad_tester_parameters_fail_construction(self, bad):
        # An edgeless base runs no tester at construction.  Unchecked,
        # these raised at the first full re-test or local recheck, after
        # its mutation had applied: five inserts closing a 5-cycle, then
        # deleting (0, 1), left version 6, REJECT, with a witness through
        # the deleted edge.
        with pytest.raises(ConfigurationError):
            CkMonitor(Graph(5), 5, **bad)

    def test_unknown_engine_fails_construction(self):
        # Otherwise each insert applies and then raises, leaving ACCEPT
        # on a graph that holds a 5-cycle.
        with pytest.raises(ConfigurationError, match="unknown engine"):
            CkMonitor(Graph(5), 5, engine="bogus")

    def test_adopts_dynamic_graph(self):
        dyn = DynamicGraph(cycle_graph(6))
        mon = CkMonitor(dyn, 6)
        assert mon.dynamic is dyn
        assert not mon.accepted


class TestLocality:
    def test_ball_contains_cycle_range(self):
        g = cycle_graph(10)
        ball = k_neighborhood_ball(g, (0, 1), 2)
        assert set(ball) == {8, 9, 0, 1, 2, 3}

    def test_ball_radius_zero(self):
        g = path_graph(5)
        assert k_neighborhood_ball(g, (1, 2), 0) == [1, 2]

    def test_ball_star(self):
        g = star_graph(6)  # centre 0
        assert k_neighborhood_ball(g, (0, 1), 1) == list(range(7))

    @pytest.mark.parametrize("seed", range(6))
    def test_csr_ball_matches_bfs_and_subgraph(self, seed):
        # The recheck walks balls on the live graph's memoised rows; a
        # BFS over a fresh CSR export and Graph.subgraph are the
        # reference, before and after mutations clear some rows.
        g = erdos_renyi_gnp(40, 0.08, seed=seed)

        def check():
            indptr, indices = g.to_csr()
            edges = g.edge_list()
            for edge in edges[:: max(1, len(edges) // 10)][:10]:
                for radius in range(4):
                    seen = set(edge)
                    frontier = list(edge)
                    for _ in range(radius):
                        nxt = []
                        for w in frontier:
                            for x in indices[indptr[w]:indptr[w + 1]].tolist():
                                if x not in seen:
                                    seen.add(x)
                                    nxt.append(x)
                        frontier = nxt
                    expected = sorted(seen)
                    ball = k_neighborhood_ball(g, edge, radius)
                    assert ball == expected
                    assert _ball_subgraph(g, ball) == g.subgraph(expected)

        check()
        for u, v in g.edge_list()[::3]:
            g.remove_edge(u, v)
        w = g.add_vertex()
        for x in range(0, 40, 7):
            g.add_edge(w, x)
        check()

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 14),
        pairs=st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=40),
        removals=st.lists(st.integers(0, 99), max_size=6),
        extra=st.integers(0, 3),
        radius=st.integers(0, 3),
        pick=st.integers(0, 99),
    )
    def test_ball_subgraph_matches_induced_subgraph(
        self, n, pairs, removals, extra, radius, pick
    ):
        # The recheck builds its ball subgraph from the live graph's
        # sorted neighbour rows; Graph.subgraph is the reference.
        g = Graph(n, [(u % n, v % n) for u, v in pairs if u % n != v % n],
                  strict=False)
        for r in removals:
            if g.m:
                g.remove_edge(*g.edge_list()[r % g.m])
        for _ in range(extra):
            w = g.add_vertex()
            g.add_edge(w, pick % w)
        if not g.m:
            return
        edge = g.edge_list()[pick % g.m]
        ball = k_neighborhood_ball(g, edge, radius)
        sub = _ball_subgraph(g, ball)
        assert sub == g.subgraph(ball)
        us, vs = sub._log
        keys = [(int(u), int(v)) for u, v in zip(us, vs)]
        assert all(u < v for u, v in keys) and keys == sorted(keys)
        assert sub.m == len(keys)

    def test_insert_never_exports_the_whole_graph(self, monkeypatch):
        # An inserting step walks the ball on the live graph; exporting
        # the whole graph would cost O(n + m) per step.
        base = Graph(40, [(u, v) for u in range(20) for v in range(20, 40)
                          if (u + v) % 7 == 0])
        mon = CkMonitor(base, 5, engine="fast")
        exported = []
        real = Graph.to_csr

        def spy(g):
            if g is mon.graph:
                exported.append(mon.version)
            return real(g)

        monkeypatch.setattr(Graph, "to_csr", spy)
        for u, v in [(0, 22), (1, 22), (2, 20)]:
            assert mon.apply(Mutation("add_edge", u, v)).action == LOCAL_RECHECK
            assert mon.apply(Mutation("remove_edge", u, v)).action == CACHE_HIT
        assert mon.accepted and exported == []

    def test_local_recheck_does_no_work_its_answer_never_reads(
        self, monkeypatch
    ):
        # On a bipartite graph at k = 5 the pruner keeps every row (round
        # 2 only) and Lemma 1 rules every reject out; the ball needs no
        # adjacency sets, and run_detect no edge table.
        from repro.congest.engine.fast import FastEngine
        from repro.core import algorithm1
        from repro.core.pruning import HittingSetPruner

        rng = random.Random(5)
        n, half = 2000, 1000

        def cross_edge():
            return rng.randrange(half), rng.randrange(half, n)

        edges = set()
        while len(edges) < 4000:
            edges.add(cross_edge())
        mon = CkMonitor(Graph(n, sorted(edges)), 5, engine="fast")
        work = {"select": 0, "evidence": 0, "ball_sets": 0, "edge_tables": 0}

        def spy(owner, attr, key, counts=lambda *args: True):
            real = getattr(owner, attr)

            def counted(*args, **kwargs):
                if counts(*args):
                    work[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        spy(HittingSetPruner, "select", "select")
        spy(algorithm1, "find_detection_evidence", "evidence")
        spy(Graph, "_sets", "ball_sets",
            lambda g: g._adj is None and g is not mon.graph)
        spy(FastEngine, "_edge_table", "edge_tables",
            lambda eng: eng._edge_ends is None)
        inserts = 0
        while inserts < 50:
            u, v = cross_edge()
            if mon.graph.has_edge(u, v):
                continue
            rec = mon.apply(Mutation("add_edge", u, v))
            assert rec.action == LOCAL_RECHECK and rec.accepted
            mon.apply(Mutation("remove_edge", u, v))
            inserts += 1
        assert work == dict.fromkeys(work, 0)


class TestFullRedetect:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_matches_oracle(self, engine):
        other = "fast" if engine == "reference" else "reference"
        for seed in range(4):
            g = erdos_renyi_gnp(14, 0.16, seed=seed)
            # One tester repetition leaves more witnesses to the scan.
            for reps in (None, 1):
                kwargs = dict(seed=seed, tester_repetitions=reps)
                accepted, witness = full_redetect(g, 5, engine=engine, **kwargs)
                assert accepted == (not has_k_cycle(g, 5))
                if not accepted:
                    assert witness_is_valid(g, witness, 5)
                # Both engines return the same verdict and witness.
                assert full_redetect(g, 5, engine=other, **kwargs) == (
                    accepted, witness,
                )

    def test_edgeless_graph_accepts(self):
        from repro.graphs.graph import Graph

        assert full_redetect(Graph(5), 4) == (True, None)

    @staticmethod
    def _count_calls(monkeypatch):
        """Count calls of ``Graph.content_hash``, ``Graph.copy`` and
        ``Network.__init__`` from here on."""
        from repro.congest.network import Network

        calls = {"content_hash": 0, "copy": 0, "network": 0}
        for owner, attr, key in ((Graph, "content_hash", "content_hash"),
                                 (Graph, "copy", "copy"),
                                 (Network, "__init__", "network")):
            def counted(*args, _real=getattr(owner, attr), _key=key, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
        return calls

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("free", [True, False])
    def test_certifies_without_hashing_or_copying(self, monkeypatch, engine, free):
        # A bipartite graph is C5-free, so the scan runs through every
        # edge; on a 5-cycle the tester rejects and no scan runs.
        g = grid_graph(3, 4) if free else cycle_graph(5)
        tel = Telemetry()
        calls = self._count_calls(monkeypatch)
        accepted, _ = full_redetect(g, 5, engine=engine, seed=1, telemetry=tel)
        assert accepted is free
        scanned = tel.summary().get("repro_detect_runs_total", 0)
        assert scanned == (g.m if free else 0)
        assert calls["content_hash"] == 0 and calls["copy"] == 0, calls
        if engine == "fast":
            # The tester and the scan's engine compile from one Network.
            assert calls["network"] == 1, calls

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_monitor_never_hashes_the_graph(self, monkeypatch, engine):
        calls = self._count_calls(monkeypatch)
        mon = CkMonitor(cycle_graph(5), 5, engine=engine)
        rec = mon.apply(Mutation("remove_edge", mon.witness[0], mon.witness[1]))
        assert rec.action == FULL_RETEST and mon.accepted
        assert calls["content_hash"] == 0, calls


class TestScenarios:
    def test_growth_never_full_retests(self):
        base = cycle_graph(6)
        stream = build_stream("growth:steps=30", base, seed=5, k=5)
        mon = CkMonitor(stream.base, 5, seed=5)
        mon.run_stream(stream.mutations)
        assert mon.stats.full_retests == 0
        assert mon.stats.steps == 30
        assert mon.accepted == (not has_k_cycle(mon.graph, 5))

    def test_near_cycle_flips_verdicts(self):
        base = path_graph(10)
        stream = build_stream("near-cycle:steps=40", base, seed=2, k=5)
        mon = CkMonitor(stream.base, 5, seed=2)
        mon.run_stream(stream.mutations)
        # The adversarial toggler must actually exercise the hard paths.
        assert mon.stats.verdict_flips >= 2
        assert mon.stats.full_retests >= 1
        assert mon.accepted == (not has_k_cycle(mon.graph, 5))

    def test_stats_accounting(self):
        base = erdos_renyi_gnp(16, 0.12, seed=0)
        stream = build_stream("uniform-churn:steps=25,p=0.5", base, seed=0,
                              k=5)
        mon = CkMonitor(stream.base, 5, seed=0)
        records = mon.run_stream(stream.mutations)
        s = mon.stats
        assert s.steps == len(records) == 25
        assert s.cache_hits + s.local_rechecks + s.full_retests == s.steps
        assert s.verdict_flips == sum(1 for r in records if r.flipped)
        assert 0.0 <= s.cache_hit_rate <= 1.0

    def test_step_seed_schedule_is_deterministic(self):
        a = CkMonitor(path_graph(4), 5, seed=3)
        b = CkMonitor(path_graph(4), 5, seed=3)
        assert [a.step_seed(t) for t in range(5)] == \
               [b.step_seed(t) for t in range(5)]
        assert a.step_seed(0) != CkMonitor(path_graph(4), 5, seed=4).step_seed(0)

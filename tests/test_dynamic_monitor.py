"""CkMonitor unit tests: decision rules, witness maintenance, locality,
full re-detection, and the growth/adversarial extremes."""

import pytest

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
    _csr_ball,
    _csr_ball_subgraph,
    k_neighborhood_ball,
)
from repro.errors import ConfigurationError
from repro.graphs.cycles import has_k_cycle
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi_gnp,
    path_graph,
    star_graph,
)


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
        # The monitor extracts balls from CSR arrays only; the Python
        # BFS and Graph.subgraph are the reference it must equal.
        g = erdos_renyi_gnp(40, 0.08, seed=seed)
        indptr, indices = g.to_csr()
        edges = g.edge_list()
        for edge in edges[:: max(1, len(edges) // 10)][:10]:
            for radius in range(4):
                ball = _csr_ball(indptr, indices, edge, radius)
                expected = k_neighborhood_ball(g, edge, radius)
                assert ball.tolist() == expected
                sub = _csr_ball_subgraph(indptr, indices, ball)
                assert sub == g.subgraph(expected)


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

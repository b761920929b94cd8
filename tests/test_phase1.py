"""Tests for Phase 1: rank drawing, edge selection, priority multiplexing."""

import numpy as np
import pytest

from helpers import assert_is_cycle, random_graphs
from repro.congest import Network, SynchronousScheduler, tag_order_key
from repro.core import DetectionOutcome, MultiplexedCkProgram, draw_ranks, protocol_rounds
from repro.core.phase1 import RANK_SCHEME, edge_ranks
from repro.errors import ConfigurationError
from repro.graphs import (
    cycle_graph,
    disjoint_cycles_graph,
    has_k_cycle,
    path_graph,
    star_graph,
)


def run_multiplexed(graph, k, seed, network=None):
    net = network if network is not None else Network(graph)
    scheduler = SynchronousScheduler(net)
    return net, scheduler.run(
        lambda ctx: MultiplexedCkProgram(ctx, k, seed),
        num_rounds=protocol_rounds(k),
    )


class TestDrawRanks:
    def test_only_owned_edges(self):
        draws = draw_ranks(5, (1, 3, 7, 9), m=10, rep_seed=0)
        assert [d.edge for d in draws] == [(5, 7), (5, 9)]

    def test_rank_range(self):
        m = 6
        for rep_seed in range(50):
            for d in draw_ranks(0, (1, 2, 3), m=m, rep_seed=rep_seed):
                assert 1 <= d.rank <= m * m

    def test_no_edges_for_largest_id(self):
        assert draw_ranks(9, (1, 2, 3), m=5, rep_seed=0) == []

    def test_requires_edges(self):
        with pytest.raises(ConfigurationError):
            draw_ranks(0, (1,), m=0, rep_seed=0)

    def test_tag_order(self):
        assert tag_order_key((1, (5, 6))) < tag_order_key((2, (0, 1)))
        assert tag_order_key((2, (0, 1))) < tag_order_key((2, (0, 2)))

    def test_draws_are_the_edges_keyed_ranks(self):
        draws = draw_ranks(4, (9, 2, 6), m=7, rep_seed=11)
        assert [d.rank for d in draws] == edge_ranks(
            11, [4, 4], [6, 9], 7
        ).tolist()


def _corr(x, y):
    return float(np.corrcoef(np.asarray(x, float), np.asarray(y, float))[0, 1])


class TestEdgeRanks:
    """Statistical contracts of the keyed rank function (§3.1, Lemma 5):
    uniform on ``[1, m²]``, independent across edges and repetitions."""

    def test_scheme_is_named(self):
        assert RANK_SCHEME == "splitmix64-v1"

    def test_range_and_determinism(self):
        m = 50
        a = np.arange(m, dtype=np.int64)
        b = a + 3
        for seed in (0, 1, 2 ** 31, 2 ** 64 - 1):
            ranks = edge_ranks(seed, a, b, m)
            assert ranks.dtype == np.int64
            assert ranks.min() >= 1 and ranks.max() <= m * m
            assert edge_ranks(seed, a, b, m).tolist() == ranks.tolist()
            # A pure function of (seed, a, b, m): an edge's rank does not
            # depend on the other edges drawn with it.
            assert [
                int(edge_ranks(seed, a[i: i + 1], b[i: i + 1], m)[0])
                for i in range(m)
            ] == ranks.tolist()

    def test_the_full_seed_word_keys_the_ranks(self):
        # No 31-bit mask: seeds differing only in high bits differ.
        a = np.arange(40, dtype=np.int64)
        draws = {
            tuple(edge_ranks(seed, a, a + 1, 40).tolist())
            for seed in (5, 5 + 2 ** 31, 5 + 2 ** 40, 5 + 2 ** 63)
        }
        assert len(draws) == 4

    def test_chi_square_over_100_buckets(self):
        # 2·10^5 ranks; 148.23 is the 0.999 quantile of χ² at df 99.
        m = 1000
        a = np.arange(m, dtype=np.int64)
        ranks = np.concatenate(
            [edge_ranks(seed, a, a + 1, m) for seed in range(200)]
        )
        counts = np.bincount((ranks - 1) * 100 // (m * m), minlength=100)
        expected = len(ranks) / 100
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert len(counts) == 100
        assert chi2 < 148.23, chi2

    def test_no_lag1_correlation_along_one_owners_edges(self):
        n = 10 ** 4
        ranks = edge_ranks(
            12345, np.zeros(n, dtype=np.int64), np.arange(1, n + 1), n
        )
        assert abs(_corr(ranks[:-1], ranks[1:])) < 4 / np.sqrt(n)

    def test_no_correlation_across_consecutive_seeds(self):
        n = 10 ** 4
        a = np.arange(n, dtype=np.int64)
        for seed in (0, 2 ** 31 - 1, 2 ** 40):
            rho = _corr(edge_ranks(seed, a, a + 1, n),
                        edge_ranks(seed + 1, a, a + 1, n))
            assert abs(rho) < 4 / np.sqrt(n), (seed, rho)

    def test_edge_count_boundary(self):
        top = 2 ** 31 - 1
        rank = int(edge_ranks(1, [1], [2], top)[0])
        assert 1 <= rank <= top * top < 2 ** 62
        with pytest.raises(ConfigurationError, match=r"2\*\*31"):
            edge_ranks(1, [1], [2], 2 ** 31)
        with pytest.raises(ConfigurationError):
            edge_ranks(1, [1], [2], 0)

    def test_lemma5_on_the_protocols_ranks(self):
        # T4's empirical column draws through edge_ranks under the
        # tester's repetition seeds.
        from repro.analysis import run_phase1_statistics
        from repro.core import lemma5_bound

        result = run_phase1_statistics(ms=(4, 16, 64, 256), trials=4000)
        for row in result.rows:
            assert abs(row["empirical"] - row["exact"]) < 0.05, row
            assert row["empirical"] >= lemma5_bound(), row


class TestProtocolRounds:
    def test_counts(self):
        assert protocol_rounds(3) == 2
        assert protocol_rounds(5) == 3
        assert protocol_rounds(8) == 5


class TestMultiplexedDetection:
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    def test_single_cycle_always_found(self, k):
        """With exactly one k-cycle and nothing else, whatever edge wins
        the rank lottery lies on the cycle, so detection is certain."""
        g = cycle_graph(k)
        for seed in range(5):
            net, run = run_multiplexed(g, k, seed)
            rejecting = [
                v for v, o in run.outputs.items()
                if isinstance(o, DetectionOutcome) and o.rejects
            ]
            assert rejecting, f"k={k} seed={seed}: cycle missed"
            for v in rejecting:
                ids = run.outputs[v].cycle
                verts = [net.vertex_of(i) for i in ids]
                assert_is_cycle(g, verts, k)

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_one_sided_on_free_graphs(self, k):
        """No node may ever reject when no k-cycle exists — for any seed."""
        graphs = [
            path_graph(10),
            star_graph(8),
            cycle_graph(k + 3),  # contains a cycle but not a k-cycle
        ]
        for g in graphs:
            assert not has_k_cycle(g, k)
            for seed in range(8):
                _, run = run_multiplexed(g, k, seed)
                assert not any(
                    o.rejects for o in run.outputs.values()
                    if isinstance(o, DetectionOutcome)
                ), f"false reject on free graph, k={k}, seed={seed}"

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_soundness_on_random_graphs(self, k):
        """Multiplexed evidence must always be a real k-cycle, even with
        many concurrent executions colliding."""
        for g in random_graphs(8, n_lo=8, n_hi=12, seed=900 + k):
            if g.m == 0:
                continue
            net, run = run_multiplexed(g, k, seed=k)
            for v, out in run.outputs.items():
                if isinstance(out, DetectionOutcome) and out.rejects:
                    verts = [net.vertex_of(i) for i in out.cycle]
                    assert_is_cycle(g, verts, k)

    def test_many_disjoint_cycles_detected(self):
        """Every edge lies on a cycle, so every rank winner detects."""
        g = disjoint_cycles_graph(5, 5, connect=False)
        for seed in range(5):
            _, run = run_multiplexed(g, 5, seed)
            assert any(
                o.rejects for o in run.outputs.values()
                if isinstance(o, DetectionOutcome)
            )

    def test_isolated_vertices_accept(self):
        from repro.graphs import Graph

        g = Graph(4, [(0, 1), (1, 2), (2, 0)])  # vertex 3 isolated
        _, run = run_multiplexed(g, 3, seed=1)
        assert isinstance(run.outputs[3], DetectionOutcome)
        assert not run.outputs[3].rejects
        # the triangle itself is found
        assert any(o.rejects for o in run.outputs.values())

    def test_reproducible_given_seed(self):
        g = disjoint_cycles_graph(3, 4, connect=True)
        _, r1 = run_multiplexed(g, 4, seed=7)
        _, r2 = run_multiplexed(g, 4, seed=7)
        assert {
            v: (o.rejects, o.cycle) for v, o in r1.outputs.items()
        } == {v: (o.rejects, o.cycle) for v, o in r2.outputs.items()}

    def test_bad_k(self):
        with pytest.raises(ConfigurationError):
            MultiplexedCkProgram(None, 2, 0)  # type: ignore[arg-type]


class TestPriorityRule:
    def test_min_rank_execution_unimpeded(self):
        """Force ranks so a chosen edge is the global minimum; its
        execution must detect exactly like the isolated Algorithm 1."""

        g = disjoint_cycles_graph(4, 6, connect=True)
        # try several seeds; for each, find what the min-rank edge was by
        # checking that *some* cycle is detected (every cycle edge is on a
        # 6-cycle; bridges are not on any cycle).
        hits = 0
        for seed in range(10):
            _, run = run_multiplexed(g, 6, seed)
            if any(
                o.rejects for o in run.outputs.values()
                if isinstance(o, DetectionOutcome)
            ):
                hits += 1
        # bridges are 3 of 27 edges; P[min on bridge] is small, and with a
        # unique minimum on a cycle edge detection is guaranteed.
        assert hits >= 7

    def test_concurrent_executions_never_mix_tags(self):
        """Soundness under collision: run on two disjoint triangles with
        *equal* forced ranks (tie broken by edge IDs) — evidence, if any,
        must still be a genuine triangle."""
        g = disjoint_cycles_graph(2, 3, connect=False)
        net, run = run_multiplexed(g, 3, seed=0)
        for v, out in run.outputs.items():
            if isinstance(out, DetectionOutcome) and out.rejects:
                verts = [net.vertex_of(i) for i in out.cycle]
                assert_is_cycle(g, verts, 3)

"""Tests for Algorithm 1 (Phase 2): exact completeness and soundness.

The paper's strongest claim about Phase 2 (§1.2): it is *deterministic* —
"even if there is just a single k-cycle passing through e, that cycle will
be detected" — and it never rejects a graph with no k-cycle through e.
We verify both directions against the exact centralized oracle, across
graph families, all k in 3..10, and adversarial ID assignments.
"""

import pytest

from helpers import assert_is_cycle, random_graphs
from repro.congest import (
    IdentityIds,
    Network,
    RandomPermutationIds,
    ReverseIds,
    SpreadIds,
)
from repro.congest.engine import create_engine
from repro.core import (
    ExplicitPruner,
    detect_cycle_through_edge,
    find_detection_evidence,
    phase2_rounds,
    process_phase2_round,
)
from repro.core.pruning import HittingSetPruner
from repro.errors import ConfigurationError
from repro.graphs import (
    blowup_graph,
    complete_graph,
    cycle_graph,
    figure1_graph,
    flower_graph,
    grid_graph,
    has_cycle_through_edge,
    path_graph,
    planted_cycle_graph,
    theta_graph,
)


class TestRounds:
    def test_phase2_rounds(self):
        assert phase2_rounds(3) == 1
        assert phase2_rounds(4) == 2
        assert phase2_rounds(5) == 2
        assert phase2_rounds(9) == 4
        assert phase2_rounds(10) == 5

    def test_bad_k(self):
        with pytest.raises(ConfigurationError):
            phase2_rounds(2)
        with pytest.raises(ConfigurationError):
            detect_cycle_through_edge(cycle_graph(3), (0, 1), 2)

    def test_missing_edge_rejected(self):
        with pytest.raises(ConfigurationError):
            detect_cycle_through_edge(path_graph(4), (0, 2), 3)

    def test_round_count_constant_in_n(self):
        """Theorem-1 ingredient: rounds depend only on k."""
        for n in (10, 50, 200):
            g = cycle_graph(n)
            det = detect_cycle_through_edge(g, (0, 1), 7)
            assert det.run.trace.num_rounds == phase2_rounds(7)


class TestCanonicalExamples:
    def test_figure1_c5(self):
        """The paper's Fig. 1: z detects the C5 (u, x, z, y, v)."""
        g = figure1_graph()
        det = detect_cycle_through_edge(g, (0, 1), 5)
        assert det.detected
        # z (vertex 4) is the antipodal node and must be a rejector.
        assert 4 in det.rejecting_vertices
        assert_is_cycle(g, det.any_cycle_ids(), 5)

    @pytest.mark.parametrize("k", range(3, 13))
    def test_pure_cycle_every_k(self, k):
        g = cycle_graph(k)
        det = detect_cycle_through_edge(g, (0, 1), k)
        assert det.detected
        assert_is_cycle(g, det.any_cycle_ids(), k)

    @pytest.mark.parametrize("k", range(3, 11))
    def test_wrong_length_never_fires(self, k):
        """1-sidedness: C_n contains no C_k for k != n."""
        n = 13
        g = cycle_graph(n)
        det = detect_cycle_through_edge(g, (0, 1), k)
        assert not det.detected

    @pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
    def test_flower_many_witnesses(self, k):
        """Many k-cycles share the probe edge; pruning must keep one."""
        g = flower_graph(6, k)
        det = detect_cycle_through_edge(g, (0, 1), k)
        assert det.detected
        assert_is_cycle(g, det.any_cycle_ids(), k)

    @pytest.mark.parametrize("k", [6, 7, 8, 9])
    def test_blowup_high_multiplicity(self, k):
        g = blowup_graph(5, k)
        det = detect_cycle_through_edge(g, (0, 1), k)
        assert det.detected
        assert_is_cycle(g, det.any_cycle_ids(), k)

    def test_theta_even_cycle(self):
        g = theta_graph(3, 3)  # 3 paths of length 3 => C6s, no C6 via hubs?
        e = (0, 2)
        assert has_cycle_through_edge(g, e, 6)
        det = detect_cycle_through_edge(g, e, 6)
        assert det.detected

    def test_grid_c4(self):
        g = grid_graph(3, 3)
        det = detect_cycle_through_edge(g, (0, 1), 4)
        assert det.detected
        det5 = detect_cycle_through_edge(g, (0, 1), 5)
        assert not det5.detected  # bipartite


class TestDifferentialAgainstOracle:
    """Exact match with ground truth on random graphs."""

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
    def test_random_graphs(self, k):
        for g in random_graphs(12, seed=100 + k):
            if g.m == 0:
                continue
            for e in list(g.edges())[:6]:
                expected = has_cycle_through_edge(g, e, k)
                det = detect_cycle_through_edge(g, e, k)
                assert det.detected == expected, (g.edge_list(), e, k)
                if det.detected:
                    ids = det.any_cycle_ids()
                    assert_is_cycle(g, ids, k)  # identity IDs = vertices
                    # The probe edge must be ON the witnessed cycle.
                    edges_on_cycle = {
                        tuple(sorted((ids[i], ids[(i + 1) % k])))
                        for i in range(k)
                    }
                    assert tuple(sorted(e)) in edges_on_cycle

    def test_explicit_pruner_agrees(self):
        """End-to-end equality of the two pruners on whole executions, on
        the reference engine (the one that runs any pruner)."""
        for g in random_graphs(6, n_lo=6, n_hi=9, seed=77):
            if g.m == 0:
                continue
            net = Network(g)
            ref = create_engine("reference", net)
            for e in list(g.edges())[:4]:
                edge_ids = net.edge_ids(*e)
                for k in (4, 5, 6):
                    fast = ref.run_detect(k, edge_ids, pruner=HittingSetPruner())
                    slow = ref.run_detect(k, edge_ids, pruner=ExplicitPruner())
                    assert fast.outputs.rejecting == slow.outputs.rejecting
                    for v in fast.outputs.rejecting:
                        assert fast.outputs[v].cycle == slow.outputs[v].cycle


class TestIdAssignmentInvariance:
    """Correctness must not depend on which IDs nodes carry."""

    @pytest.mark.parametrize(
        "assigner",
        [IdentityIds(), ReverseIds(), SpreadIds(), RandomPermutationIds(seed=5)],
        ids=["identity", "reverse", "spread", "random"],
    )
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_invariance(self, assigner, k):
        for g in random_graphs(5, seed=50 + k):
            if g.m == 0:
                continue
            net = Network(g, assigner)
            for e in list(g.edges())[:4]:
                expected = has_cycle_through_edge(g, e, k)
                det = detect_cycle_through_edge(g, e, k, network=net)
                assert det.detected == expected
                if det.detected:
                    ids = det.any_cycle_ids()
                    verts = [net.vertex_of(i) for i in ids]
                    assert_is_cycle(g, verts, k)


class TestEvidence:
    def test_evidence_is_real_cycle_through_edge(self):
        g, cyc = planted_cycle_graph(30, 7, seed=3, extra_edge_prob=0.05)
        e = (cyc[0], cyc[1])
        det = detect_cycle_through_edge(g, e, 7)
        assert det.detected
        ids = det.any_cycle_ids()
        assert_is_cycle(g, ids, 7)

    def test_all_rejectors_carry_evidence(self):
        g = complete_graph(7)
        det = detect_cycle_through_edge(g, (0, 1), 5)
        for v in det.rejecting_vertices:
            out = det.outcomes[v]
            assert out.cycle is not None
            assert_is_cycle(g, out.cycle, 5)

    def test_accepting_nodes_have_no_evidence(self):
        g = path_graph(6)
        det = detect_cycle_through_edge(g, (0, 1), 4)
        assert all(o.cycle is None for o in det.outcomes.values())


class TestUnitPieces:
    def test_process_round_empty(self):
        assert process_phase2_round(1, [], 7, 2, HittingSetPruner()) == []

    def test_process_round_filters_own_id(self):
        out = process_phase2_round(5, [(5,)], 7, 2, HittingSetPruner())
        assert out == []

    def test_process_round_appends(self):
        out = process_phase2_round(9, [(1,)], 7, 2, HittingSetPruner())
        assert out == [(1, 9)]

    def test_detection_odd_needs_two_disjoint(self):
        # k=5: two length-2 sequences + me, all distinct => cycle
        assert find_detection_evidence(10, 5, [], [(1, 2), (3, 4)]) == (
            1, 2, 10, 4, 3,
        )
        # overlapping sequences: no
        assert find_detection_evidence(10, 5, [], [(1, 2), (2, 3)]) is None
        # sequence containing me: no
        assert find_detection_evidence(10, 5, [], [(1, 10), (3, 4)]) is None

    def test_detection_even_pairs_own_with_received(self):
        # k=4: own (1, 10) + received (2, 3)
        assert find_detection_evidence(10, 4, [(1, 10)], [(2, 3)]) == (
            1, 10, 3, 2,
        )
        # received containing me cannot fire
        assert find_detection_evidence(10, 4, [(1, 10)], [(2, 10)]) is None
        # two received are never paired for even k
        assert find_detection_evidence(10, 4, [], [(1, 2), (3, 4)]) is None

    def test_detection_no_material(self):
        assert find_detection_evidence(1, 5, [], []) is None


class TestDeterminism:
    def test_repeated_runs_identical(self):
        g = flower_graph(5, 6)
        a = detect_cycle_through_edge(g, (0, 1), 6)
        b = detect_cycle_through_edge(g, (0, 1), 6)
        assert a.detected == b.detected
        assert a.any_cycle_ids() == b.any_cycle_ids()
        assert a.run.trace.summary() == b.run.trace.summary()

"""Tests for the CONGEST simulator: scheduler semantics, delivery,
instrumentation, ID assignment and the size model."""

import numpy as np
import pytest

from repro.congest import (
    Broadcast,
    IdentityIds,
    Network,
    NodeProgram,
    RandomPermutationIds,
    ReverseIds,
    SequenceBundle,
    SizeModel,
    SpreadIds,
    SynchronousScheduler,
)
from repro.congest import network as network_mod
from repro.congest.node import NodeContext
from repro.errors import BandwidthExceededError, CongestError, ProtocolError
from repro.graphs import Graph, cycle_graph, erdos_renyi_gnm, path_graph, star_graph


class EchoProgram(NodeProgram):
    """Round 1: send own ID to all; later rounds: forward max seen."""

    def __init__(self, ctx):
        self.best = ctx.my_id
        self.finished_with = None

    def on_start(self, ctx):
        return Broadcast(ctx.my_id)

    def on_round(self, ctx, round_index, inbox):
        if inbox:
            self.best = max(self.best, max(inbox.values()))
        return Broadcast(self.best)

    def on_finish(self, ctx, inbox):
        if inbox:
            self.best = max(self.best, max(inbox.values()))
        self.finished_with = dict(inbox)
        return self.best


class TestNetwork:
    def test_ids_and_contexts(self):
        g = path_graph(3)
        net = Network(g)
        assert net.ids() == (0, 1, 2)
        ctx = net.context(1)
        assert ctx.my_id == 1
        assert ctx.neighbor_ids == (0, 2)
        assert ctx.degree == 2
        assert ctx.n_hint == 3 and ctx.m_hint == 2

    def test_reverse_ids(self):
        g = path_graph(3)
        net = Network(g, ReverseIds())
        assert net.node_id(0) == 2
        assert net.vertex_of(2) == 0
        assert net.context(0).neighbor_ids == (1,)

    def test_edge_ids_sorted(self):
        net = Network(path_graph(2), ReverseIds())
        assert net.edge_ids(0, 1) == (0, 1)  # sorted by ID, not vertex

    def test_unknown_id(self):
        net = Network(path_graph(2))
        with pytest.raises(CongestError):
            net.vertex_of(99)

    def test_random_ids_distinct_poly_range(self):
        g = cycle_graph(20)
        net = Network(g, RandomPermutationIds(seed=3))
        ids = net.ids()
        assert len(set(ids)) == 20
        assert all(0 <= i < 400 for i in ids)

    def test_spread_ids_distinct(self):
        net = Network(cycle_graph(17), SpreadIds())
        assert len(set(net.ids())) == 17

    def test_default_size_model(self):
        net = Network(cycle_graph(8))
        model = net.default_size_model()
        assert model.id_bits == 3  # identity IDs on 8 nodes -> 3 bits
        assert model.rank_bits == 6  # m = 8 -> ceil(log2(64))


class TestLazyContexts:
    """``Network.context`` builds each node's context on first use."""

    @staticmethod
    def _graph():
        # A random part plus two isolated vertices.
        g = erdos_renyi_gnm(30, 70, seed=4)
        return Graph(32, g.edge_list())

    @pytest.mark.parametrize(
        "assigner",
        [IdentityIds(), ReverseIds(), RandomPermutationIds(seed=9), SpreadIds()],
        ids=["identity", "reverse", "random", "spread"],
    )
    def test_context_equals_eager_build(self, assigner):
        g = self._graph()
        net = Network(g, assigner)
        ids = net.ids()
        for v in g.vertices():
            eager = NodeContext(
                my_id=ids[v],
                neighbor_ids=tuple(sorted(ids[w] for w in g.neighbors(v))),
                n_hint=g.n,
                m_hint=g.m,
            )
            assert net.context(v) == eager
            assert net.context(v) is net.context(v)

    def test_fast_runs_build_no_context(self, monkeypatch):
        from repro.core import CkFreenessTester, detect_cycle_through_edge

        built = []

        def counting(**fields):
            built.append(fields["my_id"])
            return NodeContext(**fields)

        monkeypatch.setattr(network_mod, "NodeContext", counting)
        g = self._graph()
        net = Network(g)
        CkFreenessTester(5, 0.1, repetitions=3, engine="fast").run(
            g, network=net, seed=1
        )
        detect_cycle_through_edge(g, g.edge_list()[0], 5, network=net,
                                  engine="fast")
        assert built == []
        # The probe does see the reference scheduler's reads.
        detect_cycle_through_edge(g, g.edge_list()[0], 5, network=net,
                                  engine="reference")
        assert sorted(built) == list(range(g.n))


class TestSchedulerSemantics:
    def test_flood_max_takes_diameter_rounds(self):
        """Max-ID flooding on a path: after r rounds, ID n-1 has travelled
        r hops — verifies lock-step (no same-round forwarding)."""
        n = 6
        g = path_graph(n)
        for rounds in range(1, n):
            result = SynchronousScheduler(Network(g)).run(
                lambda ctx: EchoProgram(ctx), num_rounds=rounds
            )
            # Vertex 0 learns ID n-1 only after n-1 rounds.
            expected = rounds  # after r rounds vertex 0 knows IDs 0..r
            assert result.outputs[0] == expected

    def test_zero_rounds_rejected(self):
        with pytest.raises(ProtocolError):
            SynchronousScheduler(Network(path_graph(2))).run(
                lambda ctx: EchoProgram(ctx), num_rounds=0
            )

    def test_broadcast_reaches_all_neighbors(self):
        g = star_graph(4)
        result = SynchronousScheduler(Network(g)).run(
            lambda ctx: EchoProgram(ctx), num_rounds=1
        )
        # all leaves see the centre's ID 0; centre sees max leaf ID 4
        assert result.outputs[0] == 4
        assert all(result.outputs[v] == max(v, 0) for v in range(1, 5))

    def test_directed_outbox_respects_topology(self):
        class OneShot(NodeProgram):
            def on_start(self, ctx):
                return {99: "x"}  # not a neighbour anywhere

            def on_round(self, ctx, r, inbox):
                return None

            def on_finish(self, ctx, inbox):
                return None

        with pytest.raises(ProtocolError):
            SynchronousScheduler(Network(path_graph(3))).run(
                lambda ctx: OneShot(), num_rounds=1
            )

    def test_invalid_outbox_type(self):
        class Bad(NodeProgram):
            def on_start(self, ctx):
                return 42

            def on_round(self, ctx, r, inbox):
                return None

            def on_finish(self, ctx, inbox):
                return None

        with pytest.raises(ProtocolError):
            SynchronousScheduler(Network(path_graph(2))).run(
                lambda ctx: Bad(), num_rounds=1
            )

    def test_none_messages_not_delivered(self):
        class Quiet(NodeProgram):
            def on_start(self, ctx):
                return {nb: None for nb in ctx.neighbor_ids}

            def on_round(self, ctx, r, inbox):
                return None

            def on_finish(self, ctx, inbox):
                return len(inbox)

        result = SynchronousScheduler(Network(path_graph(3))).run(
            lambda ctx: Quiet(), num_rounds=1
        )
        assert all(v == 0 for v in result.outputs.values())

    def test_determinism(self):
        g = cycle_graph(9)
        r1 = SynchronousScheduler(Network(g)).run(
            lambda ctx: EchoProgram(ctx), num_rounds=4
        )
        r2 = SynchronousScheduler(Network(g)).run(
            lambda ctx: EchoProgram(ctx), num_rounds=4
        )
        assert r1.outputs == r2.outputs
        assert r1.trace.summary() == r2.trace.summary()

    def test_outputs_by_id(self):
        g = path_graph(3)
        net = Network(g, ReverseIds())
        result = SynchronousScheduler(net).run(
            lambda ctx: EchoProgram(ctx), num_rounds=2
        )
        by_id = result.outputs_by_id(net)
        assert set(by_id) == {0, 1, 2}


class TestInstrumentation:
    def test_message_counts(self):
        g = cycle_graph(5)
        result = SynchronousScheduler(Network(g)).run(
            lambda ctx: EchoProgram(ctx), num_rounds=3
        )
        trace = result.trace
        assert trace.num_rounds == 3
        # Broadcast on a cycle: every node sends to 2 neighbours each round.
        assert all(r.messages == 10 for r in trace.rounds)
        assert trace.total_messages == 30
        assert trace.total_bits > 0

    def test_bundle_sequence_accounting(self):
        class SendBundle(NodeProgram):
            def on_start(self, ctx):
                seqs = frozenset({(1, 2), (3, 4), (5, 6)})
                return Broadcast(SequenceBundle(seqs))

            def on_round(self, ctx, r, inbox):
                return None

            def on_finish(self, ctx, inbox):
                return None

        result = SynchronousScheduler(Network(path_graph(2))).run(
            lambda ctx: SendBundle(), num_rounds=1
        )
        assert result.trace.max_sequences_per_message == 3

    def test_strict_bandwidth_raises(self):
        class Flood(NodeProgram):
            def on_start(self, ctx):
                big = frozenset({(i, i + 1) for i in range(0, 40_000, 2)})
                return Broadcast(SequenceBundle(big))

            def on_round(self, ctx, r, inbox):
                return None

            def on_finish(self, ctx, inbox):
                return None

        sched = SynchronousScheduler(Network(path_graph(2)), strict_bandwidth=True)
        with pytest.raises(BandwidthExceededError):
            sched.run(lambda ctx: Flood(), num_rounds=1)

    def test_max_edge_recorded(self):
        g = star_graph(3)
        result = SynchronousScheduler(Network(g)).run(
            lambda ctx: EchoProgram(ctx), num_rounds=1
        )
        assert result.trace.rounds[0].max_edge is not None


class TestSizeModel:
    def test_for_network_defaults(self):
        model = SizeModel.for_network(100, 300)
        assert model.id_bits == 14  # ceil(log2(100^2))
        assert model.rank_bits == 17  # ceil(log2(300^2))

    def test_sequence_bits(self):
        model = SizeModel(id_bits=10)
        assert model.sequence_bits((1, 2, 3)) == 38  # 3*10 + 8

    def test_bundle_bits_with_tag(self):
        model = SizeModel(id_bits=10, rank_bits=20)
        bundle = SequenceBundle(frozenset({(1, 2)}), rank=5, edge=(1, 2))
        # 8 (count) + 20 + 2*10 (tag) + (2*10 + 8) (sequence)
        assert model.bundle_bits(bundle) == 8 + 40 + 28

    def test_budget_scales_with_log_n(self):
        model = SizeModel(id_bits=10, budget_factor=4)
        assert model.budget_bits(1024) == 40

    def test_bundle_requires_tuples(self):
        with pytest.raises(TypeError):
            SequenceBundle(frozenset({[1, 2]}))  # type: ignore[arg-type]


class FixedIds(IdentityIds):
    """Hands out a fixed ID list whatever ``n`` is."""

    def __init__(self, ids):
        self._ids = ids

    def assign(self, n):
        return list(self._ids)


class TestIdAssignmentInvariance:
    def test_duplicate_ids_rejected(self):
        class BadIds(IdentityIds):
            def assign(self, n):
                return [0] * n

        with pytest.raises(CongestError) as exc:
            Network(path_graph(3), BadIds())
        assert str(exc.value) == "ID assignment must give n distinct IDs"

    def test_negative_ids_rejected(self):
        class NegIds(IdentityIds):
            def assign(self, n):
                return list(range(-1, n - 1))

        with pytest.raises(CongestError) as exc:
            Network(path_graph(3), NegIds())
        assert str(exc.value) == "IDs must be non-negative"

    @pytest.mark.parametrize(
        "ids, message",
        [
            pytest.param([0, 1], "ID assignment must give n distinct IDs",
                         id="wrong-length"),
            pytest.param([-(2 ** 63) - 1, 1, 2], "IDs must be non-negative",
                         id="below-int64"),
            pytest.param([0, 2 ** 63, 1], "IDs must be below 2**63",
                         id="2**63"),
        ],
    )
    def test_single_fault_message(self, ids, message):
        with pytest.raises(CongestError) as exc:
            Network(path_graph(3), FixedIds(ids))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "assigner",
        [IdentityIds(), ReverseIds(), RandomPermutationIds(seed=3), SpreadIds()],
        ids=lambda a: type(a).__name__,
    )
    def test_id_array_and_dense_ranks(self, assigner):
        net = Network(erdos_renyi_gnm(30, 45, seed=2), assigner)
        ids = list(net.ids())
        by_id = sorted(ids)
        assert net.id_array.dtype == np.int64
        assert net.id_array.tolist() == ids
        assert net.id_ranks.dtype == np.int64
        assert net.id_ranks.tolist() == [by_id.index(i) for i in ids]
        for arr in (net.id_array, net.id_ranks):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_vertex_of_on_first_use(self):
        net = Network(path_graph(4), ReverseIds())
        assert net.vertex_of(0) == 3
        assert [net.vertex_of(net.node_id(v)) for v in range(4)] == [0, 1, 2, 3]
        with pytest.raises(CongestError, match="unknown node ID 9"):
            net.vertex_of(9)
        with pytest.raises(CongestError, match="unknown node ID 4"):
            Network(path_graph(4)).vertex_of(4)

"""Cross-engine equivalence: the ``fast`` backend must be observationally
identical to the ``reference`` scheduler under fixed seeds.

Layers covered here:

* shared Phase-1 ranks: the fast engine's per-edge ranks are the
  reference nodes' :func:`~repro.core.phase1.draw_ranks`, under every ID
  assigner and for IDs past ``2**32`` — the foundation of verdict
  equivalence;
* engine-level equivalence on the registry's stress instances (seeded
  grid over theta / flower / figure1 / eps-far / sparse gnp, tester +
  detect);
* tester-level equality of full :class:`TesterResult` objects;
* the campaign runner's ``engines`` factor (same seeds, same outcomes,
  resumable stores, backward-compatible run ids);
* engine-name validation at the ``create_engine`` and CLI layers;
* CLI ``--engine`` selection;
* the ``fast`` Algorithm-1 kernel over an edge axis: every execution
  equals ``run_detect`` through its edge, and ``first_cycle_edge``
  equals the reference per-edge ball scan under any row budget;
* single-edge detection: ``fast``'s ``run_detect`` equals the
  reference's on random G(n, m), edges, k and ID assigners.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from helpers import ID_ASSIGNERS, small_instance
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.congest.engine import (
    ENGINE_NAMES,
    create_engine,
    ensure_engine_available,
)
from repro.congest.ids import (
    IdAssigner,
    IdentityIds,
    RandomPermutationIds,
    ReverseIds,
    SpreadIds,
)
from repro.congest.network import Network
from repro.core.algorithm1 import (
    DetectionOutcome,
    DetectionOutcomes,
    detect_cycle_through_edge,
)
from repro.core.pruning import HittingSetPruner
from repro.core.tester import CkFreenessTester
from repro.errors import BandwidthExceededError, ConfigurationError
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi_gnm,
    erdos_renyi_gnp,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.runner import CampaignSpec, CampaignStore, run_campaign
from repro.runner import registry
from repro.testing import (
    DEFAULT_EQUIVALENCE_INSTANCES,
    compare_engines_once,
    engine_equivalence_report,
)


class LargeIds(IdAssigner):
    """Distinct IDs past ``2**32``, in reverse vertex order."""

    def assign(self, n):
        return [2 ** 40 + 7 * (n - v) for v in range(n)]

    def id_space(self, n):
        return 2 ** 41


ASSIGNERS = [
    pytest.param(IdentityIds(), id="identity"),
    pytest.param(RandomPermutationIds(seed=2), id="random"),
    pytest.param(LargeIds(), id="large"),
]


class TestSharedRanks:
    """Both engines draw Phase-1 ranks from one function, so ``fast``'s
    per-edge ranks are the reference nodes' draws exactly."""

    @pytest.mark.parametrize("ids", ASSIGNERS)
    def test_engine_ranks_match_reference_draws_with_hubs(self, ids):
        # Two hubs hold most edges, a path joins the leaves, and the
        # parity must hold whichever endpoint of an edge owns it.
        from repro.core.phase1 import draw_ranks

        g = star_graph(90)
        for leaf in range(1, 60):
            g.add_edge(1, leaf + 1, strict=False)
        for leaf in range(60, 90):
            g.add_edge(leaf, leaf + 1)
        net = Network(g, ids)
        eng = create_engine("fast", net)
        node_ids = net.ids()
        edges = sorted(
            (min(node_ids[u], node_ids[v]), max(node_ids[u], node_ids[v]))
            for u, v in g.edges()
        )
        for seed in (0, 7, 2 ** 31 + 5, 2 ** 63 + 1):
            expected = {}
            for v in g.vertices():
                nbrs = tuple(node_ids[u] for u in g.neighbors(v))
                for draw in draw_ranks(node_ids[v], nbrs, g.m, seed):
                    expected[draw.edge] = draw.rank
            ranks = eng._draw_edge_ranks(seed)
            assert ranks.tolist() == [expected[e] for e in edges]

    def test_engines_agree_on_ids_past_2_32(self):
        # Other assigners: test_id_assignment_does_not_break_equivalence.
        g = registry.build_graph("eps-far", n=40, k=5, eps=0.1, seed=2)
        net = Network(g, LargeIds())
        for k in (4, 5, 6):
            for seed in (0, 3):
                assert compare_engines_once(
                    g, k, seed, network=net, what="tester"
                ) == []
            assert compare_engines_once(g, k, 0, network=net,
                                        what="detect") == []

    def test_id_boundary_is_checked_up_front(self):
        from repro.errors import CongestError

        class TopIds(IdAssigner):
            def __init__(self, top):
                self.top = top

            def assign(self, n):
                return [self.top - v for v in range(n)]

            def id_space(self, n):
                return self.top + 1

        g = cycle_graph(5)
        net = Network(g, TopIds(2 ** 63 - 1))
        assert net.id_array[0] == 2 ** 63 - 1
        assert net.id_ranks.tolist() == [4, 3, 2, 1, 0]
        assert compare_engines_once(g, 5, 1, network=net) == []
        with pytest.raises(CongestError, match=r"^IDs must be below 2\*\*63$"):
            Network(g, TopIds(2 ** 63))


class TestEngineRegistry:
    def test_names_and_availability(self):
        assert ENGINE_NAMES == ("reference", "fast")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            ensure_engine_available("warp")
        with pytest.raises(ConfigurationError):
            CkFreenessTester(5, 0.1, engine="warp")

    @pytest.mark.parametrize(
        "spec",
        [
            # Engines are plain names: ``name:option`` spellings are
            # unknown names like any other.
            pytest.param("warp:chunk=2", id="unknown"),
            pytest.param("reference:chunk=2", id="reference-opt"),
            pytest.param("fast:4", id="bare-count"),
            pytest.param("fast:", id="empty-opt"),
            pytest.param("fast:warp=1", id="unknown-opt"),
        ],
    )
    def test_bad_spec_rejected(self, spec):
        net = Network(cycle_graph(6))
        with pytest.raises(ConfigurationError, match="unknown engine"):
            create_engine(spec, net)

    @pytest.mark.parametrize(
        "engine_args",
        [
            # An unknown engine fails argument parsing (a usage error).
            pytest.param(["--engine", "bogus"], id="unknown-engine"),
        ],
    )
    def test_bad_engine_flags_through_cli(self, engine_args):
        with pytest.raises(SystemExit) as exc:
            cli_main(["test", "--generator", "cycle", "--n", "8", "--k", "4",
                      *engine_args])
        assert exc.value.code == 2


class TestCrossEngineEquivalence:
    """The seeded stress-instance grid of the acceptance criteria."""

    def test_stress_instance_grid(self):
        report = engine_equivalence_report(
            instances=DEFAULT_EQUIVALENCE_INSTANCES,
            ks=(3, 4, 5, 6, 7),
            seeds=(0, 1),
        )
        # 5 instances x 5 ks x (2 tester seeds + 1 deterministic detect)
        assert report.comparisons == 75
        assert report.ok, report.mismatches

    @pytest.mark.parametrize("assigner", [None, ReverseIds(),
                                          RandomPermutationIds(seed=3),
                                          SpreadIds()])
    def test_id_assignment_does_not_break_equivalence(self, assigner):
        # Under identity IDs the CSR row order already is ID order, so a
        # kernel that leaves a node's two round-2 seeds in CSR order
        # instead of sorting them by sender ID only shows up under the other
        # assigners: at k = 4, once on the sparse graph, and under every
        # non-identity assigner on the denser one.
        sparse = erdos_renyi_gnp(24, 0.2, seed=5)
        for g in (sparse, erdos_renyi_gnp(24, 0.4, seed=5)):
            net = Network(g, assigner)
            edges = g.edge_list()
            # Algorithm 1 is deterministic, so detect runs once per edge
            # and k: through 8 edges spread over the sparse graph, and
            # through the first edge of the dense one, whose detect
            # comparisons are the slow ones.
            if g is sparse:
                edges = edges[:: len(edges) // 8][:8]
            else:
                edges = edges[:1]
            for k in range(3, 9):
                for seed in (0, 9):
                    assert compare_engines_once(
                        g, k, seed, network=net, what="tester"
                    ) == []
                for u, v in edges:
                    assert compare_engines_once(
                        g, k, 0, network=net, what="detect",
                        edge=net.edge_ids(u, v),
                    ) == []

    def test_tester_results_identical_end_to_end(self):
        g = registry.build_graph("eps-far", n=40, k=5, eps=0.1, seed=2)
        results = {}
        for engine in ENGINE_NAMES:
            t = CkFreenessTester(5, 0.1, repetitions=6, engine=engine)
            results[engine] = t.run(g, seed=123, stop_on_reject=False)
        a, b = results["reference"], results["fast"]
        assert a.accepted == b.accepted
        assert a.repetitions_run == b.repetitions_run
        assert [
            (r.rejected, r.cycle_ids, r.rejecting_vertices, r.rounds)
            for r in a.reports
        ] == [
            (r.rejected, r.cycle_ids, r.rejecting_vertices, r.rounds)
            for r in b.reports
        ]

    def test_detect_results_identical(self):
        g = registry.build_graph("flower", paths=4, k=6)
        for k in (4, 5, 6):
            ref = detect_cycle_through_edge(g, (0, 1), k, engine="reference")
            fast = detect_cycle_through_edge(g, (0, 1), k, engine="fast")
            assert ref.detected == fast.detected
            assert ref.rejecting_vertices == fast.rejecting_vertices
            assert ref.any_cycle_ids() == fast.any_cycle_ids()
            assert (ref.run.trace.summary() == fast.run.trace.summary())

    def test_edgeless_network_accepts_in_both_engines(self):
        from repro.graphs.graph import Graph

        net = Network(Graph(5))
        for engine in ENGINE_NAMES:
            run = create_engine(engine, net).run_tester_repetition(5, 0)
            assert all(not o.rejects for o in run.outputs.values())
            assert run.trace.num_rounds == 3

    def test_edgeless_runs_export_the_same_telemetry(self):
        # An edgeless repetition is still a completed run: every backend
        # exports its (empty-round) trace exactly as the reference does.
        from repro.graphs.graph import Graph
        from repro.obs import Telemetry

        net = Network(Graph(5))
        exported = []
        for engine in ENGINE_NAMES:
            tel = Telemetry()
            create_engine(engine, net, telemetry=tel).run_tester_repetition(5, 0)
            exported.append({
                name: family for name, family in tel.summary().items()
                if name.startswith("repro_congest_")
            })
        assert exported[0]
        assert all(e == exported[0] for e in exported[1:])

    def test_star_graph_and_isolated_vertices(self):
        g = star_graph(6)          # C_k-free, plus add isolated vertices
        g.add_vertex()
        g.add_vertex()
        for seed in (0, 1):
            assert compare_engines_once(g, 4, seed, what="tester") == []

    def test_reference_explicit_pruner_matches_fast(self):
        # The reference engine runs the literal Instructions 15-23 under
        # ExplicitPruner; fast runs HittingSetPruner's rule with its
        # shortcuts (round 2's closed form, lone rows kept) and refuses
        # any other pruner.
        from repro.core.pruning import ExplicitPruner

        def rejections(run):
            return {v: run.outputs[v].cycle for v in run.outputs.rejecting}

        g = registry.build_graph("theta", paths=4, path_length=2)
        net = Network(g)
        ref, fast = (create_engine(name, net) for name in ENGINE_NAMES)
        for k in (4, 5, 6):
            a = ref.run_tester_repetition(k, 7, pruner=ExplicitPruner())
            b = fast.run_tester_repetition(k, 7)
            assert rejections(a) == rejections(b), k
            assert a.trace.summary() == b.trace.summary(), k
            for u, v in g.edges():
                edge_ids = net.edge_ids(u, v)
                a = ref.run_detect(k, edge_ids, pruner=ExplicitPruner())
                b = fast.run_detect(k, edge_ids)
                assert rejections(a) == rejections(b), (k, u, v)
                assert a.trace.summary() == b.trace.summary(), (k, u, v)
        edge_ids = net.edge_ids(*next(iter(g.edges())))
        b = fast.run_detect(4, edge_ids, pruner=HittingSetPruner())
        assert rejections(b) == rejections(fast.run_detect(4, edge_ids))
        with pytest.raises(ConfigurationError, match="engine='reference'"):
            fast.run_tester_repetition(4, 7, pruner=ExplicitPruner())
        with pytest.raises(ConfigurationError, match="engine='reference'"):
            fast.run_detect(4, edge_ids, pruner=ExplicitPruner())

    def test_strict_bandwidth_raises_in_both_engines(self):
        # A tiny budget makes every Phase-2 bundle oversized.
        g = registry.build_graph("flower", paths=5, k=6)
        net = Network(g)
        model = net.default_size_model()
        tight = type(model)(id_bits=model.id_bits, rank_bits=model.rank_bits,
                            budget_factor=0)
        for engine in ENGINE_NAMES:
            eng = create_engine(engine, net, size_model=tight,
                                strict_bandwidth=True)
            with pytest.raises(BandwidthExceededError):
                eng.run_tester_repetition(6, 0)

    @pytest.mark.parametrize(
        "family, params, k",
        [("flower", {"paths": 5, "k": 6}, 6), ("gnp", {"n": 60, "p": 0.1}, 7)],
    )
    def test_strict_bandwidth_raise_parity(self, monkeypatch, family, params, k):
        # Sweeping the budget moves the first oversized message through
        # rounds 1..4 of a repetition and rounds 1..3 of detect.  Every
        # backend, and the tester over it, must stop at the same message
        # as the reference: same round, edge, bits and budget.
        g = registry.build_graph(family, seed=0, **params)
        detect_edges = g.edge_list()[:5]
        default_model = Network.default_size_model

        def raised(call):
            try:
                call()
            except BandwidthExceededError as exc:
                return exc.round_index, exc.edge, exc.bits, exc.budget
            return None

        def repetition(spec, net):
            eng = create_engine(spec, net, strict_bandwidth=True)
            return raised(lambda: eng.run_tester_repetition(k, 0))

        def tester(spec):
            t = CkFreenessTester(
                k, 0.1, repetitions=4, engine=spec, strict_bandwidth=True
            )
            return raised(lambda: t.run(g, seed=0, stop_on_reject=False))

        def detect(spec, net):
            eng = create_engine(spec, net, strict_bandwidth=True)
            return [
                raised(lambda: eng.run_detect(k, net.edge_ids(u, v)))
                for u, v in detect_edges
            ]

        tripped, detect_tripped = set(), set()
        for factor in range(1, 40):
            monkeypatch.setattr(
                Network,
                "default_size_model",
                lambda self, f=factor: dataclasses.replace(
                    default_model(self), budget_factor=f
                ),
            )
            net = Network(g)
            expected = repetition("reference", net)
            assert repetition("fast", net) == expected, factor
            assert tester("fast") == tester("reference"), factor
            if expected is not None:
                tripped.add(expected[0])
            expected = detect("reference", net)
            assert detect("fast", net) == expected, factor
            detect_tripped.update(r[0] for r in expected if r is not None)
        assert tripped == {1, 2, 3, 4}
        assert detect_tripped == {1, 2, 3}


class TestDenseTagBranch(TestCrossEngineEquivalence):
    """Beyond ``_PACKED_MAX_M`` edges the fast tester's tags are dense
    positions from a stable sort of the ranks.  No small graph reaches
    that size, so the constant is lowered to 0 and every parity check of
    :class:`TestCrossEngineEquivalence` runs again on that branch."""

    @pytest.fixture(autouse=True)
    def dense_tags(self, monkeypatch):
        from repro.congest.engine import fast as fast_mod

        monkeypatch.setattr(fast_mod, "_PACKED_MAX_M", 0)
        assert fast_mod._edge_tags(np.array([2, 1, 2])).tolist() == [1, 0, 2]


class TestSparseOutcomes:
    """Engine runs return :class:`DetectionOutcomes`: a read-only mapping
    over ``0..n-1`` that stores only the rejecting vertices."""

    def test_mapping_reads_like_the_dict(self):
        rejects = {
            4: DetectionOutcome(rejects=True, cycle=(0, 1, 2, 3, 4)),
            1: DetectionOutcome(rejects=True, cycle=(4, 3, 2, 1, 0)),
        }
        out = DetectionOutcomes(6, rejects)
        dense = {v: rejects.get(v, DetectionOutcome(rejects=False))
                 for v in range(6)}
        assert len(out) == 6
        assert list(out) == [0, 1, 2, 3, 4, 5]
        assert list(out.items()) == list(dense.items())
        assert out == dense and dense == out
        assert out != {**dense, 0: DetectionOutcome(rejects=True, cycle=(9,))}
        assert out != {v: o for v, o in dense.items() if v < 5}
        assert out.rejecting == (1, 4)
        assert out[np.int64(4)] is rejects[4]
        assert out[np.int64(2)] == DetectionOutcome(rejects=False)
        assert DetectionOutcomes.of(dense) == out
        for bad in (-1, 6, "0", None):
            with pytest.raises(KeyError):
                out[bad]
        assert 5 in out and 6 not in out
        with pytest.raises(TypeError):
            out[0] = rejects[4]
        with pytest.raises(AttributeError):
            out.rejecting = ()

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_engine_runs_return_the_mapping(self, engine):
        g = erdos_renyi_gnp(12, 0.4, seed=1)
        eng = create_engine(engine, Network(g, ReverseIds()))
        runs = [eng.run_tester_repetition(5, s) for s in range(6)]
        runs += [eng.run_detect(5, e) for e in ((0, 1), (2, 3))]
        assert any(run.outputs.rejecting for run in runs)
        for run in runs:
            assert isinstance(run.outputs, DetectionOutcomes)
            assert len(run.outputs) == g.n
            assert run.outputs.rejecting == tuple(
                v for v, o in run.outputs.items() if o.rejects
            )

    def test_reference_under_faults_returns_the_mapping(self):
        from repro.congest.faults import DropFaults

        net = Network(cycle_graph(5))
        eng = create_engine("reference", net, faults=DropFaults(0.3, seed=2))
        for run in (eng.run_detect(5, (0, 1)), eng.run_tester_repetition(5, 1)):
            assert isinstance(run.outputs, DetectionOutcomes)
            assert run.outputs.rejecting == tuple(
                v for v, o in run.outputs.items() if o.rejects
            )

    def test_edge_detection_reads_rejecting(self):
        det = detect_cycle_through_edge(cycle_graph(5), (0, 1), 5, engine="fast")
        assert isinstance(det.outcomes, DetectionOutcomes)
        assert det.detected and det.rejecting_vertices == [3]
        assert det.any_cycle_ids() == det.outcomes[3].cycle

    def test_compare_engines_once_compares_rejecting(self):
        from repro.congest.scheduler import RunResult
        from repro.testing import _run_differences

        run = create_engine("fast", Network(cycle_graph(5))).run_detect(5, (0, 1))
        assert run.outputs.rejecting
        bad = DetectionOutcomes(
            len(run.outputs), {v: run.outputs[v] for v in run.outputs.rejecting}
        )
        bad._rejecting = ()
        assert [f for f, _ in _run_differences(run, RunResult(bad, run.trace))] \
            == ["rejecting"]


class TestEngineCampaignFactor:
    def _spec(self, tmp_name="engines-unit", engines=("reference", "fast")):
        return CampaignSpec(
            name=tmp_name,
            generators=[
                {"family": "gnp", "params": {"n": 20, "p": 0.15}},
                {"family": "eps-far", "params": {"n": 40}},
            ],
            ks=[4, 5],
            epsilons=[0.15],
            algorithms=["tester", "detect"],
            engines=list(engines),
            repetitions=2,
            seed=13,
        )

    def test_engine_twins_share_seeds_and_outcomes(self, tmp_path):
        store = CampaignStore(tmp_path / "e.jsonl")
        run_campaign(self._spec().expand(), store, workers=1)
        by_factors = {}
        for rec in store.records():
            key = (rec["generator"], rec["k"], rec["algorithm"],
                   rec["repetition"])
            by_factors.setdefault(key, {})[rec["engine"]] = rec
        assert by_factors
        for key, pair in by_factors.items():
            assert set(pair) == {"reference", "fast"}
            ref, fast = pair["reference"], pair["fast"]
            assert ref["status"] == fast["status"] == "ok", key
            assert ref["seed"] == fast["seed"], key
            assert ref["outcome"] == fast["outcome"], key

    def test_monitor_rows_differ_only_by_the_scans_congest_runs(self, tmp_path):
        # The reference exact scan runs detect_cycle_through_edge per edge
        # (one CONGEST run and one detect.run span each); the fast scan
        # records neither.  Monitor rows agree on the outcome and every
        # other figure, and the reference row's extra runs and spans are
        # exactly the scanned edges, so the report's `mean rounds` and
        # `mean msgs` depend on the engine while the rest does not.
        from repro.runner import summarize_store

        spec = CampaignSpec(
            name="engines-monitor",
            generators=[{"family": "grid", "params": {"rows": 5, "cols": 6}}],
            ks=[5],
            epsilons=[0.1],
            algorithms=["monitor"],
            engines=["reference", "fast"],
            streams=["uniform-churn:steps=20,p=0.5"],
            repetitions=2,
            seed=3,
        )
        store = CampaignStore(tmp_path / "m.jsonl")
        run_campaign(spec.expand(), store, workers=1)
        pairs = {}
        for rec in store.records():
            pairs.setdefault(rec["repetition"], {})[rec["engine"]] = rec
        assert len(pairs) == 2

        def engine_free(tel):
            return {
                name: value for name, value in tel.items()
                if not name.startswith("repro_congest_")
                and name != "repro_span_seconds"
            }

        def detect_spans(tel):
            return tel["repro_span_seconds"]["span=detect.run"]["count"]

        for pair in pairs.values():
            ref, fast = pair["reference"], pair["fast"]
            assert ref["outcome"] == fast["outcome"]
            ref_tel, fast_tel = ref["telemetry"], fast["telemetry"]
            assert engine_free(ref_tel) == engine_free(fast_tel)
            scanned = (
                fast_tel["repro_detect_runs_total"]
                - fast["outcome"]["local_rechecks"]
            )
            assert scanned > 0
            assert (
                ref_tel["repro_congest_runs_total"]
                - fast_tel["repro_congest_runs_total"]
            ) == scanned
            assert detect_spans(ref_tel) - detect_spans(fast_tel) == scanned
        rows = {
            row["engine"]: row
            for row in summarize_store(store, group_by=("engine",)).rows
        }
        for column in ("rate", "cache_hit_rate", "mean_ball_size"):
            assert rows["reference"][column] == rows["fast"][column]
        assert rows["reference"]["mean_rounds"] > rows["fast"]["mean_rounds"]
        assert rows["reference"]["mean_messages"] > rows["fast"]["mean_messages"]

    def test_reference_rows_keep_pre_engine_run_ids(self):
        # Backward compatibility: a reference-only grid must expand to the
        # same ids/seeds as before the engine factor existed, so old
        # campaign stores stay resumable.
        ref_only = self._spec(engines=("reference",)).expand()
        both = self._spec().expand()
        ref_rows_of_both = [r for r in both if r.engine == "reference"]
        assert [r.run_id for r in ref_only] == [
            r.run_id for r in ref_rows_of_both
        ]
        assert [r.seed for r in ref_only] == [r.seed for r in ref_rows_of_both]

    def test_engine_rows_are_distinct_but_seed_aligned(self):
        rows = self._spec().expand().rows
        ids = [r.run_id for r in rows]
        assert len(set(ids)) == len(ids)
        fast = {(r.generator, r.k, r.algorithm, r.repetition): r
                for r in rows if r.engine == "fast"}
        for r in rows:
            if r.engine != "reference":
                continue
            twin = fast[(r.generator, r.k, r.algorithm, r.repetition)]
            assert twin.seed == r.seed

    def test_baselines_do_not_cross_with_the_engine_factor(self):
        # naive/gather ignore the engine, so expanding them per engine
        # would duplicate work and mislabel report rows; the expansion
        # pins them to the reference scheduler instead.
        spec = self._spec(engines=("reference", "fast"))
        spec.algorithms = ["tester", "naive"]
        rows = spec.expand().rows
        naive = [r for r in rows if r.algorithm == "naive"]
        assert naive and all(r.engine == "reference" for r in naive)
        tester = [r for r in rows if r.algorithm == "tester"]
        assert {r.engine for r in tester} == {"reference", "fast"}
        # exactly one naive row per factor cell, not one per engine
        assert len(naive) * 2 == len(tester)

    def test_validation_rejects_unknown_engines(self):
        with pytest.raises(ConfigurationError):
            self._spec(engines=("warp",)).expand()
        with pytest.raises(ConfigurationError):
            self._spec(engines=()).expand()

    def test_spec_json_round_trips_engines(self):
        spec = self._spec()
        clone = CampaignSpec.from_json(spec.to_json())
        assert tuple(clone.engines) == ("reference", "fast")
        assert clone.expand().row_ids() == spec.expand().row_ids()


class TestEngineCli:
    def test_test_command_accepts_engine_flag(self, capsys):
        rc_ref = cli_main(["test", "--generator", "eps-far", "--n", "40",
                           "--k", "4", "--eps", "0.15", "--seed", "5"])
        out_ref = capsys.readouterr().out
        rc_fast = cli_main(["test", "--generator", "eps-far", "--n", "40",
                            "--k", "4", "--eps", "0.15", "--seed", "5",
                            "--engine", "fast"])
        out_fast = capsys.readouterr().out
        assert rc_ref == rc_fast
        assert out_ref == out_fast  # identical verdict, evidence and rounds

    def test_detect_command_accepts_engine_flag(self, capsys):
        outputs = {}
        for engine in ENGINE_NAMES:
            assert cli_main(["detect", "--generator", "figure1",
                             "--k", "5", "--engine", engine]) == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["reference"] == outputs["fast"]


def _rejections(run):
    """``{vertex: cycle}`` of the rejecting vertices of one run."""
    return {v: o.cycle for v, o in run.outputs.items() if o.rejects}


def _kernel_rejections(fast, k):
    """Every edge's ``{vertex: cycle}`` rejections from the kernel, block
    by block, in edge-table order (``graph.edges()`` order under
    identity IDs)."""
    m = fast.network.graph.m
    found = [{} for _ in range(m)]
    lo = 0
    while lo < m:
        hi, rejects = fast._detect_edges(k, lo, m)
        for slot, v, cycle in rejects:
            found[lo + slot][v] = cycle
        lo = hi
    return found


def _spy_broadcasts(monkeypatch):
    """Record ``(executions, rows)`` for every edge-axis broadcast: how
    many executions its pool holds and how many rows it delivers."""
    from repro.congest.engine import fast as fast_mod

    seen = []
    broadcast = fast_mod.FastEngine._broadcast

    def spy(self, pool):
        recv = broadcast(self, pool)
        seen.append((len(set(pool[0].tolist())), len(recv[0])))
        return recv

    monkeypatch.setattr(fast_mod.FastEngine, "_broadcast", spy)
    return seen


def _path_then(n_path, g):
    """``g`` with its vertices renumbered after a path of ``n_path``
    edges on vertices ``0..n_path``, so the path's light edges come
    first in edge-table order."""
    out = Graph(n_path + 1 + g.n)
    for i in range(n_path):
        out.add_edge(i, i + 1)
    for u, v in g.edges():
        out.add_edge(n_path + 1 + u, n_path + 1 + v)
    return out


def _serial_ball_scan(g, k):
    """The reference scan: ``(edge index, witness)`` of the first edge
    whose ⌊k/2⌋-ball detection rejects, or ``None``."""
    from repro.dynamic.monitor import _detect_local

    for i, edge in enumerate(g.edges()):
        _, witness = _detect_local(g, edge, k, engine="reference")
        if witness is not None:
            return i, witness
    return None


SCAN_GRAPHS = [
    pytest.param(n, p, seed, id=f"gnp{n}-{p}-s{seed}")
    for n, p, seed in ((12, 0.3, 0), (20, 0.15, 1), (30, 0.1, 2))
]


class TestEdgeAxisScan:
    """``FastEngine``'s Algorithm-1 kernel over an edge axis: every
    execution equals ``run_detect`` through its edge, and
    ``first_cycle_edge`` equals the reference per-edge ball scan."""

    @pytest.mark.parametrize("n, p, seed", SCAN_GRAPHS)
    def test_every_edge_matches_reference_run_detect(self, n, p, seed):
        g = erdos_renyi_gnp(n, p, seed=seed)
        net = Network(g)
        ref, fast = (create_engine(name, net) for name in ENGINE_NAMES)
        for k in range(3, 9):
            want = [
                _rejections(ref.run_detect(k, net.edge_ids(u, v)))
                for u, v in g.edges()
            ]
            assert _kernel_rejections(fast, k) == want, k

    @pytest.mark.parametrize("assigner", ASSIGNERS)
    def test_kernel_takes_every_id_space(self, assigner):
        # Large IDs overflow the packed sort key (lexsort path); permuted
        # IDs order sequences apart from vertex order.
        g = erdos_renyi_gnp(16, 0.25, seed=3)
        net = Network(g, id_assigner=assigner)
        ref, fast = (create_engine(name, net) for name in ENGINE_NAMES)
        edges = sorted(g.edges(), key=lambda e: sorted(net.edge_ids(*e)))
        for k in (5, 6):
            want = [
                _rejections(ref.run_detect(k, net.edge_ids(u, v)))
                for u, v in edges
            ]
            assert _kernel_rejections(fast, k) == want, k

    def test_every_family_matches_reference_run_detect(self):
        for family in registry.names():
            g = small_instance(family, seed=1, k=5)
            net = Network(g)
            ref, fast = (create_engine(name, net) for name in ENGINE_NAMES)
            want = [
                _rejections(ref.run_detect(5, net.edge_ids(u, v)))
                for u, v in g.edges()
            ]
            assert _kernel_rejections(fast, 5) == want, family

    @pytest.mark.parametrize("budget", [1, 37, None])
    def test_first_cycle_edge_matches_serial_ball_scan(self, monkeypatch, budget):
        from repro.congest.engine import fast as fast_mod

        if budget is not None:
            monkeypatch.setattr(fast_mod, "_SCAN_ROW_BUDGET", budget)
        budget = fast_mod._SCAN_ROW_BUDGET
        blocks = []
        detect_edges = fast_mod.FastEngine._detect_edges

        def spy(self, k, lo, hi):
            ran, rejects = detect_edges(self, k, lo, hi)
            blocks.append((lo, hi, ran))
            return ran, rejects

        monkeypatch.setattr(fast_mod.FastEngine, "_detect_edges", spy)
        broadcasts = _spy_broadcasts(monkeypatch)
        # Sparse graphs: first hits from edge 0 to 62, and full scans.
        for n, p, seed in ((40, 0.05, 1), (60, 0.04, 3), (60, 0.035, 4)):
            g = erdos_renyi_gnp(n, p, seed=seed)
            fast = create_engine("fast", Network(g))
            for k in range(3, 9):
                blocks.clear()
                assert fast.first_cycle_edge(k) == _serial_ball_scan(g, k), (
                    n, seed, k,
                )
                # Blocks start at one edge and run back to back; the next
                # one doubles after a block that ran whole and keeps the
                # cut size after a cut.  (The edge table's end may cut the
                # last one short.)
                lo, size = 0, 1
                for start, asked, ran in blocks:
                    assert start == lo and asked == min(g.m, lo + size)
                    assert lo < ran <= asked
                    size = (ran - lo) * (2 if ran == asked else 1)
                    lo = ran
        # No broadcast of two or more executions goes past the budget.
        assert all(rows <= budget for ex, rows in broadcasts if ex > 1)

    def test_blocks_stay_within_the_row_budget(self, monkeypatch):
        # The path's light edges let blocks grow to 128 edges; the star's
        # edges (hub, leaf) follow in edge-table order with pools of about
        # 2 * 300 rows each, so an uncut block would hold ~7.7 * 10^4.
        from repro.congest.engine import fast as fast_mod

        g = _path_then(127, star_graph(301))
        broadcasts = _spy_broadcasts(monkeypatch)
        fast = create_engine("fast", Network(g))
        for k in (5, 6):
            assert fast.first_cycle_edge(k) is None
        assert max(rows for _, rows in broadcasts) <= fast_mod._SCAN_ROW_BUDGET

    def test_dense_pools_over_budget_still_match(self, monkeypatch):
        # One K_20 edge's k=8 pool alone exceeds the budget: the block
        # that reaches the clique after the path's light edges is cut, the
        # clique's first edge runs alone, and the hit still matches.
        from repro.congest.engine import fast as fast_mod

        g = _path_then(40, registry.build_graph("complete", n=20))
        broadcasts = _spy_broadcasts(monkeypatch)
        fast = create_engine("fast", Network(g))
        assert fast.first_cycle_edge(8) == _serial_ball_scan(g, 8)
        budget = fast_mod._SCAN_ROW_BUDGET
        assert any(ex == 1 and rows > budget for ex, rows in broadcasts)
        assert all(rows <= budget for ex, rows in broadcasts if ex > 1)


@st.composite
def single_edge_runs(draw):
    """A network on a random G(n, m), and the ID pair of one of its
    edges."""
    n = draw(st.integers(3, 40))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(min(n, max_m), min(max_m, 3 * n)))
    g = erdos_renyi_gnm(n, m, seed=draw(st.integers(0, 2**32 - 1)))
    edge = g.edge_list()[draw(st.integers(0, m - 1))]
    assigner = ID_ASSIGNERS[draw(st.sampled_from(sorted(ID_ASSIGNERS)))]
    net = Network(g, assigner(draw(st.integers(0, 2**16))))
    return net, net.edge_ids(*edge)


class TestSingleEdgeDetect:
    """``fast``'s ``run_detect`` skips the pruner where it keeps every row
    and the evidence search where Lemma 1 rules a reject out; both
    engines still agree on every output and every round's audit."""

    @pytest.mark.parametrize("k", range(3, 10))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(run=single_edge_runs())
    def test_matches_reference_outputs_and_audit(self, k, run):
        net, edge_ids = run
        a = create_engine("reference", net).run_detect(k, edge_ids)
        groups = []
        select = HittingSetPruner.select

        def spy(pruner, rows, k, t):
            groups.append((len(rows), t))
            return select(pruner, rows, k, t)

        with mock.patch.object(HittingSetPruner, "select", spy):
            b = create_engine("fast", net).run_detect(k, edge_ids)
        assert a.outputs.rejecting == b.outputs.rejecting
        assert _rejections(a) == _rejections(b)
        assert a.trace.rounds == b.trace.rounds
        # The pruner runs only on two or more rows at rounds t >= 3.
        assert all(size > 1 and t > 2 for size, t in groups)

"""Tests for the campaign runner subsystem (registry, run tables,
executor determinism + resume, store, aggregation)."""

import pytest

from repro.errors import ConfigurationError
from repro.graphs.graph import Graph
from repro.runner import (
    ALGORITHM_NAMES,
    CampaignSpec,
    CampaignStore,
    aggregate_records,
    derive_seed,
    execute_row,
    registry,
    run_campaign,
    summarize_store,
)
from repro.runner.runtable import canonical_json

# Small defaults so that building *every* registered family stays cheap.
SMALL = dict(n=20, m=24, rows=3, cols=3, dim=3, height=2, paths=3,
             path_length=2, width=2, cycles=2, k=4)


def small_spec(name="unit", **overrides):
    base = dict(
        name=name,
        generators=[
            {"family": "gnp", "params": {"n": [16, 24], "p": 0.1}},
            {"family": "cycle", "params": {"n": 12}},
        ],
        ks=[4],
        epsilons=[0.2],
        algorithms=["detect"],
        repetitions=2,
        seed=7,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestRegistry:
    def test_every_family_round_trips_and_builds(self):
        for name in registry.names():
            spec = registry.get(name)
            assert spec.name == name
            g = spec.build(seed=3, **SMALL)
            assert isinstance(g, Graph)
            assert g.n > 0

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            registry.get("no-such-family")

    def test_seeded_families_reproducible(self):
        for name in registry.names():
            spec = registry.get(name)
            if not spec.seeded:
                continue
            a = spec.build(seed=11, **SMALL)
            b = spec.build(seed=11, **SMALL)
            assert a == b, f"{name} not reproducible under a fixed seed"

    def test_extra_params_ignored_and_defaults_filled(self):
        g = registry.build_graph("cycle", n=9, p=0.5, beta=0.9)
        assert (g.n, g.m) == (9, 9)
        # n falls back to the vocabulary default when omitted
        g = registry.build_graph("cycle")
        assert g.n == registry.PARAMETERS["n"].default

    def test_info_families_expose_certificates(self):
        g, info = registry.build_graph_with_info("eps-far", n=40, k=4, eps=0.1,
                                                 seed=2)
        assert info["certified_farness"] >= 0.1
        g, info = registry.build_graph_with_info("planted-cycle", n=15, k=4,
                                                 p=0.0, seed=2)
        assert len(info["cycle_vertices"]) == 4

    def test_register_rejects_duplicates_and_unknown_params(self):
        with pytest.raises(ConfigurationError):
            registry.register(registry.get("gnp"))
        with pytest.raises(ConfigurationError):
            registry.register(
                registry.GeneratorSpec("fresh", lambda: None, ("bogus",))
            )


class TestRunTable:
    def test_expansion_is_full_cross_product(self):
        spec = small_spec(ks=[3, 4], algorithms=["detect", "naive"])
        table = spec.expand()
        # generators expand to 2 (gnp n-sweep) + 1 (cycle) = 3 cells
        assert len(table) == 3 * 2 * 1 * 2 * 2

    def test_run_ids_unique_and_stable(self):
        a, b = small_spec().expand(), small_spec().expand()
        assert a.row_ids() == b.row_ids()
        assert len(set(a.row_ids())) == len(a)

    def test_seeds_deterministic_and_distinct(self):
        rows = small_spec().expand().rows
        assert len({r.seed for r in rows}) == len(rows)
        again = small_spec().expand().rows
        assert [r.seed for r in rows] == [r.seed for r in again]
        # changing the master seed moves every per-run seed
        moved = small_spec(seed=8).expand().rows
        assert all(x.seed != y.seed for x, y in zip(rows, moved))

    def test_master_seed_is_part_of_row_identity(self):
        # Same grid under a new master seed = new rows: resume must
        # re-execute instead of silently serving stale-seed results.
        a = small_spec(seed=1).expand()
        b = small_spec(seed=2).expand()
        assert set(a.row_ids()).isdisjoint(b.row_ids())

    def test_derive_seed_is_stable_sha_not_hash(self):
        assert derive_seed(0, "x") == derive_seed(0, "x")
        assert derive_seed(0, "x") != derive_seed(1, "x")
        assert 0 <= derive_seed(123, "graph") < 2 ** 63

    def test_json_round_trip(self):
        spec = small_spec()
        clone = CampaignSpec.from_json(spec.to_json())
        assert clone.expand().row_ids() == spec.expand().row_ids()

    def test_from_json_rejects_malformed_payloads(self):
        for text in [
            "[1, 2]",  # not an object
            '{"generators": []}',  # missing name
            '{"name": "x", "generators": [{"params": {}}]}',  # no family
            '{"name": "x", "generators": [{"family": "gnp"}], "ks": 4}',
            '{"name": "x", "generators": [{"family": "gnp", "params": 3}]}',
        ]:
            with pytest.raises(ConfigurationError):
                CampaignSpec.from_json(text)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_spec(ks=[2]).expand()
        with pytest.raises(ConfigurationError):
            small_spec(epsilons=[1.5]).expand()
        with pytest.raises(ConfigurationError):
            small_spec(algorithms=["frobnicate"]).expand()
        with pytest.raises(ConfigurationError):
            small_spec(repetitions=0).expand()
        with pytest.raises(ConfigurationError):
            small_spec(generators=[{"family": "nope"}]).expand()


class TestExecutor:
    def test_execute_row_runs_every_algorithm(self):
        # 'monitor' is temporal-only, so give the grid a stream axis; the
        # None entry keeps the static variants in the table too.
        spec = small_spec(
            algorithms=list(ALGORITHM_NAMES),
            streams=[None, "uniform-churn:steps=6"],
            repetitions=1,
        )
        rows = spec.expand()
        assert {row.algorithm for row in rows} == set(ALGORITHM_NAMES)
        for row in rows:
            record = execute_row(row)
            assert record["status"] == "ok"
            assert record["run_id"] == row.run_id
            assert "outcome" in record and record["n"] > 0

    def test_execute_row_turns_failures_into_error_records(self):
        # eps-far with an unattainably large eps raises ConfigurationError
        spec = small_spec(
            generators=[{"family": "eps-far", "params": {"n": 20}}],
            epsilons=[0.9], repetitions=1,
        )
        record = execute_row(spec.expand().rows[0])
        assert record["status"] == "error"
        assert "ConfigurationError" in record["error"]

    def test_serial_rerun_is_byte_identical(self, tmp_path):
        table = small_spec().expand()
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for p in paths:
            run_campaign(table, CampaignStore(p), workers=1)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        table = small_spec(algorithms=["tester", "detect"]).expand()
        serial, parallel = tmp_path / "serial.jsonl", tmp_path / "par.jsonl"
        r1 = run_campaign(table, CampaignStore(serial), workers=1)
        r2 = run_campaign(table, CampaignStore(parallel), workers=2,
                          chunksize=2)
        assert r1.executed == r2.executed == len(table)
        assert serial.read_bytes() == parallel.read_bytes()

    def test_resume_skips_completed_rows(self, tmp_path):
        table = small_spec().expand()
        store = CampaignStore(tmp_path / "c.jsonl")
        # Pre-populate half the campaign, then resume the full table.
        half = type(table)(table.name, table.rows[: len(table) // 2])
        first = run_campaign(half, store, workers=1)
        assert first.executed == len(half)
        second = run_campaign(table, store, workers=1)
        assert second.skipped == len(half)
        assert second.executed == len(table) - len(half)
        # A third run is a complete no-op and the store has no duplicates.
        third = run_campaign(table, store, workers=1)
        assert third.executed == 0 and third.skipped == len(table)
        assert len(store.completed_ids()) == len(store) == len(table)

    def test_bad_worker_config(self, tmp_path):
        table = small_spec().expand()
        store = CampaignStore(tmp_path / "w.jsonl")
        with pytest.raises(ConfigurationError):
            run_campaign(table, store, workers=0)
        with pytest.raises(ConfigurationError):
            run_campaign(table, store, chunksize=0)


class TestRankScheme:
    """Records name the Phase-1 rank scheme; a store never mixes two."""

    def _half_store(self, tmp_path, rewrite=None):
        table = small_spec().expand()
        store = CampaignStore(tmp_path / "r.jsonl")
        half = type(table)(table.name, table.rows[: len(table) // 2])
        run_campaign(half, store, workers=1)
        if rewrite is not None:
            records = [rewrite(dict(rec)) for rec in store.records()]
            store.path.write_text(
                "".join(canonical_json(rec) + "\n" for rec in records)
            )
        return table, store

    def test_every_record_carries_the_scheme(self, tmp_path):
        from repro.core.phase1 import RANK_SCHEME

        table, store = self._half_store(tmp_path)
        run_campaign(table, store, workers=1)
        records = store.records()
        assert len(records) == len(table)
        assert {rec["rank_scheme"] for rec in records} == {RANK_SCHEME}

    def test_resume_refuses_a_foreign_scheme(self, tmp_path):
        def foreign(rec):
            rec["rank_scheme"] = "numpy-pcg64"
            return rec

        table, store = self._half_store(tmp_path, foreign)
        before = store.path.read_bytes()
        with pytest.raises(ConfigurationError, match="'numpy-pcg64'"):
            run_campaign(table, store, workers=1)
        assert store.path.read_bytes() == before

    def test_resume_refuses_records_without_a_scheme(self, tmp_path):
        def unversioned(rec):
            del rec["rank_scheme"]
            return rec

        table, store = self._half_store(tmp_path, unversioned)
        with pytest.raises(ConfigurationError, match="rank scheme none"):
            run_campaign(table, store, workers=2)

    def test_cli_resume_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        def foreign(rec):
            rec["rank_scheme"] = "numpy-pcg64"
            return rec

        table, store = self._half_store(tmp_path, foreign)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(small_spec().to_json())
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "resume", "--spec", str(spec_path),
                  "--store", str(store.path)])
        message = str(exc.value.code)
        assert message.startswith("error:") and "rank scheme" in message


class TestStore:
    def test_append_and_reload(self, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        assert store.records() == [] and len(store) == 0
        store.append({"run_id": "abc", "x": 1})
        store.append({"run_id": "def", "x": 2})
        assert [r["run_id"] for r in store.records()] == ["abc", "def"]
        assert store.completed_ids() == {"abc", "def"}

    def test_append_requires_run_id(self, tmp_path):
        store = CampaignStore(tmp_path / "s.jsonl")
        with pytest.raises(ConfigurationError):
            store.append({"x": 1})

    def test_corrupt_line_is_reported(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"run_id":"ok"}\nnot json\n')
        with pytest.raises(ConfigurationError):
            CampaignStore(path).records()

    def test_newline_less_but_complete_tail_is_kept(self, tmp_path):
        # A writer killed between the record bytes and the newline left a
        # *complete* record; resume must keep it, not truncate it away.
        table = small_spec().expand()
        store = CampaignStore(tmp_path / "clipped.jsonl")
        half = type(table)(table.name, table.rows[: len(table) // 2])
        run_campaign(half, store, workers=1)
        data = store.path.read_bytes()
        store.path.write_bytes(data[:-1])  # strip only the final newline
        clipped = CampaignStore(store.path)
        assert clipped.completed_ids() == set(half.row_ids())
        # Resume appends the remaining rows; the repair must restore the
        # newline rather than truncate the clipped (complete) record.
        report = run_campaign(table, clipped, workers=1)
        assert report.skipped == len(half)
        assert report.executed == len(table) - len(half)
        assert CampaignStore(store.path).completed_ids() == set(table.row_ids())

    def test_torn_final_line_survives_crashed_writer(self, tmp_path, capsys):
        # A writer killed mid-append leaves a final line with no newline;
        # resume must drop it and re-execute only that row.
        table = small_spec().expand()
        store = CampaignStore(tmp_path / "torn.jsonl")
        run_campaign(table, store, workers=1)
        data = store.path.read_bytes()
        store.path.write_bytes(data[:-25])  # tear the last record mid-JSON
        torn = CampaignStore(store.path)
        assert len(torn.completed_ids()) == len(table) - 1
        report = run_campaign(table, torn, workers=1)
        assert report.executed == 1 and report.skipped == len(table) - 1
        # The repaired store parses cleanly and covers the full table.
        clean = CampaignStore(store.path)
        assert clean.completed_ids() == set(table.row_ids())


class TestAggregate:
    def test_summary_groups_and_rates(self, tmp_path):
        table = small_spec(algorithms=["detect"]).expand()
        store = CampaignStore(tmp_path / "agg.jsonl")
        run_campaign(table, store, workers=1)
        summary = summarize_store(store)
        assert summary.rows, "summary must not be empty"
        total = sum(row["runs"] for row in summary.rows)
        assert total == len(table)
        for row in summary.rows:
            assert 0.0 <= row["lo"] <= row["rate"] <= row["hi"] <= 1.0
        # The cycle family always contains its own C12: never a C4 hit.
        cyc = [r for r in summary.rows if r["generator"] == "cycle"]
        assert cyc and cyc[0]["rate"] == 0.0
        rendered = summary.render()
        assert "campaign summary" in rendered and "95% CI" in rendered

    def test_error_records_counted_not_aggregated(self):
        records = [
            {"run_id": "1", "generator": "g", "params": {}, "k": 4,
             "eps": 0.1, "algorithm": "detect", "status": "ok",
             "outcome": {"detected": True}},
            {"run_id": "2", "generator": "g", "params": {}, "k": 4,
             "eps": 0.1, "algorithm": "detect", "status": "error",
             "error": "boom"},
        ]
        summary = aggregate_records(records)
        assert len(summary.rows) == 1
        assert summary.rows[0]["errors"] == 1
        assert summary.rows[0]["rate"] == 1.0  # over the single ok record


@pytest.mark.slow
def test_full_grid_campaign_end_to_end(tmp_path):
    """Opt-in (--runslow): a larger factor-crossed campaign in parallel."""
    spec = CampaignSpec(
        name="full",
        generators=[
            {"family": "gnp", "params": {"n": [32, 48, 64], "p": 0.08}},
            {"family": "ba", "params": {"n": [32, 48], "attach": 2}},
            {"family": "ws", "params": {"n": [32, 48], "d": 4, "beta": 0.2}},
            {"family": "eps-far", "params": {"n": 60}},
        ],
        ks=[4, 5],
        epsilons=[0.15],
        algorithms=["tester", "detect", "naive"],
        repetitions=2,
        seed=1,
    )
    table = spec.expand()
    assert len(table) == 8 * 2 * 1 * 3 * 2
    store = CampaignStore(tmp_path / "full.jsonl")
    report = run_campaign(table, store, workers=2, chunksize=4)
    assert report.executed == len(table)
    assert run_campaign(table, store, workers=2).executed == 0
    assert sum(r["runs"] for r in summarize_store(store).rows) == len(table)


def _double(x):
    return 2 * x


class TestPoolScheduling:
    """Persistent pools (executor layer)."""

    def test_persistent_pool_reuse_and_shutdown(self):
        from repro.runner.executor import (
            _PERSISTENT_POOLS,
            _persistent_pool,
            ordered_parallel_map,
            shutdown_persistent_pools,
        )

        shutdown_persistent_pools()
        assert list(ordered_parallel_map(_double, [1, 2, 3], workers=2)) \
            == [2, 4, 6]
        pool = _PERSISTENT_POOLS.get(2)
        assert pool is not None
        list(ordered_parallel_map(_double, [4], workers=2))
        assert _persistent_pool(2) is pool  # warm pool reused
        shutdown_persistent_pools()
        assert not _PERSISTENT_POOLS
        assert _persistent_pool(2) is not pool
        shutdown_persistent_pools()

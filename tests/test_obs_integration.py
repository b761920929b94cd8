"""Telemetry threading end to end: the bit-identity guarantee.

The observability layer's core promise: instrumentation never touches
protocol randomness or verdicts.  These tests run the tester, the
detection primitive, the dynamic monitor and a campaign with telemetry
on and off on identical seeds and require identical results — plus the
CLI plumbing (``--telemetry``, ``--verbose``/``--quiet``,
``repro obs report``).
"""

import json

import pytest

from repro.cli import main
from repro.congest.engine import ENGINE_NAMES
from repro.core import CkFreenessTester
from repro.core.algorithm1 import detect_cycle_through_edge
from repro.dynamic.campaign import run_monitor_stream
from repro.graphs import cycle_graph, planted_epsilon_far_graph
from repro.obs import Telemetry, parse_textfile, read_events

ENGINES = ENGINE_NAMES


def _tester_outcome(graph, telemetry):
    result = CkFreenessTester(
        5, 0.1, repetitions=6, telemetry=telemetry
    ).run(graph, seed=11, stop_on_reject=False)
    return (
        result.accepted,
        result.evidence,
        [(r.index, r.rejected, r.cycle_ids) for r in result.reports],
    )


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_tester_verdicts_identical_with_telemetry(self, engine):
        g, _ = planted_epsilon_far_graph(40, 5, 0.1, seed=3)
        tel = Telemetry()
        base = _tester_outcome(g, None)
        assert _tester_outcome(g, tel) == base
        # and the run really was instrumented
        summary = tel.summary()
        assert summary["repro_tester_repetitions_total"] == 6
        assert summary["repro_congest_runs_total"] == 6
        assert summary["repro_congest_rounds_total"] > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_detect_identical_with_telemetry(self, engine):
        g = cycle_graph(5)
        tel = Telemetry()
        base = detect_cycle_through_edge(g, (0, 1), 5, engine=engine)
        inst = detect_cycle_through_edge(
            g, (0, 1), 5, engine=engine, telemetry=tel
        )
        assert inst.detected == base.detected
        assert inst.run.trace.num_rounds == base.run.trace.num_rounds
        assert tel.summary()["repro_detect_hits_total"] == 1

    def test_monitor_stream_identical_with_telemetry(self):
        base = cycle_graph(8)
        kwargs = dict(engine="reference", seed=4, epsilon=0.2)
        off = run_monitor_stream(base, "uniform-churn:steps=30", 5, **kwargs)
        tel = Telemetry()
        on = run_monitor_stream(
            base, "uniform-churn:steps=30", 5, telemetry=tel, **kwargs
        )
        assert on == off
        summary = tel.summary()
        assert summary["repro_monitor_steps_total"] == 30
        assert "repro_monitor_cache_hits_total" in summary
        # protocol-determined histogram: summary carries {count, sum}
        ball = summary["repro_monitor_ball_size"][""]
        assert ball["count"] == tel.registry.get(
            "repro_monitor_ball_size"
        ).count()
        assert ball["sum"] >= ball["count"]


class TestCampaignTelemetry:
    def run_campaign(self, tmp_path, store_name, name="tel"):
        store = tmp_path / f"{store_name}.jsonl"
        rc = main([
            "campaign", "run", "--name", name,
            "--generators", "cycle", "--ns", "10", "--ks", "4",
            "--algorithms", "detect,monitor", "--repetitions", "1",
            "--streams", "uniform-churn:steps=10",
            "--store", str(store), "--workers", "1",
        ])
        assert rc == 0
        return [json.loads(line) for line in store.read_text().splitlines()]

    def test_records_carry_deterministic_telemetry(self, tmp_path, capsys):
        # Same campaign into two stores: the per-run private Telemetry
        # must produce identical summaries (no wall clock, no ordering
        # sensitivity).
        a = self.run_campaign(tmp_path, "a")
        b = self.run_campaign(tmp_path, "b")
        capsys.readouterr()
        assert [r["telemetry"] for r in a] == [r["telemetry"] for r in b]
        stream_rows = [r for r in a if r.get("stream")]
        assert stream_rows, "campaign produced no temporal rows"
        tel = stream_rows[0]["telemetry"]
        assert tel["repro_monitor_steps_total"] == 10
        detect_rows = [r for r in a if not r.get("stream")]
        assert detect_rows[0]["telemetry"]["repro_congest_runs_total"] == 1

    def test_report_shows_round_and_hit_columns(self, tmp_path, capsys):
        store = tmp_path / "a.jsonl"
        self.run_campaign(tmp_path, "a")
        capsys.readouterr()
        rc = main(["campaign", "report", "--store", str(store)])
        out = capsys.readouterr().out
        assert rc == 0
        for column in ("mean rounds", "mean msgs", "hit rate"):
            assert column in out

    def test_report_degrades_on_pretelemetry_stores(self, tmp_path, capsys):
        # Old stores have no "telemetry" field: columns become "-".
        store = tmp_path / "old.jsonl"
        self.run_campaign(tmp_path, "old")
        capsys.readouterr()
        stripped = [
            {k: v for k, v in json.loads(line).items() if k != "telemetry"}
            for line in store.read_text().splitlines()
        ]
        store.write_text(
            "".join(json.dumps(r) + "\n" for r in stripped)
        )
        rc = main(["campaign", "report", "--store", str(store)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mean rounds" in out


class TestCliPlumbing:
    def test_telemetry_flag_writes_events_and_textfile(self, tmp_path, capsys):
        path = tmp_path / "tel.jsonl"
        rc = main([
            "test", "--generator", "cycle", "--n", "6", "--k", "6",
            "--eps", "0.3", "--seed", "3", "--telemetry", str(path),
        ])
        capsys.readouterr()
        assert rc == 1  # C6 in a C6-freeness test: reject
        events = read_events(path)
        assert events[-1]["type"] == "snapshot"
        assert any(
            e.get("type") == "span" and e.get("name") == "tester.run"
            for e in events
        )
        families = parse_textfile((tmp_path / "tel.jsonl.prom").read_text())
        assert "repro_tester_rejects_total" in families

    def test_obs_report_reads_both_artifacts(self, tmp_path, capsys):
        path = tmp_path / "tel.jsonl"
        main([
            "test", "--generator", "cycle", "--n", "6", "--k", "6",
            "--eps", "0.3", "--seed", "3", "--telemetry", str(path),
        ])
        capsys.readouterr()
        rc = main([
            "obs", "report", "--events", str(path),
            "--textfile", str(path) + ".prom",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tester.run" in out
        assert "metric families (valid)" in out

    def test_verdict_identical_with_and_without_telemetry_flag(
        self, tmp_path, capsys
    ):
        base = ["test", "--generator", "eps-far", "--n", "40", "--k", "4",
                "--eps", "0.1", "--seed", "2"]
        rc_off = main(base)
        out_off = capsys.readouterr().out
        rc_on = main(base + ["--telemetry", str(tmp_path / "t.jsonl")])
        out_on = capsys.readouterr().out
        assert rc_on == rc_off
        verdicts_off = [
            line for line in out_off.splitlines() if "TesterResult" in line
        ]
        verdicts_on = [
            line for line in out_on.splitlines() if "TesterResult" in line
        ]
        assert verdicts_on == verdicts_off

    def test_quiet_suppresses_diagnostics(self, capsys):
        main(["test", "--generator", "eps-far", "--n", "40", "--k", "4",
              "--eps", "0.1", "--seed", "2"])
        assert "# eps-far instance" in capsys.readouterr().out
        main(["--quiet", "test", "--generator", "eps-far", "--n", "40",
              "--k", "4", "--eps", "0.1", "--seed", "2"])
        out = capsys.readouterr().out
        assert "# eps-far instance" not in out
        assert "TesterResult" in out  # results are not diagnostics

    def test_verbose_shows_debug_fields(self, capsys):
        main(["--verbose", "test", "--generator", "cycle", "--n", "6",
              "--k", "6", "--eps", "0.3", "--seed", "3"])
        assert "# graph built n=6" in capsys.readouterr().out


class TestMonitorTelemetryAcrossEngines:
    def test_monitor_and_detect_telemetry_do_not_depend_on_engine(self):
        """The exact scan reports the same counters and ``detect.scan``
        spans on both engines, and ball sizes count local rechecks only."""
        from repro.dynamic import CkMonitor, build_stream
        from repro.obs import ListSink

        stream = build_stream(
            "uniform-churn:steps=40,p=0.5", cycle_graph(12), seed=1, k=5
        )
        views, scans = {}, {}
        for engine in ENGINES:
            sink = ListSink()
            tel = Telemetry(sink=sink)
            monitor = CkMonitor(
                stream.base, 5, engine=engine, seed=1, tester_repetitions=1,
                telemetry=tel,
            )
            monitor.run_stream(stream.mutations)
            summary = tel.summary()
            views[engine] = {
                name: value for name, value in summary.items()
                if name.startswith(("repro_monitor_", "repro_detect_"))
            }
            scans[engine] = [
                (event["attrs"]["k"], event["attrs"]["edges"])
                for event in sink.events
                if event["type"] == "span" and event["name"] == "detect.scan"
            ]
            ball = summary["repro_monitor_ball_size"][""]
            assert ball["count"] == monitor.stats.local_rechecks > 0
            assert monitor.stats.full_retests > 0
        assert views["reference"] == views["fast"]
        assert scans["reference"] == scans["fast"]
        # The scans ran and were counted as edge detections.
        assert scans["fast"]
        detect_runs = views["fast"]["repro_detect_runs_total"]
        assert detect_runs == views["fast"]["repro_monitor_ball_size"][""][
            "count"
        ] + sum(edges for _, edges in scans["fast"])

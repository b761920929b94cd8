"""Trace context, span trees and the engine phase profiler.

Unit coverage for :mod:`repro.obs.tracing` (deterministic id source,
W3C traceparent parsing, span/mark trace propagation, ambient context),
:mod:`repro.obs.traceview` (causal invariant checking and rendering)
and :mod:`repro.congest.engine.profiler` (phase attribution, the
``repro.profile/v1`` schema, bit-identity with profiling on/off).
"""

import json

import pytest

from repro.congest.engine import (
    NULL_PROFILER,
    PhaseProfiler,
    create_engine,
    validate_profile,
)
from repro.congest.network import Network
from repro.errors import ConfigurationError
from repro.graphs.generators import cycle_graph, erdos_renyi_gnp
from repro.obs import ListSink, Telemetry
from repro.obs.tracing import (
    TraceContext,
    TraceIdSource,
    activate_trace,
    current_trace,
    format_traceparent,
    parse_traceparent,
)
from repro.obs.traceview import (
    check_traces,
    group_traces,
    render_slowest,
    render_trace,
    slowest_requests,
)


class TestTraceIdSource:
    def test_deterministic_and_well_formed(self):
        a, b = TraceIdSource(7), TraceIdSource(7)
        assert [a.trace_id() for _ in range(5)] == [
            b.trace_id() for _ in range(5)
        ]
        assert [a.span_id() for _ in range(5)] == [
            b.span_id() for _ in range(5)
        ]
        tid, sid = TraceIdSource(0).trace_id(), TraceIdSource(0).span_id()
        assert len(tid) == 32 and int(tid, 16) != 0
        assert len(sid) == 16 and int(sid, 16) != 0

    def test_distinct_seeds_distinct_streams(self):
        assert TraceIdSource(1).trace_id() != TraceIdSource(2).trace_id()

    def test_independent_of_protocol_rng(self):
        import random

        random.seed(123)
        first = TraceIdSource(5).trace_id()
        random.seed(456)
        assert TraceIdSource(5).trace_id() == first


class TestTraceparent:
    def test_round_trip(self):
        ids = TraceIdSource(3)
        header = format_traceparent(ids.trace_id(), ids.span_id())
        context = parse_traceparent(header)
        assert context is not None
        assert context.traceparent() == header

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-xyz-abc-01",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
        "ff-" + "1" * 32 + "-" + "2" * 16 + "-01",  # forbidden version
        "00-" + "A" * 32 + "-" + "2" * 16 + "-01",  # uppercase hex
        "00-" + "1" * 31 + "-" + "2" * 16 + "-01",  # short trace id
        "00-" + "1" * 32 + "-" + "2" * 16,          # missing flags
    ])
    def test_invalid_headers_never_raise(self, header):
        assert parse_traceparent(header) is None

    def test_whitespace_tolerated(self):
        header = "00-" + "a" * 32 + "-" + "b" * 16 + "-01"
        assert parse_traceparent(f"  {header}  ") is not None


class TestSpanTraceContext:
    def test_nested_spans_share_trace_and_chain_parents(self):
        sink = ListSink()
        tel = Telemetry(sink=sink, trace_seed=1)
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        inner, outer = sink.events
        assert inner["trace_id"] == outer["trace_id"]
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None

    def test_root_span_joins_ambient_context(self):
        sink = ListSink()
        tel = Telemetry(sink=sink, trace_seed=1)
        context = TraceContext("ab" * 16, "cd" * 8)
        with activate_trace(context):
            with tel.span("root"):
                pass
        (event,) = sink.events
        assert event["trace_id"] == context.trace_id
        assert event["parent_id"] == context.span_id

    def test_ambient_context_restored_after_block(self):
        assert current_trace() is None
        with activate_trace(TraceContext("ab" * 16, "cd" * 8)):
            assert current_trace() is not None
        assert current_trace() is None

    def test_mark_inherits_span_then_ambient(self):
        sink = ListSink()
        tel = Telemetry(sink=sink, trace_seed=1)
        with tel.span("s"):
            tel.mark("inside")
        context = TraceContext("ab" * 16, "cd" * 8)
        with activate_trace(context):
            tel.mark("ambient")
        tel.mark("bare")
        inside = sink.events[0]
        span = sink.events[1]
        ambient, bare = sink.events[2], sink.events[3]
        assert inside["trace_id"] == span["trace_id"]
        assert inside["parent_id"] == span["span_id"]
        assert ambient["trace_id"] == context.trace_id
        assert "trace_id" not in bare

    def test_trace_seed_replays_identically(self):
        def ids_of(seed):
            sink = ListSink()
            tel = Telemetry(sink=sink, trace_seed=seed)
            with tel.span("a"):
                with tel.span("b"):
                    pass
            return [(e["trace_id"], e["span_id"]) for e in sink.events]

        assert ids_of(9) == ids_of(9)
        assert ids_of(9) != ids_of(10)


def _span(trace_id, span_id, parent_id, name="s"):
    return {
        "type": "span", "name": name, "elapsed_ms": 1.0,
        "trace_id": trace_id, "span_id": span_id, "parent_id": parent_id,
    }


def _request(trace_id, span_id, parent_id=None, **extra):
    event = {
        "type": "request", "endpoint": "verdict", "method": "GET",
        "path": "/v1/sessions/x/verdict", "status": 200,
        "elapsed_ms": 5.0, "trace_id": trace_id, "span_id": span_id,
        "parent_id": parent_id,
    }
    event.update(extra)
    return event


class TestTraceview:
    def test_clean_forest_passes(self):
        events = [
            _request("t1" * 16, "r1" + "0" * 14, parent_id="c1" + "0" * 14),
            _span("t1" * 16, "s1" + "0" * 14, "r1" + "0" * 14),
            _span("t1" * 16, "s2" + "0" * 14, "s1" + "0" * 14),
        ]
        assert check_traces(events) == []

    def test_duplicate_span_id_flagged(self):
        events = [
            _span("t1" * 16, "s1" + "0" * 14, None),
            _span("t2" * 16, "s1" + "0" * 14, None),
        ]
        assert any("duplicate span_id" in p for p in check_traces(events))

    def test_unresolvable_parent_flagged(self):
        events = [_span("t1" * 16, "s1" + "0" * 14, "99" + "0" * 14)]
        assert any(
            "unresolvable parent_id" in p for p in check_traces(events)
        )

    def test_orphan_span_does_not_chain_to_request(self):
        events = [
            _request("t1" * 16, "r1" + "0" * 14),
            _span("t1" * 16, "s1" + "0" * 14, None),  # root, not under r1
        ]
        assert any("does not chain" in p for p in check_traces(events))

    def test_two_wide_events_in_one_trace_flagged(self):
        events = [
            _request("t1" * 16, "r1" + "0" * 14),
            _request("t1" * 16, "r2" + "0" * 14),
        ]
        assert any("wide events" in p for p in check_traces(events))

    def test_slowest_requests_ranked(self):
        events = [
            _request("t1" * 16, "r1" + "0" * 14, elapsed_ms=2.0),
            _request("t2" * 16, "r2" + "0" * 14, elapsed_ms=9.0),
        ]
        ranked = slowest_requests(events, 1)
        assert len(ranked) == 1 and ranked[0]["elapsed_ms"] == 9.0

    def test_render_trace_tree(self):
        trace = "t1" * 16
        events = [
            _request(trace, "r1" + "0" * 14, session="x",
                     actions={"insert": 2}),
            _span(trace, "s1" + "0" * 14, "r1" + "0" * 14, name="apply"),
        ]
        text = render_trace(events, trace)
        assert "GET /v1/sessions/x/verdict -> 200" in text
        assert "session=x" in text and "actions=insert:2" in text
        assert "  - apply" in text.replace("    ", "  ")
        assert render_trace(events, "ff" * 16).endswith("no events")
        assert "GET" in render_slowest(events, 1)

    def test_group_traces_buckets(self):
        events = [
            _span("t1" * 16, "s1" + "0" * 14, None),
            _span("t2" * 16, "s2" + "0" * 14, None),
            {"type": "snapshot"},  # untraced events are ignored
        ]
        groups = group_traces(events)
        assert set(groups) == {"t1" * 16, "t2" * 16}


class TestPhaseProfiler:
    def test_phases_accumulate(self):
        profiler = PhaseProfiler()
        with profiler.phase("a"):
            pass
        with profiler.phase("a"):
            pass
        profiler.add("b", 0.5, calls=3)
        doc = profiler.report(engine="fast")
        assert doc["schema"] == "repro.profile/v1"
        assert doc["phases"]["a"]["calls"] == 2
        assert doc["phases"]["b"] == {"calls": 3, "seconds": 0.5}
        assert doc["total_seconds"] >= 0.5

    def test_clear(self):
        profiler = PhaseProfiler()
        profiler.add("a", 1.0)
        profiler.clear()
        assert profiler.report()["phases"] == {}

    def test_write_validates_and_persists(self, tmp_path):
        profiler = PhaseProfiler()
        profiler.add("fold", 0.25)
        path = tmp_path / "PROFILE.json"
        doc = profiler.write(path, engine="fast")
        on_disk = json.loads(path.read_text())
        assert on_disk == doc
        assert validate_profile(on_disk) is on_disk

    def test_null_profiler_is_inert(self):
        assert NULL_PROFILER.enabled is False
        with NULL_PROFILER.phase("x"):
            pass
        NULL_PROFILER.add("x", 1.0)
        assert NULL_PROFILER.report(engine="fast") == {}

    @pytest.mark.parametrize("mutation", [
        {"schema": "bogus/v9"},
        {"engine": 7},
        {"total_seconds": -1},
        {"phases": []},
        {"phases": {"p": {"calls": 0, "seconds": 0}}},
        {"phases": {"p": {"calls": 1, "seconds": -0.1}}},
        {"phases": {"p": {"calls": 1, "seconds": 0, "extra": 1}}},
    ])
    def test_validate_rejects(self, mutation):
        doc = {
            "schema": "repro.profile/v1", "engine": "fast",
            "phases": {"p": {"calls": 1, "seconds": 0.1}},
            "total_seconds": 0.1,
        }
        doc.update(mutation)
        with pytest.raises(ConfigurationError):
            validate_profile(doc)

    def test_validate_rejects_non_dict(self):
        with pytest.raises(ConfigurationError):
            validate_profile([1, 2])


def _fingerprint(run):
    return sorted(
        (v, bool(getattr(out, "rejects", False)),
         getattr(out, "cycle", None))
        for v, out in run.outputs.items()
    )


class TestCliTraceAndProfile:
    def _write_events(self, path, events):
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in events)
        )

    def test_obs_trace_check_ok(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "events.jsonl"
        trace = "t1" * 16
        self._write_events(path, [
            _request(trace, "r1" + "0" * 14),
            _span(trace, "s1" + "0" * 14, "r1" + "0" * 14),
        ])
        rc = main(["obs", "trace", "--events", str(path), "--check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 traces, 1 requests" in out
        assert "trace check OK" in out

    def test_obs_trace_check_fails_on_violation(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "events.jsonl"
        self._write_events(path, [
            _span("t1" * 16, "s1" + "0" * 14, "77" + "0" * 14),
        ])
        with pytest.raises(SystemExit, match="trace check FAILED"):
            main(["obs", "trace", "--events", str(path), "--check"])
        assert "VIOLATION" in capsys.readouterr().out

    def test_obs_trace_renders_one_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "events.jsonl"
        trace = "t1" * 16
        self._write_events(path, [
            _request(trace, "r1" + "0" * 14),
            _span(trace, "s1" + "0" * 14, "r1" + "0" * 14, name="apply"),
        ])
        rc = main(["obs", "trace", "--events", str(path),
                   "--trace-id", trace])
        out = capsys.readouterr().out
        assert rc == 0
        assert "apply" in out

    def test_obs_trace_missing_log_is_clean_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="no event log"):
            main(["obs", "trace", "--events", str(tmp_path / "nope.jsonl")])

    def test_obs_profile_generate_then_print(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "PROFILE.json"
        rc = main([
            "obs", "profile", "--engine", "reference", "--family", "cycle",
            "--params", "n=8", "--k", "4", "--reps", "2",
            "--out", str(out_path),
        ])
        generated = capsys.readouterr().out
        assert rc == 0
        assert "scheduler_run" in generated
        doc = validate_profile(json.loads(out_path.read_text()))
        assert doc["engine"] == "reference"
        rc = main(["obs", "profile", "--profile", str(out_path)])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "scheduler_run" in printed
        # Each profiled repetition draws its ranks once.
        assert main([
            "obs", "profile", "--engine", "fast",
            "--family", "gnp", "--params", "n=40,p=0.1", "--k", "5",
            "--reps", "3", "--out", str(out_path),
        ]) == 0
        capsys.readouterr()
        doc = validate_profile(json.loads(out_path.read_text()))
        assert doc["phases"]["rank_draws"]["calls"] == 3


class TestEngineProfiling:
    def test_reference_engine_single_phase(self):
        net = Network(cycle_graph(6))
        profiler = PhaseProfiler()
        engine = create_engine("reference", net, profiler=profiler)
        engine.run_tester_repetition(5, 42)
        doc = profiler.report(engine="reference")
        assert set(doc["phases"]) == {"scheduler_run"}

    def test_fast_engine_phase_taxonomy_and_identity(self):
        net = Network(erdos_renyi_gnp(40, 0.12, seed=2))
        plain = create_engine("fast", net)
        profiler = PhaseProfiler()
        profiled = create_engine("fast", net, profiler=profiler)
        for rep_seed in (1, 2):
            base = plain.run_tester_repetition(5, rep_seed)
            run = profiled.run_tester_repetition(5, rep_seed)
            assert _fingerprint(run) == _fingerprint(base)
        doc = validate_profile(profiler.report(engine="fast"))
        assert {"rank_draws", "min_select", "priority_mux",
                "round_apply", "audit_fold", "decision"} <= set(doc["phases"])

    def test_fast_detect_phases(self):
        net = Network(cycle_graph(5))
        profiler = PhaseProfiler()
        engine = create_engine("fast", net, profiler=profiler)
        engine.run_detect(5, (0, 1))
        phases = set(profiler.report()["phases"])
        assert {"audit_fold", "priority_mux", "round_apply",
                "decision"} <= phases

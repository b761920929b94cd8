"""Command-line interface.

Examples::

    repro test --generator gnp --n 200 --p 0.05 --k 5 --eps 0.1
    repro detect --generator figure1 --k 5 --edge 0 1
    repro experiment T2
    repro dynamic run --stream uniform-churn:steps=40 --k 5 --n 30
    repro dynamic replay --base base.edges --stream-file churn.stream --k 5
    repro campaign define --preset smoke --out smoke.json
    repro campaign run --spec smoke.json --store smoke.jsonl --workers 4
    repro campaign run --preset dynamic --streams uniform-churn burst
    repro campaign report --store smoke.jsonl
    repro bench run --suite smoke --workers 2 --out fresh-results
    repro bench compare --baseline benchmarks/results --fresh fresh-results
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from . import analysis
from .bench.cli import add_bench_subparser
from .congest.engine import ENGINE_NAMES
from .congest.faults import build_fault_model
from .core.algorithm1 import detect_cycle_through_edge
from .core.tester import CkFreenessTester
from .errors import ReproError
from .graphs.graph import Graph
from .obs import LOG, Telemetry, set_telemetry
from .runner import registry
from .runner.aggregate import DEFAULT_GROUP_BY, summarize_store
from .runner.executor import run_campaign
from .runner.runtable import ALGORITHM_NAMES, CampaignSpec
from .runner.store import CampaignStore

__all__ = ["main", "build_parser"]

#: Parameters handled by the subcommands themselves rather than the
#: auto-generated per-family graph options.
_RESERVED_PARAMS = ("k", "eps")


def _build_graph(args: argparse.Namespace) -> Graph:
    """Build the requested instance through the generator registry."""
    spec = registry.get(args.generator)
    supplied = {
        name: getattr(args, name, None) for name in registry.PARAMETERS
    }
    g, info = spec.build_with_info(seed=args.seed, **supplied)
    fields = {}
    for key, value in info.items():
        if isinstance(value, (list, tuple)) and len(value) > 8:
            fields[key] = f"[{len(value)} items]"
        else:
            fields[key] = value
    if fields:
        LOG.info(f"{args.generator} instance", **fields)
    LOG.debug(
        "graph built", n=g.n, m=g.m, seed=args.seed,
        engine=getattr(args, "engine", None),
    )
    return g


def _cmd_test(args: argparse.Namespace) -> int:
    g = _build_graph(args)
    tester = CkFreenessTester(
        args.k, args.eps, repetitions=args.repetitions,
        engine=args.engine,
        faults=build_fault_model(args.faults, seed=args.seed),
    )
    result = tester.run(g, seed=args.seed)
    print(result)
    if result.rejected:
        print(f"cycle evidence (node IDs): {result.evidence}")
    return 0 if result.accepted else 1


def _cmd_detect(args: argparse.Namespace) -> int:
    g = _build_graph(args)
    u, v = args.edge
    det = detect_cycle_through_edge(
        g, (u, v), args.k, engine=args.engine,
        faults=build_fault_model(args.faults, seed=args.seed),
    )
    print(f"k={args.k} edge=({u},{v}) detected={det.detected}")
    if det.detected:
        print(f"cycle (node IDs): {det.any_cycle_ids()}")
        print(f"rejecting vertices: {det.rejecting_vertices}")
    print(f"rounds={det.run.trace.num_rounds} "
          f"max_seqs/msg={det.run.trace.max_sequences_per_message} "
          f"max_bits/msg={det.run.trace.max_message_bits}")
    if args.timeline:
        from .congest.timeline import render_trace

        print()
        print(render_trace(det.run.trace))
    return 0


_EXPERIMENTS: Dict[str, Callable[[], "analysis.ExperimentResult"]] = {
    "T1": analysis.run_round_complexity,
    "T2": analysis.run_message_bound,
    "T3": analysis.run_detection_rates,
    "T4": analysis.run_phase1_statistics,
    "T5": analysis.run_farness_packing,
    "F1": analysis.run_pruning_vs_naive,
    "F2": analysis.run_through_edge_exactness,
    "F3": analysis.run_scalability,
    "A5": analysis.run_boosting_curve,
    "A6": analysis.run_epsilon_sweep,
    "A7": analysis.run_k_sweep,
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    names: List[str]
    if args.name == "all":
        names = list(_EXPERIMENTS)
    else:
        if args.name not in _EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {args.name!r}; choose from "
                f"{', '.join(_EXPERIMENTS)} or 'all'"
            )
        names = [args.name]
    for name in names:
        result = _EXPERIMENTS[name]()
        print(result.render())
        print()
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .testing import differential_campaign

    report = differential_campaign(
        trials=args.trials,
        seed=args.seed,
        include_naive=args.with_baselines,
        include_monien=args.with_baselines,
    )
    print(report)
    for f in report.failures[:10]:
        print(f"  {f.kind}: k={f.k} edge={f.edge} n={f.n} -> {f.detail}")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# dynamic subcommand
# ---------------------------------------------------------------------------
def _monitor_step_line(record) -> str:
    """One human-readable line per monitor step."""
    verdict = "ACCEPT" if record.accepted else "REJECT"
    line = (
        f"step {record.version:>4}  {record.mutation.to_line():<12} "
        f"{record.action:<13} {verdict}"
    )
    if record.flipped:
        line += "  <- verdict flip"
    return line


def _replay_monitor(base: Graph, mutations, args: argparse.Namespace) -> int:
    """Shared run/replay body: drive a monitor, print, optionally log."""
    from .dynamic import CkMonitor

    monitor = CkMonitor(
        base, args.k, engine=args.engine, epsilon=args.eps,
        seed=args.seed,
        faults=build_fault_model(args.faults, seed=args.seed),
    )
    verdict = "ACCEPT" if monitor.accepted else "REJECT"
    print(f"base: n={base.n} m={base.m} verdict={verdict} "
          f"hash={base.content_hash()[:12]}")
    log_records: List[Dict[str, object]] = []
    for mutation in mutations:
        record = monitor.apply(mutation)
        if not args.quiet:
            print(_monitor_step_line(record))
        log_records.append({
            "step": record.version,
            "mutation": record.mutation.to_line(),
            "action": record.action,
            "accepted": record.accepted,
            "flipped": record.flipped,
            "witness": list(record.witness) if record.witness else None,
        })
    stats = monitor.stats.as_dict()
    final = "ACCEPT" if monitor.accepted else "REJECT"
    print(f"final: n={monitor.graph.n} m={monitor.graph.m} verdict={final} "
          f"hash={monitor.dynamic.content_hash()[:12]}")
    print("monitor: " + ", ".join(f"{key}={stats[key]}" for key in (
        "steps", "cache_hits", "local_rechecks", "full_retests",
        "verdict_flips", "cache_hit_rate")))
    if args.log:
        path = Path(args.log)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for rec in log_records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
            fh.write(json.dumps({"summary": stats}, sort_keys=True) + "\n")
        print(f"log: {path}")
    return 0


def _cmd_dynamic_run(args: argparse.Namespace) -> int:
    from .dynamic import build_stream
    from .graphs import io as graph_io

    base = _build_graph(args)
    stream = build_stream(args.stream, base, seed=args.seed, k=args.k)
    print(f"stream: {stream.scenario} x{len(stream.mutations)} "
          f"({', '.join(f'{k}={v}' for k, v in sorted(stream.params.items()))})")
    if args.base_out:
        graph_io.write_edge_list(stream.base, args.base_out,
                                 comment=f"base graph, seed={args.seed}")
        print(f"base graph: {args.base_out}")
    if args.stream_out:
        graph_io.write_edge_stream(
            stream.mutations, args.stream_out,
            comment=f"{stream.scenario} stream, seed={args.seed}",
        )
        print(f"edge stream: {args.stream_out}")
    return _replay_monitor(stream.base, stream.mutations, args)


def _cmd_dynamic_replay(args: argparse.Namespace) -> int:
    from .graphs import io as graph_io

    base = graph_io.read_edge_list(args.base)
    mutations = graph_io.read_edge_stream(args.stream_file)
    print(f"replay: {args.stream_file} ({len(mutations)} mutations) "
          f"over {args.base}")
    return _replay_monitor(base, mutations, args)


def _cmd_dynamic_report(args: argparse.Namespace) -> int:
    path = Path(args.log)
    if not path.exists():
        raise SystemExit(f"no dynamic log at {args.log!r}")
    actions: Dict[str, int] = {}
    steps = reject_steps = flips = 0
    summary: Optional[Dict[str, object]] = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"{args.log}:{lineno}: corrupt log line ({exc})")
        if "summary" in rec:
            summary = rec["summary"]
            continue
        steps += 1
        actions[rec["action"]] = actions.get(rec["action"], 0) + 1
        reject_steps += 0 if rec["accepted"] else 1
        flips += 1 if rec["flipped"] else 0
    print(f"dynamic log {args.log}: {steps} steps, "
          f"{reject_steps} rejecting, {flips} verdict flips")
    for action in sorted(actions):
        share = actions[action] / steps if steps else 0.0
        print(f"  {action:<13} {actions[action]:>6}  ({share:.1%})")
    if summary is not None:
        print("summary: " + ", ".join(
            f"{key}={value}" for key, value in sorted(summary.items())))
    return 0


# ---------------------------------------------------------------------------
# obs subcommand
# ---------------------------------------------------------------------------
def _cmd_obs_report(args: argparse.Namespace) -> int:
    """Summarize telemetry artifacts: JSONL event logs and Prometheus
    textfiles written by ``--telemetry`` / ``Telemetry.finalize``."""
    from .obs import parse_textfile, read_events, summarize_events

    if not args.events and not args.textfile:
        raise SystemExit("error: give --events and/or --textfile")
    if args.events:
        path = Path(args.events)
        if not path.exists():
            raise SystemExit(f"no event log at {args.events!r}")
        agg = summarize_events(read_events(path))
        print(f"event log {path}: {agg['events']} events")
        if agg["spans"]:
            print("spans:")
            for name in sorted(agg["spans"]):
                s = agg["spans"][name]
                print(f"  {name:<24} x{s['count']:<6} "
                      f"total={s['total_ms']:.1f}ms "
                      f"mean={s['mean_ms']:.2f}ms max={s['max_ms']:.2f}ms")
        if agg["marks"]:
            print("marks: " + ", ".join(
                f"{name}={count}" for name, count in sorted(agg["marks"].items())))
        if agg["metrics"]:
            print("metrics (final snapshot):")
            for name, value in sorted(agg["metrics"].items()):
                print(f"  {name} = {value}")
    if args.textfile:
        path = Path(args.textfile)
        if not path.exists():
            raise SystemExit(f"no metrics textfile at {args.textfile!r}")
        families = parse_textfile(path.read_text(encoding="utf-8"))
        print(f"textfile {path}: {len(families)} metric families (valid)")
        for name in sorted(families):
            family = families[name]
            suffix = "_count" if family.kind == "histogram" else ""
            series = len(family.series(suffix))
            print(f"  {family.kind:<9} {name} ({series} series)")
    return 0


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    """Reconstruct span trees from a JSONL event log; ``--check`` asserts
    the causal invariants (unique span ids, resolvable parents, every
    span chains to its request wide event)."""
    from .obs import read_events
    from .obs.traceview import (
        check_traces,
        group_traces,
        render_slowest,
        render_trace,
    )

    path = Path(args.events)
    if not path.exists():
        raise SystemExit(f"no event log at {args.events!r}")
    events = read_events(path)
    traces = group_traces(events)
    requests = sum(1 for e in events if e.get("type") == "request")
    print(f"event log {path}: {len(events)} events, {len(traces)} traces, "
          f"{requests} requests")
    if args.check:
        problems = check_traces(events)
        if problems:
            for problem in problems:
                print(f"  VIOLATION: {problem}")
            raise SystemExit(
                f"trace check FAILED ({len(problems)} violation(s))"
            )
        print("trace check OK: span ids unique, parents resolve, every "
              "span chains to its request")
    if args.trace_id:
        print(render_trace(events, args.trace_id))
    elif args.slowest:
        print(render_slowest(events, args.slowest))
    return 0


def _cmd_obs_profile(args: argparse.Namespace) -> int:
    """Print an engine phase-profile table; without ``--profile`` the
    profile is generated by running the chosen engine here and now."""
    from .congest.engine import create_engine, PhaseProfiler, validate_profile
    from .congest.network import Network
    from .runner.runtable import derive_seed

    if args.profile:
        path = Path(args.profile)
        if not path.exists():
            raise SystemExit(f"no profile at {args.profile!r}")
        doc = validate_profile(
            json.loads(path.read_text(encoding="utf-8"))
        )
    else:
        params = _parse_params(args.params) or {"n": 40, "p": 0.1}
        graph = registry.build_graph(args.family, seed=args.seed, **params)
        profiler = PhaseProfiler()
        engine = create_engine(args.engine, Network(graph), profiler=profiler)
        seeds = [
            derive_seed(args.seed, "profile", rep)
            for rep in range(max(1, args.reps))
        ]
        for rep_seed in seeds:
            engine.run_tester_repetition(args.k, rep_seed)
        doc = validate_profile(profiler.report(engine=engine.name))
        if args.out:
            profiler.write(args.out, engine=engine.name)
            LOG.info("profile written", path=args.out)
    total = doc["total_seconds"] or 0.0
    print(f"engine {doc['engine'] or '?'}: "
          f"{len(doc['phases'])} phases, {total:.6f}s attributed")
    for name, entry in sorted(
        doc["phases"].items(), key=lambda kv: -kv[1]["seconds"]
    ):
        share = entry["seconds"] / total if total else 0.0
        print(f"  {name:<18} x{entry['calls']:<6} "
              f"{entry['seconds']:.6f}s  ({share:.1%})")
    return 0


# ---------------------------------------------------------------------------
# service subcommands (serve / loadgen)
# ---------------------------------------------------------------------------
def _parse_params(spec: Optional[str]) -> Dict[str, object]:
    """Parse ``n=40,p=0.1`` into a typed parameter dict."""
    params: Dict[str, object] = {}
    if not spec:
        return params
    for item in spec.split(","):
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"error: bad --params item {item!r} (need key=value)"
            )
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[key.strip()] = value
    return params


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the detection service in the foreground until SIGINT/SIGTERM."""
    import asyncio
    import signal

    from .obs import get_telemetry
    from .service import ServiceConfig, ServiceServer

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        request_timeout=args.request_timeout,
        debug=args.debug,
        default_engine=args.engine,
    )
    # --telemetry installs the global before dispatch; hand it to the
    # server so wide events and spans land in the JSONL artifact.
    tel = get_telemetry()

    async def _run() -> None:
        server = ServiceServer(config, telemetry=tel if tel.enabled else None)
        await server.start()
        LOG.info(
            "service listening",
            host=config.host, port=server.port,
            max_sessions=config.max_sessions,
            request_timeout=config.request_timeout,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop.wait()
        LOG.info("service draining", sessions=len(server.sessions))
        await server.stop(drain=True)

    asyncio.run(_run())
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a loadgen profile (in-process server unless --host given)."""
    from .service.loadgen import LoadgenConfig, run_loadgen

    config = LoadgenConfig(
        clients=args.clients,
        family=args.family,
        params=_parse_params(args.params) or LoadgenConfig().params,
        stream=args.stream,
        k=args.k,
        engine=args.engine,
        seed=args.seed,
        batch=args.batch,
        verify_parity=not args.no_parity,
        trace=args.trace,
    )
    summary = run_loadgen(
        config,
        host=args.host,
        port=args.port,
        out=args.out,
        metrics_out=args.metrics_out,
    )
    print(json.dumps({"summary": summary}, sort_keys=True, indent=2))
    if summary["errors"]:
        raise SystemExit(f"loadgen finished with {summary['errors']} errors")
    if not summary["parity_ok"]:
        raise SystemExit("loadgen parity check FAILED "
                         "(service vs offline monitor mismatch)")
    return 0


# ---------------------------------------------------------------------------
# campaign subcommand
# ---------------------------------------------------------------------------
#: Built-in campaign presets (factor grids); ``smoke`` is CI-sized.
_PRESETS: Dict[str, Callable[[int], CampaignSpec]] = {
    "smoke": lambda seed: CampaignSpec(
        name="smoke",
        generators=[
            {"family": "gnp", "params": {"n": [24, 36], "p": 0.08}},
            {"family": "eps-far", "params": {"n": 40}},
        ],
        ks=[4, 5],
        epsilons=[0.15],
        algorithms=["tester", "detect"],
        repetitions=2,
        seed=seed,
    ),
    "engines": lambda seed: CampaignSpec(
        name="engines",
        generators=[
            {"family": "gnp", "params": {"n": [64, 128], "p": 0.05}},
            {"family": "eps-far", "params": {"n": 64}},
            {"family": "theta", "params": {"paths": 4, "path_length": 2}},
        ],
        ks=[4, 5],
        epsilons=[0.15],
        algorithms=["tester", "detect"],
        engines=["reference", "fast"],
        repetitions=3,
        seed=seed,
    ),
    "dynamic": lambda seed: CampaignSpec(
        name="dynamic",
        generators=[
            {"family": "gnp", "params": {"n": 24, "p": 0.1}},
            {"family": "cycle", "params": {"n": 16}},
        ],
        ks=[5],
        epsilons=[0.15],
        algorithms=["monitor", "tester"],
        streams=["uniform-churn:steps=24", "near-cycle:steps=16"],
        repetitions=2,
        seed=seed,
    ),
    "grid": lambda seed: CampaignSpec(
        name="grid",
        generators=[
            {"family": "gnp", "params": {"n": [64, 128], "p": 0.05}},
            {"family": "ba", "params": {"n": [64, 128], "attach": 3}},
            {"family": "ws", "params": {"n": [64, 128], "d": 4, "beta": 0.1}},
            {"family": "powerlaw", "params": {"n": [64, 128], "exponent": 2.5}},
            {"family": "eps-far", "params": {"n": 96}},
            {"family": "ck-free", "params": {"n": 96}},
        ],
        ks=[4, 5, 6],
        epsilons=[0.1],
        algorithms=["tester", "detect", "naive"],
        repetitions=3,
        seed=seed,
    ),
}


def _csv(cast: Callable[[str], object]) -> Callable[[str], List[object]]:
    def parse(text: str) -> List[object]:
        return [cast(item) for item in text.split(",") if item]

    return parse


def _optional_name(text: str) -> Optional[str]:
    """The literal ``none`` becomes ``None`` (the static/reliable axis
    value of the streams and faults factors); anything else passes
    through as a spec string."""
    return None if text == "none" else text


def _spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    """Resolve the campaign spec: file > preset, then factor overrides."""
    if getattr(args, "spec", None):
        path = Path(args.spec)
        if not path.exists():
            raise SystemExit(f"error: no campaign spec at {args.spec!r}")
        try:
            spec = CampaignSpec.from_json(path.read_text())
        except json.JSONDecodeError as exc:
            raise SystemExit(f"error: {args.spec}: invalid JSON ({exc})") from exc
    else:
        preset = getattr(args, "preset", None) or "smoke"
        spec = _PRESETS[preset](getattr(args, "seed", 0) or 0)
        if getattr(args, "generators", None) is not None and \
                getattr(args, "name", None) is None:
            # An inline grid is not the preset it borrowed defaults from:
            # don't let it masquerade as (and share a store with) 'smoke'.
            spec.name = "custom"
    if getattr(args, "name", None) is not None:
        spec.name = args.name
    if getattr(args, "generators", None) is not None:
        ns = args.ns or [registry.PARAMETERS["n"].default]
        spec.generators = [
            {
                "family": family,
                "params": ({"n": ns} if "n" in registry.get(family).params else {}),
            }
            for family in args.generators
        ]
    elif getattr(args, "ns", None) is not None:
        # --ns without --generators: sweep n across the spec's existing
        # families (those that take an n at all).
        spec.generators = [
            {
                **entry,
                "params": {**entry.get("params", {}), "n": args.ns},
            }
            if "n" in registry.get(entry["family"]).params
            else entry
            for entry in spec.generators
        ]
    if getattr(args, "ks", None) is not None:
        spec.ks = args.ks
    if getattr(args, "eps_grid", None) is not None:
        spec.epsilons = args.eps_grid
    if getattr(args, "algorithms", None) is not None:
        spec.algorithms = args.algorithms
    if getattr(args, "engines", None) is not None:
        spec.engines = args.engines
    if getattr(args, "streams", None) is not None:
        spec.streams = args.streams
    if getattr(args, "faults", None) is not None:
        spec.faults = args.faults
    if getattr(args, "repetitions", None) is not None:
        spec.repetitions = args.repetitions
    if getattr(args, "seed", None) is not None:
        spec.seed = args.seed
    spec.validate()
    return spec


def _cmd_campaign_define(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    text = spec.to_json()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text + "\n")
    rows = len(spec.expand())
    print(f"wrote campaign {spec.name!r} ({rows} run rows) to {out}")
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    table = spec.expand()
    store_path = args.store or f"campaigns/{spec.name}.jsonl"
    store = CampaignStore(store_path)
    report = run_campaign(
        table, store, workers=args.workers, chunksize=args.chunksize
    )
    print(report.render())
    done = report.executed + report.skipped
    print(f"results: {store.path} ({done}/{report.total_rows} rows complete)")
    # Error rows are persisted (and will not be retried), but automation
    # must still be able to see that the campaign was not clean.
    return 1 if report.errors else 0


#: Columns a result record carries that reports may group by.
_REPORT_COLUMNS = ("campaign", "generator", "params", "k", "eps",
                   "algorithm", "engine", "stream", "faults", "repetition",
                   "seed", "n", "m", "status")


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    store = CampaignStore(args.store)
    if not store.exists():
        raise SystemExit(f"no campaign results at {args.store!r}")
    group_by = args.group_by or list(DEFAULT_GROUP_BY)
    unknown = [c for c in group_by if c not in _REPORT_COLUMNS]
    if unknown:
        raise SystemExit(
            f"error: unknown group-by column(s) {', '.join(unknown)}; "
            f"choose from {', '.join(_REPORT_COLUMNS)}"
        )
    summary = summarize_store(store, group_by=group_by)
    print(summary.render())
    return 0


def _add_campaign_factor_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="campaign spec JSON (from 'campaign define')")
    p.add_argument("--preset", choices=sorted(_PRESETS),
                   help="built-in factor grid (default: smoke)")
    p.add_argument("--name", help="override the campaign name")
    p.add_argument("--generators", type=_csv(str), metavar="F1,F2,...",
                   help=f"families from: {', '.join(registry.names())}")
    p.add_argument("--ns", type=_csv(int), metavar="N1,N2,...",
                   help="graph sizes to cross (families with an n parameter)")
    p.add_argument("--ks", type=_csv(int), metavar="K1,K2,...",
                   help="cycle lengths to cross")
    p.add_argument("--eps-grid", type=_csv(float), metavar="E1,E2,...",
                   help="farness parameters to cross")
    p.add_argument("--algorithms", type=_csv(str), metavar="A1,A2,...",
                   help=f"variants from: {', '.join(ALGORITHM_NAMES)}")
    p.add_argument("--engines", type=_csv(str), metavar="E1,E2,...",
                   help=f"scheduler backends to cross: "
                   f"{', '.join(ENGINE_NAMES)}")
    p.add_argument("--streams", type=_optional_name, nargs="+",
                   metavar="SPEC",
                   help="stream scenarios to cross (temporal campaign), "
                   "e.g. uniform-churn burst:steps=40,burst=6; "
                   "'none' = static rows")
    p.add_argument("--faults", type=_optional_name, nargs="+",
                   metavar="SPEC",
                   help="fault models to cross, e.g. none drop:p=0.05 "
                   "targeted:u=0,v=1 (faulted rows run on the reference "
                   "engine)")
    p.add_argument("--repetitions", type=int, help="replicates per cell")
    p.add_argument("--seed", type=int, default=None, help="campaign master seed")


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed Ck-freeness testing (Fraigniaud & Olivetti, "
        "SPAA 2017) on a simulated CONGEST network.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="show debug diagnostics")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress diagnostic commentary (results and "
                        "warnings still print)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_telemetry_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--telemetry", metavar="PATH", default=None,
                       help="record telemetry: JSONL events to PATH, "
                       "Prometheus textfile to PATH.prom")

    def add_graph_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--generator", default="gnp", choices=registry.names())
        for name, param in registry.PARAMETERS.items():
            if name in _RESERVED_PARAMS:
                continue  # --k/--eps belong to the tester, added per command
            p.add_argument(f"--{name.replace('_', '-')}", dest=name,
                           type=param.type, default=param.default,
                           help=param.help)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--engine", default="reference", choices=ENGINE_NAMES,
                       help="scheduler backend (identical verdicts)")
        p.add_argument("--faults", type=_optional_name, default=None,
                       metavar="SPEC",
                       help="fault model, e.g. drop:p=0.05 or "
                       "targeted:u=0,v=1 (reference engine only)")

    p_test = sub.add_parser("test", help="run the full Ck-freeness tester")
    add_graph_args(p_test)
    p_test.add_argument("--k", type=int, required=True)
    p_test.add_argument("--eps", type=float, default=0.1)
    p_test.add_argument("--repetitions", type=int, default=None)
    add_telemetry_arg(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_detect = sub.add_parser(
        "detect", help="run Algorithm 1 for one edge (deterministic)"
    )
    add_graph_args(p_detect)
    p_detect.add_argument("--k", type=int, required=True)
    p_detect.add_argument("--eps", type=float, default=0.1)
    p_detect.add_argument("--edge", type=int, nargs=2, default=(0, 1))
    p_detect.add_argument("--timeline", action="store_true",
                          help="print the per-round bandwidth timeline")
    add_telemetry_arg(p_detect)
    p_detect.set_defaults(func=_cmd_detect)

    p_dyn = sub.add_parser(
        "dynamic",
        help="dynamic graphs: run churn scenarios, replay edge streams, "
        "report monitor logs",
    )
    dyn_sub = p_dyn.add_subparsers(dest="action", required=True)

    p_dyn_run = dyn_sub.add_parser(
        "run", help="generate a base graph, build a stream, run the monitor"
    )
    add_graph_args(p_dyn_run)
    p_dyn_run.add_argument("--k", type=int, required=True)
    p_dyn_run.add_argument("--eps", type=float, default=0.1)
    p_dyn_run.add_argument("--stream", default="uniform-churn",
                           metavar="SPEC",
                           help="scenario spec, e.g. uniform-churn or "
                           "burst:steps=40,burst=6")
    p_dyn_run.add_argument("--base-out", help="write the base graph "
                           "(edge-list format) here")
    p_dyn_run.add_argument("--stream-out", help="write the mutation "
                           "sequence (edge-stream format) here")
    p_dyn_run.add_argument("--log", help="write per-step JSONL records here")
    p_dyn_run.add_argument("--quiet", action="store_true",
                           default=argparse.SUPPRESS,
                           help="suppress per-step output")
    add_telemetry_arg(p_dyn_run)
    p_dyn_run.set_defaults(func=_cmd_dynamic_run)

    p_dyn_replay = dyn_sub.add_parser(
        "replay", help="replay a saved edge stream over a saved base graph"
    )
    p_dyn_replay.add_argument("--base", required=True,
                              help="base graph file (edge-list format)")
    p_dyn_replay.add_argument("--stream-file", required=True,
                              help="mutation file (edge-stream format)")
    p_dyn_replay.add_argument("--k", type=int, required=True)
    p_dyn_replay.add_argument("--eps", type=float, default=0.1)
    p_dyn_replay.add_argument("--seed", type=int, default=0)
    p_dyn_replay.add_argument("--engine", default="reference", choices=ENGINE_NAMES)
    p_dyn_replay.add_argument("--faults", type=_optional_name, default=None,
                              metavar="SPEC")
    p_dyn_replay.add_argument("--log", help="write per-step JSONL records")
    p_dyn_replay.add_argument("--quiet", action="store_true",
                              default=argparse.SUPPRESS)
    add_telemetry_arg(p_dyn_replay)
    p_dyn_replay.set_defaults(func=_cmd_dynamic_replay)

    p_dyn_report = dyn_sub.add_parser(
        "report", help="aggregate a per-step JSONL monitor log"
    )
    p_dyn_report.add_argument("--log", required=True)
    p_dyn_report.set_defaults(func=_cmd_dynamic_report)

    p_exp = sub.add_parser("experiment", help="run a DESIGN.md experiment")
    p_exp.add_argument("name", help="T1..T5, F1..F3 or 'all'")
    p_exp.set_defaults(func=_cmd_experiment)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential campaign vs the exact oracle"
    )
    p_fuzz.add_argument("--trials", type=int, default=100)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--with-baselines", action="store_true")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_camp = sub.add_parser(
        "campaign",
        help="declarative experiment campaigns (define/run/resume/report)",
    )
    camp_sub = p_camp.add_subparsers(dest="action", required=True)

    p_define = camp_sub.add_parser(
        "define", help="write a campaign spec JSON for later runs"
    )
    _add_campaign_factor_args(p_define)
    p_define.add_argument("--out", required=True, help="spec output path")
    p_define.set_defaults(func=_cmd_campaign_define)

    for action, blurb in [
        ("run", "expand the grid and execute pending rows"),
        ("resume", "alias of run: only not-yet-completed rows execute"),
    ]:
        p_run = camp_sub.add_parser(action, help=blurb)
        _add_campaign_factor_args(p_run)
        p_run.add_argument("--store", help="JSONL results path "
                           "(default: campaigns/<name>.jsonl)")
        p_run.add_argument("--workers", type=int, default=4,
                           help="parallel worker processes (1 = serial)")
        p_run.add_argument("--chunksize", type=int, default=1,
                           help="rows per worker dispatch")
        add_telemetry_arg(p_run)
        p_run.set_defaults(func=_cmd_campaign_run)

    p_report = camp_sub.add_parser(
        "report", help="aggregate a results store into a summary table"
    )
    p_report.add_argument("--store", required=True)
    p_report.add_argument("--group-by", type=_csv(str), default=None,
                          metavar="C1,C2,...",
                          help=f"grouping columns (default: "
                          f"{','.join(DEFAULT_GROUP_BY)})")
    p_report.set_defaults(func=_cmd_campaign_report)

    p_obs = sub.add_parser(
        "obs", help="observability: inspect telemetry artifacts"
    )
    obs_sub = p_obs.add_subparsers(dest="action", required=True)
    p_obs_report = obs_sub.add_parser(
        "report", help="summarize a JSONL event log / validate a textfile"
    )
    p_obs_report.add_argument("--events", help="JSONL event log "
                              "(written by --telemetry PATH)")
    p_obs_report.add_argument("--textfile", help="Prometheus textfile "
                              "(written as PATH.prom); parsed and validated")
    p_obs_report.set_defaults(func=_cmd_obs_report)

    p_obs_trace = obs_sub.add_parser(
        "trace", help="reconstruct span trees from a JSONL event log"
    )
    p_obs_trace.add_argument("--events", required=True,
                             help="JSONL event log (written by "
                             "--telemetry PATH)")
    p_obs_trace.add_argument("--check", action="store_true",
                             help="assert the causal invariants; non-zero "
                             "exit on any violation")
    p_obs_trace.add_argument("--slowest", type=int, default=5, metavar="N",
                             help="render the N slowest requests as span "
                             "trees (0 = none)")
    p_obs_trace.add_argument("--trace-id", default=None,
                             help="render exactly this trace instead")
    p_obs_trace.set_defaults(func=_cmd_obs_trace)

    p_obs_profile = obs_sub.add_parser(
        "profile", help="engine phase profile: print PROFILE.json or "
        "generate one by running an engine"
    )
    p_obs_profile.add_argument("--profile", default=None, metavar="PATH",
                               help="existing PROFILE.json to print "
                               "(skips the run)")
    p_obs_profile.add_argument("--engine", default="fast", choices=ENGINE_NAMES,
                               help="engine to profile when generating")
    p_obs_profile.add_argument("--family", default="gnp",
                               help="base-graph generator family")
    p_obs_profile.add_argument("--params", default=None, metavar="K=V,...",
                               help="generator parameters, e.g. n=60,p=0.1")
    p_obs_profile.add_argument("--k", type=int, default=5)
    p_obs_profile.add_argument("--seed", type=int, default=0)
    p_obs_profile.add_argument("--reps", type=int, default=3,
                               help="tester repetitions to profile")
    p_obs_profile.add_argument("--out", default=None, metavar="PATH",
                               help="write the schema-validated "
                               "PROFILE.json here")
    p_obs_profile.set_defaults(func=_cmd_obs_profile)

    p_serve = sub.add_parser(
        "serve",
        help="run the detection-as-a-service HTTP daemon (stdlib asyncio)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8757,
                         help="TCP port (0 = ephemeral)")
    p_serve.add_argument("--max-sessions", type=int, default=64,
                         help="session cap before LRU eviction")
    p_serve.add_argument("--request-timeout", type=float, default=30.0,
                         help="per-request handler timeout (seconds)")
    p_serve.add_argument("--engine", default="reference",
                         choices=ENGINE_NAMES,
                         help="default detection engine for new sessions")
    p_serve.add_argument("--debug", action="store_true",
                         help="enable the /debug endpoints (tests only)")
    add_telemetry_arg(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_lg = sub.add_parser(
        "loadgen",
        help="drive the service with N concurrent seeded clients",
    )
    p_lg.add_argument("--clients", type=int, default=8)
    p_lg.add_argument("--family", default="gnp",
                      help="base-graph generator family")
    p_lg.add_argument("--params", default=None, metavar="K=V,...",
                      help="generator parameters, e.g. n=40,p=0.1")
    p_lg.add_argument("--stream", default="uniform-churn:steps=30,p=0.5",
                      metavar="SPEC", help="scenario spec per client")
    p_lg.add_argument("--k", type=int, default=5)
    p_lg.add_argument("--engine", default="reference", choices=ENGINE_NAMES)
    p_lg.add_argument("--seed", type=int, default=0)
    p_lg.add_argument("--batch", type=int, default=1,
                      help="mutations per request")
    p_lg.add_argument("--host", default=None,
                      help="target a running server (default: boot one "
                      "in-process for the run)")
    p_lg.add_argument("--port", type=int, default=None)
    p_lg.add_argument("--out", help="JSONL results path")
    p_lg.add_argument("--metrics-out",
                      help="scrape /metrics to this textfile after the run")
    p_lg.add_argument("--no-parity", action="store_true",
                      help="skip the offline CkMonitor parity replay")
    p_lg.add_argument("--trace", action="store_true",
                      help="propagate traceparent ids and join client rows "
                      "to server wide events (in-process server only)")
    p_lg.set_defaults(func=_cmd_loadgen)

    add_bench_subparser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    LOG.configure(
        verbose=getattr(args, "verbose", False),
        quiet=getattr(args, "quiet", False),
    )
    telemetry_path = getattr(args, "telemetry", None)
    if telemetry_path:
        set_telemetry(Telemetry.to_jsonl(telemetry_path))
    try:
        return args.func(args)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}") from exc
    finally:
        if telemetry_path:
            tel = set_telemetry(None)
            tel.finalize(textfile=f"{telemetry_path}.prom")
            LOG.info("telemetry written", events=telemetry_path,
                     textfile=f"{telemetry_path}.prom")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

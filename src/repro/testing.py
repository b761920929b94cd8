"""Testing harnesses: differential fuzzing and engine equivalence.

The test-suite uses hand-rolled differential loops; this module packages
the same machinery as a public API so downstream changes (new pruners,
protocol tweaks, alternative schedulers) can be fuzzed with one call:

    from repro.testing import differential_campaign
    report = differential_campaign(trials=200, seed=0)
    assert report.ok, report.failures

Every trial draws a random graph, edge and k, runs Algorithm 1 (and
optionally the naive baseline and the sequential comparators) against the
exact oracle, and verifies any produced evidence edge-by-edge.

The second harness checks the engine contract
(:mod:`repro.congest.engine`): every backend must produce *identical*
verdicts, evidence and round counts for identical ``(network, k, seed)``
inputs.  :func:`engine_equivalence_report` sweeps a seeded grid of
registry instances::

    from repro.testing import engine_equivalence_report
    report = engine_equivalence_report(seeds=(0, 1, 2))
    assert report.ok, report.mismatches
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .baselines.naive import naive_detect_cycle_through_edge
from .congest.engine import create_engine
from .congest.ids import IdentityIds, RandomPermutationIds, ReverseIds
from .congest.network import Network
from .core.algorithm1 import detect_cycle_through_edge
from .core.verify import verify_cycle_evidence
from .graphs.cycles import has_cycle_through_edge
from .graphs.generators import erdos_renyi_gnp
from .graphs.graph import Graph
from .sequential.kcycle import monien_has_cycle_through_edge

__all__ = [
    "TrialFailure",
    "CampaignReport",
    "check_one",
    "differential_campaign",
    "EngineMismatch",
    "EquivalenceReport",
    "DEFAULT_EQUIVALENCE_INSTANCES",
    "compare_engines_once",
    "engine_equivalence_report",
    "synthetic_bench_artifact",
]


@dataclass(frozen=True)
class TrialFailure:
    """One disagreement, with everything needed to replay it."""

    kind: str
    k: int
    edge: tuple
    edges: tuple
    n: int
    detail: str

    def replay_graph(self) -> Graph:
        """Rebuild the exact graph of this failure for replay."""
        return Graph(self.n, list(self.edges))


@dataclass
class CampaignReport:
    """Tally of a differential campaign: trials, checks, failures."""
    trials: int = 0
    checks: int = 0
    failures: List[TrialFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no checker disagreed."""
        return not self.failures

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return f"CampaignReport({status}, trials={self.trials}, checks={self.checks})"


def check_one(
    g: Graph,
    edge: tuple,
    k: int,
    *,
    network: Optional[Network] = None,
    include_naive: bool = False,
    include_monien: bool = False,
) -> List[TrialFailure]:
    """Run every checker on one (graph, edge, k) instance."""
    failures: List[TrialFailure] = []
    edges = tuple(g.edges())

    def fail(kind: str, detail: str) -> None:
        failures.append(
            TrialFailure(kind=kind, k=k, edge=edge, edges=edges, n=g.n, detail=detail)
        )

    expected = has_cycle_through_edge(g, edge, k)
    det = detect_cycle_through_edge(g, edge, k, network=network)
    if det.detected != expected:
        fail("algorithm1-verdict", f"expected {expected}, got {det.detected}")
    if det.detected:
        ids = det.any_cycle_ids()
        if not verify_cycle_evidence(
            g, ids, k, network=network, through_edge=edge
        ):
            fail("algorithm1-evidence", f"invalid evidence {ids}")
    if include_naive:
        nav = naive_detect_cycle_through_edge(g, edge, k, network=network)
        if nav.detected != expected:
            fail("naive-verdict", f"expected {expected}, got {nav.detected}")
    if include_monien:
        mon = monien_has_cycle_through_edge(g, edge, k)
        if mon != expected:
            fail("monien-verdict", f"expected {expected}, got {mon}")
    return failures


def differential_campaign(
    *,
    trials: int = 100,
    seed=None,
    n_range: tuple = (5, 12),
    k_range: tuple = (3, 8),
    edges_per_graph: int = 4,
    include_naive: bool = False,
    include_monien: bool = False,
    id_assigners: Optional[Sequence] = None,
) -> CampaignReport:
    """Random differential campaign across graphs, edges, k and IDs."""
    rng = np.random.default_rng(seed)
    assigners = (
        list(id_assigners)
        if id_assigners is not None
        else [IdentityIds(), ReverseIds(), RandomPermutationIds(seed=0)]
    )
    report = CampaignReport()
    for t in range(trials):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        p = float(rng.uniform(0.15, 0.55))
        g = erdos_renyi_gnp(n, p, seed=int(rng.integers(2**31)))
        if g.m == 0:
            continue
        report.trials += 1
        assigner = assigners[t % len(assigners)]
        net = Network(g, assigner)
        edges = list(g.edges())
        picks = min(edges_per_graph, len(edges))
        chosen = rng.choice(len(edges), size=picks, replace=False)
        k = int(rng.integers(k_range[0], k_range[1] + 1))
        for idx in chosen:
            report.checks += 1
            report.failures.extend(
                check_one(
                    g,
                    edges[int(idx)],
                    k,
                    network=net,
                    include_naive=include_naive,
                    include_monien=include_monien,
                )
            )
    return report


# ---------------------------------------------------------------------------
# Engine equivalence harness
# ---------------------------------------------------------------------------
#: Registry instances every engine must agree on: the paper's stress
#: families plus a certified ε-far instance.  ``(family, params)`` pairs
#: are built through :mod:`repro.runner.registry`.
DEFAULT_EQUIVALENCE_INSTANCES: Tuple[Tuple[str, Dict], ...] = (
    ("theta", {"paths": 4, "path_length": 3}),
    ("flower", {"paths": 4, "k": 5}),
    ("figure1", {}),
    ("eps-far", {"n": 40, "k": 5, "eps": 0.1}),
    # Sparse G(n, p) with isolated vertices: zero-degree CSR rows.
    ("gnp", {"n": 40, "p": 0.05}),
)


@dataclass(frozen=True)
class EngineMismatch:
    """One disagreement between two engines, with its coordinates."""

    instance: str
    what: str  # "tester" or "detect"
    k: int
    seed: int
    field: str
    detail: str
    #: The (baseline, candidate) engine specs that disagreed.  Defaults
    #: to empty for backwards compatibility with two-engine callers.
    pair: Tuple[str, str] = ("", "")


@dataclass
class EquivalenceReport:
    """Outcome of an engine-equivalence sweep."""

    engines: Tuple[str, ...] = ("reference", "fast")
    comparisons: int = 0
    mismatches: List[EngineMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every comparison matched."""
        return not self.mismatches

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        return (
            f"EquivalenceReport({' vs '.join(self.engines)}: "
            f"{status}, comparisons={self.comparisons})"
        )


def _reject_set(run) -> frozenset:
    return frozenset(v for v, o in run.outputs.items() if o.rejects)


def compare_engines_once(
    graph: Graph,
    k: int,
    seed: int,
    *,
    engines: Tuple[str, ...] = ("reference", "fast"),
    network: Optional[Network] = None,
    instance: str = "?",
    what: str = "tester",
    edge: Optional[tuple] = None,
) -> List[EngineMismatch]:
    """Run every engine on one input and list every observable difference.

    The first engine is the baseline; each of the others is compared
    against it.  A tester comparison runs one repetition under ``seed``
    through every engine's
    :meth:`~repro.congest.engine.CongestEngine.run_tester_repetition`.
    Compared per run: the rejecting-vertex set (scanned over every
    vertex's outcome, and as the outputs' ascending ``rejecting``
    tuple), each rejector's cycle evidence, the round count, and the
    per-round audit aggregates
    (message count, total/max bits, the edge carrying the first maximum,
    max sequences per message).
    """
    if len(engines) < 2:
        raise ValueError("compare_engines_once needs at least two engines")
    net = network if network is not None else Network(graph)
    engs = [create_engine(name, net) for name in engines]
    if what == "tester":
        runs = [eng.run_tester_repetition(k, seed) for eng in engs]
    else:
        edge_ids = edge if edge is not None else net.edge_ids(
            *next(iter(graph.edges()))
        )
        runs = [eng.run_detect(k, edge_ids) for eng in engs]
    return [
        EngineMismatch(
            instance=instance, what=what, k=k, seed=seed,
            field=field_name, detail=detail, pair=(engines[0], other),
        )
        for other, run in zip(engines[1:], runs[1:])
        for field_name, detail in _run_differences(runs[0], run)
    ]


def _run_differences(a, b) -> List[Tuple[str, str]]:
    """``(field, detail)`` for every observable difference of two runs."""
    out: List[Tuple[str, str]] = []
    ra, rb = _reject_set(a), _reject_set(b)
    if ra != rb:
        out.append(("rejecting_vertices", f"{sorted(ra)} != {sorted(rb)}"))
    if a.outputs.rejecting != b.outputs.rejecting:
        out.append(("rejecting",
                    f"{a.outputs.rejecting} != {b.outputs.rejecting}"))
    for v in ra & rb:
        if a.outputs[v].cycle != b.outputs[v].cycle:
            out.append(("cycle", f"vertex {v}: "
                        f"{a.outputs[v].cycle} != {b.outputs[v].cycle}"))
    if a.trace.num_rounds != b.trace.num_rounds:
        out.append(("rounds", f"{a.trace.num_rounds} != {b.trace.num_rounds}"))
    for ra_, rb_ in zip(a.trace.rounds, b.trace.rounds):
        for attr in ("messages", "total_bits", "max_message_bits",
                     "max_edge", "max_sequences"):
            if getattr(ra_, attr) != getattr(rb_, attr):
                out.append((f"round{ra_.round_index}.{attr}",
                            f"{getattr(ra_, attr)} != {getattr(rb_, attr)}"))
    return out


def engine_equivalence_report(
    *,
    engines: Tuple[str, ...] = ("reference", "fast"),
    instances: Optional[Sequence[Tuple[str, Dict]]] = None,
    ks: Sequence[int] = (3, 4, 5, 6, 7),
    seeds: Sequence[int] = (0, 1),
) -> EquivalenceReport:
    """Sweep a seeded instance grid and compare engines on every cell.

    The default grid is the paper's stress instances
    (:data:`DEFAULT_EQUIVALENCE_INSTANCES`) crossed with ``ks`` and
    ``seeds``, for both the full tester repetition and Algorithm 1 on
    the canonical first edge.
    """
    from .runner import registry

    grid = list(instances if instances is not None else
                DEFAULT_EQUIVALENCE_INSTANCES)
    report = EquivalenceReport(engines=engines)
    for family, params in grid:
        graph = registry.build_graph(family, seed=0, **params)
        if graph.m == 0:
            continue
        net = Network(graph)
        for k in ks:
            for seed in seeds:
                report.comparisons += 1
                report.mismatches.extend(
                    compare_engines_once(
                        graph, k, seed, engines=engines, network=net,
                        instance=family, what="tester",
                    )
                )
            # Algorithm 1 is deterministic (the seed is unused), so one
            # detect comparison per (instance, k) suffices.
            report.comparisons += 1
            report.mismatches.extend(
                compare_engines_once(
                    graph, k, 0, engines=engines, network=net,
                    instance=family, what="detect",
                )
            )
    return report


# ---------------------------------------------------------------------------
# benchmark-harness fixtures
# ---------------------------------------------------------------------------
def synthetic_bench_artifact(
    area: str = "synthetic",
    *,
    suite: str = "smoke",
    benchmarks: Sequence[str] = ("synthetic.alpha", "synthetic.beta"),
    wall: float = 0.1,
    slowdown: float = 1.0,
    metrics: Optional[Dict[str, object]] = None,
    environment: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """A schema-valid ``BENCH_<area>.json`` payload with synthetic timings.

    The fixture behind the regression-detection tests (and the docs
    examples): pair one artifact built with ``slowdown=1.0`` against a
    twin built with ``slowdown=10.0`` and :func:`repro.bench.compare.
    compare_artifacts` must flag every benchmark.  No benchmark actually
    runs — records are fabricated, which is exactly the point: the gate
    logic is testable on timing data of known shape.
    """
    from .bench.artifacts import SCHEMA_VERSION, validate_artifact
    from .bench.registry import case_id

    case = {"n": 1}
    results = []
    for name in benchmarks:
        walls = [round(wall * slowdown, 6), round(wall * slowdown * 1.01, 6)]
        results.append({
            "benchmark": name,
            "area": area,
            "case": dict(case),
            "case_id": case_id(case),
            "suite": suite,
            "seed": 0,
            "repeats": len(walls),
            "wall_seconds": walls,
            "wall_min": min(walls),
            "wall_mean": round(sum(walls) / len(walls), 6),
            "status": "ok",
            "metrics": dict(metrics or {"rounds": 4}),
        })
    artifact = {
        "schema": SCHEMA_VERSION,
        "area": area,
        "suite": suite,
        "master_seed": 0,
        "environment": dict(environment or {"python": "synthetic"}),
        "results": results,
    }
    validate_artifact(artifact)
    return artifact

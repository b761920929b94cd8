"""The dynamic equivalence gate: incremental verdicts vs from-scratch runs.

:func:`monitor_equivalence_report` replays stream scenarios and, at
**every** mutation step, checks the incremental :class:`~repro.dynamic.
monitor.CkMonitor` against three independent referees:

1. **the exact oracle** — ``has_k_cycle`` on the current graph must equal
   the monitor's verdict (the monitor claims exactness; this is the hard
   ground truth);
2. **witness validity** — whenever the monitor rejects, its cached
   evidence must be a genuine k-cycle of the *current* graph (all k
   closing edges present, k distinct vertices);
3. **a from-scratch tester** — a fresh
   :class:`~repro.core.tester.CkFreenessTester` run on the current graph
   with the monitor's own step seed must produce the identical verdict.
   (Monitor ACCEPT ⟹ the graph is C_k-free ⟹ the tester accepts with
   probability 1; monitor REJECT must be confirmed by the seeded tester
   finding the cycle, which the default repetition count makes a
   deterministic certainty on the gate's instance sizes.)

Every check runs for each engine in ``engines``, so the gate doubles as
a dynamic-workload engine-equivalence sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.tester import CkFreenessTester
from ..graphs.cycles import has_k_cycle
from ..graphs.graph import Graph
from .monitor import CkMonitor
from .streams import build_stream

__all__ = [
    "DEFAULT_PARITY_GRID",
    "MonitorMismatch",
    "MonitorEquivalenceReport",
    "check_stream_parity",
    "monitor_equivalence_report",
]

#: Default parity grid: ``(stream_spec, family, family_params)`` cells.
#: Small bases keep every-step from-scratch re-testing affordable while
#: covering churn, bursts, the adversarial near-cycle toggler and growth.
DEFAULT_PARITY_GRID: Tuple[Tuple[str, str, Dict[str, Any]], ...] = (
    ("uniform-churn:steps=24,p=0.55", "gnp", {"n": 16, "p": 0.14}),
    ("burst:steps=24,burst=5", "gnp", {"n": 16, "p": 0.12}),
    ("near-cycle:steps=20", "path", {"n": 12}),
    ("growth:steps=20,p=0.45,attach=2", "cycle", {"n": 8}),
)


@dataclass(frozen=True)
class MonitorMismatch:
    """One gate violation, with everything needed to replay it."""

    stream: str
    family: str
    engine: str
    k: int
    seed: int
    step: int
    mutation: str
    check: str  # "oracle" | "witness" | "tester"
    detail: str


@dataclass
class MonitorEquivalenceReport:
    """Outcome of a dynamic equivalence sweep."""

    engines: Sequence[str] = ("reference", "fast")
    steps_checked: int = 0
    mismatches: List[MonitorMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every per-step check passed."""
        return not self.mismatches

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        return (
            f"MonitorEquivalenceReport({'+'.join(self.engines)}: {status}, "
            f"steps_checked={self.steps_checked})"
        )


def _witness_error(graph: Graph, witness, k: int) -> Optional[str]:
    """Why ``witness`` is not a valid k-cycle of ``graph`` (None = valid)."""
    if witness is None:
        return "rejecting with no witness"
    if len(witness) != k:
        return f"witness length {len(witness)} != k={k}"
    if len(set(witness)) != k:
        return f"witness vertices not distinct: {witness}"
    for i in range(k):
        u, v = witness[i], witness[(i + 1) % k]
        if not graph.has_edge(u, v):
            return f"witness edge ({u},{v}) not in graph"
    return None


def check_stream_parity(
    base: Graph,
    stream_spec: str,
    k: int,
    *,
    engine: str = "reference",
    seed: int = 0,
    epsilon: float = 0.1,
    tester_repetitions: Optional[int] = None,
    family: str = "?",
) -> Tuple[int, List[MonitorMismatch]]:
    """Replay one scenario under one engine, checking every step.

    Returns ``(steps_checked, mismatches)``.  The from-scratch tester at
    step ``t`` runs with the monitor's ``step_seed(t)`` and
    ``tester_repetitions`` (``None`` = the paper's count), stopping on
    first reject.
    """
    stream = build_stream(stream_spec, base, seed=seed, k=k)
    monitor = CkMonitor(stream.base, k, engine=engine, epsilon=epsilon,
                        seed=seed)
    mismatches: List[MonitorMismatch] = []

    def referee(step: int, mutation: str) -> None:
        graph = monitor.graph
        has_cycle = has_k_cycle(graph, k)
        coords = dict(stream=stream.scenario, family=family, engine=engine,
                      k=k, seed=seed, step=step, mutation=mutation)
        if monitor.accepted != (not has_cycle):
            mismatches.append(MonitorMismatch(
                check="oracle",
                detail=f"monitor accepted={monitor.accepted} but "
                       f"has_k_cycle={has_cycle}",
                **coords,
            ))
        if not monitor.accepted:
            error = _witness_error(graph, monitor.witness, k)
            if error is not None:
                mismatches.append(MonitorMismatch(
                    check="witness", detail=error, **coords,
                ))
        tester = CkFreenessTester(
            k, epsilon, repetitions=tester_repetitions, engine=engine,
        )
        result = tester.run(graph, seed=monitor.step_seed(step))
        if result.accepted != monitor.accepted:
            mismatches.append(MonitorMismatch(
                check="tester",
                detail=f"from-scratch tester accepted={result.accepted}, "
                       f"monitor accepted={monitor.accepted}",
                **coords,
            ))

    referee(0, "<init>")
    for mutation in stream.mutations:
        record = monitor.apply(mutation)
        referee(record.version, mutation.to_line())
    return 1 + len(stream.mutations), mismatches


def monitor_equivalence_report(
    *,
    grid: Optional[Sequence[Tuple[str, str, Dict[str, Any]]]] = None,
    ks: Sequence[int] = (4, 5),
    seeds: Sequence[int] = (0,),
    engines: Sequence[str] = ("reference", "fast"),
    epsilon: float = 0.1,
    tester_repetitions: Optional[int] = None,
) -> MonitorEquivalenceReport:
    """Sweep scenario cells × ks × seeds × engines; check every step.

    The default grid is :data:`DEFAULT_PARITY_GRID`.  Instance graphs are
    built through the generator registry with the cell's seed, so the
    sweep is deterministic end to end.
    """
    from ..runner import registry

    cells = list(grid if grid is not None else DEFAULT_PARITY_GRID)
    report = MonitorEquivalenceReport(engines=tuple(engines))
    for stream_spec, family, params in cells:
        for k in ks:
            for seed in seeds:
                base = registry.build_graph(
                    family, seed=seed, **{**params, "k": k}
                )
                for engine in engines:
                    steps, mismatches = check_stream_parity(
                        base, stream_spec, k,
                        engine=engine, seed=seed, epsilon=epsilon,
                        tester_repetitions=tester_repetitions,
                        family=family,
                    )
                    report.steps_checked += steps
                    report.mismatches.extend(mismatches)
    return report

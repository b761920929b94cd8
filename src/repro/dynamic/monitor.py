"""Incremental C_k-freeness monitoring with verdict caching.

:class:`CkMonitor` keeps an *exact* answer to "does the current graph
contain a k-cycle?" current across an edge stream, paying full
re-detection only when a mutation can actually change the answer.  Its
cached state is the verdict plus — on YES instances — one witness cycle
(Lemma-1 style evidence: k distinct vertices in cyclic order whose
closing edges are all present).

Decision table, per mutation:

=================  ==============  =======================================
mutation           cached verdict  action
=================  ==============  =======================================
``add_vertex``     any             **cache hit** — an isolated vertex
                                   changes no cycle
``add_edge``       NO k-cycle      **local recheck** — any new k-cycle
                                   must pass through the new edge; run
                                   Algorithm 1 through it, restricted to
                                   the ⌊k/2⌋-neighbourhood ball of its
                                   endpoints (every k-cycle through the
                                   edge lives inside that ball)
``add_edge``       k-cycle cached  **cache hit** — insertions never
                                   destroy the cached witness
``remove_edge``    NO k-cycle      **cache hit** — deletions never create
                                   cycles
``remove_edge``    witness misses  **cache hit** — the cached witness
                   the edge        survives, evidence still valid
``remove_edge``    witness uses    **full re-test** — any other k-cycle
                   the edge        may exist anywhere; fall back to
                                   from-scratch detection
=================  ==============  =======================================

Full re-detection (:func:`full_redetect`, also the naive per-step
baseline the benchmarks compare against) first runs the seeded
:class:`~repro.core.tester.CkFreenessTester` as a fast probabilistic
path — if it rejects, its evidence is a genuine cycle (1-sided error)
and we are done — then certifies the ACCEPT side exactly by running
Algorithm 1 through every edge (deterministic completeness, paper §1.2).

Because the monitor's verdict is exact and the tester has 1-sided error,
monitor ACCEPT implies every from-scratch tester run accepts (with
probability 1), and a from-scratch tester REJECT implies the monitor
rejects.  The equivalence gate (:mod:`repro.dynamic.equivalence`)
asserts full verdict identity against seeded from-scratch tester runs at
every timestep, for both engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..congest.network import Network
from ..core.algorithm1 import detect_cycle_through_edge, record_detections
from ..core.tester import CkFreenessTester, check_tester_parameters
from ..errors import ConfigurationError
from ..graphs.graph import Graph
from ..seeds import derive_seed
from .graph import DynamicGraph
from .mutations import ADD_EDGE, ADD_VERTEX, REMOVE_EDGE, Mutation

__all__ = [
    "CACHE_HIT",
    "FULL_RETEST",
    "LOCAL_RECHECK",
    "CkMonitor",
    "MonitorStats",
    "StepRecord",
    "full_redetect",
    "k_neighborhood_ball",
]

#: Step actions (the ``action`` field of :class:`StepRecord`).
CACHE_HIT = "cache_hit"
LOCAL_RECHECK = "local_recheck"
FULL_RETEST = "full_retest"


def k_neighborhood_ball(
    graph: Graph, edge: Tuple[int, int], radius: int
) -> List[int]:
    """Vertices within ``radius`` hops of either endpoint of ``edge``.

    Returned sorted.  Every k-cycle through ``edge = {u, v}`` lies inside
    the ball of radius ``⌊k/2⌋``: walking the cycle from the edge, each
    vertex is at hop distance at most ``⌊(k-1)/2⌋`` from ``u`` or ``v``.

    This is the walk of every local recheck.  It reads
    :meth:`~repro.graphs.graph.Graph.neighbors`, which is memoised per
    vertex and cleared by a mutation for its endpoints only, so on a live
    graph it costs the ball's rows, not the graph.
    """
    u, v = edge
    seen = {u: 0, v: 0}
    frontier = [u, v]
    depth = 0
    while frontier and depth < radius:
        depth += 1
        nxt: List[int] = []
        for w in frontier:
            for x in graph.neighbors(w):
                if x not in seen:
                    seen[x] = depth
                    nxt.append(x)
        frontier = nxt
    return sorted(seen)


def _ball_subgraph(graph: Graph, ball: List[int]) -> Graph:
    """Induced subgraph of the sorted ``ball``, relabelled to
    ``0..len(ball)-1`` (equal to ``graph.subgraph(ball)``).

    Each ball row's sorted neighbours are mapped through the ball's
    position index, and each edge is kept once, from its smaller end, so
    the edges come in ascending (position, neighbour) order: the sorted
    canonical order that ``from_canonical_edge_arrays`` trusts.
    """
    position = {vertex: i for i, vertex in enumerate(ball)}
    tails: List[int] = []
    heads: List[int] = []
    for i, vertex in enumerate(ball):
        for w in graph.neighbors(vertex):
            j = position.get(w)
            if j is not None and i < j:
                tails.append(i)
                heads.append(j)
    return Graph.from_canonical_edge_arrays(len(ball), tails, heads)


def _detect_local(
    graph: Graph,
    edge: Tuple[int, int],
    k: int,
    *,
    engine: str,
    faults=None,
    telemetry=None,
) -> Tuple[int, Optional[Tuple[int, ...]]]:
    """Run Algorithm 1 through ``edge`` inside its k-neighbourhood ball.

    Returns the ball's vertex count and the witness cycle as *vertex
    indices of ``graph``* (mapped back from the ball subgraph), or
    ``None``.  Exactness: the ball contains every k-cycle through the
    edge, the induced subgraph keeps all of their edges, and any cycle
    found in the subgraph exists in the full graph.

    Ball and subgraph are read from ``graph``'s memoised neighbour rows,
    so the cost is the ball's, with no whole-graph export.
    """
    ball = k_neighborhood_ball(graph, edge, k // 2)
    sub = _ball_subgraph(graph, ball)
    det = detect_cycle_through_edge(
        sub, (ball.index(edge[0]), ball.index(edge[1])), k,
        engine=engine, faults=faults, telemetry=telemetry,
    )
    cycle = det.any_cycle_ids() if det.detected else None
    if cycle is None:
        return len(ball), None
    # Default Network assigns identity IDs, so subgraph node IDs are
    # subgraph vertex indices; map back to the caller's vertex space.
    return len(ball), tuple(ball[i] for i in cycle)


def full_redetect(
    graph: Graph,
    k: int,
    *,
    engine: str = "reference",
    seed: int = 0,
    epsilon: float = 0.1,
    tester_repetitions: Optional[int] = None,
    faults=None,
    telemetry=None,
) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """From-scratch exact k-cycle detection: ``(accepted, witness)``.

    ``accepted=True`` means the graph is certifiably C_k-free; otherwise
    ``witness`` is a k-cycle in vertex indices.  The procedure is the
    paper's own machinery end to end:

    1. *(fast path)* one seeded :class:`CkFreenessTester` run — its
       rejections carry genuine cycle evidence (1-sided error), so a
       reject finishes immediately;
    2. *(exact path)* Algorithm 1 through every edge, in
       :meth:`~repro.graphs.graph.Graph.edges` order, until one rejects
       — deterministic completeness guarantees a k-cycle is found iff
       one exists.  The witness is the cycle of the first rejecting
       vertex of the first rejecting edge.

    Both halves read one ``Network(graph)``; the graph is neither
    hashed nor copied.  The exact path runs under one ``detect.scan``
    span (attributes ``k``, ``engine`` and ``edges``, the edges
    examined) and adds those edges to ``repro_detect_runs_total``.  On
    the ``fast`` engine it is one
    :meth:`~repro.congest.engine.fast.FastEngine.first_cycle_edge` call
    on a second engine compiled from that network (the compile reads the
    graph's memoised CSR export), which runs blocks of edges side by
    side.  On the ``reference`` engine (and with faults) each edge runs
    on its own inside its ⌊k/2⌋-ball, the executable specification the
    kernel is tested against.  Both find the same witness.

    This is also the "naive per-step re-detection" baseline the dynamic
    benchmarks measure the monitor's caching against.
    """
    from ..congest.engine import create_engine
    from ..obs import resolve_telemetry

    if graph.m == 0:
        return True, None
    tel = resolve_telemetry(telemetry)
    net = Network(graph)
    tester = CkFreenessTester(
        k, epsilon, repetitions=tester_repetitions, engine=engine,
        faults=faults, telemetry=tel,
    )
    result = tester.run(graph, seed=seed, network=net)
    if result.rejected and result.evidence is not None:
        # Default networks use identity IDs: evidence is already in
        # vertex indices.
        return False, tuple(result.evidence)
    with tel.span("detect.scan", k=k, engine=engine) as span:
        if engine == "fast":
            # Identity IDs: the edge table is graph.edges() order and
            # the cycle is in vertex indices.
            hit = create_engine(engine, net, telemetry=tel).first_cycle_edge(k)
            edges = graph.m if hit is None else hit[0] + 1
            witness = None if hit is None else hit[1]
            record_detections(tel, engine, edges, int(hit is not None))
        else:
            edges, witness = 0, None
            for edge in graph.edges():
                edges += 1
                _, witness = _detect_local(
                    graph, edge, k, engine=engine, faults=faults, telemetry=tel
                )
                if witness is not None:
                    break
        if tel.enabled:
            span.attrs["edges"] = edges
    return witness is None, witness


@dataclass
class MonitorStats:
    """Decision counters of one monitor lifetime."""

    steps: int = 0
    cache_hits: int = 0
    local_rechecks: int = 0
    full_retests: int = 0
    verdict_flips: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of steps answered from cache (0.0 when no steps)."""
        return self.cache_hits / self.steps if self.steps else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Flat dict form (campaign records, benchmark metrics)."""
        return {
            "steps": self.steps,
            "cache_hits": self.cache_hits,
            "local_rechecks": self.local_rechecks,
            "full_retests": self.full_retests,
            "verdict_flips": self.verdict_flips,
            "cache_hit_rate": round(self.cache_hit_rate, 6),
        }


@dataclass(frozen=True)
class StepRecord:
    """What the monitor did for one mutation."""

    version: int
    mutation: Mutation
    action: str
    accepted: bool
    witness: Optional[Tuple[int, ...]]
    flipped: bool


class CkMonitor:
    """Exact incremental C_k-freeness verdict over a mutation stream.

    Parameters
    ----------
    graph:
        The initial state: a :class:`Graph` (wrapped into a fresh
        :class:`DynamicGraph`) or an existing :class:`DynamicGraph`
        (adopted; further mutations must go through the monitor).
    k:
        Cycle length to monitor (>= 3).
    engine:
        CONGEST backend for all detection work (``reference``/``fast``).
    epsilon, tester_repetitions:
        Parameters of the tester fast path inside full re-tests.
    seed:
        Master seed; the re-test at version ``t`` uses the derived
        ``step_seed(t)``, so a parity harness can run the identical
        from-scratch tester at every step.
    faults:
        Optional fault model forwarded to every detection/tester run
        (reference engine only).  Message loss can hide witnesses, so
        with faults the monitor keeps only the tester's soundness
        guarantee, not exactness.
    telemetry:
        Optional :class:`~repro.obs.Telemetry`; ``None`` resolves to the
        process global (disabled by default).  Records step/cache-hit
        counters, ball-size histograms and ``monitor.*`` spans.

    The constructor raises :class:`~repro.errors.ConfigurationError` for
    ``k < 3``, an unknown engine, ``epsilon`` outside (0, 1),
    ``tester_repetitions < 1`` and ``faults`` on an engine other than
    ``reference``, whatever the graph: no later step can fail on them.

    Full re-tests compile their engines afresh from the current graph
    (:func:`full_redetect`); local rechecks walk the ⌊k/2⌋-ball on the
    live graph.  The monitor holds no compiled engine between steps.
    """

    def __init__(
        self,
        graph,
        k: int,
        *,
        engine: str = "reference",
        epsilon: float = 0.1,
        tester_repetitions: Optional[int] = 8,
        seed: int = 0,
        faults=None,
        telemetry=None,
    ) -> None:
        from ..obs import resolve_telemetry

        # full_redetect builds its tester only on a graph with edges, so
        # its parameters are checked here: a bad one fails construction,
        # not a later step whose mutation has already applied.
        check_tester_parameters(k, epsilon, tester_repetitions, engine)
        if faults is not None and engine != "reference":
            raise ConfigurationError(
                f"fault injection requires the reference engine, got "
                f"engine={engine!r}"
            )
        self.k = k
        self.engine = engine
        self.epsilon = epsilon
        self.tester_repetitions = tester_repetitions
        self.seed = seed
        self._faults = faults
        self._telemetry = resolve_telemetry(telemetry)
        self.dynamic = (
            graph if isinstance(graph, DynamicGraph) else DynamicGraph(graph)
        )
        self.stats = MonitorStats()
        self._accepted, self._witness = self._full_redetect()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The current graph state."""
        return self.dynamic.graph

    @property
    def version(self) -> int:
        """Mutations applied so far."""
        return self.dynamic.version

    @property
    def accepted(self) -> bool:
        """Current verdict: ``True`` iff the graph is C_k-free."""
        return self._accepted

    @property
    def witness(self) -> Optional[Tuple[int, ...]]:
        """The cached witness k-cycle (vertex indices), when rejecting."""
        return self._witness

    def step_seed(self, version: int) -> int:
        """The tester seed a full re-test uses at ``version``.

        Deterministic in ``(self.seed, version)``; the equivalence gate
        replays from-scratch testers on exactly this schedule.
        """
        return derive_seed(self.seed, "monitor-step", version)

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def apply(self, mutation: Mutation) -> StepRecord:
        """Apply one mutation and bring the verdict up to date."""
        mutation = self.dynamic.apply(mutation)
        was_accepted = self._accepted
        hit_kind = None
        if mutation.op == ADD_VERTEX:
            action = CACHE_HIT
            hit_kind = "add_vertex"
        elif mutation.op == ADD_EDGE:
            if not self._accepted:
                action = CACHE_HIT
                hit_kind = "insert_into_reject"
            else:
                action = LOCAL_RECHECK
                ball, witness = _detect_local(
                    self.graph, mutation.edge, self.k,
                    engine=self.engine, faults=self._faults,
                    telemetry=self._telemetry,
                )
                if self._telemetry.enabled:
                    self._telemetry.histogram(
                        "repro_monitor_ball_size",
                        "Vertices in the ⌊k/2⌋-ball of a locally rechecked "
                        "edge.",
                    ).observe(ball)
                if witness is not None:
                    self._accepted, self._witness = False, witness
        elif mutation.op == REMOVE_EDGE:
            if self._accepted:
                action = CACHE_HIT
                hit_kind = "delete_in_accept"
            elif not self._witness_uses(mutation.edge):
                action = CACHE_HIT
                hit_kind = "witness_survives"
            else:
                action = FULL_RETEST
                self._accepted, self._witness = self._full_redetect()
        else:  # pragma: no cover - Mutation validates ops
            raise ConfigurationError(f"unknown mutation {mutation!r}")
        self.stats.steps += 1
        if action == CACHE_HIT:
            self.stats.cache_hits += 1
        elif action == LOCAL_RECHECK:
            self.stats.local_rechecks += 1
        else:
            self.stats.full_retests += 1
        flipped = self._accepted != was_accepted
        if flipped:
            self.stats.verdict_flips += 1
        if self._telemetry.enabled:
            self._export_step(action, hit_kind, flipped)
        return StepRecord(
            version=self.version,
            mutation=mutation,
            action=action,
            accepted=self._accepted,
            witness=self._witness,
            flipped=flipped,
        )

    def run_stream(self, mutations: Sequence[Mutation]) -> List[StepRecord]:
        """Apply a whole mutation sequence; returns the step records."""
        return [self.apply(m) for m in mutations]

    # ------------------------------------------------------------------
    def _export_step(self, action: str, hit_kind, flipped: bool) -> None:
        """Record one step's decision in the telemetry registry."""
        tel = self._telemetry
        tel.counter(
            "repro_monitor_steps_total",
            "Monitor steps processed, by decision-table action.",
            ("action",),
        ).inc(action=action)
        if hit_kind is not None:
            tel.counter(
                "repro_monitor_cache_hits_total",
                "Cache-hit steps, by decision-table row.",
                ("kind",),
            ).inc(kind=hit_kind)
        if action == FULL_RETEST:
            tel.counter(
                "repro_monitor_full_redetects_total",
                "Witness-destroying deletions forcing full re-detection.",
            ).inc()
        if flipped:
            tel.counter(
                "repro_monitor_verdict_flips_total",
                "Steps at which the cached verdict changed.",
            ).inc()

    def _witness_uses(self, edge: Tuple[int, int]) -> bool:
        """Whether the cached witness cycle traverses ``edge``."""
        if self._witness is None:  # pragma: no cover - guarded by caller
            return False
        cycle = self._witness
        k = len(cycle)
        target = edge if edge[0] < edge[1] else (edge[1], edge[0])
        for i in range(k):
            u, v = cycle[i], cycle[(i + 1) % k]
            if ((u, v) if u < v else (v, u)) == target:
                return True
        return False

    def _full_redetect(self) -> Tuple[bool, Optional[Tuple[int, ...]]]:
        """From-scratch detection at the current version's step seed."""
        with self._telemetry.span(
            "monitor.full_redetect", version=self.version
        ):
            return full_redetect(
                self.graph,
                self.k,
                engine=self.engine,
                seed=self.step_seed(self.version),
                epsilon=self.epsilon,
                tester_repetitions=self.tester_repetitions,
                faults=self._faults,
                telemetry=self._telemetry,
            )

    def __repr__(self) -> str:
        verdict = "accept" if self._accepted else "reject"
        return (
            f"CkMonitor(k={self.k}, {verdict}, version={self.version}, "
            f"hits={self.stats.cache_hits}/{self.stats.steps})"
        )

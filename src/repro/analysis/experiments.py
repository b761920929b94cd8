"""Experiment runners behind the benchmark suite (DESIGN.md §4).

Each ``run_*`` function performs one experiment and returns structured
rows plus a rendered :class:`~repro.analysis.tables.Table`, so benchmarks,
examples, the CLI and EXPERIMENTS.md all share a single implementation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.naive import naive_detect_cycle_through_edge
from ..core.algorithm1 import detect_cycle_through_edge, phase2_rounds
from ..core.bounds import (
    exact_distinct_rank_probability,
    lemma3_bound,
    lemma5_bound,
    max_sequences_any_round,
    repetitions_needed,
    rounds_per_repetition,
)
from ..core.tester import CkFreenessTester
from ..graphs import generators
from ..graphs.behrend import behrend_cycle_graph
from ..graphs.cycles import has_cycle_through_edge
from ..graphs.farness import greedy_cycle_packing, lemma4_bound
from ..graphs.graph import Graph
from .tables import Table

__all__ = [
    "ExperimentResult",
    "wilson_interval",
    "run_round_complexity",
    "run_message_bound",
    "run_detection_rates",
    "run_phase1_statistics",
    "run_farness_packing",
    "run_pruning_vs_naive",
    "run_through_edge_exactness",
    "run_scalability",
]


@dataclass
class ExperimentResult:
    """Uniform container: named rows plus a rendered table."""

    experiment: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    table: Optional[Table] = None

    def render(self) -> str:
        """Rendered table plus any notes, ready for printing."""
        return self.table.render() if self.table is not None else self.experiment


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, centre - half), min(1.0, centre + half))


# ---------------------------------------------------------------------------
# T1 — round complexity (Theorem 1)
# ---------------------------------------------------------------------------
def run_round_complexity(
    *,
    ns: Sequence[int] = (64, 128, 256, 512, 1024),
    ks: Sequence[int] = (3, 4, 5, 6, 7, 8),
    epsilons: Sequence[float] = (0.05, 0.1, 0.2, 0.4),
) -> ExperimentResult:
    """Theorem 1: total rounds = reps(ε) · (1 + ⌊k/2⌋) — independent of n.

    Round counts in this model are *deterministic functions* of (k, ε), so
    the table simply tabulates the protocol arithmetic next to an actual
    simulated run to confirm the simulator agrees.
    """
    table = Table(
        ["n", "k", "eps", "reps", "rounds/rep", "total rounds", "simulated"],
        title="T1 - Theorem 1 round complexity (constant in n, O(1/eps))",
    )
    result = ExperimentResult("T1", table=table)
    for eps in epsilons:
        reps = repetitions_needed(eps)
        for k in ks:
            per = rounds_per_repetition(k)
            for n in ns:
                g, _ = generators.planted_epsilon_far_graph(
                    n, k, min(eps, 0.5 / k), seed=0
                )
                tester = CkFreenessTester(k, eps, repetitions=1)
                run = tester.run(g, seed=1, keep_traces=True)
                simulated = run.traces[0].num_rounds if run.traces else per
                table.add_row(n, k, eps, reps, per, reps * per, simulated)
                result.rows.append(
                    dict(n=n, k=k, eps=eps, reps=reps, per=per,
                         total=reps * per, simulated=simulated)
                )
    return result


# ---------------------------------------------------------------------------
# T2 — Lemma 3 message-size bound
# ---------------------------------------------------------------------------
def _message_bound_instances(
    k: int, scale: int
) -> List[Tuple[str, Graph, Tuple[int, int]]]:
    """Stress instances with many overlapping candidate paths."""
    out: List[Tuple[str, Graph, Tuple[int, int]]] = []
    flower = generators.flower_graph(scale, k)
    out.append((f"flower({scale})", flower, (0, 1)))
    blow = generators.blowup_graph(min(scale, 8), k)
    out.append((f"blowup({min(scale, 8)})", blow, (0, 1)))
    if k >= 4:
        theta = generators.theta_graph(scale, max(2, k // 2))
        edge = (0, 2) if theta.has_edge(0, 2) else next(iter(theta.edges()))
        out.append((f"theta({scale})", theta, edge))
    if k >= 3:
        m_part = max(3, scale)
        bg, planted = behrend_cycle_graph(m_part, k)
        if planted:
            c = planted[0]
            out.append((f"behrend({m_part})", bg, (c[0], c[1])))
    er = generators.erdos_renyi_gnp(8 * scale, min(0.5, 4.0 / scale), seed=3)
    if er.m:
        out.append(("gnp", er, next(iter(er.edges()))))
    return out


def run_message_bound(
    *, ks: Sequence[int] = (4, 5, 6, 7, 8, 9), scale: int = 12
) -> ExperimentResult:
    """Lemma 3: per-message sequence count <= (k-t+1)^(t-1) at round t."""
    table = Table(
        ["k", "instance", "edges", "max seqs (measured)", "bound max_t", "ok"],
        title="T2 - Lemma 3 per-message sequence bound",
    )
    result = ExperimentResult("T2", table=table)
    for k in ks:
        for name, g, edge in _message_bound_instances(k, scale):
            det = detect_cycle_through_edge(g, edge, k)
            measured_by_round = det.run.trace.max_sequences_by_round()
            ok = all(
                measured_by_round[t - 1] <= lemma3_bound(k, t)
                for t in range(1, phase2_rounds(k) + 1)
            )
            measured = det.run.trace.max_sequences_per_message
            bound = max_sequences_any_round(k)
            table.add_row(k, name, g.m, measured, bound, ok)
            result.rows.append(
                dict(k=k, instance=name, m=g.m, measured=measured,
                     bound=bound, ok=ok, by_round=measured_by_round)
            )
    return result


# ---------------------------------------------------------------------------
# T3 — detection rates (Lemma 2 + Theorem 1)
# ---------------------------------------------------------------------------
def run_detection_rates(
    *,
    k: int = 5,
    eps: float = 0.1,
    n: int = 120,
    trials: int = 40,
    seed: int = 0,
    repetitions: Optional[int] = None,
) -> ExperimentResult:
    """1-sidedness on Ck-free inputs; >=2/3 rejection on ε-far inputs."""
    rng = np.random.default_rng(seed)
    tester = CkFreenessTester(k, eps, repetitions=repetitions)

    free_accepts = 0
    for t in range(trials):
        g = generators.ck_free_graph(n, k, seed=int(rng.integers(2**31)))
        res = tester.run(g, seed=int(rng.integers(2**31)))
        free_accepts += int(res.accepted)

    far_rejects = 0
    for t in range(trials):
        g, _ = generators.planted_epsilon_far_graph(
            n, k, eps, seed=int(rng.integers(2**31))
        )
        res = tester.run(g, seed=int(rng.integers(2**31)))
        far_rejects += int(res.rejected)

    lo_free, hi_free = wilson_interval(free_accepts, trials)
    lo_far, hi_far = wilson_interval(far_rejects, trials)
    table = Table(
        ["input class", "trials", "outcome rate", "95% CI", "paper guarantee"],
        title=f"T3 - detection rates (k={k}, eps={eps}, n={n}, "
        f"reps={tester.repetitions})",
    )
    table.add_row(
        "Ck-free (accept)", trials, free_accepts / trials,
        f"[{lo_free:.3f},{hi_free:.3f}]", "= 1 (1-sided)"
    )
    table.add_row(
        "eps-far (reject)", trials, far_rejects / trials,
        f"[{lo_far:.3f},{hi_far:.3f}]", ">= 2/3"
    )
    result = ExperimentResult("T3", table=table)
    result.rows = [
        dict(cls="free", rate=free_accepts / trials, lo=lo_free, hi=hi_free),
        dict(cls="far", rate=far_rejects / trials, lo=lo_far, hi=hi_far),
    ]
    return result


# ---------------------------------------------------------------------------
# T4 — Phase 1 statistics (Lemma 5)
# ---------------------------------------------------------------------------
def run_phase1_statistics(
    *, ms: Sequence[int] = (4, 16, 64, 256, 1024), trials: int = 4000, seed: int = 0
) -> ExperimentResult:
    """Lemma 5: P[all m ranks distinct] >= 1/e²; empirical check.

    The empirical column draws the protocol's own ranks: per trial, one
    repetition seed of the master ``seed`` (as the tester derives them)
    and :func:`~repro.core.phase1.edge_ranks` over the ``m`` edges of a
    path.
    """
    from ..core.phase1 import edge_ranks

    rep_seeds = np.random.SeedSequence(seed).generate_state(trials).tolist()
    table = Table(
        ["m", "trials", "P[distinct] empirical", "exact", "lemma5 bound", "ok"],
        title="T4 - Lemma 5 rank-collision statistics",
    )
    result = ExperimentResult("T4", table=table)
    for m in ms:
        a = np.arange(m, dtype=np.int64)
        hits = 0
        for rep_seed in rep_seeds:
            ranks = edge_ranks(rep_seed, a, a + 1, m)
            hits += int(len(np.unique(ranks)) == m)
        emp = hits / trials
        exact = exact_distinct_rank_probability(m)
        ok = exact >= lemma5_bound()
        table.add_row(m, trials, emp, exact, lemma5_bound(), ok)
        result.rows.append(dict(m=m, empirical=emp, exact=exact, ok=ok))
    return result


# ---------------------------------------------------------------------------
# T5 — Lemma 4 packing
# ---------------------------------------------------------------------------
def run_farness_packing(
    *,
    k: int = 5,
    eps: float = 0.1,
    ns: Sequence[int] = (50, 100, 200, 400),
    seed: int = 0,
) -> ExperimentResult:
    """Lemma 4: ε-far graphs carry >= εm/k edge-disjoint k-cycles."""
    table = Table(
        ["n", "m", "certified eps", "packing found", "lemma4 bound", "ok"],
        title=f"T5 - Lemma 4 edge-disjoint packing (k={k}, target eps={eps})",
    )
    result = ExperimentResult("T5", table=table)
    for n in ns:
        g, certified = generators.planted_epsilon_far_graph(n, k, eps, seed=seed)
        packing = greedy_cycle_packing(g, k)
        bound = lemma4_bound(g.m, k, certified)
        ok = len(packing) >= bound - 1e-9
        table.add_row(n, g.m, certified, len(packing), bound, ok)
        result.rows.append(
            dict(n=n, m=g.m, certified=certified, packing=len(packing),
                 bound=bound, ok=ok)
        )
    return result


# ---------------------------------------------------------------------------
# F1 — pruning vs naive forwarding
# ---------------------------------------------------------------------------
def run_pruning_vs_naive(
    *,
    k: int = 9,
    widths: Sequence[int] = (2, 4, 6, 8),
    cap: int = 10_000,
) -> ExperimentResult:
    """Fig.-1 discussion: naive forwarding blows up where pruning stays
    within the Lemma-3 constant.

    Uses the layered :func:`repro.graphs.generators.blowup_graph`, where a
    layer-t vertex legitimately lies on ``width^(t-1)`` distinct candidate
    paths from the probe edge.  The naive forwarder ships all of them; the
    pruned algorithm ships at most ``(k-t+1)^(t-1)`` and still detects.
    """
    table = Table(
        ["width", "m", "naive max seqs", "pruned max seqs", "lemma3 bound",
         "both detect"],
        title=f"F1 - pruned vs naive message load on blowup graphs (k={k})",
    )
    result = ExperimentResult("F1", table=table)
    for w in widths:
        g = generators.blowup_graph(w, k)
        edge = (0, 1)
        truth = has_cycle_through_edge(g, edge, k)
        naive = naive_detect_cycle_through_edge(g, edge, k, max_sequences_cap=cap)
        pruned = detect_cycle_through_edge(g, edge, k)
        bound = max_sequences_any_round(k)
        table.add_row(
            w, g.m,
            f"{naive.max_sequences_per_message}{'(cap)' if naive.cap_tripped else ''}",
            pruned.run.trace.max_sequences_per_message,
            bound,
            (naive.detected == truth) and (pruned.detected == truth),
        )
        result.rows.append(
            dict(width=w, m=g.m, naive=naive.max_sequences_per_message,
                 pruned=pruned.run.trace.max_sequences_per_message,
                 bound=bound, truth=truth,
                 naive_ok=naive.detected == truth,
                 pruned_ok=pruned.detected == truth)
        )
    return result


# ---------------------------------------------------------------------------
# F2 — exact through-edge detection
# ---------------------------------------------------------------------------
def run_through_edge_exactness(
    *,
    ks: Sequence[int] = (3, 4, 5, 6, 7, 8, 9, 10),
    n: int = 60,
    trials_per_k: int = 10,
    seed: int = 0,
) -> ExperimentResult:
    """§1.2: Phase 2 detects even a single planted cycle, deterministically."""
    rng = np.random.default_rng(seed)
    table = Table(
        ["k", "trials", "detected", "false positives"],
        title="F2 - deterministic through-edge detection of a single planted cycle",
    )
    result = ExperimentResult("F2", table=table)
    for k in ks:
        found = 0
        false_pos = 0
        for _ in range(trials_per_k):
            g, cyc = generators.planted_cycle_graph(
                n, k, seed=int(rng.integers(2**31)), extra_edge_prob=0.02
            )
            edge = (cyc[0], cyc[1])
            det = detect_cycle_through_edge(g, edge, k)
            found += int(det.detected)
            # Also probe a tree-ish control: remove one cycle edge.
            h = g.copy()
            h.remove_edge(cyc[2], cyc[3] if k > 3 else cyc[0])
            if not has_cycle_through_edge(h, edge, k):
                if detect_cycle_through_edge(h, edge, k).detected:
                    false_pos += 1
        table.add_row(k, trials_per_k, found, false_pos)
        result.rows.append(
            dict(k=k, trials=trials_per_k, detected=found, false_pos=false_pos)
        )
    return result


# ---------------------------------------------------------------------------
# F3 — simulator scalability
# ---------------------------------------------------------------------------
def run_scalability(
    *,
    k: int = 5,
    ns: Sequence[int] = (100, 200, 400, 800, 1600),
    avg_degree: float = 4.0,
    seed: int = 0,
) -> ExperimentResult:
    """Wall-clock per simulated round vs network size (one repetition)."""
    table = Table(
        ["n", "m", "rounds", "wall s", "s/round", "s/(round*m) x1e6"],
        title=f"F3 - simulator scaling (k={k}, one tester repetition)",
    )
    result = ExperimentResult("F3", table=table)
    for n in ns:
        m_target = int(avg_degree * n / 2)
        g = generators.erdos_renyi_gnm(n, m_target, seed=seed)
        tester = CkFreenessTester(k, 0.1, repetitions=1)
        t0 = time.perf_counter()
        run = tester.run(g, seed=seed, keep_traces=True)
        dt = time.perf_counter() - t0
        rounds = run.traces[0].num_rounds if run.traces else rounds_per_repetition(k)
        per_round = dt / max(rounds, 1)
        table.add_row(n, g.m, rounds, dt, per_round, per_round / max(g.m, 1) * 1e6)
        result.rows.append(
            dict(n=n, m=g.m, rounds=rounds, seconds=dt, per_round=per_round)
        )
    return result

"""Bit-identity of the tester across engines.

The engines are interchangeable: under a fixed seed, ``reference`` and
``fast`` must produce the same verdict, the same per-repetition reports
and evidence, the same trace aggregates, and the same protocol-level
telemetry counters.  This module pins that contract down to byte
equality of the full result fingerprint.
"""

import pytest

from repro.core.tester import CkFreenessTester
from repro.graphs.generators import ck_free_graph, planted_epsilon_far_graph
from repro.obs import Telemetry

K = 5
EPS = 0.1
REPS = 6
SEED = 1234

ENGINES = ("reference", "fast")


def _graph(name):
    if name == "far":
        g, _ = planted_epsilon_far_graph(60, K, EPS, seed=3)
        return g
    return ck_free_graph(60, K, seed=4)


def _run(engine, graph):
    tel = Telemetry()
    tester = CkFreenessTester(
        K, EPS, repetitions=REPS, engine=engine, telemetry=tel
    )
    res = tester.run(graph, seed=SEED, stop_on_reject=False, keep_traces=True)
    return res, tel.summary()


def _fingerprint(res):
    """Everything observable about a TesterResult, as one comparable value."""
    return (
        res.accepted,
        res.repetitions_run,
        res.repetitions_planned,
        res.rounds_per_repetition,
        tuple(
            (
                r.index,
                r.rejected,
                r.cycle_ids,
                tuple(r.rejecting_vertices),
                r.rounds,
            )
            for r in res.reports
        ),
        tuple(tuple(sorted(t.summary().items())) for t in res.traces),
    )


def _normalise(summary, engine):
    """Summary keys with engine labels folded to a placeholder (the
    backend name is presentation, not protocol)."""
    return {
        key.replace(engine, "<engine>"): value
        for key, value in summary.items()
    }


@pytest.mark.parametrize("name", ["far", "free"])
def test_grid_bit_identity(name):
    graph = _graph(name)
    fingerprints = {}
    summaries = {}
    for engine in ENGINES:
        res, summary = _run(engine, graph)
        fingerprints[engine] = _fingerprint(res)
        summaries[engine] = _normalise(summary, engine)

    base, other = ENGINES
    assert fingerprints[other] == fingerprints[base], (
        f"result fingerprint diverged: {other} vs {base}"
    )
    assert summaries[other] == summaries[base], (
        f"telemetry summary diverged: {other} vs {base}"
    )

    # The verdict matches the instance by construction.
    assert fingerprints[base][0] is (name == "free")

"""Bit-identity of the tester across engines and the compiled-instance cache.

The compiled-instance cache (:class:`~repro.congest.engine.cache.EngineCache`)
is a *transparent* optimisation, and the engines are interchangeable:
under a fixed seed, every cell of the

    ``cache in {off, on}  x  engine``

grid must produce the same verdict, the same per-repetition reports and
evidence, the same trace aggregates, and the same protocol-level
telemetry counters.  This module pins that contract down to byte
equality of the full result fingerprint.
"""

import pytest

from repro.congest.engine.cache import EngineCache
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


def _run(engine, graph, cache):
    tel = Telemetry()
    tester = CkFreenessTester(
        K, EPS, repetitions=REPS, engine=engine, telemetry=tel, cache=cache
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
    cache = EngineCache()
    fingerprints = {}
    summaries = {}
    for engine in ENGINES:
        for cached in (False, True):
            res, summary = _run(engine, graph, cache if cached else None)
            cell = (engine, cached)
            fingerprints[cell] = _fingerprint(res)
            summaries[cell] = _normalise(summary, engine)

    cells = list(fingerprints)
    base = cells[0]
    for cell in cells[1:]:
        assert fingerprints[cell] == fingerprints[base], (
            f"result fingerprint diverged: {cell} vs {base}"
        )
        assert summaries[cell] == summaries[base], (
            f"telemetry summary diverged: {cell} vs {base}"
        )

    # The verdict matches the instance by construction.
    assert fingerprints[base][0] is (name == "free")

    # The shared cache actually carried the load: one compile per
    # engine, every later cached run a hit.
    assert cache.misses == len(ENGINES)
    assert cache.hits == 0


@pytest.mark.parametrize("engine", ["fast"])
def test_warm_cache_hits_are_identical(engine):
    """A second cached run is served from cache and still bit-identical."""
    graph = _graph("far")
    cache = EngineCache()
    first, tel_first = _run(engine, graph, cache)
    second, tel_second = _run(engine, graph, cache)
    assert cache.misses == 1 and cache.hits == 1
    assert _fingerprint(first) == _fingerprint(second)
    assert _normalise(tel_first, engine) == _normalise(tel_second, engine)

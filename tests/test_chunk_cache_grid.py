"""Bit-identity of the tester across the performance axes.

The batched-repetition kernels (``chunk=C`` engine-spec option) and the
compiled-instance cache (:class:`~repro.congest.engine.cache.EngineCache`)
are *transparent* optimisations: under a fixed seed, every cell of the

    ``rep_chunk in {1, 3, R}  x  cache in {off, on}  x  engine family``

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

FAMILIES = ("reference", "fast")
CHUNKS = (1, 3, REPS)


def _graph(name):
    if name == "far":
        g, _ = planted_epsilon_far_graph(60, K, EPS, seed=3)
        return g
    return ck_free_graph(60, K, seed=4)


def _specs(family):
    """Every spec spelling of ``family`` on the chunk axis.

    ``reference`` takes no options (its repetitions are inherently
    serial), so its chunk axis collapses to the bare name.
    """
    if family == "reference":
        return ("reference",)
    return tuple(f"fast:chunk={c}" for c in CHUNKS)


def _run(spec, graph, cache):
    tel = Telemetry()
    tester = CkFreenessTester(
        K, EPS, repetitions=REPS, engine=spec, telemetry=tel, cache=cache
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


def _normalise(summary, spec, family):
    """Summary keys with engine labels folded to a placeholder.

    Tester counters are labelled with the full spec string
    (``engine=fast:chunk=3``) and trace exports with the backend name
    (``engine=fast``); both are presentation, not protocol.
    """
    return {
        key.replace(spec, "<engine>").replace(family, "<engine>"): value
        for key, value in summary.items()
    }


@pytest.mark.parametrize("name", ["far", "free"])
def test_grid_bit_identity(name):
    graph = _graph(name)
    cache = EngineCache()
    fingerprints = {}
    summaries = {}
    for family in FAMILIES:
        for spec in _specs(family):
            for cached in (False, True):
                res, summary = _run(spec, graph, cache if cached else None)
                cell = (family, spec, cached)
                fingerprints[cell] = _fingerprint(res)
                summaries[cell] = _normalise(summary, spec, family)

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
    # (spec, strictness) pair, every later cached run a hit.
    assert cache.misses == sum(len(_specs(f)) for f in FAMILIES)
    assert cache.hits == 0


@pytest.mark.parametrize("family", ["fast"])
def test_warm_cache_hits_are_identical(family):
    """A second cached run is served from cache and still bit-identical."""
    graph = _graph("far")
    cache = EngineCache()
    spec = _specs(family)[1]  # chunk=3
    first, tel_first = _run(spec, graph, cache)
    second, tel_second = _run(spec, graph, cache)
    assert cache.misses == 1 and cache.hits == 1
    assert _fingerprint(first) == _fingerprint(second)
    assert _normalise(tel_first, spec, family) == _normalise(
        tel_second, spec, family
    )

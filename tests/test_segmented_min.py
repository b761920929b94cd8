"""Oracle tests for the fast engine's §3.1 priority-rule kernels.

:func:`~repro.congest.engine.fast.segmented_min` and
:func:`~repro.congest.engine.fast.priority_mux` replace a per-round sort
with per-row ``np.minimum.reduceat`` passes.  Here they are checked
against a brute-force per-node lexicographic minimum on random CSR
graphs that have isolated vertices at the first, a middle and the last
row, ranks from a tiny range (ties that only the edge index breaks),
and nodes none of whose neighbours send.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.engine.fast import _INF, priority_mux, segmented_min

INF = int(_INF)


@st.composite
def csr_instances(draw):
    """A random graph in the fast engine's CSR layout, plus tags."""
    n = draw(st.integers(min_value=5, max_value=14))
    isolated = {0, n // 2, n - 1}
    core = [v for v in range(n) if v not in isolated]
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(core), st.sampled_from(core)),
            max_size=3 * n,
        )
    )
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    adj = [sorted(w for e in edges for w in e if v in e and w != v)
           for v in range(n)]
    indptr = np.concatenate(([0], np.cumsum([len(a) for a in adj])))
    he_src = np.repeat(np.arange(n), [len(a) for a in adj])
    he_dst = np.array([w for a in adj for w in a], dtype=np.int64)
    edge_index = {e: i for i, e in enumerate(edges)}
    he_edge = np.array(
        [edge_index[(min(v, w), max(v, w))] for v, w in zip(he_src, he_dst)],
        dtype=np.int64,
    )
    m = max(len(edges), 1)
    return {
        "n": n,
        "indptr": indptr,
        "he_src": he_src,
        "he_dst": he_dst,
        "he_edge": he_edge,
        "adj": adj,
        "edge_of": lambda v, w: edge_index[(min(v, w), max(v, w))],
        # Ranks in {1, 2}: most minima are ties broken by the edge.
        "edge_rank": rng.integers(1, 3, size=m),
        "R": rng.integers(1, 3, size=n),
        "E": rng.integers(0, m, size=n),
        # Sparse senders: many nodes hear from no neighbour at all.
        "sending": rng.random(n) < 0.3,
    }


def _segments(inst):
    """``(starts, rows)`` of the non-empty CSR rows."""
    indptr = inst["indptr"]
    rows = np.nonzero(np.diff(indptr) > 0)[0]
    return indptr[rows], rows


SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(csr_instances())
def test_segmented_min_is_the_minimum_incident_tag(inst):
    n = inst["n"]
    starts, rows = _segments(inst)
    he_edge = inst["he_edge"]
    no_tag = np.full(n, INF, dtype=np.int64)
    best_r, best_e = segmented_min(
        inst["edge_rank"][he_edge], he_edge, starts, rows, no_tag, no_tag,
    )
    for v in range(n):
        tags = [
            (int(inst["edge_rank"][inst["edge_of"](v, w)]),
             inst["edge_of"](v, w))
            for w in inst["adj"][v]
        ]
        expected = min(tags) if tags else (INF, INF)
        assert (best_r[v], best_e[v]) == expected


@SETTINGS
@given(csr_instances())
def test_priority_mux_matches_brute_force(inst):
    n = inst["n"]
    R, E, sending = inst["R"], inst["E"], inst["sending"]
    starts, rows = _segments(inst)
    src, dst = inst["he_src"], inst["he_dst"]
    best_r, best_e, matches = priority_mux(R, E, sending, src, dst, starts, rows)
    assert best_r.shape == best_e.shape == (n,)
    assert matches.shape == (len(src),)
    best = {}
    for v in range(n):
        tags = [(R[v], E[v])] + [
            (R[w], E[w]) for w in inst["adj"][v] if sending[w]
        ]
        best[v] = min(tags)
        assert (best_r[v], best_e[v]) == best[v]
    for h, (v, w) in enumerate(zip(src, dst)):
        survives = bool(sending[w]) and (R[w], E[w]) == best[v]
        assert matches[h] == survives

"""Oracle tests for the fast engine's §3.1 priority-rule kernels.

:func:`~repro.congest.engine.fast.segmented_min` and
:func:`~repro.congest.engine.fast.priority_mux` replace a per-round sort
with one ``np.minimum.reduceat`` pass over int64 tags that order as
``(rank, edge)`` pairs.  Here they are checked against a brute-force
per-node minimum over those pairs on random CSR graphs that have
isolated vertices at the first, a middle and the last row, ranks from
{1, 2} (ties that only the edge index breaks), and nodes none of whose
neighbours send — on both tag branches: ``rank·m + edge`` and dense
positions from a stable sort, forced by lowering ``_PACKED_MAX_M``.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.engine import fast
from repro.congest.engine.fast import _INF, priority_mux, segmented_min

INF = int(_INF)

#: ``_PACKED_MAX_M`` values selecting each tag branch for m >= 1:
#: ``rank·m + edge``, then dense positions.
LIMITS = (fast._PACKED_MAX_M, 0)


def _tags(rank, limit):
    """The engine's tags of ``rank`` with ``_PACKED_MAX_M = limit``."""
    with mock.patch.object(fast, "_PACKED_MAX_M", limit):
        return fast._edge_tags(rank)


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
    m = len(edges)
    # Most nodes hold some edge's tag; isolated ones and a few others
    # hold none (-1) and never send.  Sparse senders leave many nodes
    # hearing from no one.
    own_edge = rng.integers(0, m, size=n) if m else np.full(n, -1)
    own_edge[sorted(isolated)] = -1
    own_edge[rng.random(n) < 0.15] = -1
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
        "own_edge": own_edge,
        "sending": (rng.random(n) < 0.3) & (own_edge >= 0),
    }


def _segments(inst):
    """``(starts, rows)`` of the non-empty CSR rows."""
    indptr = inst["indptr"]
    rows = np.nonzero(np.diff(indptr) > 0)[0]
    return indptr[rows], rows


def _pair(inst, e):
    """Edge ``e``'s ``(rank, edge)`` pair: the order tags must keep."""
    return int(inst["edge_rank"][e]), int(e)


SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(rank=st.lists(st.integers(1, 2), max_size=60))
def test_tags_are_injective_and_keep_rank_edge_order(rank):
    rank = np.array(rank, dtype=np.int64)
    m = len(rank)
    # Sorting by tag is sorting by (rank, edge).
    order = sorted(range(m), key=lambda e: (rank[e], e))
    for limit in LIMITS:
        tags = _tags(rank, limit)
        assert tags.dtype == np.int64 and tags.shape == (m,)
        assert len(set(tags.tolist())) == m
        assert ((tags >= 0) & (tags < INF)).all()
        assert np.argsort(tags).tolist() == order


def test_packing_limit_is_the_largest_m_below_the_sentinel():
    m = fast._PACKED_MAX_M
    assert m**3 + m < INF <= (m + 1) ** 3 + (m + 1)


def test_branches_meet_at_the_packing_limit():
    """The limit itself packs (its largest rank m² included, below the
    sentinel); one more edge takes dense positions in the same order."""
    m = fast._PACKED_MAX_M
    rank = np.random.default_rng(7).integers(1, 3, size=m + 1)
    rank[m - 1] = m * m
    packed = fast._edge_tags(rank[:m])
    assert (packed == rank[:m] * m + np.arange(m)).all()
    assert packed[m - 1] == m**3 + m - 1 < INF
    dense = fast._edge_tags(rank)
    assert (np.sort(dense) == np.arange(m + 1)).all()
    # The extra edge has the largest index, so dropping it from the dense
    # order leaves the packed order.
    order = np.argsort(dense)
    assert (order[order < m] == np.argsort(packed)).all()


@SETTINGS
@given(inst=csr_instances())
def test_segmented_min_is_the_minimum_incident_tag(inst):
    n = inst["n"]
    starts, rows = _segments(inst)
    for limit in LIMITS:
        tags = _tags(inst["edge_rank"], limit)
        best = segmented_min(
            tags[inst["he_edge"]], starts, rows, np.full(n, INF, dtype=np.int64)
        )
        for v in range(n):
            incident = [inst["edge_of"](v, w) for w in inst["adj"][v]]
            if incident:
                e = min(incident, key=lambda e: _pair(inst, e))
                assert best[v] == tags[e]
            else:
                assert best[v] == INF


@SETTINGS
@given(inst=csr_instances())
def test_priority_mux_matches_brute_force(inst):
    n, m = inst["n"], len(inst["edge_rank"])
    own, sending = inst["own_edge"], inst["sending"]
    starts, rows = _segments(inst)
    src, dst = inst["he_src"], inst["he_dst"]
    winner = {}
    for v in range(n):
        held = [own[v]] + [own[w] for w in inst["adj"][v] if sending[w]]
        held = [e for e in held if e >= 0]
        winner[v] = min(held, key=lambda e: _pair(inst, e)) if held else -1
    for limit in LIMITS:
        tags = _tags(inst["edge_rank"], limit)
        T = np.where(own >= 0, tags[own] if m else INF, INF)
        best, matches = priority_mux(T, sending, src, dst, starts, rows)
        assert best.shape == (n,)
        assert matches.shape == (len(src),)
        for v in range(n):
            assert best[v] == (tags[winner[v]] if winner[v] >= 0 else INF)
        for h, (v, w) in enumerate(zip(src, dst)):
            survives = bool(sending[w]) and own[w] == winner[v]
            assert matches[h] == survives

"""Oracle tests for the fast engine's tester kernels.

:func:`~repro.congest.engine.fast.segmented_min` and
:func:`~repro.congest.engine.fast.priority_mux` replace a per-round sort
with one ``np.minimum.at`` scatter over int64 tags that order as
``(rank, edge)`` pairs.  Here they are checked against a brute-force
per-node minimum over those pairs on random CSR graphs that have
isolated vertices at the first, a middle and the last row, ranks from
{1, 2} (ties that only the edge index breaks), and nodes none of whose
neighbours send — on both tag branches: ``rank·m + edge`` and dense
positions from a stable sort, forced by lowering ``_PACKED_MAX_M``.

The round-2 closed form (``FastEngine._seed_round``) is checked against
"each node's first ``k − 1`` matched neighbours by ID" under every ID
assigner, and the decision (``FastEngine._decide``), which scatters
first-ID ranges instead of delivering rows, against the materialised
path: every row delivered, the Lemma-1 ranges taken over them, and
:func:`~repro.core.algorithm1.find_detection_evidence` run at the nodes
that pass.
"""

from unittest import mock

import numpy as np
import pytest
from helpers import graphs
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.engine import fast
from repro.congest.engine.fast import _INF, FastEngine, priority_mux, segmented_min
from repro.congest.ids import (
    IdentityIds,
    RandomPermutationIds,
    ReverseIds,
    SpreadIds,
)
from repro.congest.network import Network
from repro.core import algorithm1
from repro.core.sequences import sort_sequences
from repro.graphs.generators import erdos_renyi_gnp

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
    for limit in LIMITS:
        tags = _tags(inst["edge_rank"], limit)
        best = segmented_min(
            tags[inst["he_edge"]], inst["he_src"], np.full(n, INF, dtype=np.int64)
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
    src, dst = inst["he_src"], inst["he_dst"]
    winner = {}
    for v in range(n):
        held = [own[v]] + [own[w] for w in inst["adj"][v] if sending[w]]
        held = [e for e in held if e >= 0]
        winner[v] = min(held, key=lambda e: _pair(inst, e)) if held else -1
    for limit in LIMITS:
        tags = _tags(inst["edge_rank"], limit)
        T = np.where(own >= 0, tags[own] if m else INF, INF)
        best, matches = priority_mux(T, sending, src, dst)
        assert best.shape == (n,)
        assert matches.shape == (len(src),)
        for v in range(n):
            assert best[v] == (tags[winner[v]] if winner[v] >= 0 else INF)
        for h, (v, w) in enumerate(zip(src, dst)):
            survives = bool(sending[w]) and own[w] == winner[v]
            assert matches[h] == survives


ASSIGNERS = {
    "identity": lambda seed: IdentityIds(),
    "reverse": lambda seed: ReverseIds(),
    "spread": lambda seed: SpreadIds(),
    "random": lambda seed: RandomPermutationIds(seed=seed),
}


@SETTINGS
@given(
    g=graphs(n_lo=1, n_hi=12),
    assigner=st.sampled_from(sorted(ASSIGNERS)),
    k=st.integers(4, 8),
    data=st.data(),
)
def test_seed_round_sends_the_first_matched_neighbours_by_id(g, assigner, k, data):
    net = Network(g, ASSIGNERS[assigner](data.draw(st.integers(0, 2**32 - 1))))
    eng = FastEngine(net)
    ids = net.ids()
    indptr, indices = g.to_csr()
    matched = np.array(
        data.draw(st.lists(st.booleans(), min_size=len(indices),
                           max_size=len(indices))),
        dtype=bool,
    )
    expected_rows, expected_counts = [], []
    for v in range(g.n):
        row = range(indptr[v], indptr[v + 1])
        firsts = sorted(ids[indices[h]] for h in row if matched[h])[: k - 1]
        expected_rows += [[w, ids[v]] for w in firsts]
        expected_counts.append(len(firsts))
    mat, ptr = eng._seed_round(matched, k)
    assert mat.dtype == ptr.dtype == np.int64
    assert mat.reshape(-1, 2).tolist() == expected_rows
    assert np.diff(ptr).tolist() == expected_counts


def _instances(k):
    """Graphs with k-cycles, a vertex of degree one and isolated
    vertices, each under two ID assigners."""
    out = []
    for i, (n, p) in enumerate(((14, 0.3), (22, 0.2), (30, 0.14))):
        g = erdos_renyi_gnp(n, p, seed=100 * k + i)
        leaf = g.add_vertex()
        g.add_edge(0, leaf, strict=False)
        g.add_vertex()
        g.add_vertex()
        out += [Network(g), Network(g, RandomPermutationIds(seed=k + i))]
    return out


def _materialised_decision(eng, k, matched, sent, stale, evidence):
    """The decision with every row delivered: ``(calls, found,
    unfiltered, received)``.

    ``calls`` lists the ``find_detection_evidence`` arguments at the
    nodes whose Lemma-1 ranges over the delivered rows pass, ``found``
    their rejects, and ``unfiltered`` the rejects of every node that
    receives anything."""
    ids = eng.network.ids()
    recv = eng._gather(matched, sent)
    lo, hi = eng._first_id_range(recv)
    own_lo, own_hi = eng._first_id_range(sent)
    for pool, p_lo, p_hi in ((recv, lo, hi), (sent, own_lo, own_hi)):
        for v in range(len(ids)):
            firsts = [row[0] for row in eng._rows_of(pool, v)]
            assert (p_lo[v], p_hi[v]) == (
                (min(firsts), max(firsts)) if firsts else (np.iinfo(np.int64).max, -1)
            )
    if k % 2 == 0:
        lo = np.where(stale, lo, np.minimum(lo, own_lo))
        hi = np.where(stale, hi, np.maximum(hi, own_hi))
    received = np.diff(recv[1]) > 0
    calls, found, unfiltered = [], {}, {}
    for v in np.flatnonzero(received).tolist():
        args = (
            ids[v],
            k,
            [] if stale[v] else eng._rows_of(sent, v),
            sort_sequences(eng._rows_of(recv, v)),
        )
        cycle = evidence(*args)
        if cycle is not None:
            unfiltered[v] = cycle
        if lo[v] != hi[v]:
            calls.append(args)
            if cycle is not None:
                found[v] = cycle
    return calls, found, unfiltered, received


@pytest.mark.parametrize("limit", LIMITS, ids=["packed", "dense"])
@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_decision_matches_the_materialised_path(monkeypatch, k, limit):
    monkeypatch.setattr(fast, "_PACKED_MAX_M", limit)
    evidence = algorithm1.find_detection_evidence
    calls = []

    def spy(*args):
        calls.append(args)
        return evidence(*args)

    monkeypatch.setattr(algorithm1, "find_detection_evidence", spy)
    decide = FastEngine._decide
    seen = dict(candidates=0, rejects=0, stale_receivers=0, silent=0, isolated=0)

    def checked(self, k, matched, sent, stale):
        calls.clear()
        found = decide(self, k, matched, sent, stale)
        want_calls, want_found, unfiltered, received = _materialised_decision(
            self, k, matched, sent, stale, evidence
        )
        assert calls == want_calls
        assert found == want_found == unfiltered
        seen["candidates"] += len(want_calls)
        seen["rejects"] += len(found)
        seen["stale_receivers"] += int((stale & received).sum())
        seen["silent"] += int((~received).sum())
        seen["isolated"] += int((self._degrees == 0).sum())
        return found

    monkeypatch.setattr(FastEngine, "_decide", checked)
    for net in _instances(k):
        eng = FastEngine(net)
        for seed in range(4):
            eng.run_tester_repetition(k, seed)
    # The grid reaches every case the decision distinguishes.
    assert all(seen.values()), seen

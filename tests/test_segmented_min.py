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

The round-2 closed form (``FastEngine._seed_round``) is checked in real
repetitions, under every ID assigner and both tag branches: each node's
matched senders are at most the two endpoints of its winning tag's
edge, and it forwards their seeds in ID order.  The pruning step that
the tester and the edge-axis scan share
(``FastEngine._edge_round``) is checked against per-group
:func:`~repro.core.algorithm1.process_phase2_round` under the literal
``ExplicitPruner`` on random sorted pools: round-2 groups of
Algorithm-1 shape, any groups at rounds ``t >= 3``.  The decision (``FastEngine._decide``), which
scatters first-ID ranges instead of delivering rows, is checked against
the materialised path: every row delivered, the exact Lemma-1 filter
taken over them, and
:func:`~repro.core.algorithm1.find_detection_evidence` run at every node
that receives anything.
"""

from unittest import mock

import numpy as np
import pytest
from helpers import ID_ASSIGNERS
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest.engine import fast
from repro.congest.engine.fast import _INF, FastEngine, priority_mux, segmented_min
from repro.congest.ids import RandomPermutationIds
from repro.congest.network import Network
from repro.core import algorithm1
from repro.core.pruning import ExplicitPruner
from repro.graphs.generators import erdos_renyi_gnp
from repro.graphs.graph import Graph

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


@st.composite
def seed_round_graphs(draw):
    """A graph anywhere from edgeless to complete, plus up to three
    isolated vertices, with its vertices shuffled."""
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    dense = draw(st.booleans())
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          min_size=len(pairs) // 2 if dense else 0,
                          max_size=len(pairs)))
    total = n + draw(st.integers(0, 3))
    label = draw(st.permutations(range(total)))
    return Graph(total, [(label[u], label[v]) for u, v in edges])


@SETTINGS
@given(
    g=seed_round_graphs(),
    assigner=st.sampled_from(sorted(ID_ASSIGNERS)),
    id_seed=st.integers(0, 2**32 - 1),
    rep_seed=st.integers(0, 2**32 - 1),
)
def test_seed_round_forwards_the_winning_edge_endpoints_by_id(
    g, assigner, id_seed, rep_seed
):
    """Round 2 of a real repetition: the priority rule leaves each node
    at most the two endpoints of its winning tag's edge as matched
    senders, and the closed form forwards each one's seed, in ID order,
    with the node's own ID appended."""
    net = Network(g, ID_ASSIGNERS[assigner](id_seed))
    eng = FastEngine(net)
    ids = net.ids()
    n = g.n
    indptr, indices = g.to_csr()
    table = sorted((min(ids[a], ids[b]), max(ids[a], ids[b])) for a, b in g.edges())
    for limit in LIMITS:
        # T and matched exactly as run_tester_repetition computes them
        # before its round-2 sends.
        tags = _tags(eng._draw_edge_ranks(rep_seed), limit)
        a, b = eng._edge_ends
        T = segmented_min(
            tags, b, segmented_min(tags, a, np.full(n, INF, dtype=np.int64))
        )
        best, matched = priority_mux(T, eng._degrees > 0, eng._he_src,
                                     eng._he_dst)
        edge_of = {tag: e for e, tag in enumerate(tags.tolist())}
        expected_rows, expected_counts = [], []
        for v in range(n):
            senders = sorted(ids[indices[h]]
                             for h in range(indptr[v], indptr[v + 1])
                             if matched[h])
            assert len(senders) <= 2
            if senders:
                assert set(senders) <= set(table[edge_of[int(best[v])]])
            expected_rows += [[w, ids[v]] for w in senders]
            expected_counts.append(len(senders))
        mat, ptr = eng._seed_round(matched)
        assert mat.dtype == ptr.dtype == np.int64
        assert mat.reshape(-1, 2).tolist() == expected_rows
        assert np.diff(ptr).tolist() == expected_counts


@st.composite
def round_pools(draw):
    """A sorted edge pool of round ``t``.

    Several slots, each with a few holders.  At round 2 the groups have
    Algorithm-1 shape (at most the slot's two endpoint singletons); at
    rounds ``t >= 3`` they are any 1–8 distinct rows of ``t − 1``
    distinct IDs, and many rows hold their holder's ID."""
    k = draw(st.integers(4, 9))
    t = draw(st.integers(2, k // 2))
    n = 8
    net = Network(Graph(n), RandomPermutationIds(seed=draw(st.integers(0, 99))))
    ids = net.ids()
    row = st.lists(
        st.sampled_from(ids), min_size=t - 1, max_size=t - 1, unique=True
    ).map(tuple)
    groups = []
    for s in range(draw(st.integers(1, 3))):
        ends = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2,
                             unique=True))
        holders = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=3, unique=True))
        for v in sorted(holders):
            if t == 2:
                rows = draw(st.lists(st.sampled_from(ends), min_size=1,
                                     max_size=2, unique=True))
                rows = [(x,) for x in rows]
            else:
                rows = draw(st.lists(row, min_size=1, max_size=8, unique=True))
            groups.append((s, v, sorted(rows)))
    return FastEngine(net), k, t, groups


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=round_pools())
def test_edge_round_is_per_group_process_phase2_round(case):
    # The oracle is the literal Instructions 15-23 (ExplicitPruner).
    eng, k, t, groups = case
    ids = eng.network.ids()
    slot = [s for s, _, rows in groups for _ in rows]
    holder = [v for _, v, rows in groups for _ in rows]
    mat = [r for _, _, rows in groups for r in rows]
    pool = (
        np.array(slot, dtype=np.int64),
        np.array(holder, dtype=np.int64),
        np.array(mat, dtype=np.int64).reshape(-1, t - 1),
    )
    want_slot, want_holder, want_rows = [], [], []
    for s, v, rows in groups:
        sends = algorithm1.process_phase2_round(ids[v], rows, k, t, ExplicitPruner())
        want_slot += [s] * len(sends)
        want_holder += [v] * len(sends)
        want_rows += sends
    out_slot, out_holder, out_mat = eng._edge_round(pool, k, t)
    assert out_mat.dtype == np.int64 and out_mat.shape == (len(want_rows), t)
    assert out_slot.tolist() == want_slot
    assert out_holder.tolist() == want_holder
    assert list(map(tuple, out_mat.tolist())) == want_rows


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


def _rows(pool, v):
    """Node ``v``'s rows of a ``(mat, ptr)`` send pool, as ID tuples."""
    mat, ptr = pool
    return list(map(tuple, mat[ptr[v] : ptr[v + 1]].tolist()))


def _materialised_decision(eng, k, matched, sent, stale, evidence):
    """The decision with every row delivered.

    Returns ``(candidates, exact, unfiltered, received)``: the nodes
    whose decision inputs start at two different IDs (the first-ID
    prefilter), the ``find_detection_evidence`` arguments of the nodes
    that pass the exact Lemma-1 filter, in vertex order, the rejects of
    every node that receives anything, and the receiving-node mask."""
    ids = eng.network.ids()
    n = len(ids)
    lo, hi = eng._first_id_range(sent)
    for v in range(n):
        firsts = [row[0] for row in _rows(sent, v)]
        assert (lo[v], hi[v]) == (
            (min(firsts), max(firsts)) if firsts else (np.iinfo(np.int64).max, -1)
        )
    got = [[] for _ in range(n)]
    for h in np.flatnonzero(matched).tolist():
        got[eng._he_src[h]] += _rows(sent, eng._he_dst[h])
    candidates, exact, unfiltered = [], [], {}
    for v in range(n):
        if not got[v]:
            continue
        me = ids[v]
        received = sorted(got[v])
        own = _rows(sent, v) if k % 2 == 0 and not stale[v] else []
        cycle = evidence(me, k, own, received)
        if cycle is not None:
            unfiltered[v] = cycle
        firsts = {row[0] for row in received + own}
        # Lemma 1: every input starts at an endpoint of the tag's edge.
        assert len(firsts) <= 2
        if len(firsts) < 2:
            continue
        candidates.append(v)
        a, b = sorted(firsts)

        def kinds(rows):
            return (
                any(r[0] == a and b not in r and me not in r for r in rows),
                any(r[0] == b and a not in r and me not in r for r in rows),
            )

        recv_a, recv_b = kinds(received)
        # Own sends end with the node's ID; drop it to ask for the kind.
        own_a, own_b = kinds([r[:-1] for r in own])
        if k % 2:
            passes = recv_a and recv_b
        else:
            passes = (recv_a and own_b) or (recv_b and own_a)
        if passes:
            exact.append((me, k, own, received))
    received = np.array([bool(rows) for rows in got])
    return candidates, exact, unfiltered, received


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
    seen = dict(candidates=0, dropped=0, rejects=0, stale_receivers=0,
                silent=0, isolated=0)

    def checked(self, k, matched, sent, stale):
        calls.clear()
        found = decide(self, k, matched, sent, stale)
        candidates, exact, unfiltered, received = _materialised_decision(
            self, k, matched, sent, stale, evidence
        )
        ids = self.network.ids()
        called = [args[0] for args in calls]
        assert set(called) <= {ids[v] for v in candidates}
        assert {ids[v] for v in unfiltered} <= set(called)
        assert calls == exact
        assert found == unfiltered
        seen["candidates"] += len(candidates)
        seen["dropped"] += len(candidates) - len(exact)
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
    # The grid reaches every case the decision distinguishes, including
    # a first-ID candidate that the exact filter drops.  (At k = 3 every
    # received row is a neighbour's singleton, so there is none.)
    if k == 3:
        assert seen.pop("dropped") == 0
    assert all(seen.values()), seen


def test_decision_with_every_candidate_stale():
    """Even k, and the one node whose received rows start at two
    different IDs switched its tag: no own sends reach the exact filter,
    and nothing rejects."""
    eng = FastEngine(Network(Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)])))
    # Nodes 1 and 2 last sent (3, 1) and (4, 2); node 0 hears both.
    sent = eng._pool(
        np.array([[3, 1], [4, 2]], dtype=np.int64),
        np.array([0, 1, 1, 0, 0], dtype=np.int64),
    )
    matched = eng._he_src == 0
    stale = np.array([True, False, False, False, False])
    assert eng._decide(4, matched, sent, stale) == {}
    # Not stale, but it sent nothing: again no own sends.
    assert eng._decide(4, matched, sent, ~stale) == {}

"""Shared non-fixture helpers for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.congest.ids import IdentityIds, RandomPermutationIds, ReverseIds, SpreadIds
from repro.graphs import Graph, erdos_renyi_gnp
from repro.runner import registry

#: The four ID assigners of CI's engine matrix, by name, each built from
#: a seed that only the random permutation reads.
ID_ASSIGNERS = {
    "identity": lambda seed: IdentityIds(),
    "reverse": lambda seed: ReverseIds(),
    "spread": lambda seed: SpreadIds(),
    "random": lambda seed: RandomPermutationIds(seed=seed),
}

# Small parameters so building every registered family stays cheap
# (mirrors tests/test_runner.py::SMALL).
SMALL = dict(n=20, m=12, rows=3, cols=3, dim=3, height=2, paths=3,
             path_length=2, width=2, cycles=2, eps=0.1, p=0.12,
             attach=2, d=4, beta=0.2, exponent=2.5)


def small_instance(family: str, seed: int, k: int):
    """A small instance of ``family`` built through the registry."""
    return registry.build_graph(family, seed=seed, **{**SMALL, "k": k})


def random_graphs(count: int, n_lo: int = 5, n_hi: int = 12, seed: int = 0):
    """Deterministic stream of small random graphs for differential tests."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        p = float(rng.uniform(0.15, 0.55))
        out.append(erdos_renyi_gnp(n, p, seed=int(rng.integers(2**31))))
    return out


@st.composite
def graphs(draw, n_lo=0, n_hi=12):
    """Hypothesis strategy: a simple graph on ``n_lo..n_hi`` vertices."""
    n = draw(st.integers(n_lo, n_hi))
    if n < 2:
        return Graph(n)
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=24))
    return Graph(n, edges)


def assert_is_cycle(g: Graph, vertices, k: int) -> None:
    """Assert that ``vertices`` is a simple k-cycle in g (closing edge
    implicit)."""
    assert len(vertices) == k, f"cycle has {len(vertices)} != {k} vertices"
    assert len(set(vertices)) == k, f"cycle revisits a vertex: {vertices}"
    for i in range(k):
        u, v = vertices[i], vertices[(i + 1) % k]
        assert g.has_edge(u, v), f"missing edge ({u},{v}) in claimed cycle {vertices}"

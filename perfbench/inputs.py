"""Seeded inputs of the benchmark, generated here and nowhere else.

Every input is a pure function of ``(seed, stream name, index)``: the
same seed gives the same graphs and the same mutation sequence on every
run and every host.  The library's own generator registry is deliberately
not used, so a rewrite of a registry family cannot silently change what
the benchmark measures; the fingerprints printed by ``run.py`` (n, m and
content hash of each workload's first instance) would show such a drift
as an input change instead.

All graphs are random *bipartite* graphs: vertex labels are a random
permutation split into two equal halves, and every edge joins the
halves.  A bipartite graph has no odd cycle, so it is C_5-free and the
tester, the monitor and the service all take their accept paths, where
nothing exits early.  Cross-edge insertions keep a graph bipartite.
"""

from __future__ import annotations

import random
from typing import List, Tuple

Edge = Tuple[int, int]


def rng_for(seed: int, stream: str, index: int) -> random.Random:
    """A private generator for item ``index`` of ``stream`` under ``seed``.

    ``random.Random`` seeded with a string is stable across Python
    versions (the string is hashed with SHA-512), unlike numpy's
    distribution methods, which may change between numpy releases.
    """
    return random.Random(f"perfbench/{seed}/{stream}/{index}")


def bipartite_graph(n: int, m: int, rng: random.Random) -> Tuple[List[int], List[Edge]]:
    """A random bipartite graph: ``(side, edges)``.

    ``side[v]`` is 0 or 1; ``edges`` are ``m`` distinct canonical
    ``(u, v)`` pairs with ``u < v`` whose endpoints lie on different
    sides, in generation order.
    """
    half = n // 2
    if m > half * (n - half):
        raise ValueError(f"m={m} exceeds the {half}x{n - half} bipartite maximum")
    perm = list(range(n))
    rng.shuffle(perm)
    left, right = perm[:half], perm[half:]
    side = [0] * n
    for v in right:
        side[v] = 1
    seen = set()
    edges: List[Edge] = []
    while len(edges) < m:
        a = left[rng.randrange(half)]
        b = right[rng.randrange(n - half)]
        e = (a, b) if a < b else (b, a)
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return side, edges


class ChurnStream:
    """Constant-size churn on a bipartite graph, one step at a time.

    Step ``i`` draws from :func:`rng_for` ``(seed, "churn", i)`` and
    returns ``(insert, delete)``: an absent cross edge to add, then a
    present edge other than the one just added to remove, so ``m`` stays
    constant and the graph stays bipartite.  The stream tracks the edge
    set itself, so it never asks the program under test what is present.
    """

    def __init__(self, side: List[int], edges: List[Edge], seed: int) -> None:
        self._side = side
        self._left = [v for v, s in enumerate(side) if s == 0]
        self._right = [v for v, s in enumerate(side) if s == 1]
        self._edges = list(edges)
        self._where = {e: i for i, e in enumerate(self._edges)}
        self._seed = seed
        self.index = 0

    def step(self) -> Tuple[Edge, Edge]:
        """The next ``(insert, delete)`` pair; applies both to the shadow set."""
        rng = rng_for(self._seed, "churn", self.index)
        self.index += 1
        while True:
            a = self._left[rng.randrange(len(self._left))]
            b = self._right[rng.randrange(len(self._right))]
            ins = (a, b) if a < b else (b, a)
            if ins not in self._where:
                break
        # Drawn before ``ins`` joins the set, so it is never ``ins``.
        dele = self._edges[rng.randrange(len(self._edges))]
        self._add(ins)
        self._remove(dele)
        return ins, dele

    def _add(self, e: Edge) -> None:
        self._where[e] = len(self._edges)
        self._edges.append(e)

    def _remove(self, e: Edge) -> None:
        i = self._where.pop(e)
        last = self._edges.pop()
        if i < len(self._edges):
            self._edges[i] = last
            self._where[last] = i

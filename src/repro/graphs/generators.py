"""Graph generators used throughout the reproduction.

Beyond the classical families (cycles, paths, grids, random graphs) this
module provides the instance families that the paper's analysis and its
predecessors [7, 20] rely on:

* ``theta_graph`` — many internally-disjoint paths between two hubs.  These
  are the high-multiplicity instances sketched around Fig. 1 where a node may
  be connected to ``u``/``v`` "via many vertex-disjoint paths of the same
  length", making naive append-and-forward blow up.
* ``figure1_graph`` — the exact 5-node example of Fig. 1.
* ``planted_epsilon_far_graph`` — graphs certified to be ε-far from
  Ck-freeness by construction (they carry ≥ εm edge-disjoint k-cycles).
* ``ck_free_graph`` — certified Ck-free instances used to exercise the
  1-sided-error guarantee.

Behrend-style constructions live in :mod:`repro.graphs.behrend`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import ConfigurationError, GraphError
from .graph import Graph

__all__ = [
    "cycle_graph",
    "path_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "star_graph",
    "grid_graph",
    "torus_graph",
    "hypercube_graph",
    "binary_tree_graph",
    "random_tree",
    "erdos_renyi_gnp",
    "erdos_renyi_gnm",
    "random_regular_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "powerlaw_configuration_graph",
    "theta_graph",
    "blowup_graph",
    "figure1_graph",
    "flower_graph",
    "planted_cycle_graph",
    "planted_epsilon_far_graph",
    "disjoint_cycles_graph",
    "ck_free_graph",
    "high_girth_graph",
    "chorded_cycle_graph",
]


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Deterministic families
# ---------------------------------------------------------------------------
def cycle_graph(n: int) -> Graph:
    """The n-cycle ``C_n`` (requires n >= 3)."""
    if n < 3:
        raise ConfigurationError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """The n-vertex path ``P_n``."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    """The complete graph ``K_n``."""
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """``K_{a,b}``: sides ``0..a-1`` and ``a..a+b-1``."""
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    """A star: centre 0 with ``leaves`` pendant vertices."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid; vertex ``(r, c)`` has index ``r * cols + c``."""
    g = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                g.add_edge(r * cols + c, r * cols + c + 1)
            if r + 1 < rows:
                g.add_edge(r * cols + c, (r + 1) * cols + c)
    return g


def torus_graph(rows: int, cols: int) -> Graph:
    """The rows x cols torus (grid with wraparound); needs both dims >= 3."""
    if rows < 3 or cols < 3:
        raise ConfigurationError("torus needs rows, cols >= 3")
    g = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            g.add_edge(r * cols + c, r * cols + (c + 1) % cols, strict=False)
            g.add_edge(r * cols + c, ((r + 1) % rows) * cols + c, strict=False)
    return g


def hypercube_graph(dim: int) -> Graph:
    """The ``dim``-dimensional hypercube ``Q_dim``."""
    n = 1 << dim
    g = Graph(n)
    for u in range(n):
        for b in range(dim):
            v = u ^ (1 << b)
            if u < v:
                g.add_edge(u, v)
    return g


def binary_tree_graph(height: int) -> Graph:
    """Complete binary tree of the given height (height 0 = single node)."""
    n = (1 << (height + 1)) - 1
    g = Graph(n)
    for u in range(n):
        for child in (2 * u + 1, 2 * u + 2):
            if child < n:
                g.add_edge(u, child)
    return g


# ---------------------------------------------------------------------------
# Random families
# ---------------------------------------------------------------------------
def random_tree(n: int, seed=None) -> Graph:
    """Uniform random labelled tree via a random Prüfer-like attachment."""
    rng = _rng(seed)
    g = Graph(n)
    for v in range(1, n):
        g.add_edge(v, int(rng.integers(0, v)))
    return g


def erdos_renyi_gnp(n: int, p: float, seed=None) -> Graph:
    """``G(n, p)``: every pair independently an edge with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0,1], got {p}")
    rng = _rng(seed)
    g = Graph(n)
    if p == 0.0 or n < 2:
        return g
    # Vectorised sampling over the upper triangle.
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    for u, v in zip(iu[mask].tolist(), ju[mask].tolist()):
        g.add_edge(u, v)
    return g


def erdos_renyi_gnm(n: int, m: int, seed=None) -> Graph:
    """``G(n, m)``: m edges chosen uniformly without replacement."""
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ConfigurationError(f"m={m} exceeds max {max_m} for n={n}")
    rng = _rng(seed)
    codes = np.sort(rng.choice(max_m, size=m, replace=False))
    # Decode linear indices into the upper triangle: a float estimate of
    # each row, then integer steps until every code lies in its row.
    b = 2.0 * n - 1.0
    u = ((b - np.sqrt(b * b - 8.0 * codes)) // 2).astype(np.int64)
    while True:
        up = _tri_offset(n, u + 1) <= codes
        down = _tri_offset(n, u) > codes
        if not (up.any() or down.any()):
            break
        u += up
        u -= down
    v = u + 1 + (codes - _tri_offset(n, u))
    return Graph.from_canonical_edge_arrays(n, u, v)


def _tri_offset(n: int, u: np.ndarray) -> np.ndarray:
    """Linear index of edge (u, u+1) in the row-major upper triangle."""
    return u * n - u * (u + 1) // 2


def random_regular_graph(n: int, d: int, seed=None, max_tries: int = 200) -> Graph:
    """A d-regular graph on n vertices via the configuration model.

    Retries pairings until simple (fine for the moderate d used in tests).
    """
    if (n * d) % 2 != 0:
        raise ConfigurationError("n*d must be even for a d-regular graph")
    if d >= n:
        raise ConfigurationError("need d < n")
    rng = _rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(max_tries):
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        ok = True
        seen = set()
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in seen:
                ok = False
                break
            seen.add(key)
        if ok:
            return Graph(n, seen)
    raise GraphError(f"failed to sample a simple {d}-regular graph on {n} vertices")


def barabasi_albert_graph(n: int, attach: int = 3, seed=None) -> Graph:
    """Barabási–Albert preferential attachment: each new vertex attaches to
    ``attach`` distinct existing vertices chosen proportionally to degree.

    Starts from a star on vertices ``0..attach`` (so every vertex has
    positive degree and the graph is connected), then grows one vertex per
    step.  The result has exactly ``attach * (n - attach - 1) + attach``
    edges and a heavy-tailed degree distribution — the scale-free regime
    where hub vertices sit on many short cycles.
    """
    if attach < 1:
        raise ConfigurationError(f"attach must be >= 1, got {attach}")
    if n <= attach:
        raise ConfigurationError(f"need n > attach, got n={n}, attach={attach}")
    rng = _rng(seed)
    g = Graph(n)
    # Seed star: vertex `attach` joined to 0..attach-1.
    repeated: List[int] = []
    for i in range(attach):
        g.add_edge(attach, i)
        repeated.extend((attach, i))
    for v in range(attach + 1, n):
        chosen: set = set()
        while len(chosen) < attach:
            chosen.add(repeated[int(rng.integers(0, len(repeated)))])
        for u in chosen:
            g.add_edge(v, u)
            repeated.extend((v, u))
    return g


def watts_strogatz_graph(n: int, d: int = 4, beta: float = 0.1, seed=None) -> Graph:
    """Watts–Strogatz small world: a ring lattice of even degree ``d``
    with every lattice edge rewired independently with probability ``beta``.

    Rewiring replaces ``(u, v)`` by ``(u, w)`` for a uniform ``w`` that is
    neither ``u`` nor a current neighbour of ``u``, so the edge count stays
    exactly ``n * d / 2`` and the graph stays simple.  ``beta = 0`` is the
    pure lattice (girth 3 for d >= 4), ``beta = 1`` approaches G(n, m).
    """
    if d < 2 or d % 2 != 0:
        raise ConfigurationError(f"d must be even and >= 2, got {d}")
    if d >= n:
        raise ConfigurationError(f"need d < n, got n={n}, d={d}")
    if not 0.0 <= beta <= 1.0:
        raise ConfigurationError(f"beta must be in [0,1], got {beta}")
    rng = _rng(seed)
    g = Graph(n)
    for j in range(1, d // 2 + 1):
        for u in range(n):
            g.add_edge(u, (u + j) % n, strict=False)
    for j in range(1, d // 2 + 1):
        for u in range(n):
            v = (u + j) % n
            if not g.has_edge(u, v) or rng.random() >= beta:
                continue
            # Up to n attempts to find an admissible endpoint; degenerate
            # dense cases simply keep the lattice edge.
            for _ in range(n):
                w = int(rng.integers(0, n))
                if w != u and not g.has_edge(u, w):
                    g.remove_edge(u, v)
                    g.add_edge(u, w)
                    break
    return g


def powerlaw_configuration_graph(
    n: int, exponent: float = 2.5, min_degree: int = 1, seed=None
) -> Graph:
    """Erased configuration model with a power-law degree sequence.

    Degrees are sampled i.i.d. from ``P[deg = j] ∝ j^(-exponent)`` on
    ``[min_degree, n - 1]`` (sum forced even), stubs are paired uniformly,
    and self-loops / duplicate pairings are erased, yielding a simple
    graph whose degree distribution follows the target tail up to the
    erased edges.
    """
    if exponent <= 1.0:
        raise ConfigurationError(f"exponent must be > 1, got {exponent}")
    if min_degree < 1:
        raise ConfigurationError(f"min_degree must be >= 1, got {min_degree}")
    if n <= min_degree:
        raise ConfigurationError(f"need n > min_degree, got n={n}")
    rng = _rng(seed)
    support = np.arange(min_degree, n, dtype=np.int64)
    weights = support.astype(np.float64) ** (-exponent)
    weights /= weights.sum()
    degrees = rng.choice(support, size=n, p=weights)
    if int(degrees.sum()) % 2 == 1:
        degrees[0] += 1
    stubs = np.repeat(np.arange(n), degrees)
    rng.shuffle(stubs)
    g = Graph(n)
    for u, v in stubs.reshape(-1, 2).tolist():
        if u != v:
            g.add_edge(int(u), int(v), strict=False)
    return g


# ---------------------------------------------------------------------------
# Paper-specific families
# ---------------------------------------------------------------------------
def theta_graph(num_paths: int, path_length: int) -> Graph:
    """Generalised theta graph: ``num_paths`` internally-disjoint paths of
    ``path_length`` edges each between hub vertices ``0`` (=u) and ``1`` (=v).

    Contains cycles of every length ``2 * path_length`` formed by a pair of
    paths (plus, if the edge {0,1} is added externally, cycles of length
    ``path_length + 1``).  With many paths this is the canonical stress
    instance for sequence multiplicity at the hubs' neighbours.
    """
    if num_paths < 1 or path_length < 2:
        raise ConfigurationError("need num_paths >= 1 and path_length >= 2")
    g = Graph(2 + num_paths * (path_length - 1))
    nxt = 2
    for _ in range(num_paths):
        prev = 0
        for _ in range(path_length - 1):
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
        g.add_edge(prev, 1)
    return g


def blowup_graph(width: int, k: int) -> Graph:
    """Layered path-multiplicity stress instance for Lemma 3 / Fig. 1.

    Vertices ``0 = u`` and ``1 = v`` joined by the probe edge {u, v} and by
    ``k - 2`` intermediate layers of ``width`` vertices each, consecutive
    layers completely joined (u to all of layer 1, layer i to layer i+1,
    last layer to v).  Every choice of one vertex per layer is a distinct
    k-cycle through {u, v}, so the number of distinct Phase-2 sequences
    reaching a layer-t vertex is ``width^(t-1)`` — exponential for the
    naive forwarder, while Algorithm 1 keeps at most ``(k-t+1)^(t-1)``
    (and exactly ``k-t+1`` at round 2 when ``width >= k``: the Lemma 3
    bound is *tight* here).
    """
    if k < 3:
        raise ConfigurationError(f"k must be >= 3, got {k}")
    if width < 1:
        raise ConfigurationError("width must be >= 1")
    layers = k - 2
    g = Graph(2 + layers * width, [(0, 1)])
    def layer(i: int) -> range:  # 1-based layer index
        base = 2 + (i - 1) * width
        return range(base, base + width)
    if layers == 0:
        return g
    for x in layer(1):
        g.add_edge(0, x)
    for i in range(1, layers):
        for x in layer(i):
            for y in layer(i + 1):
                g.add_edge(x, y)
    for x in layer(layers):
        g.add_edge(x, 1)
    return g


def figure1_graph() -> Graph:
    """The exact 5-vertex graph of the paper's Figure 1.

    Vertices: 0=u, 1=v, 2=x, 3=y, 4=z.  Edges: {u,v}, {u,x}, {u,y},
    {v,x}, {v,y}, {x,z}, {y,z}.  The 5-cycle (u, x, z, y, v) passes through
    the edge {u, v}.
    """
    return Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])


def flower_graph(num_petals: int, k: int) -> Graph:
    """``num_petals`` k-cycles all sharing one common edge ``{0, 1}``.

    Every petal contributes a distinct k-cycle through the shared edge, so
    Phase 2 run on {0,1} faces many overlapping witnesses — a direct test of
    the pruning rule's completeness guarantee.
    """
    if k < 3:
        raise ConfigurationError(f"k must be >= 3, got {k}")
    g = Graph(2 + num_petals * (k - 2), [(0, 1)])
    nxt = 2
    for _ in range(num_petals):
        prev = 0
        for _ in range(k - 2):
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
        g.add_edge(prev, 1)
    return g


def planted_cycle_graph(
    n: int, k: int, seed=None, extra_edge_prob: float = 0.0
) -> Tuple[Graph, List[int]]:
    """A graph with one planted k-cycle on random vertices plus noise.

    Returns ``(graph, cycle_vertices)``.  Noise edges are added with
    probability ``extra_edge_prob`` per pair but never create a *shorter or
    equal* chord inside the planted cycle (so the planted cycle's edge
    ``(c[0], c[1])`` always lies on a k-cycle).
    """
    if n < k:
        raise ConfigurationError(f"need n >= k, got n={n}, k={k}")
    rng = _rng(seed)
    order = rng.permutation(n)
    cyc = [int(x) for x in order[:k]]
    g = Graph(n)
    for i in range(k):
        g.add_edge(cyc[i], cyc[(i + 1) % k])
    if extra_edge_prob > 0.0:
        cset = set(cyc)
        for u in range(n):
            for v in range(u + 1, n):
                if u in cset and v in cset:
                    continue  # keep the planted cycle chord-free
                if not g.has_edge(u, v) and rng.random() < extra_edge_prob:
                    g.add_edge(u, v)
    return g, cyc


def disjoint_cycles_graph(num_cycles: int, k: int, connect: bool = True) -> Graph:
    """``num_cycles`` vertex-disjoint k-cycles, optionally chained by
    bridge edges into one connected graph.

    Bridges are tree edges so they lie on no cycle at all; every cycle in
    the result is one of the planted k-cycles.
    """
    if k < 3:
        raise ConfigurationError(f"k must be >= 3, got {k}")
    g = Graph(num_cycles * k)
    for c in range(num_cycles):
        base = c * k
        for i in range(k):
            g.add_edge(base + i, base + (i + 1) % k)
    if connect:
        for c in range(num_cycles - 1):
            g.add_edge(c * k, (c + 1) * k)
    return g


def planted_epsilon_far_graph(
    n: int, k: int, eps: float, seed=None
) -> Tuple[Graph, float]:
    """A connected graph that is certifiably ε-far from Ck-free.

    Construction: pack ``c`` vertex-disjoint k-cycles (plus bridge edges and
    a padding path over leftover vertices).  Since destroying edge-disjoint
    k-cycles requires one removal each — and adding edges can only create
    new cycles — the graph is at distance >= c from Ck-freeness, i.e. it is
    (c/m)-far.  We choose ``c`` so that ``c/m >= eps``.

    Returns ``(graph, certified_farness)`` where ``certified_farness = c/m``
    (a lower bound on the true farness).  Raises if the demanded ``eps`` is
    not achievable with this construction (eps close to 1/k is the limit:
    a disjoint union of k-cycles has c/m = 1/k).
    """
    if not 0.0 < eps < 1.0:
        raise ConfigurationError(f"eps must be in (0,1), got {eps}")
    if k < 3:
        raise ConfigurationError(f"k must be >= 3, got {k}")
    rng = _rng(seed)
    # With c cycles, bridges (c-1), pad path of p vertices adds p edges
    # (one edge attaching it plus p-1 internal edges) where p = n - c*k.
    # m = c*k + (c-1) + p; need c >= eps*m.
    c = 1
    while True:
        p = n - c * k
        if p < 0:
            raise ConfigurationError(
                f"cannot pack enough {k}-cycles into n={n} vertices to be "
                f"{eps}-far; increase n or lower eps"
            )
        m = c * k + (c - 1) + (p if p > 0 else 0)
        if c >= eps * m:
            break
        c += 1
    g = disjoint_cycles_graph(c, k, connect=True)
    # Pad with a path hanging off vertex 0 so the graph has exactly n nodes.
    prev = 0
    for _ in range(n - c * k):
        w = g.add_vertex()
        g.add_edge(prev, w)
        prev = w
    m = g.m
    certified = c / m
    if certified < eps:  # pragma: no cover - guarded by the loop above
        raise GraphError("internal error: certification failed")
    # Shuffle labels so vertex indices carry no structural hints.
    perm = [int(x) for x in rng.permutation(g.n)]
    return g.relabel(perm), certified


def ck_free_graph(n: int, k: int, seed=None, attempts: int = 64) -> Graph:
    """A connected graph guaranteed to contain no k-cycle.

    * odd k: a random connected bipartite graph (odd cycles impossible);
    * even k: a graph of girth > k obtained by randomised greedy edge
      addition with BFS girth checks (falls back to a tree for tiny n).
    """
    if k < 3:
        raise ConfigurationError(f"k must be >= 3, got {k}")
    rng = _rng(seed)
    if k % 2 == 1:
        sides = rng.integers(0, 2, size=n)
        if sides.sum() in (0, n):  # force both sides non-empty
            sides[0] = 0
            sides[-1] = 1
        left_arr = np.flatnonzero(sides == 0)
        right_arr = np.flatnonzero(sides == 1)
        left, right = left_arr.tolist(), right_arr.tolist()
        g = Graph(n)
        # Spanning "zigzag" to connect, then random cross edges.
        for a, b in zip(left, right):
            g.add_edge(a, b)
        # Connect the components to the anchor left[0], walking the left
        # side, then the right.  The zigzag is a matching, so its
        # components are the pairs (left[i], right[i]) and the unmatched
        # vertices.  Every left vertex after the anchor is still cut off
        # when reached and joins through right[0] (the anchor's pair),
        # bringing its own pair along; after that only the unmatched
        # right vertices are cut off, and they join through left[0].
        for v in left[1:]:
            g.add_edge(v, right[0])
        for v in right[len(left):]:
            g.add_edge(v, left[0])
        for _ in range(2 * n):
            u = int(rng.choice(left_arr))
            v = int(rng.choice(right_arr))
            if u != v and not g.has_edge(u, v):
                g.add_edge(u, v)
        return g
    return high_girth_graph(n, girth_greater_than=k, seed=rng)


def high_girth_graph(n: int, girth_greater_than: int, seed=None) -> Graph:
    """Randomised greedy graph with girth strictly greater than the bound.

    Starts from a random spanning tree and adds random edges whose insertion
    would not create a cycle of length <= ``girth_greater_than`` (checked by
    a truncated search from both endpoints before insertion).
    """
    rng = _rng(seed)
    g = random_tree(n, rng)
    budget = 4 * n
    for _ in range(budget):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v or g.has_edge(u, v):
            continue
        if _bfs_distance_at_most(g, u, v, girth_greater_than - 1):
            continue
        g.add_edge(u, v)
    return g


def chorded_cycle_graph(k: int, chord: Tuple[int, int] = (0, 2)) -> Graph:
    """A k-cycle ``0..k-1`` plus one chord (default between 0 and 2).

    Used by the discussion in §4 (detecting a cycle *with* a chord is the
    pattern the paper's technique does not extend to).
    """
    g = cycle_graph(k)
    a, b = chord
    if g.has_edge(a, b):
        raise ConfigurationError(f"chord {chord} already a cycle edge")
    g.add_edge(a, b)
    return g


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------
def _bfs_distance_at_most(g: Graph, s: int, t: int, limit: int) -> bool:
    """Whether dist(s, t) <= limit.

    A search from both ends that grows the smaller frontier by one level
    per step, ``limit`` steps in all, and stops as soon as one side
    reaches a vertex the other has seen.  It reads the unsorted neighbour
    sets: the search needs no order.
    """
    if s == t:
        return True
    seen = ({s}, {t})
    frontier = [[s], [t]]
    for _ in range(limit):
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        mine, theirs = seen[side], seen[1 - side]
        nxt = []
        for u in frontier[side]:
            for v in g.adjacency_set(u):
                if v in theirs:
                    return True
                if v not in mine:
                    mine.add(v)
                    nxt.append(v)
        if not nxt:
            return False
        frontier[side] = nxt
    return False

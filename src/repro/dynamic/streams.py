"""Replayable edge-stream scenarios: named mutation-sequence generators.

A *stream scenario* turns a base graph (any family from the generator
registry, :mod:`repro.runner.registry`) plus a seed into a deterministic
mutation sequence.  Scenarios are registered by name — mirroring the
static generator registry — so temporal campaigns can sweep churn models
exactly like graph families (``CampaignSpec.streams``), the CLI can name
them (``repro dynamic run --stream ...``), and benchmarks replay the same
workload everywhere.

Built-in scenarios:

* ``uniform-churn`` — i.i.d. insert/delete of uniformly random edges;
* ``burst``         — alternating insert-only and delete-only bursts;
* ``near-cycle``    — adversarial toggling of the edges of one potential
  k-cycle, engineered to flip the verdict and invalidate cached
  witnesses as often as possible (worst case for the monitor's cache);
* ``growth``        — a degree-biased growth model (new vertices attach
  preferentially, no deletions), the monitor's best case.

Spec strings (used by campaign factors and the CLI) are compact:
``"uniform-churn"`` or ``"burst:steps=40,burst=6"`` — parsed by
:func:`parse_stream_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..graphs.graph import Graph
from .graph import apply_mutation
from .mutations import ADD_EDGE, ADD_VERTEX, REMOVE_EDGE, Mutation

__all__ = [
    "EdgeStream",
    "StreamSpec",
    "build_stream",
    "get",
    "names",
    "parse_stream_spec",
    "register",
]


@dataclass(frozen=True)
class EdgeStream:
    """A concrete scenario: base graph, mutation sequence, parameters."""

    scenario: str
    base: Graph
    mutations: Tuple[Mutation, ...]
    params: Dict[str, Any] = field(default_factory=dict)

    def final_graph(self) -> Graph:
        """The graph after applying every mutation to (a copy of) the base."""
        g = self.base.copy()
        for mutation in self.mutations:
            apply_mutation(g, mutation)
        return g

    def __repr__(self) -> str:
        return (
            f"EdgeStream({self.scenario!r}, n={self.base.n}, "
            f"m={self.base.m}, steps={len(self.mutations)})"
        )


#: A scenario factory: ``(working_graph, rng, params) -> mutations``.
#: The working graph is a private copy the factory may mutate while
#: generating (so each step can depend on the current state).
StreamFunc = Callable[[Graph, "np.random.Generator", Dict[str, Any]], List[Mutation]]


@dataclass(frozen=True)
class StreamSpec:
    """A named stream scenario: factory plus declared parameters."""

    name: str
    factory: StreamFunc
    defaults: Dict[str, Any]
    description: str = ""

    def resolve_params(self, supplied: Dict[str, Any]) -> Dict[str, Any]:
        """Declared parameters only, defaulted; unknown keys raise."""
        unknown = sorted(set(supplied) - set(self.defaults))
        if unknown:
            raise ConfigurationError(
                f"stream {self.name!r} got unknown parameter(s) "
                f"{', '.join(unknown)}; declared: "
                f"{', '.join(sorted(self.defaults))}"
            )
        out = dict(self.defaults)
        for key, value in supplied.items():
            if value is not None:
                out[key] = type(self.defaults[key])(value)
        return out


_REGISTRY: Dict[str, StreamSpec] = {}


def register(spec: StreamSpec) -> StreamSpec:
    """Add a scenario to the registry (name must be new)."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(f"stream {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> StreamSpec:
    """Look up a scenario by name; raises ConfigurationError when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown stream scenario {name!r}; known: {', '.join(names())}"
        ) from None


def names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def parse_stream_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Parse a compact stream spec string into ``(name, params)``.

    Grammar: ``name`` or ``name:key=value,key=value`` — e.g.
    ``"uniform-churn"`` or ``"burst:steps=40,burst=6"``.  The name and
    every key are validated against the registry.
    """
    if not isinstance(spec, str) or not spec:
        raise ConfigurationError(f"stream spec must be a non-empty string, "
                                 f"got {spec!r}")
    name, _, tail = spec.partition(":")
    stream = get(name.strip())
    params: Dict[str, Any] = {}
    if tail:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key.strip() or not value.strip():
                raise ConfigurationError(
                    f"stream spec {spec!r}: expected key=value, got {item!r}"
                )
            params[key.strip()] = value.strip()
    return stream.name, stream.resolve_params(params)


def build_stream(
    spec: str, base: Graph, *, seed: int = 0, k: int = 5
) -> EdgeStream:
    """Build the named scenario's mutation sequence for ``base``.

    ``seed`` drives all scenario randomness (deterministic across
    machines); ``k`` is the cycle length the scenario may target
    (``near-cycle`` toggles a k-cycle's edges).
    """
    name, params = parse_stream_spec(spec)
    stream = get(name)
    params = dict(params)
    params["k"] = int(k)
    rng = np.random.default_rng(seed)
    working = base.copy()
    mutations = stream.factory(working, rng, params)
    return EdgeStream(
        scenario=name,
        base=base.copy(),
        mutations=tuple(mutations),
        params={key: value for key, value in params.items() if key != "k"},
    )


# ---------------------------------------------------------------------------
# Scenario helpers
# ---------------------------------------------------------------------------
def _random_absent_edge(g: Graph, rng: np.random.Generator):
    """A uniformly random non-edge of ``g``, or ``None`` when complete."""
    max_m = g.n * (g.n - 1) // 2
    if g.n < 2 or g.m >= max_m:
        return None
    while True:  # rejection sampling; density stays well below complete
        u = int(rng.integers(g.n))
        v = int(rng.integers(g.n))
        if u != v and not g.has_edge(u, v):
            return (u, v) if u < v else (v, u)


def _random_present_edge(g: Graph, rng: np.random.Generator):
    """A uniformly random edge of ``g``, or ``None`` when edgeless."""
    if g.m == 0:
        return None
    edges = g.edge_list()
    return edges[int(rng.integers(len(edges)))]


def _log(working: Graph, out: List[Mutation], mutation: Mutation) -> None:
    """Apply ``mutation`` to the scenario's working graph and record it."""
    apply_mutation(working, mutation)
    out.append(mutation)


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------
def _uniform_churn(
    g: Graph, rng: np.random.Generator, params: Dict[str, Any]
) -> List[Mutation]:
    """I.i.d. churn: each step inserts (prob ``p``) or deletes an edge."""
    out: List[Mutation] = []
    p_insert = float(params["p"])
    for _ in range(int(params["steps"])):
        insert = bool(rng.random() < p_insert)
        edge = (_random_absent_edge if insert else _random_present_edge)(g, rng)
        if edge is None:  # saturated/empty: do the opposite operation
            insert = not insert
            edge = (_random_absent_edge if insert else
                    _random_present_edge)(g, rng)
            if edge is None:
                continue  # n < 2: nothing to mutate
        _log(g, out, Mutation(ADD_EDGE if insert else REMOVE_EDGE, *edge))
    return out


def _burst(
    g: Graph, rng: np.random.Generator, params: Dict[str, Any]
) -> List[Mutation]:
    """Alternating insert-only / delete-only bursts of length ``burst``."""
    out: List[Mutation] = []
    burst = max(1, int(params["burst"]))
    steps = int(params["steps"])
    inserting = True
    empty_phases = 0
    while len(out) < steps and empty_phases < 2:
        made = 0
        for _ in range(min(burst, steps - len(out))):
            edge = (_random_absent_edge if inserting else
                    _random_present_edge)(g, rng)
            if edge is None:
                break
            _log(g, out,
                 Mutation(ADD_EDGE if inserting else REMOVE_EDGE, *edge))
            made += 1
        # Two consecutive empty phases mean the graph can neither gain
        # nor lose an edge (n < 2): stop instead of spinning forever.
        empty_phases = 0 if made else empty_phases + 1
        inserting = not inserting
    return out


def _near_cycle(
    g: Graph, rng: np.random.Generator, params: Dict[str, Any]
) -> List[Mutation]:
    """Adversarial toggling of one potential k-cycle's edges.

    The scenario pins the vertices ``0..k-1`` as a cycle template and at
    every step toggles the presence of a random template edge.  Whenever
    all k edges are present a k-cycle exists; deleting any of them
    destroys exactly the cached witness — the worst case for verdict
    caching, forcing frequent full re-tests.
    """
    k = int(params["k"])
    steps = int(params["steps"])
    if g.n < k:
        raise ConfigurationError(
            f"near-cycle stream needs a base graph with n >= k "
            f"({g.n} < {k})"
        )
    template = [(i, (i + 1) % k) for i in range(k)]
    out: List[Mutation] = []
    for _ in range(steps):
        u, v = template[int(rng.integers(len(template)))]
        if g.has_edge(u, v):
            _log(g, out, Mutation(REMOVE_EDGE, u, v))
        else:
            _log(g, out, Mutation(ADD_EDGE, u, v))
    return out


def _growth(
    g: Graph, rng: np.random.Generator, params: Dict[str, Any]
) -> List[Mutation]:
    """Degree-biased growth: new vertices attach, edges only appear.

    With probability ``p`` a step appends a vertex and wires ``attach``
    edges from it to distinct existing vertices chosen proportionally to
    ``degree + 1`` (Barabási–Albert flavoured, reusing the same
    preferential-attachment idea as the static ``ba`` family); otherwise
    it densifies by inserting one random absent edge.  Wiring mutations
    count toward ``steps``.
    """
    out: List[Mutation] = []
    steps = int(params["steps"])
    attach = max(1, int(params["attach"]))
    p_vertex = float(params["p"])
    while len(out) < steps:
        if g.n < 2 or rng.random() < p_vertex:
            _log(g, out, Mutation(ADD_VERTEX))
            new = g.n - 1
            weights = np.array(
                [g.degree(u) + 1.0 for u in range(new)], dtype=float
            )
            weights /= weights.sum()
            picks = min(attach, new, steps - len(out))
            if picks > 0:
                targets = rng.choice(new, size=picks, replace=False, p=weights)
                for target in sorted(int(t) for t in targets):
                    _log(g, out, Mutation(ADD_EDGE, target, new))
        else:
            edge = _random_absent_edge(g, rng)
            if edge is None:
                _log(g, out, Mutation(ADD_VERTEX))
                continue
            _log(g, out, Mutation(ADD_EDGE, *edge))
    return out


for _spec in [
    StreamSpec(
        "uniform-churn", _uniform_churn,
        {"steps": 32, "p": 0.5},
        "i.i.d. random edge insert/delete churn",
    ),
    StreamSpec(
        "burst", _burst,
        {"steps": 32, "burst": 4},
        "alternating insert-only and delete-only bursts",
    ),
    StreamSpec(
        "near-cycle", _near_cycle,
        {"steps": 32},
        "adversarial toggling of one k-cycle's edges (cache worst case)",
    ),
    StreamSpec(
        "growth", _growth,
        {"steps": 32, "p": 0.4, "attach": 2},
        "degree-biased growth model (insert-only, cache best case)",
    ),
]:
    register(_spec)

"""The compiled-instance cache: behaviour, bounds, and transparency.

:class:`~repro.congest.engine.cache.EngineCache` may change *when* an
engine is compiled, never *what* any caller observes.  Covered here:

* LRU mechanics — hit/miss/eviction counters, the ``max_entries`` bound,
  eviction order, ``clear()``, ``nbytes``;
* telemetry rebinding on hits (counters land in the caller's registry,
  exactly as a fresh engine would put them);
* CSR memoisation, including caller-supplied version keys;
* cached == uncached results for ``detect_cycle_through_edge``, the one
  cached path in the library, which faults and explicit networks bypass.
"""

import pytest

from repro.congest.engine.cache import EngineCache
from repro.core.algorithm1 import detect_cycle_through_edge
from repro.errors import ConfigurationError
from repro.graphs.generators import cycle_graph, planted_epsilon_far_graph
from repro.obs import Telemetry


class TestCacheMechanics:
    def test_bad_max_entries(self):
        with pytest.raises(ConfigurationError):
            EngineCache(max_entries=0)

    def test_bad_spec_surfaces_before_hashing(self):
        with pytest.raises(ConfigurationError):
            EngineCache().get("warp", cycle_graph(5))

    def test_miss_then_hit(self):
        cache = EngineCache()
        g = cycle_graph(8)
        first = cache.get("fast", g)
        second = cache.get("fast", g)
        assert first is second
        assert (cache.misses, cache.hits) == (1, 1)
        assert len(cache) == 1

    def test_key_includes_spec_strictness_and_content(self):
        cache = EngineCache()
        g = cycle_graph(8)
        eng = cache.get("fast", g)
        assert cache.get("reference", g) is not eng
        assert cache.get("fast", g, strict_bandwidth=True) is not eng
        h = g.copy()
        h.add_edge(0, 4)
        assert cache.get("fast", h) is not eng
        assert cache.misses == 4 and cache.hits == 0

    def test_snapshot_isolation(self):
        """A cached engine keeps the content it was filed under even if
        the caller's graph mutates afterwards."""
        cache = EngineCache()
        g = cycle_graph(6)
        eng = cache.get("fast", g)
        g.add_edge(0, 3)
        assert eng.network.graph.m == 6
        assert cache.get("fast", g) is not eng  # new content, new compile

    def test_lru_eviction_order(self):
        cache = EngineCache(max_entries=2)
        for i in range(4):
            cache._insert(("engine", str(i)), object())
        assert len(cache) == 2
        assert list(cache._entries) == [("engine", "2"), ("engine", "3")]
        assert cache.evictions == 2

    def test_clear_empties_and_counts_nothing(self):
        cache = EngineCache()
        g = cycle_graph(8)
        cache.get("fast", g)
        cache.csr(g)
        assert len(cache) == 2 and cache.nbytes > 0
        cache.clear()
        assert len(cache) == 0 and cache.nbytes == 0

    def test_csr_memoisation_and_version_keys(self):
        cache = EngineCache()
        g = cycle_graph(8)
        a = cache.csr(g)
        b = cache.csr(g)
        assert a is b
        # A caller-supplied key bypasses content hashing entirely: the
        # entry stays keyed to the version, not the live graph.
        keyed = cache.csr(g, key=("v", 0))
        g.add_edge(0, 4)
        assert cache.csr(g, key=("v", 0)) is keyed
        assert cache.csr(g, key=("v", 1)) is not keyed


class TestCacheTransparency:
    def test_detect_results_identical(self):
        g, _ = planted_epsilon_far_graph(50, 5, 0.1, seed=2)
        edge = next(iter(g.edges()))
        cache = EngineCache()

        def run(c):
            det = detect_cycle_through_edge(g, edge, 5, engine="fast", cache=c)
            return det.detected, tuple(sorted(det.rejecting_vertices))

        plain = run(None)
        assert [run(cache) for _ in range(3)] == [plain] * 3
        assert (cache.misses, cache.hits) == (1, 2)

    def test_hits_rebind_telemetry(self):
        """Counters from a warm hit land in the caller's registry, not
        the registry the engine was compiled under."""
        g, _ = planted_epsilon_far_graph(40, 5, 0.1, seed=6)
        edge = next(iter(g.edges()))
        cache = EngineCache()
        first, second = Telemetry(), Telemetry()

        def run(tel):
            return detect_cycle_through_edge(
                g, edge, 5, engine="fast", telemetry=tel, cache=cache
            ).detected

        assert run(first) == run(second)
        assert (cache.misses, cache.hits) == (1, 1)
        key = "repro_congest_runs_total"
        assert first.summary()[key] == second.summary()[key] == 1

    def test_faults_and_explicit_networks_bypass_the_cache(self):
        from repro.congest.faults import DropFaults
        from repro.congest.network import Network

        g = cycle_graph(9)
        cache = EngineCache()
        detect_cycle_through_edge(
            g, (0, 1), 5, engine="reference", cache=cache,
            faults=DropFaults(0.5, seed=0),
        )
        detect_cycle_through_edge(
            g, (0, 1), 5, engine="reference", cache=cache, network=Network(g)
        )
        assert cache.misses == 0 and cache.hits == 0 and len(cache) == 0

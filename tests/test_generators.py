"""Tests for the graph generators, including the paper-specific families."""

import pytest

from repro.errors import ConfigurationError
from repro.graphs import (
    barabasi_albert_graph,
    binary_tree_graph,
    blowup_graph,
    chorded_cycle_graph,
    ck_free_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_cycles_graph,
    erdos_renyi_gnm,
    erdos_renyi_gnp,
    figure1_graph,
    flower_graph,
    girth,
    grid_graph,
    has_k_cycle,
    high_girth_graph,
    hypercube_graph,
    is_ck_free,
    path_graph,
    planted_cycle_graph,
    planted_epsilon_far_graph,
    powerlaw_configuration_graph,
    random_regular_graph,
    random_tree,
    star_graph,
    theta_graph,
    torus_graph,
    watts_strogatz_graph,
)


class TestDeterministicFamilies:
    def test_cycle(self):
        g = cycle_graph(5)
        assert (g.n, g.m) == (5, 5)
        assert all(g.degree(v) == 2 for v in g.vertices())
        assert girth(g) == 5

    def test_cycle_too_small(self):
        with pytest.raises(ConfigurationError):
            cycle_graph(2)

    def test_path(self):
        g = path_graph(6)
        assert (g.n, g.m) == (6, 5)
        assert girth(g) is None

    def test_complete(self):
        g = complete_graph(6)
        assert g.m == 15
        assert all(g.degree(v) == 5 for v in g.vertices())

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(3, 4)
        assert (g.n, g.m) == (7, 12)
        assert girth(g) == 4
        # bipartite: no odd cycles
        assert is_ck_free(g, 3)
        assert is_ck_free(g, 5)

    def test_star(self):
        g = star_graph(5)
        assert (g.n, g.m) == (6, 5)
        assert g.degree(0) == 5

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.n == 12
        assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical
        assert girth(g) == 4

    def test_torus(self):
        g = torus_graph(3, 3)
        assert g.n == 9
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_torus_min_dims(self):
        with pytest.raises(ConfigurationError):
            torus_graph(2, 5)

    def test_hypercube(self):
        g = hypercube_graph(3)
        assert (g.n, g.m) == (8, 12)
        assert girth(g) == 4

    def test_binary_tree(self):
        g = binary_tree_graph(3)
        assert g.n == 15
        assert g.m == 14
        assert girth(g) is None


class TestRandomFamilies:
    def test_random_tree(self):
        g = random_tree(20, seed=1)
        assert g.m == 19
        assert g.is_connected()
        assert girth(g) is None

    def test_gnp_reproducible(self):
        a = erdos_renyi_gnp(30, 0.2, seed=7)
        b = erdos_renyi_gnp(30, 0.2, seed=7)
        assert a == b

    def test_gnp_extremes(self):
        assert erdos_renyi_gnp(10, 0.0, seed=0).m == 0
        assert erdos_renyi_gnp(10, 1.0, seed=0).m == 45

    def test_gnp_bad_p(self):
        with pytest.raises(ConfigurationError):
            erdos_renyi_gnp(10, 1.5)

    def test_gnm_exact_edges(self):
        for m in (0, 1, 10, 45):
            g = erdos_renyi_gnm(10, m, seed=3)
            assert g.m == m
            g.validate()

    # Content hashes recorded with the per-edge decoder (one sqrt and
    # one add_edge per edge); the array decoder must reproduce them.  The
    # last case is the graph scalability.fast_scale measures.
    @pytest.mark.parametrize(
        "n, m, seed, digest",
        [
            (10, 0, 3, "da917b9eae15358f485f29fcf445db37"
                       "a637e0515ee7493351a0d68931758da5"),
            (10, 45, 3, "3698c771f69fd0950a2803bdd870d272"
                        "f75a0692de38e1e33131738915f7ce4a"),
            (50, 200, 7, "49491319d07707ae7a6d347a1fd323e1"
                         "39a0539f605b163533b6cb006f9399fc"),
            (1000, 3000, 11, "f2d61bfef6edf59a4588afea297b5888"
                             "9a456fa9bc31940c2633139d20a054fd"),
            (50_000, 20, 4, "e397881126a4ba5cbd4cc1e3e871916d"
                            "0bd2549269391a75ca293b4e8fa6e508"),
            (100_000, 200_000, 1, "e0b1f7863ba363532a15d6fc03c82617"
                                  "3c50b1909e227505ca4d953ee7f88a5f"),
        ],
    )
    def test_gnm_seeded_output_is_pinned(self, n, m, seed, digest):
        g = erdos_renyi_gnm(n, m, seed=seed)
        assert (g.n, g.m) == (n, m)
        assert g.content_hash() == digest

    def test_gnm_too_many(self):
        with pytest.raises(ConfigurationError):
            erdos_renyi_gnm(5, 11)

    def test_random_regular(self):
        g = random_regular_graph(12, 3, seed=5)
        assert all(g.degree(v) == 3 for v in g.vertices())
        g.validate()

    def test_random_regular_parity(self):
        with pytest.raises(ConfigurationError):
            random_regular_graph(5, 3)


class TestScaleFreeAndSmallWorld:
    def test_ba_counts(self):
        n, attach = 50, 3
        g = barabasi_albert_graph(n, attach, seed=1)
        assert g.n == n
        # seed star contributes `attach` edges, every later vertex `attach`
        assert g.m == attach + attach * (n - attach - 1)
        assert g.is_connected()

    def test_ba_hub_emerges(self):
        g = barabasi_albert_graph(200, 2, seed=3)
        degrees = sorted(g.degree(v) for v in g.vertices())
        # preferential attachment: the top hub far exceeds the median
        assert degrees[-1] >= 4 * degrees[len(degrees) // 2]
        assert degrees[0] >= 2  # every arrival brings `attach` edges

    def test_ba_reproducible(self):
        assert barabasi_albert_graph(40, 3, seed=9) == \
            barabasi_albert_graph(40, 3, seed=9)

    def test_ba_validation(self):
        with pytest.raises(ConfigurationError):
            barabasi_albert_graph(3, 3)
        with pytest.raises(ConfigurationError):
            barabasi_albert_graph(10, 0)

    @pytest.mark.parametrize("beta", [0.0, 0.2, 1.0])
    def test_ws_edge_count_preserved(self, beta):
        n, d = 40, 4
        g = watts_strogatz_graph(n, d, beta, seed=2)
        assert (g.n, g.m) == (n, n * d // 2)
        g.validate()

    def test_ws_lattice_at_beta_zero(self):
        g = watts_strogatz_graph(30, 4, 0.0, seed=0)
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert g.is_connected()
        from repro.graphs import girth

        assert girth(g) == 3  # d=4 ring lattice has triangles

    def test_ws_rewiring_changes_graph(self):
        a = watts_strogatz_graph(40, 4, 0.0, seed=5)
        b = watts_strogatz_graph(40, 4, 0.8, seed=5)
        assert a != b

    def test_ws_validation(self):
        with pytest.raises(ConfigurationError):
            watts_strogatz_graph(10, 3, 0.1)  # odd d
        with pytest.raises(ConfigurationError):
            watts_strogatz_graph(4, 4, 0.1)  # d >= n
        with pytest.raises(ConfigurationError):
            watts_strogatz_graph(10, 4, 1.5)  # beta out of range

    def test_powerlaw_simple_and_reproducible(self):
        g = powerlaw_configuration_graph(60, 2.5, seed=4)
        g.validate()
        assert g.n == 60
        assert g.m > 0
        assert g == powerlaw_configuration_graph(60, 2.5, seed=4)

    def test_powerlaw_tail_heavier_for_smaller_exponent(self):
        flat = powerlaw_configuration_graph(300, 3.5, seed=6)
        heavy = powerlaw_configuration_graph(300, 1.8, seed=6)
        assert heavy.max_degree() > flat.max_degree()

    def test_powerlaw_min_degree_floor(self):
        g = powerlaw_configuration_graph(80, 2.2, min_degree=2, seed=7)
        # erased self-loops/duplicates can only lower degrees slightly;
        # the vast majority must sit at or above the floor
        low = sum(1 for v in g.vertices() if g.degree(v) < 2)
        assert low <= g.n // 10

    def test_powerlaw_validation(self):
        with pytest.raises(ConfigurationError):
            powerlaw_configuration_graph(50, 1.0)
        with pytest.raises(ConfigurationError):
            powerlaw_configuration_graph(50, 2.5, min_degree=0)
        with pytest.raises(ConfigurationError):
            powerlaw_configuration_graph(2, 2.5, min_degree=5)


class TestPaperFamilies:
    def test_figure1_exact(self):
        g = figure1_graph()
        assert (g.n, g.m) == (5, 7)
        # The 5-cycle (u, x, z, y, v) = (0, 2, 4, 3, 1) exists.
        for a, b in [(0, 2), (2, 4), (4, 3), (3, 1), (1, 0)]:
            assert g.has_edge(a, b)

    def test_theta(self):
        g = theta_graph(3, 4)
        assert g.n == 2 + 3 * 3
        assert g.m == 3 * 4
        assert g.degree(0) == 3 and g.degree(1) == 3
        # two paths of length 4 close an 8-cycle
        assert has_k_cycle(g, 8)
        assert girth(g) == 8

    def test_theta_args(self):
        with pytest.raises(ConfigurationError):
            theta_graph(0, 3)
        with pytest.raises(ConfigurationError):
            theta_graph(3, 1)

    def test_flower(self):
        k, petals = 5, 4
        g = flower_graph(petals, k)
        assert g.has_edge(0, 1)
        assert has_k_cycle(g, k)
        # every petal + shared edge is a k-cycle: count >= petals cycles
        from repro.graphs import count_k_cycles

        assert count_k_cycles(g, k) == petals

    def test_blowup_structure(self):
        k, w = 6, 3
        g = blowup_graph(w, k)
        assert g.n == 2 + (k - 2) * w
        assert g.has_edge(0, 1)
        assert has_k_cycle(g, k)
        from repro.graphs import has_cycle_through_edge

        assert has_cycle_through_edge(g, (0, 1), k)

    def test_blowup_k3(self):
        g = blowup_graph(4, 3)
        assert g.n == 2 + 4
        assert has_k_cycle(g, 3)

    def test_chorded_cycle(self):
        g = chorded_cycle_graph(6)
        assert g.m == 7
        assert has_k_cycle(g, 6)
        with pytest.raises(ConfigurationError):
            chorded_cycle_graph(5, chord=(0, 1))

    def test_disjoint_cycles(self):
        g = disjoint_cycles_graph(3, 5, connect=True)
        assert g.n == 15
        assert g.m == 15 + 2
        assert g.is_connected()
        from repro.graphs import count_k_cycles

        assert count_k_cycles(g, 5) == 3

    def test_disjoint_cycles_unconnected(self):
        g = disjoint_cycles_graph(2, 4, connect=False)
        assert not g.is_connected()
        assert g.m == 8


class TestPlantedInstances:
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 8])
    def test_planted_cycle(self, k):
        g, cyc = planted_cycle_graph(20, k, seed=1, extra_edge_prob=0.05)
        assert len(cyc) == k
        for i in range(k):
            assert g.has_edge(cyc[i], cyc[(i + 1) % k])

    def test_planted_cycle_needs_room(self):
        with pytest.raises(ConfigurationError):
            planted_cycle_graph(4, 5)

    @pytest.mark.parametrize("k,eps", [(3, 0.1), (4, 0.1), (5, 0.05), (5, 0.15), (6, 0.1)])
    def test_planted_epsilon_far_certificate(self, k, eps):
        g, certified = planted_epsilon_far_graph(80, k, eps, seed=2)
        assert g.n == 80
        assert certified >= eps
        assert g.is_connected()
        assert has_k_cycle(g, k)

    def test_planted_epsilon_far_impossible(self):
        # eps close to 1 cannot be certified by cycle packing (max 1/k)
        with pytest.raises(ConfigurationError):
            planted_epsilon_far_graph(30, 5, 0.9, seed=0)

    def test_planted_epsilon_far_reproducible(self):
        a, _ = planted_epsilon_far_graph(50, 5, 0.1, seed=9)
        b, _ = planted_epsilon_far_graph(50, 5, 0.1, seed=9)
        assert a == b


class TestCkFreeInstances:
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_odd_k_bipartite(self, k):
        g = ck_free_graph(24, k, seed=4)
        assert is_ck_free(g, k)

    # Content hashes recorded with the original quadratic (BFS per
    # vertex) construction: the linear-time one must reproduce every
    # seeded instance exactly.
    @pytest.mark.parametrize(
        "n, seed, k, m, digest",
        [
            (2, 1, 5, 1, "4d22d868fb490194cd6255bcc3054d59"
                         "df901a512f446cb5c033c6a69e9e0805"),
            (17, 0, 5, 37, "9cadccf1d365f0888e145a0bf536d78a"
                           "e74a942f2c48df414cc164fc4564abf4"),
            (301, 7, 3, 891, "02f2d496c6aca3ba3f67ee9af7f3137b"
                             "02c2a4c66eaf14c912b75159bcc481fa"),
            (3000, 2, 7, 8990, "0d32426ba4e3803b3ea3f874dddbac9b"
                               "b96b7bf01fd3697ecdb3a9f0bd36bd2d"),
        ],
    )
    def test_odd_k_seeded_output_is_pinned(self, n, seed, k, m, digest):
        g = ck_free_graph(n, k, seed=seed)
        assert g.m == m
        assert g.content_hash() == digest

    @pytest.mark.parametrize("k", [4, 6])
    def test_even_k_high_girth(self, k):
        g = ck_free_graph(30, k, seed=4)
        assert is_ck_free(g, k)

    def test_high_girth(self):
        g = high_girth_graph(40, girth_greater_than=6, seed=3)
        gg = girth(g)
        assert gg is None or gg > 6

import itertools

import pytest

from conftest import brute_max_discrete, floyd_warshall, kernel_graph, random_graph
from coarselab.graphs import ball, bfs_distances
from coarselab.probes import discrete_capacity, growth_probe, ray_points
from coarselab.spaces import broom_tree, farey_truncation, grid, regular_tree


class TestDiscreteCapacity:
    def test_separation_one_takes_whole_ball(self):
        t = regular_tree(3, 3)
        rep = discrete_capacity(t.graph, 1, t.basepoint, 2)
        assert set(rep.subset) == ball(t.graph, t.basepoint, 2)
        assert rep.method == "EXACT"

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_matches_brute_force(self, seed):
        g = random_graph(seed, max_vertices=9)
        for d_sep in (2, 3):
            rep = discrete_capacity(g, d_sep, 0, 3, exact_limit=40)
            assert rep.method == "EXACT"
            candidates = ball(g, 0, 3)
            assert rep.cardinality == brute_max_discrete(g, candidates, d_sep)

    def test_reported_subset_is_discrete_and_inside(self):
        t = regular_tree(4, 4)
        rep = discrete_capacity(t.graph, 2, t.basepoint, 3, exact_limit=100)
        dist = {v: bfs_distances(t.graph, v) for v in rep.subset}
        for x, y in itertools.combinations(rep.subset, 2):
            assert dist[x][y] >= 2
        container = ball(t.graph, t.basepoint, 3)
        assert set(rep.subset) <= container

    def test_exact_at_least_greedy(self):
        t = regular_tree(4, 3)
        exact = discrete_capacity(t.graph, 2, t.basepoint, 2, exact_limit=50)
        greedy = discrete_capacity(t.graph, 2, t.basepoint, 2, exact_limit=1)
        assert exact.method == "EXACT" and greedy.method == "GREEDY"
        assert exact.cardinality >= greedy.cardinality

    @pytest.mark.parametrize("seed", range(30))
    def test_greedy_matches_an_ascending_sweep(self, seed):
        # kernel graphs are often disconnected; an unreachable pair (inf)
        # counts as far apart
        g = kernel_graph(seed)
        n = g.vertex_count
        dist = floyd_warshall(g)
        for center, radius, d_sep in itertools.product(range(n), (1, 3, n), (2, 3)):
            chosen = []
            for v in range(n):
                if dist[center][v] <= radius and all(dist[v][w] >= d_sep for w in chosen):
                    chosen.append(v)
            rep = discrete_capacity(g, d_sep, center, radius, exact_limit=0)
            assert rep.method == "GREEDY"
            assert (rep.subset, rep.cardinality) == (tuple(chosen), len(chosen))

    def test_regular_tree_exact_matches_brute(self):
        t = regular_tree(4, 4)
        rep = discrete_capacity(t.graph, 2, t.basepoint, 2, exact_limit=40)
        assert rep.method == "EXACT"
        candidates = ball(t.graph, t.basepoint, 2)
        assert rep.cardinality == brute_max_discrete(t.graph, candidates, 2)

    def test_valence_ceiling(self):
        t = regular_tree(4, 5)
        for radius in (1, 2, 3):
            rep = discrete_capacity(t.graph, 2, t.basepoint, radius, exact_limit=1)
            assert rep.cardinality <= 4**radius + 1

    def test_deterministic(self):
        f = farey_truncation(30)
        a = discrete_capacity(f.graph, 2, f.basepoint, 2)
        b = discrete_capacity(f.graph, 2, f.basepoint, 2)
        assert a == b

    def test_rejects_zero_separation(self):
        with pytest.raises(ValueError):
            discrete_capacity(grid(3).graph, 0, 0, 1)


class TestRayPoints:
    def test_broom_ten_depth_three(self):
        b = broom_tree(10)
        pts = ray_points(b, 3)
        assert len(pts) == 8  # rays 3..10
        dist = {v: bfs_distances(b.graph, v) for v in pts}
        for x, y in itertools.combinations(pts, 2):
            assert dist[x][y] == 6

    def test_depth_zero_is_root(self):
        b = broom_tree(4)
        assert ray_points(b, 0) == {b.basepoint}

    def test_pairwise_exactly_2d(self):
        b = broom_tree(12)
        for depth in (1, 2, 5):
            pts = ray_points(b, depth)
            dist = {v: bfs_distances(b.graph, v) for v in pts}
            for x, y in itertools.combinations(pts, 2):
                assert dist[x][y] == 2 * depth

    def test_feasible_for_capacity_threshold(self):
        # the chosen points are a valid 2D-discrete subset of the stated ball
        b = broom_tree(10)
        depth = 3
        pts = ray_points(b, depth)
        rep = discrete_capacity(b.graph, 2 * depth, b.basepoint, depth, exact_limit=80)
        assert rep.cardinality >= len(pts)

    def test_too_deep_raises(self):
        b = broom_tree(3)
        with pytest.raises(ValueError, match="no ray"):
            ray_points(b, 9)


class TestGrowthProbe:
    def test_farey_trend_increases(self):
        rep = growth_probe(farey_truncation, (10, 20, 40), 2, 2)
        assert rep.verdict == "UNBOUNDED-TREND"
        assert rep.cardinalities[0] < rep.cardinalities[1] < rep.cardinalities[2]

    def test_regular_tree_bounded(self):
        rep = growth_probe(lambda d: regular_tree(4, d), (4, 5, 6), 2, 3)
        assert rep.verdict == "BOUNDED"
        assert len(set(rep.cardinalities)) == 1

    def test_broom_root_neighbors(self):
        # D = 1 with radius 1 counts the closed root star: m + 1 points
        rep = growth_probe(broom_tree, (10, 20, 40), 1, 1)
        assert rep.cardinalities == (11, 21, 41)
        assert rep.verdict == "UNBOUNDED-TREND"

    def test_rejects_non_increasing_params(self):
        with pytest.raises(ValueError):
            growth_probe(broom_tree, (10, 10), 1, 1)

    def test_inconclusive_on_oscillation(self):
        # alternate between two fixed spaces: cardinality oscillates
        spaces = {1: broom_tree(10), 2: broom_tree(3), 3: broom_tree(10)}
        rep = growth_probe(lambda p: spaces[p], (1, 2, 3), 1, 1)
        assert rep.verdict == "INCONCLUSIVE"

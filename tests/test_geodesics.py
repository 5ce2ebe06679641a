import itertools

import pytest

from conftest import brute_shortest_paths, floyd_warshall, random_graph
from coarselab.geodesics import (
    GeodesicFamily,
    check_property_b,
    thin_delta,
)
from coarselab.graphs import MetricGraph, canonical_geodesic, distance
from coarselab.spaces import broom_tree, grid, regular_tree


def cycle_graph(n):
    return MetricGraph(n, [(i, (i + 1) % n) for i in range(n)], name=f"cycle_{n}")


def brute_thin_delta_all(g):
    """Independent thinness oracle: enumerate every geodesic combination of
    every vertex triple and take the worst side defect."""
    dist = floyd_warshall(g)
    best = 0
    for x, y, z in itertools.combinations(range(g.vertex_count), 3):
        for sxy in brute_shortest_paths(g, x, y):
            for syz in brute_shortest_paths(g, y, z):
                for sxz in brute_shortest_paths(g, x, z):
                    for side, o1, o2 in ((sxy, syz, sxz), (syz, sxy, sxz), (sxz, sxy, syz)):
                        other = set(o1) | set(o2)
                        worst = max(min(int(dist[v][w]) for w in other) for v in side)
                        best = max(best, worst)
    return best


class TestGSet:
    def test_tree_r0_is_path_vertices(self):
        b = broom_tree(6)
        fam = GeodesicFamily.all_of(b.graph)
        leaf_a = b.vertex_of("4.4")
        leaf_b = b.vertex_of("6.6")
        expected = set(canonical_geodesic(b.graph, leaf_a, leaf_b).vertices)
        assert fam.union(leaf_a, leaf_b) == expected
        assert fam.union_r(leaf_a, leaf_b, 0) == expected

    def test_same_point(self):
        g = random_graph(3)
        fam = GeodesicFamily.all_of(g)
        assert fam.union(1, 1) == {1}

    @pytest.mark.parametrize("seed", range(20))
    def test_all_family_matches_enumeration(self, seed):
        g = random_graph(seed, max_vertices=9)
        fam = GeodesicFamily.all_of(g)
        for u in range(g.vertex_count):
            for v in range(u, g.vertex_count):
                paths = brute_shortest_paths(g, u, v)
                if not paths and u != v:
                    continue
                expected = {w for p in paths for w in p} if u != v else {u}
                assert fam.union(u, v) == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_canonical_subset_of_all(self, seed):
        g = random_graph(seed, max_vertices=9)
        fa = GeodesicFamily.all_of(g)
        fc = GeodesicFamily.canonical_of(g)
        for u in range(g.vertex_count):
            for v in range(g.vertex_count):
                if u == v or distance(g, u, v) is None:
                    continue
                assert fc.union(u, v) <= fa.union(u, v)

    def test_g_set_r_union_over_balls(self):
        g = cycle_graph(6)
        fam = GeodesicFamily.all_of(g)
        got = fam.union_r(0, 3, 1)
        # independent recomputation from scratch
        expected = set()
        for ap in (5, 0, 1):
            for bp in (2, 3, 4):
                for p in brute_shortest_paths(g, ap, bp):
                    expected |= set(p)
        assert got == expected


class TestThinDelta:
    def test_trees_are_zero_thin(self):
        for space in (broom_tree(15), regular_tree(3, 4)):
            fam = GeodesicFamily.all_of(space.graph)
            rep = thin_delta(space.graph, fam, budget=2000, seed=3)
            assert rep.delta == 0

    def test_six_cycle_matches_oracle(self):
        g = cycle_graph(6)
        fam = GeodesicFamily.all_of(g)
        rep = thin_delta(g, fam, budget=10_000)
        assert rep.exhaustive
        assert rep.delta == brute_thin_delta_all(g)

    def test_small_grid_matches_oracle(self):
        sp = grid(3)
        fam = GeodesicFamily.all_of(sp.graph)
        rep = thin_delta(sp.graph, fam, budget=200_000)
        assert rep.exhaustive
        assert rep.delta == brute_thin_delta_all(sp.graph)

    def test_witness_realizes_delta(self):
        sp = grid(4)
        fam = GeodesicFamily.canonical_of(sp.graph)
        rep = thin_delta(sp.graph, fam, budget=50_000)
        assert rep.exhaustive
        sides = rep.witness_triangle
        dist = floyd_warshall(sp.graph)
        worst = 0
        for i in range(3):
            other = set(sides[(i + 1) % 3].vertices) | set(sides[(i + 2) % 3].vertices)
            for v in sides[i].vertices:
                worst = max(worst, min(int(dist[v][w]) for w in other))
        assert worst == rep.delta

    def test_seed_independent_when_exhaustive(self):
        g = cycle_graph(6)
        fam = GeodesicFamily.all_of(g)
        a = thin_delta(g, fam, budget=10_000, seed=1)
        b = thin_delta(g, fam, budget=10_000, seed=99)
        assert a.exhaustive and b.exhaustive
        assert a.delta == b.delta

    def test_disconnected_raises(self):
        g = MetricGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            thin_delta(g, GeodesicFamily.all_of(g))


class TestPropertyB:
    def test_broom_tree_is_clean(self):
        b = broom_tree(20)
        fam = GeodesicFamily.all_of(b.graph)
        rep = check_property_b(fam, ell=0, k=0, r_max=5, pair_budget=300, seed=1)
        assert rep.observed_D == 1
        assert rep.violations_total == 0
        assert rep.qualifying_found
        assert rep.samples_checked > 0

    def test_regular_tree_k_zero(self):
        t = regular_tree(6, 4)
        fam = GeodesicFamily.all_of(t.graph)
        rep = check_property_b(fam, ell=0, k=0, r_max=3, pair_budget=200, seed=2)
        # |N(a; 2*delta)| = |N(a; 0)| = 1 on a 0-thin graph
        assert rep.observed_D == 1
        assert rep.violations_total == 0

    def test_tree_clean_for_positive_ell(self):
        b = broom_tree(18)
        fam = GeodesicFamily.all_of(b.graph)
        for ell in (1, 3):
            rep = check_property_b(fam, ell=ell, k=0, r_max=3, pair_budget=120, seed=4)
            assert rep.qualifying_found
            assert rep.observed_D == 1
            assert rep.violations_total == 0

    def test_exhaustive_on_small_graph(self):
        b = broom_tree(7)  # 29 vertices, 406 pairs
        fam = GeodesicFamily.all_of(b.graph)
        rep = check_property_b(fam, ell=0, k=0, r_max=4, pair_budget=500, c_budget=64)
        assert rep.exhaustive
        assert rep.observed_D == 1
        assert rep.violations_total == 0

    def test_grid_refutes_intersection_clause(self):
        sp = grid(4)
        fam = GeodesicFamily.all_of(sp.graph)
        rep = check_property_b(fam, ell=0, k=0, r_max=2, pair_budget=200, seed=0)
        assert rep.violations_total > 0
        assert rep.intersection_violations

    def test_grid_violation_witnesses_are_valid(self):
        sp = grid(4)
        g = sp.graph
        fam = GeodesicFamily.all_of(g)
        rep = check_property_b(fam, ell=0, k=1, r_max=2, pair_budget=200, seed=0)
        dist = floyd_warshall(g)
        for v in rep.intersection_violations:
            path = v.geodesic.vertices
            # a geodesic: consecutive edges, minimal length
            for x, y in zip(path, path[1:]):
                assert g.has_edge(x, y)
            assert len(path) - 1 == dist[path[0]][path[-1]]
            # endpoints inside the fattened balls
            assert dist[v.a][path[0]] <= v.r
            assert dist[v.b][path[-1]] <= v.r
            # misses the neighborhood N(c;k)
            assert all(dist[w][v.c] > rep.k for w in path)
            # c is deep on a geodesic between a and b
            assert dist[v.a][v.c] + dist[v.c][v.b] == dist[v.a][v.b]
            assert min(dist[v.a][v.c], dist[v.b][v.c]) >= v.r + rep.ell

    def test_grid_observed_D_grows_with_k(self):
        sp = grid(4)
        fam = GeodesicFamily.all_of(sp.graph)
        values = []
        for k in (0, 1, 2):
            rep = check_property_b(fam, ell=0, k=k, r_max=2, pair_budget=200, seed=0)
            values.append(rep.observed_D)
        assert values[0] == 1
        assert values[0] <= values[1] <= values[2]
        assert values[2] > 1

    def test_family_monotone(self):
        sp = grid(3)
        fa = GeodesicFamily.all_of(sp.graph)
        fc = GeodesicFamily.canonical_of(sp.graph)
        ra = check_property_b(fa, ell=0, k=1, r_max=2, pair_budget=100, seed=0)
        rc = check_property_b(fc, ell=0, k=1, r_max=2, pair_budget=100, seed=0)
        assert rc.observed_D <= ra.observed_D

    def test_no_qualifying_is_flagged(self):
        g = MetricGraph(3, [(0, 1), (1, 2)], name="tiny")
        fam = GeodesicFamily.all_of(g)
        rep = check_property_b(fam, ell=10, k=0, r_max=2, pair_budget=10)
        assert not rep.qualifying_found
        assert rep.observed_D == 0

    def test_deterministic_for_seed(self):
        b = broom_tree(25)
        fam = GeodesicFamily.all_of(b.graph)
        r1 = check_property_b(fam, ell=0, k=0, r_max=3, pair_budget=40, seed=7)
        r2 = check_property_b(fam, ell=0, k=0, r_max=3, pair_budget=40, seed=7)
        assert r1 == r2
        assert not r1.exhaustive

    def test_tree_counts_with_positive_k(self):
        # on a path, G(a,b;r) ∩ N(c;k) is an interval of the path
        g = MetricGraph(21, [(i, i + 1) for i in range(20)], name="long_path")
        fam = GeodesicFamily.all_of(g)
        rep = check_property_b(fam, ell=0, k=2, r_max=2, pair_budget=300, seed=0)
        # the deepest c sees exactly the 2k+1 path vertices around it
        assert rep.observed_D == 5
        assert rep.violations_total == 0

    def test_canonical_family_on_grid_violations(self):
        sp = grid(3)
        fam = GeodesicFamily.canonical_of(sp.graph)
        rep = check_property_b(fam, ell=0, k=0, r_max=1, pair_budget=100, seed=0)
        # canonical geodesics between fattened endpoints still dodge c
        assert rep.violations_total > 0

import collections
import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_path_counts, brute_shortest_paths, floyd_warshall, kernel_graph, random_graph, spy_rows
from coarselab import geodesics, graphs
from coarselab.geodesics import (
    GeodesicFamily,
    _pair_from_rank,
    check_property_b,
    thin_delta,
)
from coarselab.graphs import MetricGraph, ball, canonical_geodesic, distance
from coarselab.spaces import broom_tree, farey_truncation, grid, regular_tree


def cycle_graph(n):
    return MetricGraph(n, [(i, (i + 1) % n) for i in range(n)], name=f"cycle_{n}")


def triangle_defect(dist, sides):
    """Worst distance from a side vertex to the union of the other two sides."""
    worst = 0
    for i in range(3):
        other = set(sides[(i + 1) % 3]) | set(sides[(i + 2) % 3])
        worst = max(worst, max(min(int(dist[v][w]) for w in other) for v in sides[i]))
    return worst


def brute_triangles(g, kind, dist, triples):
    """Every geodesic triangle over ``triples`` in enumeration order: triple
    by triple, each triple's sides x-y, y-z, x-z in itertools.product order
    of their shortest paths, listed lexicographically by a search down the
    Floyd-Warshall table. For the canonical kind each side is the
    lexicographically least shortest path."""

    def paths(u, v):
        if u == v:
            return [(v,)]
        return [(u, *rest) for w in g.neighbors(u) if dist[w][v] == dist[u][v] - 1 for rest in paths(w, v)]

    for x, y, z in triples:
        sides = [paths(u, v) for u, v in ((x, y), (y, z), (x, z))]
        yield from itertools.product(*(side[:1] for side in sides) if kind == "canonical" else sides)


def brute_thin_delta(g, kind):
    """Independent thinness oracle: enumerate every geodesic combination of
    every vertex triple and take the worst side defect."""
    dist = floyd_warshall(g)
    triples = itertools.combinations(range(g.vertex_count), 3)
    return max((triangle_defect(dist, tri) for tri in brute_triangles(g, kind, dist, triples)), default=0)


def random_tree(seed, max_vertices=9):
    rng = random.Random(seed)
    n = rng.randint(3, max_vertices)
    return MetricGraph(n, [(rng.randrange(v), v) for v in range(1, n)], name=f"tree_{seed}")


def connected_random_graphs(count, max_vertices=9):
    out = []
    seed = 0
    while len(out) < count:
        g = random_graph(seed, max_vertices=max_vertices, edge_prob=0.4)
        if g.vertex_count >= 3 and g.is_connected:
            out.append(g)
        seed += 1
    return out


def larger_graph(seed, max_vertices=25):
    """A random spanning tree on up to ``max_vertices`` vertices; from seed
    2 on with extra edges, a few or one per vertex."""
    rng = random.Random(seed)
    n = rng.randint(12, max_vertices)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range((0, 0, 2, 4, n // 2, n)[seed % 6])]
    return MetricGraph(n, edges, name=f"larger_{seed}")


def count_start_overs(monkeypatch) -> list:
    """Record each start-over of a row store that holds rows; the ``_clear``
    that sets up a new store is not one."""
    starts = []
    real = graphs._Rows._clear

    def spy(rows):
        if getattr(rows, "_slot", None):
            starts.append(1)
        real(rows)

    monkeypatch.setattr(graphs._Rows, "_clear", spy)
    return starts


ORACLE_GRAPHS = (
    connected_random_graphs(20) + [random_tree(seed) for seed in range(10)] + [larger_graph(seed) for seed in range(6)]
)


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

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("kind", ["all", "canonical"])
    def test_union_r_matches_oracle(self, seed, kind):
        g = random_graph(seed, max_vertices=9, edge_prob=0.35)
        dist = floyd_warshall(g)
        n = g.vertex_count
        fam = GeodesicFamily(g, kind)

        def family(u, v):
            if kind == "canonical":
                return [canonical_geodesic(g, u, v).vertices]
            return brute_shortest_paths(g, u, v)

        for a, b in itertools.product(range(n), repeat=2):
            if dist[a][b] == float("inf"):
                with pytest.raises(ValueError, match="unreachable"):
                    fam.union_r(a, b, 0)
                continue
            for r in (0, 1, 2):
                ball_a = [x for x in range(n) if dist[a][x] <= r]
                ball_b = [x for x in range(n) if dist[b][x] <= r]
                expected = {w for ap in ball_a for bp in ball_b for p in family(ap, bp) for w in p}
                assert fam.union_r(a, b, r) == expected

    def test_union_r_rejects_negative_radius(self):
        fam = GeodesicFamily.canonical_of(cycle_graph(5))
        with pytest.raises(ValueError, match="nonnegative"):
            fam.union_r(0, 2, -1)


def old_pair_from_rank(rank, n):
    """The row-by-row walk _pair_from_rank replaced, kept as its oracle."""
    a = 0
    remaining = rank
    row = n - 1
    while remaining >= row:
        remaining -= row
        a += 1
        row -= 1
    return a, a + 1 + remaining


class TestPairFromRank:
    @pytest.mark.parametrize("n", range(2, 61))
    def test_every_rank_of_small_n(self, n):
        assert [_pair_from_rank(t, n) for t in range(n * (n - 1) // 2)] == list(itertools.combinations(range(n), 2))

    def test_large_n_against_row_walk(self):
        n = 45_151
        total = n * (n - 1) // 2
        rng = random.Random(0)
        ranks = rng.sample(range(total), 200)
        # the first and last rank of rows at both ends, in the middle and under 40 sampled ranks
        rows = {0, 1, 2, n // 2, n - 3, n - 2, *(old_pair_from_rank(t, n)[0] for t in ranks[:40])}
        for a in rows:
            start = a * (2 * n - a - 1) // 2
            ranks += [start, start + n - 2 - a]
        ranks += [total - 1]
        for t in ranks:
            assert _pair_from_rank(t, n) == old_pair_from_rank(t, n)


class TestFamilyValidation:
    def test_unknown_kind_raises(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError, match="kind"):
            GeodesicFamily(g, "Canonical")


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
        assert rep.delta == brute_thin_delta(g, "all")

    def test_small_grid_matches_oracle(self):
        sp = grid(3)
        fam = GeodesicFamily.all_of(sp.graph)
        rep = thin_delta(sp.graph, fam, budget=200_000)
        assert rep.exhaustive
        assert rep.delta == brute_thin_delta(sp.graph, "all")

    def test_witness_realizes_delta(self):
        sp = grid(4)
        fam = GeodesicFamily.canonical_of(sp.graph)
        rep = thin_delta(sp.graph, fam, budget=50_000)
        assert rep.exhaustive
        sides = [s.vertices for s in rep.witness_triangle]
        assert triangle_defect(floyd_warshall(sp.graph), sides) == rep.delta

    @pytest.mark.parametrize("index", range(len(ORACLE_GRAPHS)))
    @pytest.mark.parametrize("kind", ["all", "canonical"])
    def test_matches_oracle_with_and_without_table(self, monkeypatch, index, kind):
        g = ORACLE_GRAPHS[index]
        expected = brute_thin_delta(g, kind)
        dist = floyd_warshall(g)
        # with the rows memoised, then with a store of one source's rows
        for cells in (graphs._ROW_CELLS, 0):
            monkeypatch.setattr(graphs, "_ROW_CELLS", cells)
            rep = thin_delta(g, GeodesicFamily(g, kind), budget=10**6)
            assert rep.exhaustive
            assert rep.delta == expected
            sxy, syz, sxz = (s.vertices for s in rep.witness_triangle)
            x, y, z = sxy[0], syz[0], sxz[-1]
            for side, (u, v) in ((sxy, (x, y)), (syz, (y, z)), (sxz, (x, z))):
                paths = brute_shortest_paths(g, u, v)
                assert side in (paths[:1] if kind == "canonical" else paths)
            assert triangle_defect(dist, (sxy, syz, sxz)) == expected

    @pytest.mark.parametrize("kind", ["canonical", "all"])
    def test_budget_cut_matches_a_brute_pass(self, monkeypatch, kind):
        # 21 vertices with cycles: 1,330 triples, so 1,000 are sampled. In a
        # store of six rows a run has at most six far ends. The all family
        # runs out of budget in the second triple of a nine-triple run,
        # partway through that triple's product.
        g = larger_graph(5)
        dist = floyd_warshall(g)
        monkeypatch.setattr(graphs, "_ROW_CELLS", 6 * g.vertex_count)
        runs = []
        real = geodesics._loaded_runs

        def spy(items, rows, ends, *bounds):
            for chunk, far_ends in real(items, rows, ends, *bounds):
                runs.append(list(chunk))
                yield chunk, far_ends

        monkeypatch.setattr(geodesics, "_loaded_runs", spy)
        budget = 1000
        rep = thin_delta(g, GeodesicFamily(g, kind), budget=budget, seed=7)
        triples = [triple for run in runs for triple in run]
        assert len(runs) > 1 and triples == sorted(set(triples))
        if kind == "all":
            before = sum(1 for _ in brute_triangles(g, kind, dist, triples[:-8]))
            cut = len(list(brute_triangles(g, kind, dist, triples[-8:-7])))
            assert len(runs[-1]) == 9 and before < budget < before + cut
        first = list(itertools.islice(brute_triangles(g, kind, dist, triples), budget))
        defects = [triangle_defect(dist, tri) for tri in first]
        assert rep.triangles_checked == len(first) == budget and not rep.exhaustive
        assert rep.delta == max(defects)
        assert tuple(side.vertices for side in rep.witness_triangle) == first[defects.index(rep.delta)]

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

    @staticmethod
    def count_calls(monkeypatch, owner, name) -> list:
        calls = []
        real = getattr(owner, name)

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, spy)
        return calls

    @pytest.mark.parametrize("kind", ["all", "canonical"])
    def test_small_store_gives_the_same_report(self, monkeypatch, kind):
        g = farey_truncation(12).graph
        fam = GeodesicFamily(g, kind)
        default = thin_delta(g, fam, budget=300, seed=5)
        # a store of 20 rows: chunks of at most 20 far ends, each load
        # emptying the store the chunk before filled
        monkeypatch.setattr(graphs, "_ROW_CELLS", 20 * g.vertex_count)
        loads = self.count_calls(monkeypatch, graphs._Rows, "load")
        clears = count_start_overs(monkeypatch)
        assert thin_delta(g, fam, budget=300, seed=5) == default
        assert len(loads) >= 3 and len(clears) >= 2
        assert all(len(set(ends)) <= 20 for _, ends in loads)

    def test_one_list_bfs_per_block(self, monkeypatch):
        # The name is kept from when each block spent one list BFS on its
        # first row; now no row of the run is a list BFS.
        g = farey_truncation(30).graph
        assert g.is_connected  # its BFS runs before the spies
        fam = GeodesicFamily.canonical_of(g)
        searches = self.count_calls(monkeypatch, graphs, "_dense_bfs")
        blocks = self.count_calls(monkeypatch, graphs, "_distance_rows")
        assert thin_delta(g, fam, budget=500).triangles_checked == 500
        # the run's far ends fill kernel blocks of 64, all but the last full
        sizes = [len(sources) for _, sources in blocks]
        assert not searches and sum(sizes) > 500
        assert all(size == 64 for size in sizes[:-1]) and 0 < sizes[-1] <= 64

    def test_one_walk_and_one_defect_pass_per_store_sized_run(self, monkeypatch):
        # farey:30 holds 1,885 rows in the default store, more than the far
        # ends of 500 triples: one run, one walk of every side, one defect
        # pass; a store of 50 rows, with defect batches of one word, gives
        # the same report
        g = farey_truncation(30).graph
        fam = GeodesicFamily.canonical_of(g)
        walks = self.count_calls(monkeypatch, geodesics, "_canonical_walks")
        defects = self.count_calls(monkeypatch, geodesics, "_triangle_defects")
        default = thin_delta(g, fam, budget=500)
        assert len(walks) == len(defects) == 1
        assert len(walks[0][1]) == len(defects[0][1]) > 500
        monkeypatch.setattr(graphs, "_ROW_CELLS", 50 * g.vertex_count)
        walks.clear()
        assert thin_delta(g, fam, budget=500) == default
        assert len(walks) > 10


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

    def test_canonical_walks_share_one_list_per_far_end(self, monkeypatch):
        from coarselab import geodesics

        g = grid(8).graph
        rows = graphs._Rows(g)
        walks = []
        real = geodesics._canonical_walk

        def spy(adj, dist, u):
            walk = real(adj, dist, u)
            walks.append((walk[-1], dist, walk))  # the list stays alive, so ids stay distinct
            return walk

        monkeypatch.setattr(geodesics, "_canonical_walk", spy)
        (pair,) = geodesics._PairChecker.run(GeodesicFamily.canonical_of(g), rows, [(9, 54)], 0, 1, 2, {})
        pool = pair.qualifying_pool()
        for r in range(3):
            pair.counts(r, pool)
        ends = {end for end, _, _ in walks}
        assert len(ends) > 1 and len(walks) > 2 * len(ends)
        # one row list per far end, however many walks read it
        assert len({id(dist) for _, dist, _ in walks}) == len(ends)
        for end, dist, walk in walks:
            assert dist == rows[end].tolist()
            assert tuple(walk) == canonical_geodesic(g, walk[0], end).vertices

    def test_canonical_family_on_grid_violations(self):
        sp = grid(3)
        fam = GeodesicFamily.canonical_of(sp.graph)
        rep = check_property_b(fam, ell=0, k=0, r_max=1, pair_budget=100, seed=0)
        # canonical geodesics between fattened endpoints still dodge c
        assert rep.violations_total > 0


def brute_property_b(g, kind, ell, k, r_max):
    """Independent boundedness oracle: every instance (a, b, r, c) from
    shortest-path enumeration. Returns the max |G(a,b;r) ∩ N(c;k)|, whether
    any instance qualified, the number of instances, and the violating ones."""
    dist = floyd_warshall(g)
    n = g.vertex_count
    paths = {}

    def family(u, v):
        if (u, v) not in paths:
            found = brute_shortest_paths(g, u, v)
            paths[(u, v)] = found[:1] if kind == "canonical" else found
        return paths[(u, v)]

    def ball(x, r):
        return [y for y in range(n) if dist[x][y] <= r]

    observed, qualifying, instances, violating = 0, False, 0, set()
    for a, b in itertools.combinations(range(n), 2):
        if dist[a][b] == float("inf"):
            continue
        g_ab = {w for p in family(a, b) for w in p}
        depth = {c: min(dist[a][c], dist[b][c]) for c in g_ab}
        qualifying = qualifying or any(depth[c] >= ell for c in g_ab)
        for r in range(r_max + 1):
            paths_r = [p for ap in ball(a, r) for bp in ball(b, r) for p in family(ap, bp)]
            g_abr = {w for p in paths_r for w in p}
            for c in sorted(c for c in g_ab if depth[c] >= r + ell):
                instances += 1
                hood = {w for w in range(n) if dist[c][w] <= k}
                observed = max(observed, len(g_abr & hood))
                if any(not hood.intersection(p) for p in paths_r):
                    violating.add((a, b, r, c))
    return observed, qualifying, instances, violating


def non_tree_random_graphs(count, min_vertices=6, max_vertices=11):
    out = []
    seed = 0
    while len(out) < count:
        g = random_graph(seed, max_vertices=max_vertices, edge_prob=0.35)
        if g.vertex_count >= min_vertices and not g.is_tree:
            out.append(g)
        seed += 1
    return out


PROPB_GRAPHS = non_tree_random_graphs(10)


class TestPropertyBOracle:
    """check_property_b against brute force, exhaustively, on connected and
    disconnected random graphs. With r_max <= 1 most pair envelopes, whose
    columns bound the union G(a,b;r), are strict subsets of the graph; with
    r_max = 2 many cover it."""

    @pytest.mark.parametrize("index", range(len(PROPB_GRAPHS)))
    @pytest.mark.parametrize("kind", ["all", "canonical"])
    def test_matches_brute_force(self, index, kind):
        g = PROPB_GRAPHS[index]
        dist = floyd_warshall(g)
        n = g.vertex_count
        fam = GeodesicFamily(g, kind)
        for r_max, k, ell in itertools.product((0, 1, 2), (0, 1, 2), (0, 1)):
            rep = check_property_b(
                fam, ell=ell, k=k, r_max=r_max, pair_budget=n * n, c_budget=n, violation_cap=n**4
            )
            observed, qualifying, instances, violating = brute_property_b(g, kind, ell, k, r_max)
            assert rep.exhaustive
            assert (rep.observed_D, rep.qualifying_found) == (observed, qualifying)
            assert (rep.samples_checked, rep.violations_total) == (instances, len(violating))
            assert {(v.a, v.b, v.r, v.c) for v in rep.intersection_violations} == violating
            for v in rep.intersection_violations:
                path = v.geodesic.vertices
                assert path in brute_shortest_paths(g, path[0], path[-1])[: 1 if kind == "canonical" else None]
                assert dist[v.a][path[0]] <= v.r and dist[v.b][path[-1]] <= v.r
                assert all(dist[w][v.c] > k for w in path)


def larger_non_tree_graphs(count, min_vertices=20, max_vertices=30):
    out = []
    seed = 100
    while len(out) < count:
        g = random_graph(seed, max_vertices=max_vertices, edge_prob=0.15)
        if g.vertex_count >= min_vertices and not g.is_tree:
            out.append(g)
        seed += 1
    return out


RUN_GRAPHS = PROPB_GRAPHS + larger_non_tree_graphs(4)


class TestPairRuns:
    """The rows of a run of pairs arrive in blocks that fit the store;
    neither the store's size nor the block's changes a report."""

    @pytest.mark.parametrize("index", range(len(RUN_GRAPHS)))
    @pytest.mark.parametrize("kind", ["all", "canonical"])
    def test_store_and_block_sizes_give_the_same_reports(self, monkeypatch, index, kind):
        g = RUN_GRAPHS[index]
        n = g.vertex_count
        fam = GeodesicFamily(g, kind)
        runs = [dict(ell=ell, k=k, r_max=2, pair_budget=150, c_budget=6, seed=index) for k, ell in ((0, 0), (1, 1), (2, 0))]
        default = [check_property_b(fam, **run) for run in runs]
        assert any(rep.qualifying_found for rep in default)
        full, clears = graphs._ROW_CELLS, count_start_overs(monkeypatch)
        # a store of 6 distance rows, or 2 sources' distance and count rows
        for cells, block in ((6 * n, 64), (full, 1), (6 * n, 1)):
            monkeypatch.setattr(graphs, "_ROW_CELLS", cells)
            monkeypatch.setattr(graphs, "_BLOCK", block)
            monkeypatch.setattr(geodesics, "_BLOCK", block)
            clears.clear()
            assert [check_property_b(fam, **run) for run in runs] == default
            assert bool(clears) == (cells < full)


class TestUnionCubes:
    """For all geodesics, G(a,b;r) compares an |A| x |B| x |E| cube of
    distances, cut into slices of rows of A of at most ``_CUBE_CELLS``
    cells, and the σ clause's level pass reads its (pair, centre, cell)
    entries in slices of at most a 64th of ``_CUBE_CELLS``; no bound
    changes a report."""

    @pytest.mark.parametrize("bound", [1, 300, geodesics._CUBE_CELLS])
    @pytest.mark.parametrize("kind", ["all", "canonical"])
    def test_sliced_union_cubes_give_the_same_reports(self, monkeypatch, bound, kind):
        runs = [dict(ell=ell, k=k, r_max=2, pair_budget=60, c_budget=6, seed=3) for k, ell in ((1, 0), (2, 1), (0, 0))]
        cases = [(GeodesicFamily(g, kind), run) for g in larger_non_tree_graphs(4) + [grid(6).graph] for run in runs]
        # the reference reads every cube whole
        monkeypatch.setattr(geodesics, "_CUBE_CELLS", 2**62)
        whole = [check_property_b(fam, **run) for fam, run in cases]
        assert any(rep.observed_D > 1 for rep in whole)
        cubes, slices = [], []
        real_union, real_avoided = geodesics._PairChecker._members_of_union_r, geodesics._avoided

        def union(checker, A, B):
            cubes.append(len(A) * len(B) * checker.envelope.size)
            return real_union(checker, A, B)

        def avoided(rows, ap, bp, c):
            slices.append(ap.size)
            return real_avoided(rows, ap, bp, c)

        monkeypatch.setattr(geodesics._PairChecker, "_members_of_union_r", union)
        monkeypatch.setattr(geodesics, "_avoided", avoided)
        monkeypatch.setattr(geodesics, "_CUBE_CELLS", bound)
        assert [check_property_b(fam, **run) for fam, run in cases] == whole
        assert max(cubes) > 300
        # the σ clause runs for the all family only; its slices keep to the bound
        assert bool(slices) == (kind == "all") and max(slices, default=0) <= max(1, bound // 64)
        if kind == "all" and bound > 300:
            assert max(slices) > 300


ROW_ONCE_GRAPHS = [larger_graph(seed) for seed in range(6)] + [farey_truncation(12).graph, grid(8).graph]


class TestRowsComputedOnce:
    """With the default store, a thin_delta or check_property_b call
    computes each distance row and each count row once."""

    @pytest.mark.parametrize("g", ROW_ONCE_GRAPHS, ids=lambda g: g.name)
    @pytest.mark.parametrize("kind", ["all", "canonical"])
    def test_thin_delta(self, monkeypatch, g, kind):
        assert g.is_connected  # its BFS runs before the spies
        single, batched, counted = spy_rows(monkeypatch)
        thin_delta(g, GeodesicFamily(g, kind), budget=400, seed=3)
        dist = single + sum(batched, [])
        assert dist and len(dist) == len(set(dist)) and not counted

    # on a tree, property B reads the tree metric and no rows
    @pytest.mark.parametrize("g", [g for g in ROW_ONCE_GRAPHS if not g.is_tree], ids=lambda g: g.name)
    @pytest.mark.parametrize("kind", ["all", "canonical"])
    @pytest.mark.parametrize("k, ell", [(0, 0), (1, 1)])
    def test_property_b(self, monkeypatch, g, kind, k, ell):
        assert g.is_connected
        single, batched, counted = spy_rows(monkeypatch)
        check_property_b(GeodesicFamily(g, kind), ell=ell, k=k, r_max=2, pair_budget=60, c_budget=8, seed=3)
        dist, counts = single + sum(batched, []), sum(counted, [])
        assert dist and len(dist) == len(set(dist)) and len(counts) == len(set(counts))
        assert bool(counts) == (kind == "all" and k == 0)


def shuffled_tree(rng, n, parent_of, name):
    """A tree on n vertices with vertex v hung off parent_of(v), under a
    random relabelling."""
    label = list(range(n))
    rng.shuffle(label)
    return MetricGraph(n, [(label[parent_of(v)], label[v]) for v in range(1, n)], name=name)


def tree_oracle_graphs(max_vertices):
    rng = random.Random(13)
    trees = []
    for n in (2, 3, max_vertices):
        trees.append(shuffled_tree(rng, n, lambda v: v - 1, f"path_{n}"))
        trees.append(shuffled_tree(rng, n, lambda v: 0, f"star_{n}"))
    for seed in range(4):
        n = rng.randint(4, max_vertices)
        trees.append(shuffled_tree(rng, n, lambda v: rng.randrange(v), f"random_{seed}"))
    trees.append(broom_tree(3).graph)  # 7 vertices, ids in ray order
    # a broom with two rays of length 3 and one of length 2, ids shuffled
    broom = [0, 0, 1, 2, 0, 4, 5, 0, 7]
    trees.append(shuffled_tree(rng, len(broom), broom.__getitem__, "broom_shuffled"))
    return trees


TREE_ORACLE_GRAPHS = tree_oracle_graphs(9)


@st.composite
def small_trees(draw, max_vertices):
    """A tree on at most ``max_vertices`` vertices, each hung off an
    earlier one, under a drawn relabelling."""
    n = draw(st.sampled_from(range(2, max_vertices + 1)))  # integers() would favour the smallest
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    label = draw(st.permutations(range(n)))
    return MetricGraph(n, [(label[p], label[v]) for v, p in enumerate(parents, 1)], name=f"drawn_{n}")


def assert_tree_matches_brute_force(g, ell, k, r_max):
    assert g.is_tree
    n = g.vertex_count
    # On a tree both families are the one geodesic of each pair.
    observed, qualifying, instances, violating = brute_property_b(g, "all", ell, k, r_max)
    assert not violating
    for kind in ("all", "canonical"):
        rep = check_property_b(GeodesicFamily(g, kind), ell=ell, k=k, r_max=r_max, pair_budget=n * n, c_budget=n)
        assert rep.exhaustive
        assert (rep.observed_D, rep.qualifying_found) == (observed, qualifying)
        assert (rep.samples_checked, rep.violations_total) == (instances, 0)


class TestTreePropertyB:
    """The tree backend against brute force, exhaustively, and against the
    table backend at sampled budgets. It rests on two lemmas: w joins
    G(a,b;r) at r = 0 on [a,b] and at min(d(a,w), d(b,w)) off it, since
    every path from a or b into w's branch goes through w; and no geodesic
    at radius r avoids a centre at depth r or more, since N(a;r) projects
    onto [a,c] and N(b;r) onto [c,b]."""

    @pytest.mark.parametrize("index", range(len(TREE_ORACLE_GRAPHS)))
    def test_matches_brute_force(self, index):
        g = TREE_ORACLE_GRAPHS[index]
        assert g.is_tree
        n = g.vertex_count
        for r_max, k, ell in itertools.product((0, 1, 2, 3, 4), (0, 1, 2, 3), (0, 1)):
            assert_tree_matches_brute_force(g, ell, k, r_max)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(g=small_trees(10), ell=st.integers(0, 2), k=st.integers(0, 3), r_max=st.integers(0, 4))
    def test_matches_brute_force_on_drawn_trees(self, g, ell, k, r_max):
        assert_tree_matches_brute_force(g, ell, k, r_max)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["all", "canonical"])
    def test_matches_the_table_backend(self, monkeypatch, seed, kind):
        rng = random.Random(seed)
        n = rng.randint(30, 90)
        shapes = (lambda v: rng.randrange(v), lambda v: max(0, v - rng.randint(1, 3)), lambda v: v - 1 if v % 9 else 0)
        g = shuffled_tree(rng, n, shapes[seed % 3], f"tree_{seed}")
        fam = GeodesicFamily(g, kind)
        params = [
            dict(ell=rng.randint(0, 2), k=rng.randint(0, 2), r_max=rng.randint(0, 4), pair_budget=rng.randint(5, 60),
                 c_budget=rng.randint(1, 8), seed=rng.randrange(100))
            for _ in range(6)
        ]
        tree = [check_property_b(fam, **p) for p in params]
        monkeypatch.setattr(MetricGraph, "is_tree", property(lambda g: False))
        table = [check_property_b(fam, **p) for p in params]
        assert tree == table
        assert any(rep.qualifying_found and not rep.exhaustive for rep in tree)

    @pytest.mark.parametrize("bound", [1, 300, 3_000])
    def test_sliced_cubes_give_the_same_reports(self, monkeypatch, bound):
        # Pairs beside broom:12's root reach many rays within r_max = 3: the
        # root pair (0, 1) has N(0;3) x N(1;3) = 34 x 24 = 816 endpoint cells.
        # The tree backend has no cube; the table backend's σ level pass,
        # read in slices of at most ``bound`` cells, must give its reports.
        g = broom_tree(12).graph
        assert (len(ball(g, 0, 3)), len(ball(g, 1, 3))) == (34, 24)
        fam = GeodesicFamily.all_of(g)
        runs = [dict(ell=0, k=k, r_max=3, pair_budget=pairs, seed=1) for k in (0, 1, 2) for pairs in (40, 120)]
        tree = [check_property_b(fam, **run) for run in runs]
        monkeypatch.setattr(MetricGraph, "is_tree", property(lambda g: False))
        monkeypatch.setattr(geodesics, "_CUBE_CELLS", bound)
        assert [check_property_b(fam, **run) for run in runs] == tree
        assert all(rep.qualifying_found for rep in tree)

    def test_violations_need_centres_at_depth_r(self):
        # No geodesic at radius r avoids a centre at depth r or more; a
        # centre nearer an end is outside what the clause's proof covers.
        g = broom_tree(6).graph
        for a, b in [(0, 5), (3, 17), (20, 8)]:
            checker = geodesics._TreePairChecker(g, g.tree_metric(), a, b, 0, 1, 3)
            pool = checker.qualifying_pool()
            depth = dict(zip(pool, checker.depths(pool).tolist()))
            for r in range(4):
                deep = [c for c in pool if depth[c] >= r]
                assert list(checker.violations(r, deep)) == []
                for c in pool:
                    if depth[c] < r:
                        with pytest.raises(geodesics.ClaimViolation):
                            checker.violations(r, deep + [c])

    @pytest.mark.parametrize("a, b", [(0, 1), (5, 40), (78, 60)])
    def test_counts_take_two_distances_per_neighbourhood_vertex(self, monkeypatch, a, b):
        # Two tree distances per neighbourhood vertex, whatever the endpoint
        # balls: the root pair (0, 1) has 34 x 24 = 816 cells at r_max = 3.
        g = broom_tree(12).graph
        tm = g.tree_metric()
        queried = []
        real = graphs._TreeMetric.lca_pairs
        monkeypatch.setattr(
            graphs._TreeMetric, "lca_pairs", lambda self, u, v: queried.append(len(u)) or real(self, u, v)
        )
        fam = GeodesicFamily.all_of(g)
        checker = geodesics._TreePairChecker(g, tm, a, b, 0, 1, 3)
        assert queried == [1]  # the a-b path
        pool = checker.qualifying_pool()
        depth = checker.depths(pool)
        for r in range(4):
            cs = [c for c, d in zip(pool, depth.tolist()) if d >= r]
            counts = checker.counts(r, cs)
            assert counts == [len(ball(g, c, 1) & fam.union_r(a, b, r)) for c in cs]
            assert list(checker.violations(r, cs)) == []
        assert sum(queried) <= 1 + 2 * sum(len(ball(g, c, 1)) for c in pool)

    def test_k_zero_reads_no_neighbourhood_and_no_distance(self, monkeypatch):
        g = broom_tree(12).graph
        g.tree_metric()

        def fail(*args):
            raise AssertionError("queried at k = 0")

        monkeypatch.setattr(geodesics, "_set_balls", fail)
        monkeypatch.setattr(graphs._TreeMetric, "pair_distances", fail)
        rep = check_property_b(GeodesicFamily.all_of(g), ell=0, k=0, r_max=3, pair_budget=120, seed=1)
        assert rep.qualifying_found and rep.observed_D == 1 and rep.violations_total == 0

    def test_reads_no_adjacency_tuples(self, monkeypatch):
        g = broom_tree(20).graph
        g.tree_metric()
        monkeypatch.setattr(graphs, "_adjacency_tuples", None)  # any build would fail
        rep = check_property_b(GeodesicFamily.all_of(g), ell=0, k=2, r_max=4, pair_budget=50, seed=2)
        assert rep.qualifying_found and rep.violations_total == 0


def eager_sigma_violations(checker, dist, counts, A, B, cs):
    """The σ clause as a per-cell search: for each c, every (a', b') cell
    whose shortest paths do not all pass through c, by the Floyd-Warshall
    distances and the brute path counts, is searched for an avoiding
    geodesic; the first cell's witness, in row-major order, is built at
    once, whether the violation is kept or not."""
    for c in cs:
        cells = [
            (ap, bp)
            for ap in A
            for bp in B
            if dist[ap][c] + dist[c][bp] != dist[ap][bp] or counts[ap][c] * counts[c][bp] != counts[ap][bp]
        ]
        witnesses = [checker._avoiding_geodesic(ap, bp, {c}) for ap, bp in cells]
        assert None not in witnesses
        if witnesses:
            yield c, lambda witness=witnesses[0]: witness


SIGMA_GRAPHS = {
    # trees take the tree checker, which has no σ clause
    **{f"kernel_{seed}": kernel_graph(seed) for seed in range(16) if not kernel_graph(seed).is_tree},
    "grid:6": grid(6).graph,
    "farey:8": farey_truncation(8).graph,
}


class TestSigmaClause:
    """The σ clause (k = 0, all geodesics) is settled by one level pass per
    run of pairs, and builds a witness, by one single-centre product, only
    for the violations kept; a per-radius, per-cell search with eager
    witnesses is its oracle."""

    @pytest.mark.parametrize("name", SIGMA_GRAPHS)
    def test_lazy_witnesses_match_the_eager_search(self, monkeypatch, name):
        g = SIGMA_GRAPHS[name]
        fam = GeodesicFamily.all_of(g)
        params = dict(ell=0, k=0, r_max=2, pair_budget=120, seed=3)
        products = []
        real_product = geodesics._PairChecker._on_every_geodesic

        def product(checker, A, B, c):
            products.append(c)
            return real_product(checker, A, B, c)

        monkeypatch.setattr(geodesics._PairChecker, "_on_every_geodesic", product)
        lazy = {cap: check_property_b(fam, violation_cap=cap, **params) for cap in (0, 1, 3, 50)}
        dist = floyd_warshall(g)
        counts = brute_path_counts(g)
        searched = []

        def eager(checker, r, cs):
            searched.append(len(cs))
            return eager_sigma_violations(checker, dist, counts, *checker._sets_at(r), cs)

        monkeypatch.setattr(geodesics._PairChecker, "violations", eager)
        full = check_property_b(fam, violation_cap=10**6, **params)
        assert searched or not full.qualifying_found
        assert len(full.intersection_violations) == full.violations_total
        for cap, rep in lazy.items():
            assert rep.violations_total == full.violations_total
            assert rep.intersection_violations == full.intersection_violations[:cap]
            assert dataclasses.replace(rep, intersection_violations=()) == dataclasses.replace(
                full, intersection_violations=()
            )
        # one single-centre product per witness built, and no other
        assert len(products) == sum(len(rep.intersection_violations) for rep in lazy.values())

    def test_the_witness_product_leaves_large_counts_to_the_search(self, monkeypatch):
        # A cell whose counts reach the bound is not taken as one whose
        # geodesics all pass through c, even where they do: the witness
        # search decides it
        g = grid(6).graph
        dist = floyd_warshall(g)
        counts = brute_path_counts(g)
        monkeypatch.setattr(geodesics, "_SIGMA_VECTOR_MAX", 6)
        rows = graphs._Rows(g, counts=True)
        (checker,) = geodesics._PairChecker.run(GeodesicFamily.all_of(g), rows, [(0, 35)], 0, 0, 2, {})
        A, B = checker._sets_at(2)
        unsure = 0
        for c in checker.qualifying_pool():
            mask = checker._on_every_geodesic(A, B, c)
            for (i, ap), (j, bp) in itertools.product(enumerate(A), enumerate(B)):
                exact = max(counts[ap][bp], counts[ap][c], counts[c][bp]) < 6
                on_all = dist[ap][c] + dist[c][bp] == dist[ap][bp] and counts[ap][c] * counts[c][bp] == counts[ap][bp]
                assert mask[i, j] == (exact and on_all)
                unsure += on_all and not exact
        assert unsure

    def test_the_structured_spaces_violate(self):
        for name in ("grid:6", "farey:8"):
            fam = GeodesicFamily.all_of(SIGMA_GRAPHS[name])
            assert check_property_b(fam, ell=0, k=0, r_max=2, pair_budget=120, seed=3).violations_total > 50


def spy_sigma_runs(monkeypatch) -> list:
    """Record each level pass: its run's checkers and centres, and the
    (centre, a', b') entries it reads, one slice per ``_avoided`` call."""
    runs = []
    real_levels, real_avoided = geodesics._sigma_levels, geodesics._avoided

    def levels(rows, checkers, centres):
        runs.append((checkers, centres, []))
        real_levels(rows, checkers, centres)

    def avoided(rows, ap, bp, c):
        runs[-1][2].append(list(zip(c.tolist(), ap.tolist(), bp.tolist())))
        return real_avoided(rows, ap, bp, c)

    monkeypatch.setattr(geodesics, "_sigma_levels", levels)
    monkeypatch.setattr(geodesics, "_avoided", avoided)
    return runs


class TestSigmaLevels:
    """The level pass against brute force and against the cells it must
    read: every (pair, centre, cell) up to the centre's first violating
    level, or its last checked radius, once, and no other."""

    @pytest.mark.parametrize("index", range(len(PROPB_GRAPHS)))
    @pytest.mark.parametrize("kind", ["all", "canonical"])
    @pytest.mark.parametrize("bound", [1, 300])
    def test_sliced_levels_match_brute_force(self, monkeypatch, index, kind, bound):
        g = PROPB_GRAPHS[index]
        dist = floyd_warshall(g)
        n = g.vertex_count
        fam = GeodesicFamily(g, kind)
        monkeypatch.setattr(geodesics, "_CUBE_CELLS", bound)
        runs = spy_sigma_runs(monkeypatch)
        for r_max, ell in itertools.product((0, 1, 2), (0, 1)):
            rep = check_property_b(fam, ell=ell, k=0, r_max=r_max, pair_budget=n * n, c_budget=n, violation_cap=n**4)
            observed, qualifying, instances, violating = brute_property_b(g, kind, ell, 0, r_max)
            assert rep.exhaustive
            assert (rep.observed_D, rep.qualifying_found) == (observed, qualifying)
            assert (rep.samples_checked, rep.violations_total) == (instances, len(violating))
            assert {(v.a, v.b, v.r, v.c) for v in rep.intersection_violations} == violating
            for v in rep.intersection_violations:
                path = v.geodesic.vertices
                assert path in brute_shortest_paths(g, path[0], path[-1])[: 1 if kind == "canonical" else None]
                assert dist[v.a][path[0]] <= v.r and dist[v.b][path[-1]] <= v.r and v.c not in path
        slices = [len(part) for _, _, parts in runs for part in parts]
        assert bool(slices) == (kind == "all") and max(slices, default=0) <= max(1, bound // 64)

    @pytest.mark.parametrize("name", SIGMA_GRAPHS)
    @pytest.mark.parametrize("bound", [1, 300, geodesics._CUBE_CELLS])
    def test_each_cell_is_read_once_up_to_its_first_violation(self, monkeypatch, name, bound):
        g = SIGMA_GRAPHS[name]
        dist = floyd_warshall(g)
        ell, r_max = (1 if name.startswith("kernel") else 0), 2  # some centres checked below r_max
        monkeypatch.setattr(geodesics, "_CUBE_CELLS", bound)
        runs = spy_sigma_runs(monkeypatch)
        rep = check_property_b(
            GeodesicFamily.all_of(g), ell=ell, k=0, r_max=r_max, pair_budget=120, c_budget=4, seed=5, violation_cap=10**6
        )
        first = {}
        for v in rep.intersection_violations:
            first[v.a, v.b, v.c] = min(v.r, first.get((v.a, v.b, v.c), v.r))
        assert any(parts for _, _, parts in runs) == rep.qualifying_found
        assert len(first) > 50 or name.startswith("kernel")
        for checkers, centres, parts in runs:
            expected = collections.Counter()
            for checker, cs in zip(checkers, centres):
                a, b = checker.a, checker.b
                reach = [w for w in range(g.vertex_count) if dist[a][w] < float("inf")]
                for c in cs:
                    last = min(r_max, min(dist[a][c], dist[b][c]) - ell, first.get((a, b, c), r_max))
                    expected.update(
                        (c, ap, bp) for ap in reach for bp in reach if max(dist[a][ap], dist[b][bp]) <= last
                    )
            assert collections.Counter(entry for part in parts for entry in part) == expected

    @pytest.mark.parametrize("name", ["grid:6", "farey:8", "kernel_5", "kernel_11"])
    def test_pairs_with_large_counts_fall_back_beside_the_others(self, monkeypatch, name):
        g = SIGMA_GRAPHS[name]
        fam = GeodesicFamily.all_of(g)
        params = dict(ell=0, k=0, r_max=2, pair_budget=150, c_budget=6, seed=2, violation_cap=10**6)
        default = check_property_b(fam, **params)
        counts = sorted(set(itertools.chain.from_iterable(brute_path_counts(g))))
        runs = spy_sigma_runs(monkeypatch)
        general = []
        real_general = geodesics._PairChecker._violations_general
        monkeypatch.setattr(
            geodesics._PairChecker, "_violations_general", lambda *args: general.append(1) or real_general(*args)
        )
        monkeypatch.setattr(geodesics, "_SIGMA_VECTOR_MAX", counts[len(counts) // 2])
        assert check_property_b(fam, **params) == default
        mixed = [
            {checker._first is None for checker, cs in zip(checkers, centres) if cs} for checkers, centres, _ in runs
        ]
        assert {True, False} in mixed and general

import ast
import itertools
import random
from collections import deque
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_diameter,
    brute_path_counts,
    brute_shortest_paths,
    floyd_warshall,
    kernel_graph,
    random_graph,
    spy_rows,
)
from coarselab import graphs
from coarselab.graphs import (
    GraphFormatError,
    MetricGraph,
    Path,
    _canonical_walks,
    _count_rows,
    _distance_rows,
    _Rows,
    _triangle_defects,
    _set_balls,
    _set_depths,
    _spheres,
    all_geodesics,
    ball,
    bfs_distances,
    canonical_geodesic,
    distance,
    distance_vector,
    load_graph,
    set_diameter,
    set_diameters,
    sphere,
    store_graph,
)


def path_graph(n: int) -> MetricGraph:
    return MetricGraph(n, [(i, i + 1) for i in range(n - 1)], name=f"path_{n}")


def cycle_graph(n: int) -> MetricGraph:
    return MetricGraph(n, [(i, (i + 1) % n) for i in range(n)], name=f"cycle_{n}")


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, mask) if keep]
    return MetricGraph(n, edges, name="hyp")


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            MetricGraph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            MetricGraph(2, [(0, 5)])

    def test_deduplicates_edges(self):
        g = MetricGraph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_adjacency_sorted(self):
        g = MetricGraph(4, [(2, 0), (2, 3), (2, 1)])
        assert g.neighbors(2) == (0, 1, 3)

    def test_is_tree(self):
        assert path_graph(5).is_tree
        assert not cycle_graph(4).is_tree
        assert not MetricGraph(3, [(0, 1)]).is_tree  # disconnected

    @pytest.mark.parametrize(
        "g", [random_graph(3), cycle_graph(6), MetricGraph(4, [(0, 3)]), MetricGraph(0, [])], ids=str
    )
    def test_csr_arrays_match_adjacency(self, g):
        indptr, indices = g.csr_arrays()
        assert indptr.dtype == np.int64 and indices.dtype == np.int32
        assert indptr.tolist()[0] == 0 and len(indptr) == g.vertex_count + 1
        for v in range(g.vertex_count):
            assert tuple(indices[indptr[v] : indptr[v + 1]].tolist()) == g.neighbors(v)
        assert int(indptr[-1]) == 2 * g.edge_count == len(indices)

    @pytest.mark.parametrize(
        "v", [0, 7, -1, 8, 1.5, 3.0, np.int64(3), np.int64(8), np.int32(-1), np.uint8(2), np.bool_(True), True, "1"],
        ids=repr,
    )
    def test_batch_check_agrees_with_check_vertex(self, v):
        g = path_graph(8)
        try:
            g.check_vertex(v)
            expected = None
        except ValueError as exc:
            expected = str(exc)
        for batch in ([v], [0, v, 5], (2, 6, v), {v, 1} if not isinstance(v, np.generic) else [v, 1]):
            if expected is None:
                g.check_vertices(batch)
            else:
                with pytest.raises(ValueError) as got:
                    g.check_vertices(batch)
                assert str(got.value) == expected

    def test_batch_check_reports_the_first_bad_id(self):
        g = path_graph(8)
        g.check_vertices([])
        g.check_vertices(range(8))
        with pytest.raises(ValueError, match="invalid vertex id 9 for graph with 8 vertices"):
            g.check_vertices([1, 9, -1, 2.5])
        with pytest.raises(ValueError, match="invalid vertex id 1.5"):
            g.check_vertices([True, np.int64(7), 1.5])
        with pytest.raises(ValueError, match="invalid vertex id True"):
            MetricGraph(1, []).check_vertices([0, True])


def oracle_construction(vertex_count, edges):
    """The set-based constructor ``MetricGraph`` had before it took edge
    arrays, kept as the oracle: the adjacency tuples and the edge count.
    Its one change is that a non-integer id, which used to surface as a
    list-index ``TypeError`` after the range and self-loop checks, raises
    there with a message naming the edge."""
    adj = [set() for _ in range(vertex_count)]
    count = 0
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (isinstance(u, (int, np.integer)) and isinstance(v, (int, np.integer))):
            raise TypeError(f"edge ({u}, {v}) has a non-integer vertex id")
        if v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            count += 1
    return tuple(tuple(sorted(s)) for s in adj), count


def edge_forms(edges):
    """The same edge list as a list, a tuple, a generator, lists of numpy
    scalars, an object array and int32/int64 arrays."""
    yield "list", list(edges)
    yield "tuple", tuple(edges)
    yield "generator", (e for e in edges)
    yield "numpy scalars", [(np.int64(u), np.int32(v)) for u, v in edges]
    # numpy holds uint64 beside int64 only as float64
    yield "mixed numpy scalars", [(np.uint64(u) if u >= 0 else np.int64(u), np.int64(v)) for u, v in edges]
    yield "object array", np.array(edges, dtype=object).reshape(-1, 2)
    for dtype in (np.int32, np.int64):
        yield dtype.__name__, np.array(edges, dtype=dtype).reshape(-1, 2)


def random_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random edges with duplicates in both orientations; some vertices
    stay isolated."""
    if n < 2:
        return []
    live = rng.sample(range(n), rng.randint(2, n))
    edges = [tuple(rng.sample(live, 2)) for _ in range(rng.randint(0, 3 * n))]
    return edges + [(v, u) for u, v in rng.sample(edges, len(edges) // 3)]


def raised(make):
    try:
        make()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


class TestEdgeArrays:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_set_based_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.choice([0, 1, 2, rng.randint(3, 30)])
        edges = random_edges(rng, n)
        adj, count = oracle_construction(n, edges)
        indptr = np.cumsum([0, *map(len, adj)])
        indices = [v for row in adj for v in row]
        expected = MetricGraph(n, sorted({tuple(sorted(e)) for e in edges}), name="g")
        for form, given in edge_forms(edges):
            g = MetricGraph(n, given, name="g")
            assert g._adj == adj and g.edge_count == count, form
            assert all(type(v) is int for row in g._adj for v in row), form
            got_ptr, got_idx = g.csr_arrays()
            assert got_ptr.dtype == np.int64 and got_idx.dtype == np.int32, form
            assert got_ptr.tolist() == indptr.tolist() and got_idx.tolist() == indices, form
            assert g == expected and hash(g) == hash(expected), form

    @pytest.mark.parametrize("seed", range(40))
    def test_bad_edges_raise_like_the_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        edges = random_edges(rng, n)
        bad = [(0, n), (n, 0), (-1, 1), (n + 3, n + 3), (1, 1), (n - 1, n - 1)]
        if seed % 2:
            bad += [(0, 1.5), (1.5, 0), (1.0, 0), (0, 2.0), (n + 0.5, 1), (1.5, 1.5)]
        for _ in range(rng.randint(1, 3)):
            edges.insert(rng.randint(0, len(edges)), rng.choice(bad))
        expected = raised(lambda: oracle_construction(n, edges))
        assert expected is not None
        for form, given in edge_forms(edges) if seed % 2 == 0 else [("list", edges), ("tuple", tuple(edges))]:
            assert raised(lambda: MetricGraph(n, given)) == expected, form
        if seed % 2:
            arr = np.array(edges, dtype=np.float64)
            assert raised(lambda: MetricGraph(n, arr)) == raised(lambda: oracle_construction(n, arr))

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (0, 1.5)], "edge (0, 1.5) has a non-integer vertex id"),
            ([(0, 1), (1, 0.0), (0, 9)], "edge (1, 0.0) has a non-integer vertex id"),
            ([(0, 1), (2, 2), (0, 9)], "self-loop at vertex 2"),
            ([(0, 1), (9, 9), (2, 2)], "edge (9, 9) out of range for 3 vertices"),
            (np.array([[0, 1], [1, 2], [2, -1], [1, 1]]), "edge (2, -1) out of range for 3 vertices"),
        ],
    )
    def test_first_offending_edge_is_named(self, edges, message):
        with pytest.raises((TypeError, ValueError)) as got:
            MetricGraph(3, edges)
        assert str(got.value) == message

    @pytest.mark.parametrize(
        "bad", [(1, 6), (-1, 2), (6, 6), (3, 3), (2, 1.5)], ids=["past-n", "negative", "both-out", "self-loop", "non-integer"]
    )
    @pytest.mark.parametrize("at", [0, 3, 6], ids=["first", "middle", "last"])
    def test_each_bad_edge_anywhere(self, bad, at):
        # an integer array passes its range and self-loop checks in one
        # pass; the error must still name the offending edge
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
        edges.insert(at, bad)
        expected = raised(lambda: oracle_construction(6, edges))
        assert expected is not None
        forms = [edges, np.array(edges), np.array(edges, dtype=object)]
        if isinstance(bad[1], int):
            forms.append(np.array(edges, dtype=np.int32))
            assert f"{bad}" in expected[1] or "self-loop" in expected[1]
        for given in forms:
            assert raised(lambda: MetricGraph(6, given)) == raised(lambda: oracle_construction(6, given))
            if not (isinstance(given, np.ndarray) and given.dtype.kind == "f"):
                assert raised(lambda: MetricGraph(6, given)) == expected


class TestDistance:
    def test_path_graph_endpoints(self):
        assert distance(path_graph(5), 0, 4) == 4

    def test_identity(self):
        g = random_graph(7)
        for v in range(g.vertex_count):
            assert distance(g, v, v) == 0

    def test_unreachable_is_none(self):
        g = MetricGraph(3, [(0, 1)])
        assert distance(g, 0, 2) is None

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_floyd_warshall(self, seed):
        g = random_graph(seed)
        oracle = floyd_warshall(g)
        for u in range(g.vertex_count):
            row = bfs_distances(g, u)
            for v in range(g.vertex_count):
                expected = None if oracle[u][v] == float("inf") else int(oracle[u][v])
                got = None if row[v] < 0 else row[v]
                assert got == expected

    def test_distance_vector_matches_bfs(self):
        g = random_graph(11)
        for u in range(g.vertex_count):
            assert list(distance_vector(g, u)) == bfs_distances(g, u)

    def test_invalid_vertex(self):
        with pytest.raises(ValueError, match="invalid vertex"):
            distance(path_graph(3), 0, 9)


class TestBallSphere:
    def test_ball_radius_zero(self):
        g = random_graph(3)
        assert ball(g, 0, 0) == {0}

    def test_sphere_radius_zero(self):
        g = random_graph(4)
        assert sphere(g, 1, 0) == {1}

    def test_path_sphere(self):
        assert sphere(path_graph(5), 2, 2) == {0, 4}

    @given(small_graphs(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_sphere_is_ball_difference(self, g, r):
        for x in range(g.vertex_count):
            assert sphere(g, x, r) == ball(g, x, r) - ball(g, x, r - 1)


class TestAllGeodesics:
    def test_four_cycle_opposite(self):
        paths, truncated = all_geodesics(cycle_graph(4), 0, 2)
        assert not truncated
        assert len(paths) == 2

    def test_tree_unique(self):
        paths, truncated = all_geodesics(path_graph(6), 1, 5)
        assert not truncated
        assert len(paths) == 1

    def test_k23_three_geodesics(self):
        # complete bipartite on {0,1} x {2,3,4}; degree-3 vertices are 0, 1
        g = MetricGraph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
        paths, truncated = all_geodesics(g, 0, 1)
        assert not truncated
        assert len(paths) == 3
        assert all(p.length == 2 for p in paths)

    def test_cap_truncation(self):
        g = MetricGraph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
        paths, truncated = all_geodesics(g, 0, 1, cap=2)
        assert truncated
        assert len(paths) == 2

    def test_unreachable_raises(self):
        g = MetricGraph(3, [(0, 1)])
        with pytest.raises(ValueError, match="unreachable"):
            all_geodesics(g, 0, 2)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_enumeration(self, seed):
        g = random_graph(seed, max_vertices=9)
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                expected = brute_shortest_paths(g, u, v)
                if not expected:
                    continue
                paths, truncated = all_geodesics(g, u, v)
                assert not truncated
                assert sorted(p.vertices for p in paths) == expected

    def test_geodesic_lengths_equal_distance(self):
        g = random_graph(23)
        for u in range(g.vertex_count):
            for v in range(g.vertex_count):
                d = distance(g, u, v)
                if d is None or u == v:
                    continue
                paths, _ = all_geodesics(g, u, v)
                assert all(p.length == d for p in paths)


class TestCanonicalGeodesic:
    def test_tree_equals_unique(self):
        g = path_graph(6)
        assert canonical_geodesic(g, 1, 4).vertices == (1, 2, 3, 4)

    def test_four_cycle_tiebreak(self):
        assert canonical_geodesic(cycle_graph(4), 0, 2).vertices == (0, 1, 2)

    @pytest.mark.parametrize("seed", range(25))
    def test_member_of_all_and_minimal(self, seed):
        g = random_graph(seed, max_vertices=10)
        for u in range(g.vertex_count):
            for v in range(g.vertex_count):
                if u == v or distance(g, u, v) is None:
                    continue
                paths, truncated = all_geodesics(g, u, v)
                if truncated:
                    continue
                c = canonical_geodesic(g, u, v)
                vertex_lists = [p.vertices for p in paths]
                assert c.vertices in vertex_lists
                assert c.vertices == min(vertex_lists)

    def test_deterministic(self):
        g = random_graph(41)
        for u, v in itertools.combinations(range(g.vertex_count), 2):
            if distance(g, u, v) is None:
                continue
            assert canonical_geodesic(g, u, v) == canonical_geodesic(g, u, v)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("stored", [True, False])
    def test_batched_walks_match(self, monkeypatch, seed, stored):
        # every ordered pair in one shuffled batch: lengths 0 (u equal to the
        # far end) up to the diameter, so most walks are padded
        if not stored:
            monkeypatch.setattr(graphs, "_ROW_CELLS", 0)
        g = connected_graph(random.Random(seed), 25)
        pairs = list(itertools.product(range(g.vertex_count), repeat=2))
        random.Random(seed).shuffle(pairs)
        us, vs = (np.array(side) for side in zip(*pairs))
        walks = _canonical_walks(_Rows(g), us, vs)
        lengths = [distance(g, u, v) for u, v in pairs]
        assert walks.dtype == np.int32 and walks.shape == (len(pairs), max(lengths) + 1)
        for (u, v), d, walk in zip(pairs, lengths, walks.tolist()):
            assert tuple(walk[: d + 1]) == canonical_geodesic(g, u, v).vertices
            assert walk[d:] == [v] * (len(walk) - d)


def connected_graph(rng: random.Random, max_vertices: int) -> MetricGraph:
    """A random spanning tree, with a random number of extra edges (none
    for about one graph in four)."""
    n = rng.randint(3, max_vertices)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.choice([0, 1, 3, n]))]
    return MetricGraph(n, edges, name="connected")


class TestTriangleDefects:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("block", [graphs._BLOCK, 1])
    def test_matches_distances_to_the_other_sides(self, monkeypatch, seed, block):
        # with one word of sets per batch, 100 triangles take five batches
        monkeypatch.setattr(graphs, "_BLOCK", block)
        rng = random.Random(seed)
        g = connected_graph(rng, 25)
        dist = floyd_warshall(g)
        triangles = []
        for _ in range(100):
            x, y, z = rng.sample(range(g.vertex_count), 3)
            triangles.append([canonical_geodesic(g, u, v).vertices for u, v in ((x, y), (y, z), (x, z))])
        # each distinct side once, shared by the triangles it belongs to
        distinct = sorted({side for sides in triangles for side in sides})
        width = max(map(len, distinct))
        padded = np.array([side + (side[-1],) * (width - len(side)) for side in distinct], dtype=np.int32)
        rows = np.array([[distinct.index(side) for side in sides] for sides in triangles])
        expected = [
            max(min(dist[v][w] for w in sides[(i + 1) % 3] + sides[(i + 2) % 3]) for i in range(3) for v in sides[i])
            for sides in triangles
        ]
        assert _triangle_defects(g, padded, rows).tolist() == expected


class TestSetDiameter:
    def test_singleton(self):
        assert set_diameter(random_graph(5), {1}) == 0

    def test_path_ends(self):
        assert set_diameter(path_graph(5), {0, 4}) == 4

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            set_diameter(path_graph(3), set())

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        import random as rnd

        g = random_graph(seed)
        rng = rnd.Random(seed + 1000)
        members = rng.sample(range(g.vertex_count), min(5, g.vertex_count))
        assert set_diameter(g, members) == brute_diameter(g, members)

    @pytest.mark.parametrize("seed", range(15))
    def test_tree_double_sweep_exact(self, seed):
        # random trees: grow by attaching each vertex to a random earlier one
        import random as rnd

        rng = rnd.Random(seed)
        n = rng.randint(3, 40)
        edges = [(rng.randint(0, v - 1), v) for v in range(1, n)]
        g = MetricGraph(n, edges, name="rtree")
        assert g.is_tree
        members = rng.sample(range(n), rng.randint(1, n))
        assert set_diameter(g, members) == brute_diameter(g, members)


def random_tree(rng, n: int) -> MetricGraph:
    # grow by attaching each vertex to a random earlier one
    return MetricGraph(n, [(rng.randint(0, v - 1), v) for v in range(1, n)], name="rtree")


def diameter_batch(rng, n: int):
    """Member lists and the batch built from them: overlapping samples, a
    repeated set, a singleton, and non-set iterables with duplicates."""
    a, b, c = (rng.sample(range(n), rng.randint(1, n)) for _ in range(3))
    s = rng.randrange(n)
    pairs = [
        (a, set(a)),
        (b, frozenset(b)),
        (c, iter(c)),
        ([s], (s,)),
        (a + a[::2], list(a + a[::2])),
        (b, tuple(b + b)),
    ]
    rng.shuffle(pairs)
    return [m for m, _ in pairs], [x for _, x in pairs]


def as_keys(n: int, members) -> np.ndarray:
    """The sets ``members`` as the ascending keys s*n + v of set_diameter's key form."""
    return np.array(sorted({s * n + v for s, ms in enumerate(members) for v in ms}), dtype=np.int64)


class TestSetDiameters:
    @pytest.mark.parametrize("seed", range(20))
    def test_trees_match_brute_force(self, seed):
        import random as rnd

        rng = rnd.Random(seed)
        g = random_tree(rng, rng.randint(2, 40))
        assert g.is_tree
        members, batch = diameter_batch(rng, g.vertex_count)
        expected = [brute_diameter(g, ms) for ms in members]
        assert set_diameters(g, batch) == expected
        assert set_diameter(g, as_keys(g.vertex_count, members), batch=True) == expected

    @pytest.mark.parametrize("seed", range(20))
    def test_non_trees_match_brute_force(self, seed):
        import random as rnd

        g = random_graph(seed)
        if g.is_tree:
            g = random_graph(seed + 100, edge_prob=0.6)
        assert not g.is_tree
        members, batch = diameter_batch(rnd.Random(seed + 1000), g.vertex_count)
        expected = [brute_diameter(g, ms) for ms in members]
        assert set_diameters(g, batch) == expected
        assert set_diameter(g, as_keys(g.vertex_count, members), batch=True) == expected

    def test_set_spanning_two_components_is_none_alone(self):
        g = MetricGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)], name="path_and_triangle")
        batch = [{0, 2}, {1, 4}, [3, 4, 5, 3], {5}]
        assert set_diameters(g, batch) == set_diameter(g, as_keys(6, batch), batch=True) == [2, None, 1, 0]

    def test_empty_batch(self):
        assert set_diameters(path_graph(3), []) == []
        assert set_diameter(path_graph(3), np.zeros(0, dtype=np.int64), batch=True) == []

    @pytest.mark.parametrize("g", [path_graph(5), cycle_graph(5)], ids=["tree", "cycle"])
    def test_batch_form_of_set_diameter(self, g):
        batch = [{0, 2}, {1}, [4, 0, 4]]
        assert set_diameter(g, batch, batch=True) == set_diameters(g, batch) == [set_diameter(g, ms) for ms in batch]

    @pytest.mark.parametrize("g", [path_graph(5), cycle_graph(5)], ids=["tree", "cycle"])
    def test_empty_set_mid_batch_raises(self, g):
        with pytest.raises(ValueError, match="set_diameter of an empty set"):
            set_diameters(g, [{0, 1}, set(), {2}])
        with pytest.raises(ValueError, match="set_diameter of an empty set"):
            set_diameter(g, as_keys(5, [{0, 1}, set(), {2}]), batch=True)

    @pytest.mark.parametrize("g", [path_graph(5), cycle_graph(5)], ids=["tree", "cycle"])
    @pytest.mark.parametrize("keys", [[-1, 2], [2, 1], [1, 1, 7]])
    def test_keys_out_of_order_raise(self, g, keys):
        with pytest.raises(ValueError, match="strictly ascending"):
            set_diameter(g, np.array(keys, dtype=np.int64), batch=True)

    @pytest.mark.parametrize("g", [path_graph(5), cycle_graph(5)], ids=["tree", "cycle"])
    @pytest.mark.parametrize("bad", [7, -1, 1.5])
    def test_invalid_member_raises(self, g, bad):
        with pytest.raises(ValueError, match=f"invalid vertex id {bad!r}"):
            set_diameters(g, [{0, 3}, [0, bad]])


def brute_bfs(g: MetricGraph, sources, radius, within) -> dict[int, int]:
    """Bounded multi-source distances by relaxing every allowed edge until
    nothing changes; no queue, no visiting order."""
    allowed = set(range(g.vertex_count)) if within is None else set(within) | set(sources)
    dist = {s: 0 for s in sources}
    changed = True
    while changed:
        changed = False
        for u, v in g.edges():
            for a, b in ((u, v), (v, u)):
                if a in dist and b in allowed and dist.get(b, g.vertex_count) > dist[a] + 1:
                    dist[b] = dist[a] + 1
                    changed = True
    return {v: d for v, d in dist.items() if radius is None or d <= radius}


class TestBfsKernel:
    def test_oracle_graphs_include_disconnected(self):
        connected = [kernel_graph(seed).is_connected for seed in range(30)]
        assert 5 <= connected.count(False) <= 25

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_networkx_and_brute_force(self, seed):
        nx = pytest.importorskip("networkx")
        g = kernel_graph(seed)
        n = g.vertex_count
        full = nx.Graph()
        full.add_nodes_from(range(n))
        full.add_edges_from(g.edges())
        for x in range(n):
            dist = brute_bfs(g, [x], None, None)
            assert dist == nx.single_source_shortest_path_length(full, x)
            assert [set(shell) for shell in _spheres(g, x)] == [
                {v for v, d in dist.items() if d == r} for r in range(max(dist.values()) + 1)
            ]
            # radius n lies past every eccentricity
            for r in (0, 1, 3, n):
                assert ball(g, x, r) == {v for v, d in dist.items() if d <= r}
                assert sphere(g, x, r) == {v for v, d in dist.items() if d == r}
            assert [distance(g, x, v) for v in range(n)] == [dist.get(v) for v in range(n)]

    @pytest.mark.parametrize("seed", range(30))
    def test_distance_to_set(self, seed):
        # d(v, targets) is the index of the first sphere about v that meets them
        g = kernel_graph(seed)
        rng = random.Random(seed)
        targets = set(rng.sample(range(g.vertex_count), rng.randint(1, 3)))
        for v in range(g.vertex_count):
            reach = [d for t, d in brute_bfs(g, [v], None, None).items() if t in targets]
            expected = min(reach) if reach else None
            assert next((r for r, shell in enumerate(_spheres(g, v)) if targets.intersection(shell)), None) == expected
            found = [d for d in (distance(g, v, t) for t in targets) if d is not None]
            assert (min(found) if found else None) == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_distance_stops_at_the_target_sphere(self, monkeypatch, seed):
        g = kernel_graph(seed)
        drawn = []
        real = graphs._spheres

        def counting(g, x):
            for shell in real(g, x):
                drawn.append(shell)
                yield shell

        monkeypatch.setattr(graphs, "_spheres", counting)
        n = g.vertex_count
        for u, v in itertools.product(range(n), repeat=2):
            drawn.clear()
            d = distance(g, u, v)
            assert len(drawn) == (d + 1 if d is not None else len(list(real(g, u))))

    @pytest.mark.parametrize("bad", [5, -1, 1.5])
    def test_invalid_source_raises(self, bad):
        g = path_graph(5)
        for call in (
            lambda: distance(g, 0, bad),
            lambda: distance(g, bad, 0),
            lambda: ball(g, bad, 1),
            lambda: sphere(g, bad, 1),
        ):
            with pytest.raises(ValueError, match=f"invalid vertex id {bad!r}"):
                call()

    @pytest.mark.parametrize("seed", range(20))
    def test_tree_metric_parents_and_depths(self, seed):
        rng = random.Random(seed)
        g = random_tree(rng, rng.randint(1, 60))
        n = g.vertex_count
        parent, depth = [0] * n, [0] * n
        seen = {0}
        q = deque([0])
        while q:
            u = q.popleft()
            for w in g.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    parent[w], depth[w] = u, depth[u] + 1
                    q.append(w)
        tm = g.tree_metric()
        assert tm.depth.tolist() == depth
        assert tm.parent.tolist() == parent

    def test_tree_metric_reuses_the_connectivity_bfs(self, monkeypatch):
        from coarselab import graphs
        from coarselab.spaces import broom_tree

        sources = []
        real = graphs.bfs_distances

        def counting(g, source):
            sources.append(source)
            return real(g, source)

        monkeypatch.setattr(graphs, "bfs_distances", counting)
        g = broom_tree(30).graph
        tm = g.tree_metric()
        assert sources == [0]
        assert g.tree_metric() is tm and sources == [0]
        assert tm.depth.tolist() == real(g, 0)


def spy_on_tuples(monkeypatch) -> list[int]:
    """Record the vertex count of every graph whose adjacency tuples get built."""
    built = []
    real = graphs._adjacency_tuples

    def spy(indptr, indices):
        built.append(indptr.size - 1)
        return real(indptr, indices)

    monkeypatch.setattr(graphs, "_adjacency_tuples", spy)
    return built


class TestTuplesOnDemand:
    @pytest.mark.parametrize("seed", range(30))
    def test_tuples_are_the_csr_slices_built_once(self, monkeypatch, seed):
        built = spy_on_tuples(monkeypatch)
        g = kernel_graph(seed)
        n = g.vertex_count
        indptr, indices = g.csr_arrays()
        assert g.edge_count == indices.size // 2 and not built
        adj = g._adj
        assert built == [n] and g._adj is adj
        assert adj == tuple(tuple(indices[indptr[v] : indptr[v + 1]].tolist()) for v in range(n))
        assert all(type(v) is int for row in adj for v in row)
        assert [g.neighbors(v) for v in range(n)] == list(adj) and built == [n]

    def test_equality_and_hash_follow_the_adjacency(self, monkeypatch):
        built = spy_on_tuples(monkeypatch)
        rng = random.Random(5)
        graphs_ = [kernel_graph(seed) for seed in range(12)]
        graphs_ += [MetricGraph(g.vertex_count, list(g.edges())[::-1], name=g.name) for g in graphs_[:6]]
        graphs_ += [MetricGraph(g.vertex_count, g.edges(), name="other") for g in graphs_[:3]]
        graphs_ += [MetricGraph(g.vertex_count + 1, g.edges(), name=g.name) for g in graphs_[:3]]
        graphs_ += [path_graph(4), MetricGraph(4, [(0, 1), (1, 2), (1, 3)], name="path_4"), MetricGraph(0, [])]
        rng.shuffle(graphs_)
        for g, h in itertools.product(graphs_, repeat=2):
            assert (g == h) == ((g.name, g.vertex_count, g._adj) == (h.name, h.vertex_count, h._adj))
        built.clear()
        for g, h in itertools.product(graphs_, repeat=2):
            assert g != h or hash(g) == hash(h)
        assert not built  # comparing and hashing read the CSR arrays only


class TestRootRow:
    @pytest.mark.parametrize("numpy_branch", [False, True])
    @pytest.mark.parametrize("seed", range(30))
    def test_connectivity_keeps_the_row_from_0(self, monkeypatch, seed, numpy_branch):
        if numpy_branch:
            monkeypatch.setattr(graphs, "_NP_BFS_MIN", 0)
        g = kernel_graph(seed)
        connected = g.is_connected
        row = distance_vector(g, 0)
        assert row.dtype == np.int32 and not row.flags.writeable
        assert row.tolist() == bfs_distances(g, 0)
        assert connected == (row.min() >= 0)
        assert distance_vector(g, 0) is row
        if g.is_tree:
            assert g.tree_metric().depth.tolist() == row.tolist()
        other = distance_vector(g, g.vertex_count - 1)
        assert other.flags.writeable or g.vertex_count == 1

    def test_the_empty_graph_is_connected_without_a_row(self):
        g = MetricGraph(0, [])
        assert g.is_connected and not g.is_tree
        with pytest.raises(ValueError, match="invalid vertex id 0"):
            distance_vector(g, 0)

    @pytest.mark.parametrize("numpy_branch", [False, True])
    def test_one_search_from_0_serves_every_reader(self, monkeypatch, numpy_branch):
        from coarselab.spaces import broom_tree

        if numpy_branch:
            monkeypatch.setattr(graphs, "_NP_BFS_MIN", 0)
        g = broom_tree(30).graph
        # A list search is one bfs_distances call, a numpy one a frontier
        # dedupe per level.
        name = "_sorted_unique" if numpy_branch else "bfs_distances"
        steps = []
        real = getattr(graphs, name)

        def counting(*args, **kwargs):
            steps.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(graphs, name, counting)
        assert g.is_tree
        searched = len(steps)
        assert searched == (31 if numpy_branch else 1)  # broom:30 is 30 levels deep
        g.tree_metric()
        distance_vector(g, 0)
        assert len(steps) == searched


def bfs_parents(g: MetricGraph) -> tuple[list[int], list[int]]:
    """Parent and depth of every vertex of a tree rooted at 0, by BFS; the
    root is its own parent."""
    parent, depth = [0] * g.vertex_count, [0] * g.vertex_count
    seen = {0}
    q = deque([0])
    while q:
        u = q.popleft()
        for w in g.neighbors(u):
            if w not in seen:
                seen.add(w)
                parent[w], depth[w] = u, depth[u] + 1
                q.append(w)
    return parent, depth


def walk_lca(parent: list[int], depth: list[int], u: int, v: int) -> int:
    while depth[u] > depth[v]:
        u = parent[u]
    while depth[v] > depth[u]:
        v = parent[v]
    while u != v:
        u, v = parent[u], parent[v]
    return u


def walk_path(parent: list[int], depth: list[int], u: int, v: int) -> list[int]:
    meet = walk_lca(parent, depth, u, v)
    up, down = [u], [v]
    while up[-1] != meet:
        up.append(parent[up[-1]])
    while down[-1] != meet:
        down.append(parent[down[-1]])
    return up + down[-2::-1]


def labelled_tree(rng: random.Random, n: int, attach) -> MetricGraph:
    """A tree on n vertices whose k-th vertex hangs off vertex attach(k),
    with ids shuffled, so that parents do not precede their children."""
    ids = list(range(n))
    rng.shuffle(ids)
    return MetricGraph(n, [(ids[attach(k)], ids[k]) for k in range(1, n)], name="ltree")


def oracle_trees() -> list[MetricGraph]:
    from coarselab.spaces import broom_tree, regular_tree

    rng = random.Random(12)
    trees = [MetricGraph(1, [], name="point"), path_graph(2), broom_tree(9).graph, regular_tree(3, 4).graph]
    trees += [regular_tree(2, 6).graph, regular_tree(5, 2).graph, path_graph(40), broom_tree(1).graph]
    for n in (2, 3, 17, 40, 90):
        trees.append(labelled_tree(rng, n, lambda k: rng.randrange(k)))  # random attachment
        trees.append(labelled_tree(rng, n, lambda k: k - 1))  # path
        trees.append(labelled_tree(rng, n, lambda k: 0))  # star
        trees.append(labelled_tree(rng, n, lambda k: 2 * ((k - 1) // 2)))  # caterpillar: legs on even spine ids
        trees.append(labelled_tree(rng, n, lambda k: max(0, k - rng.randint(1, 3))))  # bushy path
    return trees


ORACLE_TREES = oracle_trees()


@st.composite
def parent_arrays(draw):
    """A random tree as a parent array: vertex k >= 1 hangs off an earlier
    vertex, then every id is relabelled by a random permutation."""
    n = draw(st.integers(min_value=1, max_value=40))
    attach = [draw(st.integers(min_value=0, max_value=k - 1)) for k in range(1, n)]
    ids = draw(st.permutations(range(n)))
    return MetricGraph(n, [(ids[p], ids[k]) for k, p in enumerate(attach, start=1)], name="hyp_tree")


def check_tree_metric(g: MetricGraph, rng: random.Random) -> None:
    """Every query of the tree metric against parent walks and BFS rows."""
    n = g.vertex_count
    parent, depth = bfs_parents(g)
    tm = g.tree_metric()
    assert tm.parent.tolist() == parent and tm.depth.tolist() == depth
    rows = [bfs_distances(g, s) for s in range(n)]
    # all pairs on small trees, else a sample with u == v and ancestor pairs
    if n <= 20:
        pairs = list(itertools.product(range(n), repeat=2))
    else:
        pairs = [(u, u) for u in rng.sample(range(n), 5)]
        pairs += [(u, parent[parent[u]]) for u in rng.sample(range(n), 10)]
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
        pairs += [(v, u) for u, v in pairs]
    us = np.asarray([u for u, _ in pairs], dtype=np.int64)
    vs = np.asarray([v for _, v in pairs], dtype=np.int64)
    assert tm.lca_pairs(us, vs).tolist() == [walk_lca(parent, depth, u, v) for u, v in pairs]
    assert tm.pair_distances(us, vs).tolist() == [rows[u][v] for u, v in pairs]
    assert us.tolist() == [u for u, _ in pairs]  # inputs left as they were
    for u, v in pairs[:60]:
        assert tm.path(u, v) == walk_path(parent, depth, u, v)
        assert len(tm.path(u, v)) == rows[u][v] + 1
    sample = sorted(rng.sample(range(n), min(n, 12)))
    others = sorted(rng.sample(range(n), min(n, 7)))
    us, vs = np.repeat(sample, len(others)), np.tile(others, len(sample))
    assert tm.pair_distances(us, vs).tolist() == [rows[u][v] for u in sample for v in others]


def subtree_sizes(parent: list[int], depth: list[int]) -> list[int]:
    size = [1] * len(parent)
    for v in sorted(range(1, len(parent)), key=depth.__getitem__, reverse=True):
        size[parent[v]] += size[v]
    return size


class TestTreeMetric:
    """The heavy-path tree metric against parent walks and BFS rows."""

    @pytest.mark.parametrize("index", range(len(ORACLE_TREES)))
    def test_matches_walks_and_bfs(self, index):
        check_tree_metric(ORACLE_TREES[index], random.Random(index))

    @given(parent_arrays(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_walks_on_random_parent_arrays(self, g, rng):
        check_tree_metric(g, rng)

    @pytest.mark.parametrize("index", range(len(ORACLE_TREES)))
    def test_light_children_hold_at_most_half(self, index):
        # the invariant behind the O(log n) bound on LCA passes
        g = ORACLE_TREES[index]
        tm = g.tree_metric()
        parent, depth = bfs_parents(g)
        size = subtree_sizes(parent, depth)
        heads = tm.head.tolist()
        for v in range(1, g.vertex_count):
            if heads[v] == v:  # v heads its chain: a light child
                assert 2 * size[v] <= size[parent[v]]
            else:  # v continues its parent's chain: the heaviest child, least id on ties
                assert heads[v] == heads[parent[v]]
                p = parent[v]
                siblings = [w for w in g.neighbors(p) if w != parent[p]]
                assert max(siblings, key=lambda w: (size[w], -w)) == v
        assert tm.jump.tolist() == [parent[h] for h in heads]
        assert tm.head_depth.tolist() == [depth[h] for h in heads]

    def test_arrays_stay_linear_in_vertices(self):
        from coarselab.spaces import broom_tree

        g = broom_tree(300).graph
        tm = g.tree_metric()
        tm.path(5, g.vertex_count - 1)  # builds the chain layout too
        arrays = [a for x in vars(tm).values() for a in (x if isinstance(x, tuple) else (x,))]
        assert all(isinstance(a, np.ndarray) for a in arrays)
        assert sum(a.nbytes for a in arrays) <= 40 * g.vertex_count
        assert all(a.ndim == 1 for a in arrays)


def random_sets(rng: random.Random, g: MetricGraph) -> list[set[int]]:
    """Five vertex sets of g: empty ones, whole components (whose members
    have no path to the complement), and random samples, which overlap."""
    n = g.vertex_count
    sets = []
    for _ in range(5):
        kind = rng.randrange(4)
        if kind == 0:
            sets.append(set())
        elif kind == 1:
            sets.append(ball(g, rng.randrange(n), n))
        else:
            sets.append(set(rng.sample(range(n), rng.randint(1, n))))
    return sets


def set_keys(sets, n: int) -> np.ndarray:
    return np.asarray(sorted(s * n + v for s, ms in enumerate(sets) for v in ms), dtype=np.int64)


class TestSetKernels:
    """``_set_balls`` and ``_set_depths`` against one brute-force search
    per set."""

    def test_oracle_draws_cover_the_edge_cases(self):
        empty = overlapping = closed = 0
        for seed in range(30):
            g = kernel_graph(seed)
            sets = random_sets(random.Random(seed), g)
            empty += sum(not ms for ms in sets)
            overlapping += sum(bool(a & b) for a, b in itertools.combinations(sets, 2))
            closed += int((_set_depths(g, set_keys(sets, g.vertex_count)) == 0).sum())  # no path out
        assert empty and overlapping and closed

    @pytest.mark.parametrize("seed", range(30))
    def test_balls_match_per_set_bfs(self, seed):
        g = kernel_graph(seed)
        n = g.vertex_count
        sets = random_sets(random.Random(seed), g)
        keys = set_keys(sets, n)
        for radius in range(5):
            expected = set_keys([brute_bfs(g, ms, radius, None) for ms in sets], n)
            assert _set_balls(g, keys, radius).tolist() == expected.tolist()

    @pytest.mark.parametrize("seed", range(30))
    def test_depths_match_bfs_within_the_set(self, seed):
        g = kernel_graph(seed)
        n = g.vertex_count
        sets = random_sets(random.Random(seed), g)
        expected = {}
        for s, ms in enumerate(sets):
            boundary = [v for v in ms if any(w not in ms for w in g.neighbors(v))]
            inner = brute_bfs(g, boundary, None, ms)
            expected.update({s * n + v: inner[v] + 1 if v in inner else 0 for v in ms})
        keys = set_keys(sets, n)
        assert dict(zip(keys.tolist(), _set_depths(g, keys).tolist())) == expected


class TestRowStore:
    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("memoised", [True, False])
    def test_rows_and_path_counts_match_brute_force(self, monkeypatch, seed, memoised):
        # the default store, and one that holds a single source's rows
        if not memoised:
            monkeypatch.setattr(graphs, "_ROW_CELLS", 0)
        g = kernel_graph(seed)
        n = g.vertex_count
        single, _, _ = spy_rows(monkeypatch)
        rows = _Rows(g)
        assert rows.capacity == (graphs._ROW_CELLS // n if memoised else 1)
        for s in range(n):
            row = rows[s]
            expected = brute_bfs(g, [s], None, None)
            assert row.dtype == np.int32 and not row.flags.writeable
            assert row.tolist() == [expected.get(v, -1) for v in range(n)]
            # a held row is read from its slot, with no new search
            assert np.shares_memory(rows[s], row) and single == list(range(s + 1))
        # the store of one source no longer holds row 0
        rows[0]
        assert single == list(range(n)) + [0] * (not memoised)
        rows = _Rows(g, counts=True)
        for s in range(n):
            dist, sig = rows.block([s], range(n))
            assert dist.tolist() == [rows[s].tolist()]
            assert sig.dtype == np.int64
            assert sig.tolist() == [[len(brute_shortest_paths(g, s, v)) for v in range(n)]]

    def test_path_counts_saturate(self, monkeypatch):
        # grid:6 corner to corner has C(10, 5) = 252 shortest paths
        from coarselab.spaces import grid

        monkeypatch.setattr(graphs, "_SIGMA_MAX", 7)
        g = grid(6).graph
        sig = _Rows(g, counts=True).block([0], range(36))[1][0].tolist()
        exact = [len(brute_shortest_paths(g, 0, v)) for v in range(36)]
        assert max(exact) == 252
        assert sig == [min(c, 7) for c in exact]

    def test_store_stays_within_its_cells(self, monkeypatch):
        from coarselab.spaces import grid

        g = grid(6).graph
        # a distance row takes 36 cells and a count row 72; a store holds
        # at least one source's rows
        for cells, counts in itertools.product((0, 5 * 36, 9 * 36), (False, True)):
            monkeypatch.setattr(graphs, "_ROW_CELLS", cells)
            rows = _Rows(g, counts=counts)
            capacity = max(cells // (36 * (1 + 2 * counts)), 1)
            assert rows.capacity == capacity
            for s in range(36):
                rows.block([s, (s + 7) % 36, (s + 14) % 36], [0, 35], sigma=counts)
                rows[s]
                # each held source has its own slot, in matrices of
                # ``capacity`` rows
                assert s in rows._slot and sorted(rows._slot.values()) == list(range(len(rows._slot)))
                assert len(rows._slot) <= capacity == len(rows._dist) and len(rows._sigma) == capacity * counts

    def test_rows_handed_out_keep_their_values_when_the_store_starts_over(self, monkeypatch):
        from coarselab.spaces import grid

        g = grid(6).graph
        monkeypatch.setattr(graphs, "_ROW_CELLS", 3 * 36)
        single, _, counted = spy_rows(monkeypatch)
        # a store of one source's distance and count rows: row 1 starts it
        # over and takes the slot of row 0
        rows = _Rows(g, counts=True)
        dist = rows[0]
        rows[1]
        assert (single, counted) == ([0, 1], [[0], [1]])
        assert dist.tolist() == bfs_distances(g, 0) and rows[1].tolist() == bfs_distances(g, 1)
        # a store of three distance rows: rows 3 and 4 start it over
        rows = _Rows(g)
        rows.load([0, 1])
        dist = rows[2]
        rows.load([3, 4])
        assert sorted(rows._slot) == [3, 4]
        assert [d.tolist() for d in (rows[3], rows[4], dist)] == [bfs_distances(g, s) for s in (3, 4, 2)]

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("cells", [None, 0, 7])
    def test_block_matches_the_rows(self, monkeypatch, seed, cells):
        # the default store, one of one source and one of two sources'
        # distance and count rows (7n cells), so blocks of more sources are
        # read in chunks and smaller ones start the store over
        g = kernel_graph(seed)
        n = g.vertex_count
        if cells is not None:
            monkeypatch.setattr(graphs, "_ROW_CELLS", cells * n)
        rows = _Rows(g, counts=True)
        rng = random.Random(seed)
        # one column is read slots by columns, and 2n columns or every
        # column in order whole rows first
        for size, width in itertools.product((1, 2, 5), (1, 2 * n, None)):
            X = rng.sample(range(n), min(size, n))
            cols = range(n) if width is None else [rng.randrange(n) for _ in range(width)]
            dist, sig = rows.block(X, cols)
            assert dist.dtype == np.int32 and sig.dtype == np.int64
            assert dist.tolist() == [[bfs_distances(g, x)[v] for v in cols] for x in X]
            assert sig.tolist() == [[len(brute_shortest_paths(g, x, v)) for v in cols] for x in X]
            only, none = rows.block(X, cols, sigma=False)
            assert only.tolist() == dist.tolist() and none is None

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("held", [1, 2, 3])
    @pytest.mark.parametrize("counts", [False, True])
    def test_block_larger_than_the_store_matches_brute_force(self, monkeypatch, seed, held, counts):
        # a store of ``held`` sources' rows, and blocks of 3 * held + 1
        # sources, some repeated, read in chunks of ``held``
        g = kernel_graph(seed)
        n = g.vertex_count
        monkeypatch.setattr(graphs, "_ROW_CELLS", held * n * (1 + 2 * counts))
        rows = _Rows(g, counts=counts)
        assert rows.capacity == held
        rng = random.Random(seed)
        X = [rng.randrange(n) for _ in range(3 * held + 1)]
        paths = brute_path_counts(g)
        for cols in (range(n), [rng.randrange(n) for _ in range(3)]):
            dist, sig = rows.block(X, cols, sigma=counts)
            assert dist.tolist() == [[brute_bfs(g, [x], None, None).get(v, -1) for v in cols] for x in X]
            assert (sig.tolist() if counts else sig) == ([[paths[x][v] for v in cols] for x in X] if counts else None)
            assert len(rows._slot) <= held

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("held", [1, 2, 3, None])
    def test_cells_match_brute_force(self, monkeypatch, seed, held):
        # one entry each of many sources, some repeated, from a store of
        # ``held`` sources' rows (or the default one) that holds a row already
        g = kernel_graph(seed)
        n = g.vertex_count
        if held is not None:
            monkeypatch.setattr(graphs, "_ROW_CELLS", held * n * 3)
        rows = _Rows(g, counts=True)
        rng = random.Random(seed)
        rows.load([rng.randrange(n)])
        sources = np.array([rng.randrange(n) for _ in range(40)])
        cols = np.array([rng.randrange(n) for _ in range(40)])
        dist, sig = rows.cells(sources, cols)
        paths = brute_path_counts(g)
        assert dist.dtype == np.int32 and sig.dtype == np.int64
        assert dist.tolist() == [bfs_distances(g, s)[v] for s, v in zip(sources.tolist(), cols.tolist())]
        assert sig.tolist() == [paths[s][v] for s, v in zip(sources.tolist(), cols.tolist())]
        assert len(rows._slot) <= rows.capacity

    def test_cells_load_only_the_rows_not_held(self, monkeypatch):
        # a read that fits the store beside its rows computes only the
        # missing ones, whatever the order of its sources
        from coarselab.spaces import grid

        g = grid(6).graph
        monkeypatch.setattr(graphs, "_ROW_CELLS", 4 * 36 * 3)
        rows = _Rows(g, counts=True)
        rows.load([5, 9, 30])
        single, batched, counted = spy_rows(monkeypatch)
        dist, _ = rows.cells(np.array([30, 7, 5, 9, 7]), np.array([0, 1, 2, 3, 4]))
        assert dist.tolist() == [bfs_distances(g, s)[v] for s, v in ((30, 0), (7, 1), (5, 2), (9, 3), (7, 4))]
        assert single + sum(batched, []) == [7] and sum(counted, []) == [7]

    def test_invalid_source_raises(self):
        with pytest.raises(ValueError, match="invalid vertex id 5"):
            _Rows(path_graph(5))[5]


class TestCountRows:
    """The batched path counts (one level-synchronous pass over many
    sources) against a brute-force dynamic program, exact and saturated."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("cap", [None, 3])
    def test_match_brute_force_path_counts(self, monkeypatch, seed, cap):
        # kernel_graph draws connected and disconnected graphs
        if cap is not None:
            monkeypatch.setattr(graphs, "_SIGMA_MAX", cap)
        g = kernel_graph(seed)
        n = g.vertex_count
        expected = [[c if cap is None else min(c, cap) for c in row] for row in brute_path_counts(g)]
        rng = random.Random(seed)
        for size in (1, 5, 3 * n):  # with more sources than vertices some repeat
            sources = [rng.randrange(n) for _ in range(size)]
            dist = np.array([bfs_distances(g, s) for s in sources], dtype=np.int32)
            got = _count_rows(g, sources, dist)
            assert got.dtype == np.int64 and got.shape == (size, n)
            assert got.tolist() == [expected[s] for s in sources]
        assert _Rows(g, counts=True).block(list(range(n)), range(n))[1].tolist() == expected

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("cells", [0, 16 * 5])
    def test_sliced_level_gathers_match_brute_force(self, monkeypatch, seed, cells):
        # gathers of about one neighbour, or about five, at a time: a
        # level's counts are written only once all its slices are summed
        monkeypatch.setattr(graphs, "_ROW_CELLS", cells)
        g = kernel_graph(seed)
        n = g.vertex_count
        expected = brute_path_counts(g)
        sources = [*range(n), *range(n)]
        dist = np.array([bfs_distances(g, s) for s in sources], dtype=np.int32)
        assert _count_rows(g, sources, dist).tolist() == [expected[s] for s in sources]

    @pytest.mark.parametrize("seed", range(12))
    def test_counts_store_loads_count_rows_in_blocks(self, monkeypatch, seed):
        # a store of 5 sources' distance and count rows (15 distance rows
        # alone), filled in blocks of at most 4
        g = kernel_graph(seed)
        n = g.vertex_count
        monkeypatch.setattr(graphs, "_ROW_CELLS", 15 * n)
        monkeypatch.setattr(graphs, "_BLOCK", 4)
        _, _, calls = spy_rows(monkeypatch)
        rows = _Rows(g, counts=True)
        assert (rows.capacity, _Rows(g).capacity) == (5, 15)
        # load fills the first 5 sources only
        first = list(range(min(n, 5)))
        rows.load(range(n))
        assert calls == [first[:4], first[4:]][: 1 + (n > 4)]
        expected = brute_path_counts(g)
        calls.clear()
        assert rows.block(first, range(n))[1].tolist() == [expected[s] for s in first]
        assert not calls  # every row held: nothing to fill
        # the whole graph 5 sources at a time, each count row filled once
        assert rows.block(list(range(n)), range(n))[1].tolist() == expected
        assert all(0 < len(block) <= 4 for block in calls)
        assert sorted(s for block in calls for s in block) == list(range(5, n))
        assert len(rows._slot) <= 5


class TestDistanceRows:
    """The bit-parallel kernel and the store's batched ``load`` against
    ``bfs_distances``."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("k", [1, 63, 64, 65, 130])
    def test_matches_bfs_distances(self, seed, k):
        # kernel_graph draws connected and disconnected graphs; with more
        # sources than vertices some sources repeat
        g = kernel_graph(seed)
        rng = random.Random(1000 * seed + k)
        sources = [rng.randrange(g.vertex_count) for _ in range(k)]
        got = _distance_rows(g, sources)
        assert got.dtype == np.int32 and got.shape == (k, g.vertex_count)
        assert got.tolist() == [bfs_distances(g, s) for s in sources]

    @pytest.mark.parametrize(
        "g",
        [
            MetricGraph(1, []),
            MetricGraph(5, []),
            MetricGraph(5, [(0, 2), (1, 2)]),  # the last segments are empty
            MetricGraph(6, [(2, 3), (3, 5)]),  # isolated vertices between segments
            path_graph(4),
            # 129 levels from an end (arrival marks up to 130 take 8 bit
            # planes), and 266 sources over five words
            MetricGraph(133, [(v, v + 1) for v in range(129)]),
        ],
        ids=["n1", "edgeless", "trailing_isolated", "isolated", "path", "deep"],
    )
    def test_isolated_vertices_and_duplicate_sources(self, g):
        sources = [*range(g.vertex_count), *range(g.vertex_count)]
        assert _distance_rows(g, sources).tolist() == [bfs_distances(g, s) for s in sources]
        assert _distance_rows(g, []).shape == (0, g.vertex_count)

    def test_invalid_source_raises(self):
        with pytest.raises(ValueError, match="invalid vertex id 5"):
            _distance_rows(path_graph(5), [0, 5])
        with pytest.raises(ValueError, match="invalid vertex id 5"):
            _Rows(path_graph(5)).load([0, 5])

    def test_load_fills_the_first_capacity_sources(self, monkeypatch):
        from coarselab.spaces import farey_truncation

        g = farey_truncation(6).graph  # 48 vertices, diameter 5
        n = g.vertex_count
        monkeypatch.setattr(graphs, "_ROW_CELLS", 12 * n)
        single, batched, counted = spy_rows(monkeypatch)
        rows = _Rows(g)
        rows.load([*range(n), 3])
        # the first 12 sources only: row 0 is the graph's kept row, and the
        # level bound (at most 5 + 5) lets the other 11 take one kernel call
        assert single == [0] and batched == [list(range(1, 12))]
        # a block of every row reads them 12 at a time, the store starting
        # over before each chunk but the first, each chunk one kernel call
        dist, _ = rows.block(list(range(n)), range(n), sigma=False)
        blocks = [list(range(lo, lo + 12)) for lo in range(0, n, 12)]
        assert single == [0]
        assert batched == [blocks[0][1:], *blocks[1:]]
        assert sorted(rows._slot) == blocks[-1] and not counted
        assert dist.tolist() == [bfs_distances(g, s) for s in range(n)]
        for s in range(n):
            assert rows[s].tolist() == bfs_distances(g, s) and not rows[s].flags.writeable

    def test_load_starts_over_to_keep_a_request_memoised(self, monkeypatch):
        from coarselab.spaces import farey_truncation

        g = farey_truncation(6).graph
        n = g.vertex_count
        monkeypatch.setattr(graphs, "_ROW_CELLS", 10 * n)
        rows = _Rows(g)
        rows.load(range(8))
        single, batched, _ = spy_rows(monkeypatch)
        # 6 rows missing, 2 free: the store starts over, and recomputes rows
        # 6 and 7 so that every row asked for is held, in one kernel call
        rows.load(range(6, 14))
        assert sorted(rows._slot) == list(range(6, 14))
        assert single == [] and batched == [list(range(6, 14))]

    def test_deep_block_takes_single_rows(self, monkeypatch):
        from coarselab.spaces import broom_tree

        g = broom_tree(100).graph
        assert g.is_connected  # the graph keeps its row from 0
        n = g.vertex_count
        single, batched, _ = spy_rows(monkeypatch)
        # the far end of the longest ray: 100 from vertex 0, whose
        # eccentricity is 100, so the level bound 200 exceeds the 3 levels a
        # source that a block of 64 may take
        deep = list(range(n - 64, n))
        rows = _Rows(g)
        rows.load(deep)
        assert single == deep and batched == []
        for s in deep:
            assert rows[s].tolist() == bfs_distances(g, s)

    def test_shallow_block_takes_the_kernel(self, monkeypatch):
        from coarselab.spaces import regular_tree

        g = regular_tree(3, 5).graph  # 94 vertices, eccentricities <= 10
        single, batched, _ = spy_rows(monkeypatch)
        rows = _Rows(g)
        rows.load(range(g.vertex_count))
        # the first block copies the graph's row from 0, and both blocks
        # take the kernel for every other row
        assert single == [0] and batched == [list(range(1, 64)), list(range(64, 94))]
        for s in range(g.vertex_count):
            assert rows[s].tolist() == bfs_distances(g, s)

    def test_row_0_is_copied_wherever_it_falls_in_a_block(self, monkeypatch):
        from coarselab.spaces import grid

        g = grid(5).graph
        single, batched, _ = spy_rows(monkeypatch)
        rows = _Rows(g)
        # within 3 of vertex 0, whose eccentricity is 8: the level bound 11
        # is below the 15 levels five sources may take
        rows.load([7, 3, 0, 1, 5, 6])
        # row 0 leads its block's slots; the rest share one kernel call
        assert single == [0] and batched == [[7, 3, 1, 5, 6]]
        assert rows[0] is not distance_vector(g, 0) and rows[0].tolist() == bfs_distances(g, 0)
        for s in (7, 3, 1, 5, 6):
            assert rows[s].tolist() == bfs_distances(g, s)


def _grows_own_queue(loop: ast.For | ast.While) -> bool:
    """A loop that appends to the container it iterates or tests: a BFS queue."""
    if isinstance(loop, ast.For):
        walked = {loop.iter.id} if isinstance(loop.iter, ast.Name) else set()
    else:
        walked = {n.id for n in ast.walk(loop.test) if isinstance(n, ast.Name)}
    grown = {
        c.func.value.id
        for c in ast.walk(loop)
        if isinstance(c, ast.Call)
        and isinstance(c.func, ast.Attribute)
        and c.func.attr in ("append", "appendleft", "extend")
        and isinstance(c.func.value, ast.Name)
    }
    return bool(walked & grown)


def test_traversals_live_in_graphs():
    """Only graphs.py walks a queue or imports deque: every other module
    reaches a BFS through the graphs functions."""
    package = FilePath(__file__).resolve().parent.parent / "src" / "coarselab"
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias) and node.name == "deque" or isinstance(node, ast.Attribute) and node.attr == "deque":
                offenders.append(f"{path.name}:{node.lineno} deque")
            if isinstance(node, (ast.For, ast.While)) and _grows_own_queue(node):
                offenders.append(f"{path.name}:{node.lineno} queue loop")
    assert offenders == []


def test_geodesics_reads_full_rows_from_the_store():
    """geodesics.py never runs a full-row BFS itself: every distance row it
    reads comes from the memoised store in graphs."""
    source = FilePath(__file__).resolve().parent.parent / "src" / "coarselab" / "geodesics.py"
    called = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    }
    assert "_Rows" in called
    assert called.isdisjoint({"bfs_distances", "distance_vector"})


def test_geodesics_reads_row_blocks_without_stacking():
    """geodesics.py reads the rows of many sources through ``_Rows.block``,
    one fancy index per matrix, and never stacks store rows one by one."""
    source = FilePath(__file__).resolve().parent.parent / "src" / "coarselab" / "geodesics.py"
    called = {
        node.func.attr
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert "block" in called
    assert called.isdisjoint({"stack", "vstack", "row_stack"})


def test_covers_run_no_search_per_set():
    """a1.py and cover.py neither import nor call the single-source ball
    search: their sets grow through the set-labelled kernels, not one search
    per set. cover.py builds its anchored sets by ``_set_cones`` and walks
    no CSR arrays itself."""
    package = FilePath(__file__).resolve().parent.parent / "src" / "coarselab"
    for name in ("a1.py", "cover.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        called = {
            node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        assert "_set_balls" in called, name
        assert (imported | called).isdisjoint({"_spheres", "ball", "sphere"}), name
        if name == "cover.py":
            assert "_set_cones" in called
            assert (imported | called).isdisjoint({"_closer_steps", "_segments", "_key_neighbours", "csr_arrays"})


class TestPathType:
    def test_length_and_ends(self):
        p = Path((3, 1, 4))
        assert p.length == 2
        assert p.start == 3 and p.end == 4
        assert list(p) == [3, 1, 4]


class TestFileFormat:
    def test_isolated_vertices(self):
        g = load_graph("graph iso 3\n0:\n1:\n2:\n")
        assert g.vertex_count == 3
        assert g.edge_count == 0

    def test_round_trip_normalizes(self):
        text = "# comment\ngraph t 3\n0: 1\n1: 0 2\n2: 1\n"
        g = load_graph(text)
        assert store_graph(g) == "graph t 3\n0: 1\n1: 0 2\n2: 1\n"
        assert load_graph(store_graph(g)) == g

    def test_bit_exact_round_trip(self):
        g = random_graph(9)
        assert store_graph(load_graph(store_graph(g))) == store_graph(g)

    def test_asymmetric_reported_with_pair(self):
        text = "graph bad 2\n0: 1\n1:\n"
        with pytest.raises(GraphFormatError, match="0 lists 1 but 1 does not list 0"):
            load_graph(text)

    def test_malformed_line_number(self):
        text = "graph bad 2\n0: 1\nnonsense\n"
        with pytest.raises(GraphFormatError, match="line 3"):
            load_graph(text)

    @pytest.mark.parametrize(
        "text, line",
        [("graph g 3\n# a\n# b\n0: 1\n1: 0\n", 6), ("graph g 3\n\n0: 1\n# c\n1: 0\n\n\n", 8)],
    )
    def test_missing_vertex_line_is_reported_after_the_last_line(self, text, line):
        # comment and blank lines count as lines
        with pytest.raises(GraphFormatError, match=f"^line {line}: expected 3 vertex lines, found 2$") as exc:
            load_graph(text)
        assert exc.value.line == line

    def test_out_of_range_neighbor(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            load_graph("graph bad 2\n0: 5\n1:\n")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="graph"):
            load_graph("0: 1\n1: 0\n")

    def test_unsorted_neighbors_rejected(self):
        with pytest.raises(GraphFormatError, match="ascending"):
            load_graph("graph bad 3\n0: 2 1\n1: 0\n2: 0\n")

    def test_gap_in_ids(self):
        with pytest.raises(GraphFormatError, match="ascending"):
            load_graph("graph bad 3\n0:\n2:\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            load_graph("graph bad 2\n0: 0\n1:\n")


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_distance_symmetry(g):
    for u in range(g.vertex_count):
        du = bfs_distances(g, u)
        for v in range(u + 1, g.vertex_count):
            assert du[v] == bfs_distances(g, v)[u]

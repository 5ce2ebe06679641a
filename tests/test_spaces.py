from math import gcd

import numpy as np
import pytest

from coarselab.graphs import MetricGraph, bfs_distances, distance, load_graph, store_graph
from coarselab.spaces import (
    ProjectiveRational,
    LabeledGraph,
    broom_tree,
    farey_safe_radius,
    farey_truncation,
    grid,
    regular_tree,
)


class TestFraction:
    def test_normal_forms(self):
        assert str(ProjectiveRational(1, 0)) == "1/0"
        assert str(ProjectiveRational(0, 1)) == "0/1"
        assert str(ProjectiveRational(-3, 7)) == "-3/7"

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            ProjectiveRational(2, 4)

    def test_rejects_bad_infinity(self):
        with pytest.raises(ValueError):
            ProjectiveRational(2, 0)


class TestLabeledGraph:
    def test_labels_injective(self):
        g = broom_tree(3).graph
        with pytest.raises(ValueError, match="injective"):
            LabeledGraph(g, tuple("a" * 1 for _ in range(g.vertex_count)), 0)

    def test_label_lookup(self):
        b = broom_tree(3)
        assert b.vertex_of(b.labels[2]) == 2


class TestBroomTree:
    def test_vertex_count_and_valence(self):
        b = broom_tree(3)
        assert b.graph.vertex_count == 7  # 1 + (1+2+3)
        assert b.graph.degree(b.basepoint) == 3

    def test_m1_single_edge(self):
        b = broom_tree(1)
        assert b.graph.vertex_count == 2
        assert b.graph.edge_count == 1

    def test_leaf_distances(self):
        b = broom_tree(5)
        dist = bfs_distances(b.graph, b.basepoint)
        for ray in range(1, 6):
            leaf = b.vertex_of(f"{ray}.{ray}")
            assert dist[leaf] == ray

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            broom_tree(0)

    def test_acyclic_connected(self):
        g = broom_tree(12).graph
        assert g.is_tree


class TestRegularTree:
    def test_depth_one(self):
        t = regular_tree(3, 1)
        assert t.graph.vertex_count == 4

    @pytest.mark.parametrize("v,d", [(3, 3), (4, 3), (5, 2), (6, 4)])
    def test_count_formula(self, v, d):
        t = regular_tree(v, d)
        expected = 1 + v * ((v - 1) ** d - 1) // (v - 2)
        assert t.graph.vertex_count == expected

    def test_valence_two_is_path(self):
        t = regular_tree(2, 4)
        assert t.graph.vertex_count == 9
        degrees = sorted(t.graph.degree(v) for v in range(9))
        assert degrees == [1, 1, 2, 2, 2, 2, 2, 2, 2]

    def test_internal_valence(self):
        t = regular_tree(4, 3)
        g = t.graph
        dist = bfs_distances(g, t.basepoint)
        for v in range(g.vertex_count):
            if dist[v] < 3:
                assert g.degree(v) == 4
            else:
                assert g.degree(v) == 1

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            regular_tree(1, 3)
        with pytest.raises(ValueError):
            regular_tree(3, 0)

    def test_acyclic_connected(self):
        assert regular_tree(4, 4).graph.is_tree


class TestFarey:
    def test_zero_meets_all_unit_fractions(self):
        f = farey_truncation(12)
        zero = f.basepoint
        for q in range(1, 13):
            assert f.graph.has_edge(zero, f.vertex_of(f"1/{q}"))
            assert f.graph.has_edge(zero, f.vertex_of(f"-1/{q}"))

    def test_half_third_edge(self):
        f = farey_truncation(6)
        assert f.graph.has_edge(f.vertex_of("1/2"), f.vertex_of("1/3"))
        assert not f.graph.has_edge(f.vertex_of("1/2"), f.vertex_of("1/4"))

    def test_infinity_meets_integers(self):
        f = farey_truncation(5)
        inf = f.vertex_of("1/0")
        for n in range(-5, 6):
            assert f.graph.has_edge(inf, f.vertex_of(f"{n}/1"))

    @pytest.mark.parametrize("qmax", [5, 12, 30])
    def test_determinant_rule_exhaustive(self, qmax):
        # independent full-pair re-scan straight from the labels
        f = farey_truncation(qmax)
        fracs = []
        for lab in f.labels:
            p, q = lab.split("/")
            fracs.append((int(p), int(q)))
        ps = np.array([p for p, _ in fracs], dtype=np.int64)
        qs = np.array([q for _, q in fracs], dtype=np.int64)
        det = np.abs(ps[:, None] * qs[None, :] - ps[None, :] * qs[:, None])
        adj = np.zeros((len(fracs), len(fracs)), dtype=bool)
        for u, v in f.graph.edges():
            adj[u, v] = adj[v, u] = True
        np.fill_diagonal(det, 0)
        assert ((det == 1) == adj).all()

    def test_vertex_set_is_window(self):
        qmax = 9
        f = farey_truncation(qmax)
        expected = {(1, 0)} | {
            (p, q)
            for q in range(1, qmax + 1)
            for p in range(-qmax, qmax + 1)
            if gcd(abs(p), q) == 1
        }
        got = {tuple(int(t) for t in lab.split("/")) for lab in f.labels}
        assert got == expected

    def test_basepoint_is_zero(self):
        f = farey_truncation(4)
        assert f.labels[f.basepoint] == "0/1"

    def test_connected(self):
        assert farey_truncation(20).graph.is_connected

    def test_unit_sphere_count(self):
        # sphere(0/1, 1) = exactly the vertices p/q with |p| = 1 (edge rule
        # |p*1 - q*0| = 1), including 1/0
        from coarselab.graphs import sphere

        qmax = 50
        f = farey_truncation(qmax)
        got = sphere(f.graph, f.basepoint, 1)
        expected = {
            v for v, lab in enumerate(f.labels) if abs(int(lab.split("/")[0])) == 1
        }
        assert got == expected
        assert len(got) == 2 * qmax + 1

    def test_safe_radius_distances_agree(self):
        qmax = 12
        radius = farey_safe_radius(qmax)
        assert radius >= 1
        small = farey_truncation(qmax)
        big = farey_truncation(2 * qmax)
        ds = bfs_distances(small.graph, small.basepoint)
        db = bfs_distances(big.graph, big.basepoint)
        big_of = {big.labels[v]: v for v in range(big.graph.vertex_count)}
        for v, lab in enumerate(small.labels):
            d_big = db[big_of[lab]]
            if 0 <= d_big <= radius:
                assert ds[v] == d_big
        # doubling the window only adds routes: distances never grow
        for v, lab in enumerate(small.labels):
            if ds[v] >= 0:
                assert db[big_of[lab]] <= ds[v]


def farey_by_pairs(qmax: int) -> LabeledGraph:
    """The Farey window built fraction by fraction: the reference for the
    array build of ``farey_truncation``."""
    verts = [ProjectiveRational(1, 0)]
    for q in range(1, qmax + 1):
        for p in range(-qmax, qmax + 1):
            if gcd(abs(p), q) == 1:
                verts.append(ProjectiveRational(p, q))
    verts.sort(key=lambda f: (f.q, f.p))
    index = {(f.p, f.q): i for i, f in enumerate(verts)}
    edges = {(0, index[(n, 1)]) for n in range(-qmax, qmax + 1)}
    for i, f in enumerate(verts[1:], start=1):
        p, q = f.p, f.q
        inv = pow(p % q, -1, q) if q > 1 else 0
        for sign in (1, -1):
            # p*s - r*q = sign forces s ≡ sign * p^{-1} (mod q)
            s = (sign * inv) % q or q
            while s <= qmax:
                r = (p * s - sign) // q
                j = index.get((r, s))
                if j is not None:
                    edges.add((min(i, j), max(i, j)))
                s += q
    return LabeledGraph(MetricGraph(len(verts), sorted(edges), name=f"farey_{qmax}"), tuple(map(str, verts)), index[(0, 1)])


@pytest.mark.parametrize("qmax", [*range(1, 41), 100])
def test_farey_array_build_matches_pairwise_build(qmax):
    got, expected = farey_truncation(qmax), farey_by_pairs(qmax)
    assert got.labels == expected.labels
    assert got.basepoint == expected.basepoint
    assert got.graph == expected.graph and got == expected


class TestGrid:
    def test_two_is_four_cycle(self):
        g = grid(2).graph
        assert g.vertex_count == 4
        assert g.edge_count == 4
        assert all(g.degree(v) == 2 for v in range(4))

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_corner_distance(self, n):
        sp = grid(n)
        far = sp.vertex_of(f"({n - 1},{n - 1})")
        assert distance(sp.graph, sp.basepoint, far) == 2 * (n - 1)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_vertex_count(self, n):
        assert grid(n).graph.vertex_count == n * n

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            grid(1)


@pytest.mark.parametrize(
    "space",
    [broom_tree(6), regular_tree(3, 3), farey_truncation(8), grid(4)],
    ids=["broom", "tree", "farey", "grid"],
)
def test_generator_round_trip(space):
    text = store_graph(space.graph)
    assert load_graph(text) == space.graph

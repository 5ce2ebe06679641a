from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab.cli import parse_space
from coarselab.graphs import MetricGraph, bfs_distances, distance, load_graph, store_graph
from coarselab.spaces import (
    ProjectiveRational,
    LabeledGraph,
    VertexLabels,
    _inverses,
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

    def test_caller_labels_are_indexed(self):
        g = broom_tree(3).graph
        sp = LabeledGraph(g, tuple("abcdefg"), 0)
        assert sp.labels == tuple("abcdefg") and isinstance(sp.labels, VertexLabels)
        assert [sp.vertex_of(c) for c in "gfedcba"] == [6, 5, 4, 3, 2, 1, 0]
        with pytest.raises(KeyError):
            sp.vertex_of("h")

    def test_labels_act_like_their_tuple(self):
        b = broom_tree(3)
        tup = ("x0", "1.1", "2.1", "2.2", "3.1", "3.2", "3.3")
        assert b.labels == tup and tup == b.labels and b.labels != list(tup)
        assert hash(b.labels) == hash(tup) and hash(b) == hash(LabeledGraph(b.graph, tup, 0))
        assert b == LabeledGraph(b.graph, tup, 0) and b != LabeledGraph(b.graph, tup[::-1], 0)
        assert b.labels[-1] == "3.3" and b.labels[np.int64(2)] == "2.1" and b.labels[1:6:2] == tup[1:6:2]
        assert list(reversed(b.labels)) == list(tup[::-1])
        with pytest.raises(IndexError):
            b.labels[7]
        with pytest.raises(ValueError):
            b.labels.index("2.3")


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

    @pytest.mark.parametrize("qmax", [*range(1, 13), 30])
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

    @pytest.mark.parametrize("qmax", [13, 20, 31, 45, 60])
    def test_edges_match_the_unbounded_enumeration(self, qmax):
        # each fraction p/q against every denominator s in 1..qmax and both
        # signs, r = (p*s - sign) / q kept when it is an integer in the
        # window: no bound on s from |r| <= qmax
        f = farey_truncation(qmax)
        fracs = np.array([tuple(map(int, lab.split("/"))) for lab in f.labels], dtype=np.int64)
        ids = {(int(p), int(q)): v for v, (p, q) in enumerate(fracs)}
        p, q = fracs[1:, :1], fracs[1:, 1:]
        s = np.arange(1, qmax + 1)[None, :]
        expected = {(0, ids[n, 1]) for n in range(-qmax, qmax + 1)}  # 1/0 meets the integers
        for sign in (1, -1):
            num = p * s - sign
            hit = (num % q == 0) & (np.abs(num // q) <= qmax)
            for i, j in zip(*np.nonzero(hit)):
                u, v = i + 1, ids[int(num[i, j] // q[i, 0]), int(s[0, j])]
                expected.add((min(u, v), max(u, v)))
        assert set(f.graph.edges()) == expected

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


# -- labels from vertex ids ----------------------------------------------
#
# The label loops every generator ran before its labels were computed from
# the vertex id, kept as the oracles of those closed forms.


def broom_labels(m: int) -> tuple[str, ...]:
    numerals = [str(i) for i in range(m + 1)]
    labels = ["x0"]
    for ray in range(1, m + 1):
        head = numerals[ray] + "."
        labels += [head + depth for depth in numerals[1 : ray + 1]]
    return tuple(labels)


def tree_labels(valence: int, depth: int) -> tuple[str, ...]:
    labels = ["r"]
    lo = 0
    for level in range(depth):
        kids = valence if level == 0 else valence - 1
        hi = len(labels)
        labels += [f"{labels[u]}.{k}" for u in range(lo, hi) for k in range(kids)]
        lo = hi
    return tuple(labels)


def farey_labels(qmax: int) -> tuple[str, ...]:
    return ("1/0", *(f"{p}/{q}" for q in range(1, qmax + 1) for p in range(-qmax, qmax + 1) if gcd(abs(p), q) == 1))


def grid_labels(n: int) -> tuple[str, ...]:
    return tuple(f"({i},{j})" for i in range(n) for j in range(n))


SMALL_SPACES = [
    *[(f"broom:{m}", broom_labels(m)) for m in range(1, 31)],
    *[(f"tree:{v},{d}", tree_labels(v, d)) for v in range(2, 7) for d in range(1, 6) if v**d <= 2000],
    *[(f"farey:{q}", farey_labels(q)) for q in range(1, 26)],
    *[(f"grid:{n}", grid_labels(n)) for n in range(2, 21)],
]


@pytest.fixture(scope="module")
def file_space(tmp_path_factory):
    path = tmp_path_factory.mktemp("spaces") / "g.txt"
    path.write_text(store_graph(grid(4).graph))
    return parse_space(f"file:{path}"), tuple(map(str, range(16)))


class TestLabelsFromIds:
    @pytest.mark.parametrize("spec, oracle", SMALL_SPACES, ids=[spec for spec, _ in SMALL_SPACES])
    def test_labels_and_round_trip(self, spec, oracle):
        sp = parse_space(spec)
        assert isinstance(sp.labels, VertexLabels)
        assert tuple(sp.labels) == oracle and sp.labels == oracle and len(sp.labels) == len(oracle)
        assert [sp.label_of(v) for v in range(len(oracle))] == list(oracle)
        assert [sp.vertex_of(lab) for lab in oracle] == list(range(len(oracle)))

    def test_file_labels(self, file_space):
        sp, oracle = file_space
        assert sp.labels == oracle
        assert [sp.vertex_of(lab) for lab in oracle] == list(range(16))

    @pytest.mark.parametrize(
        "spec, label",
        [
            ("farey:6", "0/2"),
            ("farey:6", "01/1"),
            ("farey:6", "+1/1"),
            ("farey:6", "-0/1"),
            ("farey:6", "2/0"),
            ("farey:6", "7/1"),
            ("farey:6", "1/7"),
            ("farey:6", "1/-1"),
            ("farey:6", " 1/1"),
            ("farey:6", "1/1/1"),
            ("broom:3", "3.4"),
            ("broom:3", "2.0"),
            ("broom:3", "0.1"),
            ("broom:3", "x1"),
            ("broom:3", "1.1.1"),
            ("broom:3", "1_0.1"),
            ("grid:4", "(0,4)"),
            ("grid:4", "(4,0)"),
            ("grid:4", "(0, 1)"),
            ("grid:4", "((0,1))"),
            ("grid:4", "[0,1]"),
            ("tree:3,2", "r.3.3"),
            ("tree:3,2", "r.0.2"),
            ("tree:3,2", "r.0.0.0"),
            ("tree:3,2", "r."),
            ("tree:3,2", "x.0"),
            ("tree:2,3", "r.0.1"),
        ],
    )
    def test_near_misses_are_not_labels(self, spec, label):
        with pytest.raises(KeyError, match="no vertex labeled"):
            parse_space(spec).vertex_of(label)

    @pytest.mark.parametrize("label", ["016", "-1", "1.0", "٣", "16"])
    def test_file_near_misses(self, file_space, label):
        with pytest.raises(KeyError):
            file_space[0].vertex_of(label)

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_vertex_of_fuzz_matches_the_oracle_scan(self, file_space, data):
        spaces = [
            (broom_tree(5), broom_labels(5)),
            (regular_tree(3, 3), tree_labels(3, 3)),
            (farey_truncation(6), farey_labels(6)),
            (grid(4), grid_labels(4)),
            file_space,
            (LabeledGraph(grid(2).graph, ("a", "b", "c", "d"), 0), ("a", "b", "c", "d")),
        ]
        sp, oracle = data.draw(st.sampled_from(spaces))
        # arbitrary text, text in the labels' alphabet, and labels with a
        # character or two added around them
        edits = st.sampled_from(["", "0", " ", "1", "-", "+", ".", "(", ")"])
        text = data.draw(
            st.one_of(
                st.text(),
                st.text(alphabet="0123456789-+./(), rx_٣"),
                st.tuples(edits, st.sampled_from(oracle), edits).map("".join),
            )
        )
        expected = oracle.index(text) if text in oracle else None
        try:
            got = sp.vertex_of(text)
        except KeyError:
            got = None
        assert got == expected


def test_vectorised_inverses_match_pow():
    pairs = [(a, m) for m in range(1, 301) for a in range(m) if gcd(a, m) == 1]
    a, m = np.array(pairs, dtype=np.int64).T
    assert _inverses(a, m).tolist() == [pow(int(x), -1, int(y)) for x, y in pairs]
    # a is taken mod m first
    assert _inverses(a + 7 * m, m).tolist() == _inverses(a, m).tolist()

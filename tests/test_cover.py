import dataclasses
import random

import numpy as np
import pytest

from conftest import floyd_warshall, random_graph

from coarselab.cover import (
    Cover,
    CoverParams,
    CoverSet,
    asdim_upper_from_D,
    build_cover,
    multiplicity,
    store_cover,
    verify_diameters,
)
from coarselab.geodesics import GeodesicFamily
from coarselab.graphs import (
    MetricGraph,
    _outward_steps,
    ball,
    bfs_distances,
    canonical_geodesic,
    multi_source_distances,
    set_diameter,
)
from coarselab.spaces import broom_tree, farey_truncation, grid


@pytest.fixture(scope="module")
def broom120_cover():
    b = broom_tree(120)
    fam = GeodesicFamily.all_of(b.graph)
    params = CoverParams(r=1, ell=0, delta=0, basepoint=b.basepoint)
    return b, fam, build_cover(b.graph, fam, params)


class TestParams:
    def test_rejects_small_ell(self):
        with pytest.raises(ValueError, match="ell"):
            CoverParams(r=1, ell=5, delta=1, basepoint=0)

    def test_rejects_zero_r(self):
        with pytest.raises(ValueError):
            CoverParams(r=0, ell=0, delta=0, basepoint=0)

    def test_width_and_band(self):
        p = CoverParams(r=2, ell=10, delta=1, basepoint=0)
        assert p.width == 12
        assert p.band == 120


class TestBuildCover:
    def test_spheres_at_multiples_of_band(self, broom120_cover):
        # annulus n is the band of distances [10(n-1), 10n], so its outer
        # sphere lies at 10n, and each anchor sits on the sphere two below
        b, _, cov = broom120_cover
        dist = bfs_distances(b.graph, b.basepoint)
        assert cov.annuli == {n: (10 * (n - 1), 10 * n) for n in range(1, cov.n_max + 1)}
        for cs in cov.sets:
            assert cs.anchor is None or dist[cs.anchor] == cov.annuli[cs.n - 2][1]

    def test_every_vertex_covered(self, broom120_cover):
        b, _, cov = broom120_cover
        covered = set()
        for cs in cov.sets:
            covered |= cs.members
        assert covered == set(range(b.graph.vertex_count))

    def test_annuli_partition_with_sphere_overlap(self, broom120_cover):
        b, _, cov = broom120_cover
        dist = bfs_distances(b.graph, b.basepoint)
        annuli = {n: {v for v, d in enumerate(dist) if lo <= d <= hi} for n, (lo, hi) in cov.annuli.items()}
        assert set().union(*annuli.values()) == set(range(b.graph.vertex_count))
        for cs in cov.sets:
            assert cs.members <= annuli[cs.n]
        # overlap of consecutive annuli is exactly the shared sphere
        for n in range(1, cov.n_max):
            assert annuli[n] & annuli[n + 1] == {v for v, d in enumerate(dist) if d == 10 * n}

    def test_sets_on_single_ray(self, broom120_cover):
        # every anchored set of a broom cover lies on one ray
        b, _, cov = broom120_cover
        for cs in cov.sets:
            if cs.anchor is None:
                continue
            rays = {b.labels[v].split(".")[0] for v in cs.members}
            assert len(rays) == 1

    def test_anchored_members_pass_through_anchor(self, broom120_cover):
        b, _, cov = broom120_cover
        dist = bfs_distances(b.graph, b.basepoint)
        for cs in cov.sets[:40]:
            if cs.anchor is None:
                continue
            da = bfs_distances(b.graph, cs.anchor)
            for v in cs.members:
                assert dist[cs.anchor] + da[v] == dist[v]

    def test_small_graph_two_annuli_only(self):
        b = broom_tree(15)  # fits inside radius 20
        fam = GeodesicFamily.all_of(b.graph)
        cov = build_cover(b.graph, fam, CoverParams(r=1, ell=0, delta=0, basepoint=0))
        assert {cs.n for cs in cov.sets} <= {1, 2}
        assert all(cs.anchor is None for cs in cov.sets)

    def test_unreachable_basepoint_rejected(self):
        g = MetricGraph(4, [(0, 1), (2, 3)])
        fam = GeodesicFamily.all_of(g)
        with pytest.raises(ValueError, match="does not reach"):
            build_cover(g, fam, CoverParams(r=1, ell=0, delta=0, basepoint=0))

    def test_complete_annuli_rule(self, broom120_cover):
        b, _, cov = broom120_cover
        # d_max = 120, width 1: complete iff 10n <= 119
        assert sorted(cov.complete) == list(range(1, 12))

    def test_canonical_family_cover_nested_in_all(self):
        b = broom_tree(40)
        ga = GeodesicFamily.all_of(b.graph)
        gc = GeodesicFamily.canonical_of(b.graph)
        params = CoverParams(r=1, ell=0, delta=0, basepoint=0)
        ca = build_cover(b.graph, ga, params)
        cc = build_cover(b.graph, gc, params)
        # on a tree both families coincide, so the covers agree
        assert [(c.n, c.anchor, c.members) for c in ca.sets] == [
            (c.n, c.anchor, c.members) for c in cc.sets
        ]

    def test_farey_cover_covers_everything(self):
        f = farey_truncation(200)
        fam = GeodesicFamily.all_of(f.graph)
        cov = build_cover(f.graph, fam, CoverParams(r=1, ell=0, delta=0, basepoint=f.basepoint))
        covered = set()
        for cs in cov.sets:
            covered |= cs.members
        assert covered == set(range(f.graph.vertex_count))
        # the window is shallow: every annulus is incomplete and labeled so
        rep = verify_diameters(f.graph, cov)
        assert rep.passed
        assert set(rep.incomplete_annuli) == set(cov.annuli)

    def test_grid_cover_with_measured_delta(self):
        sp = grid(6)
        fam = GeodesicFamily.all_of(sp.graph)
        params = CoverParams(r=1, ell=50, delta=5, basepoint=sp.basepoint)
        cov = build_cover(sp.graph, fam, params)
        covered = set()
        for cs in cov.sets:
            covered |= cs.members
        assert covered == set(range(36))


def random_strip(seed: int, width: int = 3, length: int = 30) -> MetricGraph:
    """A width-by-length lattice strip with random edges removed while it
    stays connected: a long non-tree with many tied geodesics."""
    rng = random.Random(seed)
    edges = [(i * length + j, i * length + j + 1) for i in range(width) for j in range(length - 1)]
    edges += [(i * length + j, (i + 1) * length + j) for i in range(width - 1) for j in range(length)]
    for e in rng.sample(edges, len(edges)):
        if rng.random() < 0.3:
            rest = [f for f in edges if f != e]
            if MetricGraph(width * length, rest).is_connected:
                edges = rest
    g = MetricGraph(width * length, edges, name=f"strip_{seed}")
    assert g.is_connected and not g.is_tree
    return g


def deep_random_tree(seed: int, n: int = 90) -> MetricGraph:
    """A random tree whose parents sit at most three ids back, so it is
    deeper than 20 from vertex 0 and branches along the way."""
    rng = random.Random(seed)
    g = MetricGraph(n, [(rng.randrange(max(0, v - 3), v), v) for v in range(1, n)], name=f"deep_tree_{seed}")
    assert g.is_tree and max(bfs_distances(g, 0)) > 20
    return g


def chorded_tree(tree: MetricGraph, seed: int) -> MetricGraph:
    """``tree`` with a few chords beyond depth 10 between vertices one or
    two levels apart, so that past the first anchor level some vertices
    have one neighbour one closer to the root and others several."""
    rng = random.Random(seed)
    depth = bfs_distances(tree, 0)
    chords = set()
    while len(chords) < 4:
        u, v = rng.sample(range(1, tree.vertex_count), 2)
        if min(depth[u], depth[v]) > 10 and 0 < depth[v] - depth[u] <= 1 + (not chords) and not tree.has_edge(u, v):
            chords.add((u, v))
    g = MetricGraph(tree.vertex_count, [*tree.edges(), *chords], name=f"{tree.name}_chords_{seed}")
    assert max(bfs_distances(g, 0)) > 20
    return g


def hub_graph() -> MetricGraph:
    """A path from the root to a hub at anchor level 10, whose 60 outward
    steps start rays out to level 32, and a second path from the root out
    to level 32. Three chords from the second path give hub-ray vertices a
    second step towards the root, from another anchor's cone."""
    hub, n = 10, 11
    edges = [(i, i + 1) for i in range(hub)]
    rays = []
    for start, length in [(hub, 22)] * 60 + [(0, 32)]:
        ray = [start, *range(n, n + length)]
        edges += zip(ray, ray[1:])
        rays.append(ray)
        n += length
    for i, d in enumerate((14, 21, 25)):  # level d on the last ray, d + 1 on a hub ray
        edges.append((rays[-1][d], rays[i][d + 1 - hub]))
    g = MetricGraph(n, edges, name="hub_60")
    depth = bfs_distances(g, 0)
    assert depth[hub] == 10 and sum(depth[w] == 11 for w in g.neighbors(hub)) >= 50
    return g


def short_cone_tree() -> MetricGraph:
    """A spider whose legs from the root end between anchor levels (12, 15,
    19, 25, 27 steps) or run out to 41, one leg branching at level 22; the
    cones of the short legs' anchors end before their annuli."""
    edges, n = [], 1
    for length in (12, 15, 19, 25, 27, 41):
        leg = [0, *range(n, n + length)]
        edges += zip(leg, leg[1:])
        n += length
    edges += [(n - 41 + 21, n), *((v, v + 1) for v in range(n, n + 5))]
    g = MetricGraph(n + 6, edges, name="short_cone_tree")
    depth = bfs_distances(g, 0)
    assert any(g.degree(v) == 1 and 10 < depth[v] < 20 for v in range(g.vertex_count))
    return g


TREES = [(broom_tree(60).graph, 0), *[(deep_random_tree(seed), 0) for seed in range(3)], (short_cone_tree(), 0)]

# On the broom the chords join different rays, so the steps of a chorded
# vertex lead to different anchors.
CHORDED = [chorded_tree(deep_random_tree(seed, n=120), seed) for seed in range(3)]
CHORDED += [chorded_tree(broom_tree(40).graph, seed) for seed in range(3)]


def oracle_sets(g: MetricGraph, kind: str, band: int, base: int):
    """The cover's sets from the definition alone. Annuli 1 and 2 stay
    whole. For n >= 3, x joins anchor s (at level band*(n-2)) when s lies
    on a geodesic [x, base] ("all": d(x,s) + d(s,base) == d(x,base)) or
    on the canonical geodesic ("canonical")."""
    db = bfs_distances(g, base)
    n_max = max(1, -(-max(db) // band))
    out = []
    for n in range(1, n_max + 1):
        annulus = [x for x in range(g.vertex_count) if band * (n - 1) <= db[x] <= band * n]
        if not annulus:
            continue
        if n <= 2:
            out.append((n, None, frozenset(annulus)))
            continue
        level = band * (n - 2)
        groups: dict[int, set[int]] = {}
        if kind == "all":
            for s in (v for v in range(g.vertex_count) if db[v] == level):
                ds = bfs_distances(g, s)
                groups[s] = {x for x in annulus if ds[x] + level == db[x]}
        else:
            for x in annulus:
                s = canonical_geodesic(g, x, base).vertices[db[x] - level]
                groups.setdefault(s, set()).add(x)
        out += [(n, s, frozenset(groups[s])) for s in sorted(groups) if groups[s]]
    return out


class TestAnchorOracle:
    # r = 1 gives the narrowest band (10); anchored sets (n >= 3) need
    # distances beyond 20, which grid:12, the 50-cycle and the strips have.
    @pytest.mark.parametrize("kind", ["all", "canonical"])
    @pytest.mark.parametrize(
        "g, base",
        [
            (grid(5).graph, 0),
            (grid(6).graph, 14),
            (grid(12).graph, 0),
            (grid(12).graph, 12),
            (MetricGraph(50, [(i, (i + 1) % 50) for i in range(50)], name="cycle_50"), 0),
            *[(random_strip(seed), seed) for seed in range(4)],
            (hub_graph(), 0),
        ],
        ids=lambda v: getattr(v, "name", str(v)),
    )
    def test_non_tree_cover_matches_definition(self, g, base, kind):
        fam = GeodesicFamily(g, kind)
        cov = build_cover(g, fam, CoverParams(r=1, ell=0, delta=0, basepoint=base))
        assert [(cs.n, cs.anchor, cs.members) for cs in cov.sets] == oracle_sets(g, kind, 10, base)

    @pytest.mark.parametrize("g, base", TREES, ids=lambda v: getattr(v, "name", str(v)))
    def test_tree_covers_match_definition(self, g, base):
        # a tree has one geodesic per pair, so both families give one cover
        params = CoverParams(r=1, ell=0, delta=0, basepoint=base)
        covers = {
            kind: [(cs.n, cs.anchor, cs.members) for cs in build_cover(g, GeodesicFamily(g, kind), params).sets]
            for kind in ("all", "canonical")
        }
        for kind, sets in covers.items():
            assert sets == oracle_sets(g, kind, 10, base)
        assert covers["all"] == covers["canonical"]
        assert any(n >= 3 for n, _, _ in covers["all"])

    @pytest.mark.parametrize("kind", ["all", "canonical"])
    @pytest.mark.parametrize("g", CHORDED, ids=lambda g: g.name)
    def test_chorded_tree_cover_matches_definition(self, g, kind):
        cov = build_cover(g, GeodesicFamily(g, kind), CoverParams(r=1, ell=0, delta=0, basepoint=0))
        assert [(cs.n, cs.anchor, cs.members) for cs in cov.sets] == oracle_sets(g, kind, 10, 0)

    def test_both_lanes_are_exercised(self):
        # Beyond the first anchor level (10), some vertex has one step
        # towards the root and some several, and in at least one graph a
        # vertex of an anchored annulus lies in two of its sets.
        shared = False
        for g in CHORDED:
            dist = bfs_distances(g, 0)
            steps = [sum(dist[u] == dist[v] - 1 for u in g.neighbors(v)) for v in range(g.vertex_count) if dist[v] > 10]
            assert 1 in steps and max(steps) > 1, g.name
            cov = build_cover(g, GeodesicFamily(g, "all"), CoverParams(r=1, ell=0, delta=0, basepoint=0))
            for n in {cs.n for cs in cov.sets if cs.anchor is not None}:
                members = [cs.members for cs in cov.sets if cs.n == n]
                shared |= sum(map(len, members)) > len(frozenset().union(*members))
        assert shared

    @pytest.mark.parametrize("seed", range(30))
    def test_step_array_matches_canonical_step(self, seed):
        # The outward step arrays of both families against their definition.
        # Every step rises one level between reachable vertices; "all" keeps
        # every such edge, and "canonical" exactly one into each reachable
        # vertex but the target, from its least neighbour one closer. The
        # sparse draws are mostly disconnected.
        g = random_graph(seed, max_vertices=16, edge_prob=(0.15, 0.3, 0.5)[seed % 3])
        target = random.Random(seed).randrange(g.vertex_count)
        dist = bfs_distances(g, target)
        vs = range(g.vertex_count)
        rising = {(u, w) for u in vs for w in g.neighbors(u) if dist[u] >= 0 and dist[w] == dist[u] + 1}
        least = {(min(u for u in g.neighbors(w) if dist[u] == dist[w] - 1), w) for w in vs if dist[w] > 0}
        for canonical, expected in ((False, rising), (True, least)):
            ptr, heads = _outward_steps(g, np.asarray(dist, dtype=np.int32), canonical)
            rows = [heads[ptr[u] : ptr[u + 1]].tolist() for u in vs]
            assert all(row == sorted(set(row)) for row in rows)
            steps = {(u, w) for u in vs for w in rows[u]}
            assert all(0 <= dist[u] == dist[w] - 1 for u, w in steps)
            assert steps == expected


def old_safe_core(g: MetricGraph, cover: Cover, radius: int) -> frozenset[int]:
    """The complete region minus everything within ``radius`` of a vertex
    outside it, as multiplicity and the fat cover computed it before
    ``Cover.core``."""
    region = frozenset(np.flatnonzero(cover.region).tolist())
    outside = [v for v in range(g.vertex_count) if v not in region]
    if not outside or radius == 0:
        return frozenset(region)
    dist_out = multi_source_distances(g, outside)
    return frozenset(v for v in region if not 0 <= dist_out[v] <= radius)


class TestCore:
    @pytest.mark.parametrize(
        "space, params",
        [
            (broom_tree(120), dict(r=1, ell=0, delta=0)),
            (grid(30), dict(r=1, ell=0, delta=0)),
            (farey_truncation(30), dict(r=1, ell=10, delta=1)),
        ],
        ids=["broom120", "grid30", "farey30"],
    )
    def test_matches_old_formula(self, space, params):
        g = space.graph
        cov = build_cover(g, GeodesicFamily.all_of(g), CoverParams(basepoint=space.basepoint, **params))
        # the natural cover, and the same cover with every annulus called
        # complete, so that its complete region is every vertex
        every = dataclasses.replace(cov, complete=frozenset(cov.annuli), region=np.ones(g.vertex_count, dtype=bool))
        for c in (cov, every):
            for radius in range(11):
                assert c.core(g, radius) == old_safe_core(g, c, radius)
        # the complete region is the union of the complete annuli's bands
        dist = bfs_distances(g, space.basepoint)
        bands = [cov.annuli[n] for n in cov.complete]
        assert cov.core(g, 0) == {v for v, d in enumerate(dist) if any(lo <= d <= hi for lo, hi in bands)}

    def test_ball_stays_inside_region(self, broom120_cover):
        b, _, cov = broom120_cover
        region = frozenset(np.flatnonzero(cov.region).tolist())
        core = cov.core(b.graph, 3)
        assert core and core < region
        for v in region:
            assert (v in core) == (ball(b.graph, v, 3) <= region)

    def test_negative_radius_rejected(self, broom120_cover):
        b, _, cov = broom120_cover
        with pytest.raises(ValueError, match="radius"):
            cov.core(b.graph, -1)


class TestVerifyDiameters:
    def test_broom_cover_passes(self, broom120_cover):
        b, _, cov = broom120_cover
        rep = verify_diameters(b.graph, cov)
        assert rep.passed
        assert rep.max_diameter <= 40
        assert rep.incomplete_annuli == (12,)

    def test_singleton_sets_zero(self):
        g = MetricGraph(3, [(0, 1), (1, 2)])
        fam = GeodesicFamily.all_of(g)
        cov = build_cover(g, fam, CoverParams(r=1, ell=0, delta=0, basepoint=0))
        for cs in cov.sets:
            if len(cs.members) == 1:
                assert set_diameter(g, cs.members) == 0

    def test_hand_built_violation_fails(self, broom120_cover):
        b, _, cov = broom120_cover
        # splice in a set spanning more than 40(r+ell) inside a complete annulus
        leaf_far = b.vertex_of("120.50")
        leaf_near = b.vertex_of("119.1")
        bogus = CoverSet(1, None, frozenset({leaf_far, leaf_near}))
        doctored = Cover.from_sets(
            b.graph,
            cov.sets + (bogus,),
            params=cov.params,
            annuli=cov.annuli,
            complete=cov.complete,
            region=cov.region,
        )
        rep = verify_diameters(b.graph, doctored)
        assert not rep.passed
        assert rep.max_diameter == 51

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_empty_set_raises(self, at):
        g = MetricGraph(4, [(0, 1), (1, 2), (2, 3)])
        sets = [CoverSet(1, None, frozenset({0, 1})), CoverSet(1, None, frozenset({2, 3}))]
        sets.insert(at, CoverSet(1, None, frozenset()))
        cov = Cover.from_sets(
            g,
            sets,
            params=CoverParams(r=1, ell=0, delta=0, basepoint=0),
            annuli={1: (0, 10)},
            complete=frozenset({1}),
            region=np.ones(4, dtype=bool),
        )
        with pytest.raises(ValueError, match="empty set"):
            verify_diameters(g, cov)


class TestMultiplicity:
    def test_radius_zero_at_most_two_on_tree(self, broom120_cover):
        b, _, cov = broom120_cover
        rep = multiplicity(b.graph, cov, 0, d_constant=1)
        assert rep.max_multiplicity <= 2
        assert rep.passed
        assert rep.witness is not None

    def test_floor_r_half_bound(self, broom120_cover):
        b, _, cov = broom120_cover
        rep = multiplicity(b.graph, cov, cov.params.r // 2, d_constant=1)
        assert rep.max_multiplicity <= 2 * 1

    def test_single_set_cover_any_radius(self):
        g = MetricGraph(4, [(0, 1), (1, 2), (2, 3)])
        fam = GeodesicFamily.all_of(g)
        cov = build_cover(g, fam, CoverParams(r=1, ell=0, delta=0, basepoint=0))
        assert len(cov.sets) == 1
        # the whole graph sits inside an incomplete annulus: no vertex is
        # eligible at any radius
        for radius in (0, 1, 3):
            assert multiplicity(g, cov, radius).max_multiplicity == 0

    def test_witness_attains_max(self, broom120_cover):
        b, _, cov = broom120_cover
        rep = multiplicity(b.graph, cov, 0)
        count = sum(1 for cs in cov.sets if rep.witness in cs.members)
        assert count == rep.max_multiplicity

    def test_no_bound_given(self, broom120_cover):
        b, _, cov = broom120_cover
        rep = multiplicity(b.graph, cov, 0)
        assert rep.bound_2d is None and rep.passed is None

    def test_small_ball_meets_at_most_two_annuli(self):
        # annulus width 10(r+ell) dwarfs a floor(r/2)-ball
        from coarselab.graphs import ball

        b = broom_tree(90)
        fam = GeodesicFamily.all_of(b.graph)
        cov = build_cover(b.graph, fam, CoverParams(r=4, ell=0, delta=0, basepoint=0))
        dist = bfs_distances(b.graph, 0)
        radius = cov.params.r // 2
        for x in range(0, b.graph.vertex_count, 53):
            nbhd = ball(b.graph, x, radius)
            met = {n for n, (lo, hi) in cov.annuli.items() if any(lo <= dist[v] <= hi for v in nbhd)}
            assert len(met) <= 2


def brute_multiplicity(dist, cover: Cover, radius: int) -> tuple[int, int | None]:
    """(max, witness) of the number of sets each ball N(x; radius) meets,
    over the vertices whose ball stays inside the complete region; the
    witness is the least vertex attaining a positive max. ``dist`` is the
    all-pairs distance table."""
    region = frozenset(np.flatnonzero(cover.region).tolist())
    best, witness = 0, None
    for x in range(len(dist)):
        nbhd = {v for v in range(len(dist)) if dist[x][v] <= radius}
        if not nbhd <= region:
            continue
        met = sum(1 for cs in cover.sets if nbhd & cs.members)
        if met > best:
            best, witness = met, x
    return best, witness


class TestMultiplicityOracle:
    @pytest.mark.parametrize("seed", range(30))
    def test_hand_built_covers(self, seed):
        # random graphs, often disconnected, with random overlapping sets
        # (some empty) and a random complete region
        rng = random.Random(seed)
        g = random_graph(seed, max_vertices=14, edge_prob=(0.1, 0.2, 0.35)[seed % 3])
        n = g.vertex_count
        sets = tuple(CoverSet(1, None, frozenset(rng.sample(range(n), rng.randint(0, n)))) for _ in range(4))
        inner = rng.sample(range(n), rng.randint(0, n))
        cov = Cover.from_sets(
            g,
            sets,
            params=CoverParams(r=1, ell=0, delta=0, basepoint=0),
            annuli={1: (0, 10), 2: (10, 20)},
            complete=frozenset({1}),
            region=np.isin(np.arange(n), inner),
        )
        dist = floyd_warshall(g)
        for radius in range(4):
            rep = multiplicity(g, cov, radius)
            assert (rep.max_multiplicity, rep.witness) == brute_multiplicity(dist, cov, radius)

    @pytest.mark.parametrize(
        "space, params",
        [(broom_tree(25), dict(r=1, ell=0, delta=0)), (grid(13), dict(r=1, ell=0, delta=0))],
        ids=["broom25", "grid13"],
    )
    def test_built_covers(self, space, params):
        g = space.graph
        cov = build_cover(g, GeodesicFamily.all_of(g), CoverParams(basepoint=space.basepoint, **params))
        assert cov.complete and len(cov.sets) > 2
        dist = floyd_warshall(g)
        for radius in (0, 1, 2, 4):
            rep = multiplicity(g, cov, radius)
            assert (rep.max_multiplicity, rep.witness) == brute_multiplicity(dist, cov, radius)

    def test_core_is_built_once_per_radius(self, broom120_cover):
        b, _, cov = broom120_cover
        assert cov._core_mask(b.graph, 2) is cov._core_mask(b.graph, 2)
        multiplicity(b.graph, cov, 2)
        assert cov.core(b.graph, 2) == frozenset(np.flatnonzero(cov._core_mask(b.graph, 2)).tolist())


class TestAsdimUpper:
    def test_values(self):
        assert asdim_upper_from_D(1) == 1
        assert asdim_upper_from_D(3) == 5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            asdim_upper_from_D(0)


class TestSerialization:
    def test_format(self):
        g = MetricGraph(4, [(0, 1), (1, 2), (2, 3)])
        fam = GeodesicFamily.all_of(g)
        cov = build_cover(g, fam, CoverParams(r=2, ell=0, delta=0, basepoint=0))
        text = store_cover(cov)
        lines = text.strip().split("\n")
        assert lines[0] == "cover r=2 ell=0 base=0"
        assert lines[1] == "set n=1 anchor=- : 0 1 2 3"

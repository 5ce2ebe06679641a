import ast
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from coarselab import a1
from coarselab.a1 import (
    ClaimViolation,
    FatCover,
    FatCoverOrderError,
    FatSet,
    LebesgueReport,
    ScopeTooSmallError,
    VariationSweepReport,
    _anchor_numerators,
    _weights,
    a1_map,
    build_fat_cover,
    check_a1_maps,
    lebesgue_check,
    phi,
    store_a1_maps,
    variation,
    variation_sweep,
)
from coarselab.geodesics import GeodesicFamily
from coarselab.graphs import MetricGraph, _set_depths, ball, bfs_distances, multi_source_distances
from coarselab.spaces import LabeledGraph, broom_tree, farey_truncation, grid


@pytest.fixture(scope="module")
def broom400_fat():
    b = broom_tree(400)
    fam = GeodesicFamily.all_of(b.graph)
    fat = build_fat_cover(b.graph, fam, r=1, delta=0, d_constant=1, basepoint=b.basepoint)
    return b, fat


@pytest.fixture(scope="module")
def broom130_fat():
    b = broom_tree(130)
    fam = GeodesicFamily.all_of(b.graph)
    fat = build_fat_cover(b.graph, fam, r=1, delta=0, d_constant=1, basepoint=b.basepoint)
    return b, fat


def path_graph(n):
    return MetricGraph(n, [(i, i + 1) for i in range(n - 1)], name=f"path_{n}")


def interior_depths(g, members):
    """d(x, complement) for every member x with a path to the complement."""
    keys = np.asarray(sorted(members), dtype=np.int64)
    return {v: d for v, d in zip(keys.tolist(), _set_depths(g, keys).tolist()) if d}


def ball_cover(space, balls, r=1, d_constant=2, scale=1):
    """A hand-built fattened cover of ``space``: one set per (centre,
    radius) ball, its depths the true interior depths times ``scale``;
    every covered vertex is safe."""
    g = space.graph
    sets = []
    for c, rad in balls:
        members = frozenset(ball(g, c, rad))
        sets.append(FatSet(0, None, members, {v: scale * d for v, d in interior_depths(g, members).items()}))
    sets_of = {}
    for i, fs in enumerate(sets):
        for v in fs.members:
            sets_of.setdefault(v, []).append(i)
    fat = FatCover.from_sets(
        g,
        sets,
        r=r,
        d_constant=d_constant,
        base=None,
        diam_base=2 * max(rad for _, rad in balls),
        safe=frozenset(sets_of),
        order_max=max(map(len, sets_of.values())),
    )
    return space, fat


def grid_balls(**kwargs):
    # Two balls around (3,3) share their centre as anchor; order 5 there.
    return ball_cover(grid(7), [(24, 1), (24, 2), (25, 2), (18, 2), (30, 2)], **kwargs)


@pytest.fixture(scope="module")
def grid_fat():
    return grid_balls()


@pytest.fixture(scope="module")
def grid_fat_scaled():
    """``grid_fat`` with every depth and r times 40: the weights are the
    same, but every variation bound fails."""
    return grid_balls(r=40, d_constant=1, scale=40)


@pytest.fixture(scope="module")
def farey_fat():
    f = farey_truncation(6)
    balls = [("-5/2", 1), ("-5/2", 2), ("-2/1", 1), ("-3/2", 1), ("-5/3", 2)]
    return ball_cover(f, [(f.vertex_of(label), rad) for label, rad in balls])


@pytest.fixture(scope="module")
def path_tie_fat():
    """The intervals [0, 5] and [3, 8] of a path, anchored at 0 and 8: the
    pairs (2, 3), (3, 4), (4, 5) and (5, 6) all have l1 distance 1/2."""
    g = path_graph(9)
    return ball_cover(LabeledGraph(g, tuple(map(str, range(9))), 0), [(1, 4), (7, 4)])


class TestBuildFatCover:
    def test_order_at_most_2d(self, broom400_fat):
        _, fat = broom400_fat
        assert fat.order_max <= 2

    def test_members_are_2r_fattenings(self, broom400_fat):
        # fattened members = vertices within 2r of the origin set, verified
        # against a plain multi-source BFS
        from coarselab.graphs import multi_source_distances

        b, fat = broom400_fat
        g = b.graph
        for fs, base_set in list(zip(fat.sets, fat.base.sets))[:5]:
            dist = multi_source_distances(g, base_set.members)
            expected = {v for v, d in enumerate(dist) if 0 <= d <= 2 * fat.r}
            assert fs.members == frozenset(expected)

    def test_fattened_point_sees_origin_within_5r(self, broom400_fat):
        # x in N(U;2r) implies N(x;5r) meets U
        b, fat = broom400_fat
        g = b.graph
        for fs, base_set in list(zip(fat.sets, fat.base.sets))[:3]:
            sample = sorted(fs.members)[:10]
            for x in sample:
                assert ball(g, x, 5 * fat.r) & base_set.members

    def test_scope_too_small(self):
        b = broom_tree(40)
        fam = GeodesicFamily.all_of(b.graph)
        with pytest.raises(ScopeTooSmallError):
            build_fat_cover(b.graph, fam, r=1, delta=0, d_constant=1, basepoint=b.basepoint)

    def test_safe_core_nonempty_and_within_complete(self, broom400_fat):
        b, fat = broom400_fat
        assert fat.safe
        region = frozenset(np.flatnonzero(fat.base.region).tolist())
        assert fat.safe <= region


class TestInteriorDepths:
    def test_depths_on_path_interval(self):
        g = path_graph(9)
        depth = interior_depths(g, frozenset({3, 4, 5}))
        assert depth == {3: 1, 4: 2, 5: 1}

    def test_depth_is_true_complement_distance(self, broom400_fat):
        b, fat = broom400_fat
        g = b.graph
        fs = fat.sets[2]
        outside = [v for v in range(g.vertex_count) if v not in fs.members]
        from coarselab.graphs import multi_source_distances

        dist = multi_source_distances(g, outside)
        for v in sorted(fs.members)[:50]:
            assert fs.depth[v] == dist[v]


class TestLebesgue:
    def test_r1_reduces_to_coverage(self, broom400_fat):
        b, fat = broom400_fat
        rep = lebesgue_check(b.graph, fat)
        assert rep.radius == 0
        assert rep.passed

    def test_r2_passes(self):
        b = broom_tree(400)
        fam = GeodesicFamily.all_of(b.graph)
        fat = build_fat_cover(b.graph, fam, r=2, delta=0, d_constant=1, basepoint=b.basepoint)
        rep = lebesgue_check(b.graph, fat)
        assert rep.radius == 0
        assert rep.passed

    def test_adversarial_deleted_set_fails(self, broom400_fat):
        b, fat = broom400_fat
        # drop the only set covering the deepest leaves
        leaf = b.vertex_of("400.400")
        holders = fat.sets_of[leaf]
        keep = [i for i in range(len(fat.sets)) if i not in holders]
        sets = tuple(fat.sets[i] for i in keep)
        doctored = FatCover.from_sets(
            b.graph,
            sets,
            r=fat.r,
            d_constant=fat.d_constant,
            base=fat.base,
            diam_base=fat.diam_base,
            safe=fat.safe,
            order_max=fat.order_max,
        )
        rep = lebesgue_check(b.graph, doctored)
        assert not rep.passed
        assert rep.witness is not None


def dict_lebesgue(g, fc):
    """lebesgue_check from the sets' frozensets: the least vertex whose
    ball of radius floor((r-1)/2) lies in no set holding it."""
    rad = (fc.r - 1) // 2
    for x in range(g.vertex_count):
        nbhd = ball(g, x, rad)
        if not any(nbhd <= fc.sets[i].members for i in fc.sets_of.get(x, ())):
            return LebesgueReport(False, rad, x)
    return LebesgueReport(True, rad, None)


def dict_phi(fc, x):
    """phi from the sets' depth dicts."""
    depths = {i: fc.sets[i].depth[x] for i in fc.sets_of.get(x, ()) if x in fc.sets[i].depth}
    total = sum(depths.values())
    return {i: Fraction(d, total) for i, d in sorted(depths.items())}


@pytest.fixture(scope="module", params=[(400, 1), (250, 2), (350, 3)], ids=["r1", "r2", "r3"])
def broom_fat_r(request):
    m, r = request.param
    b = broom_tree(m)
    return b, build_fat_cover(b.graph, GeodesicFamily.all_of(b.graph), r=r, delta=0, d_constant=1, basepoint=b.basepoint)


class TestArraysAgainstDicts:
    """lebesgue_check and phi on the arrays against the formulas on the
    ``sets``/``sets_of`` views, on built covers and on doctored ones."""

    def test_lebesgue(self, broom_fat_r):
        b, fat = broom_fat_r
        assert lebesgue_check(b.graph, fat) == dict_lebesgue(b.graph, fat) == LebesgueReport(True, (fat.r - 1) // 2, None)

    def test_lebesgue_with_holes(self, broom_fat_r):
        # punch a few holes in every set, depths recomputed; some balls then
        # lie in no set
        b, fat = broom_fat_r
        rng = random.Random(fat.r)
        sets = []
        for fs in fat.sets:
            members = fs.members - set(rng.sample(sorted(fs.members), 3))
            sets.append(FatSet(fs.origin_n, fs.origin_anchor, members, interior_depths(b.graph, members)))
        doctored = FatCover.from_sets(
            b.graph, sets, r=fat.r, d_constant=1, base=fat.base, diam_base=fat.diam_base, safe=fat.safe, order_max=2
        )
        rep = lebesgue_check(b.graph, doctored)
        assert not rep.passed
        assert rep == dict_lebesgue(b.graph, doctored)

    def test_phi(self, broom_fat_r):
        b, fat = broom_fat_r
        for x in sorted(fat.safe)[::211]:
            assert phi(b.graph, fat, x) == dict_phi(fat, x)

    def test_views_match_independent_searches(self, broom_fat_r):
        b, fat = broom_fat_r
        g = b.graph
        for i in (0, fat.set_count - 1):
            dist = multi_source_distances(g, fat.base.sets[i].members)
            members = frozenset(v for v, d in enumerate(dist) if 0 <= d <= 2 * fat.r)
            outside = multi_source_distances(g, [v for v in range(g.vertex_count) if v not in members])
            assert fat.sets[i].members == members
            assert fat.sets[i].depth == {v: outside[v] for v in members}
        assert all(fat.sets_of[v] == tuple(i for i, fs in enumerate(fat.sets) if v in fs.members) for v in range(0, g.vertex_count, 97))


class TestScopeMessages:
    def test_fattening_states_both_radii(self):
        b = broom_tree(40)
        with pytest.raises(ScopeTooSmallError, match=r"needs radius 2r = 2 .* has radius 40 about the basepoint"):
            build_fat_cover(b.graph, GeodesicFamily.all_of(b.graph), r=1, delta=0, d_constant=1, basepoint=b.basepoint)

    def test_empty_core_states_both_radii(self):
        b = broom_tree(105)
        with pytest.raises(ScopeTooSmallError, match=r"needs radius 5r = 5 .* reach radius 0 .*eccentricity 105"):
            build_fat_cover(b.graph, GeodesicFamily.all_of(b.graph), r=1, delta=0, d_constant=1, basepoint=b.basepoint)


class TestPhi:
    def test_single_set_region_gives_one(self, broom400_fat):
        b, fat = broom400_fat
        # a vertex covered by exactly one fattened set
        for x in sorted(fat.safe):
            if len(fat.sets_of[x]) == 1:
                weights = phi(b.graph, fat, x)
                assert list(weights.values()) == [Fraction(1)]
                break
        else:
            pytest.fail("no single-set vertex found")

    def test_partition_of_unity_on_safe_core(self, broom400_fat):
        b, fat = broom400_fat
        sample = sorted(fat.safe)[::97]
        for x in sample:
            weights = phi(b.graph, fat, x)
            assert sum(weights.values(), Fraction(0)) == 1
            assert all(w > 0 for w in weights.values())

    def test_denominator_at_least_r(self):
        b = broom_tree(400)
        fam = GeodesicFamily.all_of(b.graph)
        for r in (1, 2):
            fat = build_fat_cover(b.graph, fam, r=r, delta=0, d_constant=1, basepoint=b.basepoint)
            for x in sorted(fat.safe)[::151]:
                total = sum(fat.sets[i].depth[x] for i in fat.sets_of[x])
                assert total >= r


    def test_sum_below_r_is_a_claim_violation(self):
        g = path_graph(9)
        members = frozenset({3, 4, 5})
        fs = FatSet(1, None, members, interior_depths(g, members))
        fc = FatCover.from_sets(
            g, (fs,), r=2, d_constant=1, base=None, diam_base=2, safe=frozenset(members), order_max=1,
        )
        assert phi(g, fc, 4) == {0: Fraction(1)}
        with pytest.raises(ClaimViolation, match="Lebesgue consequence failed at vertex 3"):
            phi(g, fc, 3)
        assert issubclass(FatCoverOrderError, ClaimViolation)


class TestAnchors:
    def test_interval_anchor_is_midpoint(self):
        g = path_graph(9)
        members = frozenset({3, 4, 5})
        fs = FatSet(1, None, members, interior_depths(g, members))
        fc = FatCover.from_sets(
            g, (fs,), r=1, d_constant=1, base=None, diam_base=2, safe=frozenset(members), order_max=1,
        )
        assert fc.anchors == {0: 4}

    def test_tie_breaks_to_least_id(self):
        g = path_graph(9)
        members = frozenset({2, 3})
        fs = FatSet(1, None, members, interior_depths(g, members))
        fc = FatCover.from_sets(
            g, (fs,), r=1, d_constant=1, base=None, diam_base=1, safe=frozenset(members), order_max=1,
        )
        assert fc.anchors == {0: 2}

    def test_anchor_weight_nonzero(self, broom400_fat):
        b, fat = broom400_fat
        anchors = fat.anchors
        for i, z in list(anchors.items())[:20]:
            assert fat.sets[i].depth[z] >= 1

    def test_deterministic(self, broom400_fat):
        b, fat = broom400_fat
        assert fat.anchors == dict(enumerate(fat.profiles.set_anchor.tolist()))


class TestA1Map:
    def test_unit_mass_at_single_anchor(self, broom400_fat):
        b, fat = broom400_fat
        anchors = fat.anchors
        for x in sorted(fat.safe):
            if len(fat.sets_of[x]) == 1:
                amap = a1_map(b.graph, fat, x)
                (entry,) = amap.entries.items()
                assert entry == (anchors[fat.sets_of[x][0]], Fraction(1))
                break

    def test_norm_and_support(self, broom400_fat):
        b, fat = broom400_fat
        for x in sorted(fat.safe)[::53]:
            amap = a1_map(b.graph, fat, x)
            assert amap.l1_norm() == 1
            assert all(v > 0 for v in amap.entries.values())
            assert len(amap.entries) <= 2 * fat.d_constant

    def test_support_within_radius_bound(self, broom400_fat):
        b, fat = broom400_fat
        bound = 4 * fat.r + fat.diam_base
        tm = b.graph.tree_metric()
        import numpy as np

        for x in sorted(fat.safe)[::201]:
            amap = a1_map(b.graph, fat, x)
            supp = np.asarray(amap.support(), dtype=np.int64)
            assert int(tm.pair_distances(np.full(supp.shape, x), supp).max()) <= bound


class TestVariation:
    def test_same_point_is_zero(self, broom400_fat):
        b, fat = broom400_fat
        x = min(fat.safe)
        rep = variation(b.graph, fat, x, x)
        assert rep.l1 == 0
        assert rep.max_phi_diff == 0
        assert rep.complement_diff_sum == 0

    def test_adjacent_pairs_meet_bounds(self, broom400_fat):
        b, fat = broom400_fat
        g = b.graph
        dd = fat.d_constant
        checked = 0
        for z in sorted(fat.safe)[::401]:
            for w in g.neighbors(z):
                if w not in fat.safe:
                    continue
                rep = variation(g, fat, z, w)
                assert rep.distance == 1
                assert rep.l1 <= Fraction((4 * dd + 1) ** 2, fat.r)
                assert rep.max_phi_diff <= Fraction(4 * dd + 1, fat.r)
                assert rep.complement_diff_sum <= 4 * dd
                checked += 1
        assert checked > 0

    def test_complement_triangle_step(self, broom400_fat):
        b, fat = broom400_fat
        g = b.graph
        for z in sorted(fat.safe)[::301]:
            for w in g.neighbors(z):
                if w not in fat.safe:
                    continue
                for i, fs in enumerate(fat.sets):
                    dz = fs.depth.get(z, 0)
                    dw = fs.depth.get(w, 0)
                    assert abs(dz - dw) <= 1

    def test_sweep_matches_pointwise(self, broom400_fat):
        b, fat = broom400_fat
        sweep = variation_sweep(b.graph, fat)
        assert sweep.pairs_checked > 0
        assert sweep.l1_ok and sweep.phi_ok and sweep.complement_ok and sweep.step_ok
        # the recorded witness pair attains the sup exactly
        z, w = sweep.witness_pair
        assert variation(b.graph, fat, z, w).l1 == sweep.sup_l1


class TestDumpFormat:
    def test_lines_sorted_and_exact(self):
        b = broom_tree(130)
        fam = GeodesicFamily.all_of(b.graph)
        fat = build_fat_cover(b.graph, fam, r=1, delta=0, d_constant=1, basepoint=b.basepoint)
        text = store_a1_maps(b.graph, fat)
        lines = text.strip().split("\n")
        assert len(lines) == len(fat.safe)
        for line in lines[:30]:
            head, _, body = line.partition(" : ")
            assert head.startswith("a x=")
            x = int(head[4:])
            expected = a1_map(b.graph, fat, x).entries
            parts = dict(p.split("=") for p in body.split())
            assert {int(z): Fraction(v) for z, v in parts.items()} == expected
            assert sorted(int(z) for z in parts) == [int(z) for z in parts]


def oracle_maps(fat):
    """x -> a_x for every safe x, built straight from the sets' depth maps:
    each set's anchor is its deepest member (least id on ties), and x puts
    d(x, V^c) / sum_W d(x, W^c) on the anchor of every set V holding it."""
    anchors = [min(fs.depth, key=lambda v: (-fs.depth[v], v)) for fs in fat.sets]
    maps = {}
    for x in fat.safe:
        held = [(anchors[i], fs.depth[x]) for i, fs in enumerate(fat.sets) if x in fs.depth]
        total = sum(d for _, d in held)
        entries = {}
        for z, d in held:
            entries[z] = entries.get(z, 0) + Fraction(d, total)
        maps[x] = entries
    return maps


def assert_sweep_matches_pointwise(g, fat, monkeypatch):
    """variation_sweep equals the report assembled from pointwise
    ``variation`` on every adjacent safe pair, on int64 arrays and again
    with the overflow bound forcing Python ints, in blocks of 3 pairs."""
    pairs = [(z, w) for z in sorted(fat.safe) for w in g.neighbors(z) if w > z and w in fat.safe]
    reports = [variation(g, fat, z, w) for z, w in pairs]
    dd, r = fat.d_constant, fat.r
    sup_l1 = max((rep.l1 for rep in reports), default=Fraction(0))
    steps = [
        abs(fat.sets[i].depth.get(z, 0) - fat.sets[i].depth.get(w, 0))
        for z, w in pairs
        for i in set(fat.sets_of[z]) | set(fat.sets_of[w])
    ]
    expected = VariationSweepReport(
        pairs_checked=len(pairs),
        sup_l1=sup_l1,
        sup_phi_diff=max((rep.max_phi_diff for rep in reports), default=Fraction(0)),
        l1_bound=Fraction((4 * dd + 1) ** 2, r),
        phi_bound=Fraction(4 * dd + 1, r),
        complement_bound=4 * dd,
        l1_ok=all(rep.l1 <= Fraction((4 * dd + 1) ** 2, r) for rep in reports),
        phi_ok=all(rep.max_phi_diff <= Fraction(4 * dd + 1, r) for rep in reports),
        complement_ok=all(rep.complement_diff_sum <= 4 * dd for rep in reports),
        step_ok=all(step <= 1 for step in steps),
        witness_pair=next(pair for pair, rep in zip(pairs, reports) if rep.l1 == sup_l1) if sup_l1 else None,
    )
    assert variation_sweep(g, fat) == expected

    dtypes = []
    pair_diffs = a1._pair_diffs
    monkeypatch.setattr(a1, "_pair_diffs", lambda *args: dtypes.append(args[1].dtype) or pair_diffs(*args))
    monkeypatch.setattr(a1, "_INT64_MAX", 0)
    monkeypatch.setattr(a1, "_SWEEP_BLOCK", 3)
    assert variation_sweep(g, fat) == expected
    assert len(dtypes) == 2 * -(-len(pairs) // 3) and set(dtypes) == {np.dtype(object)}


COVERS = ["broom130_fat", "broom400_fat", "grid_fat", "grid_fat_scaled", "farey_fat", "path_tie_fat"]


class TestIntegerCore:
    @pytest.mark.parametrize("cover", COVERS)
    def test_numerators_and_dump_match_oracle(self, request, cover):
        b, fat = request.getfixturevalue(cover)
        oracle = oracle_maps(fat)
        for x in sorted(fat.safe):
            depths, total = _weights(fat, x)
            nums = _anchor_numerators(depths, fat.anchors)
            assert sum(nums.values()) == total
            assert {z: Fraction(n, total) for z, n in nums.items()} == oracle[x]
        expected = [
            f"a x={x} : " + " ".join(f"{z}={v.numerator}/{v.denominator}" for z, v in sorted(oracle[x].items()))
            for x in sorted(fat.safe)
        ]
        assert store_a1_maps(b.graph, fat).splitlines() == expected

    @pytest.mark.parametrize("cover", [c for c in COVERS if c != "broom400_fat"])
    def test_checks_match_oracle(self, request, cover):
        b, fat = request.getfixturevalue(cover)
        oracle = oracle_maps(fat)
        widest = min(fat.safe, key=lambda x: (-len(oracle[x]), x))
        rep = check_a1_maps(b.graph, fat)
        assert (rep.checked, rep.norm_ok, rep.positive_ok) == (len(fat.safe), True, True)
        assert (rep.max_support, rep.widest) == (len(oracle[widest]), widest)
        assert rep.widest_phi == phi(b.graph, fat, widest)
        assert rep.support_radius_bound == 4 * fat.r + fat.diam_base
        rows = [bfs_distances(b.graph, fat.anchors[i]) for i in range(len(fat.sets))]
        radius = max(rows[i][v] for i, fs in enumerate(fat.sets) for v in fs.members)
        assert rep.support_radius_ok == (radius <= rep.support_radius_bound)

    @pytest.mark.parametrize("cover", ["grid_fat", "farey_fat"])
    def test_non_tree_covers_fold_colliding_anchors(self, request, cover):
        _, fat = request.getfixturevalue(cover)
        assert fat.order_max > 2
        assert any(len({fat.anchors[i] for i in fat.sets_of[x]}) < len(fat.sets_of[x]) for x in fat.safe)

    def test_sweep_sups_are_pointwise_maxima(self, broom130_fat, monkeypatch):
        b, fat = broom130_fat
        assert_sweep_matches_pointwise(b.graph, fat, monkeypatch)

    @pytest.mark.parametrize("cover", ["grid_fat", "grid_fat_scaled", "farey_fat", "path_tie_fat"])
    def test_sweep_matches_pointwise_off_trees(self, request, monkeypatch, cover):
        b, fat = request.getfixturevalue(cover)
        assert_sweep_matches_pointwise(b.graph, fat, monkeypatch)

    def test_tied_sup_goes_to_the_earliest_pair(self, path_tie_fat):
        b, fat = path_tie_fat
        assert [variation(b.graph, fat, z, z + 1).l1 for z in range(8)] == [0, 0] + [Fraction(1, 2)] * 4 + [0, 0]
        assert variation_sweep(b.graph, fat).witness_pair == (2, 3)

    def test_scaled_cover_fails_every_bound(self, grid_fat_scaled):
        b, fat = grid_fat_scaled
        sweep = variation_sweep(b.graph, fat)
        assert not (sweep.l1_ok or sweep.phi_ok or sweep.complement_ok or sweep.step_ok)

    def test_total_below_r_raises_like_phi(self):
        g = path_graph(9)
        members = frozenset({3, 4, 5})
        fs = FatSet(1, None, members, interior_depths(g, members))
        fc = FatCover.from_sets(
            g, (fs,), r=2, d_constant=1, base=None, diam_base=2, safe=frozenset(members), order_max=1,
        )
        assert _weights(fc, 4) == ({0: 2}, 2)
        with pytest.raises(ClaimViolation, match="Lebesgue consequence failed at vertex 3"):
            _weights(fc, 3)
        with pytest.raises(ValueError, match="vertex 7 has no positive complement distance"):
            _weights(fc, 7)

    def test_anchors_computed_once_per_cover(self, broom400_fat):
        b, fat = broom400_fat
        anchors = fat.anchors
        x = min(fat.safe)
        variation(b.graph, fat, x, x)
        a1_map(b.graph, fat, x)
        assert fat.anchors is anchors

    def test_anchor_fold_computed_once_per_cover(self, monkeypatch):
        # a fresh cover: the pipeline's three readers of the fold share one
        b = broom_tree(130)
        fat = build_fat_cover(b.graph, GeodesicFamily.all_of(b.graph), r=1, delta=0, d_constant=1, basepoint=b.basepoint)
        folds = []
        real = a1._anchor_fold
        monkeypatch.setattr(a1, "_anchor_fold", lambda p: folds.append(p) or real(p))
        check_a1_maps(b.graph, fat)
        variation_sweep(b.graph, fat)
        store_a1_maps(b.graph, fat)
        assert len(folds) == 1 and folds[0] is fat.profiles
        anchor, num = fat.anchor_fold
        assert not (anchor.flags.writeable or num.flags.writeable)
        assert [x.tolist() for x in fat.anchor_fold] == [x.tolist() for x in real(fat.profiles)]


def test_fractions_only_at_the_boundary():
    """cli.py names no Fraction, and in a1.py only phi, a1_map, A1Map,
    variation and the arguments of report constructors build one: every
    per-vertex check runs on integer numerators."""
    package = Path(__file__).resolve().parent.parent / "src" / "coarselab"
    cli_tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    named = [n.lineno for n in ast.walk(cli_tree) if isinstance(n, ast.Name) and n.id == "Fraction"]
    named += [n.lineno for n in ast.walk(cli_tree) if isinstance(n, ast.alias) and n.name == "Fraction"]
    assert named == []

    allowed = {"phi", "a1_map", "A1Map", "variation"}
    offenders = []

    def visit(node, scope, in_report):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and scope is None:
            scope = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id.endswith("Report"):
                in_report = True
            elif node.func.id == "Fraction" and scope not in allowed and not in_report:
                offenders.append(f"a1.py:{node.lineno} in {scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, in_report)

    visit(ast.parse((package / "a1.py").read_text(encoding="utf-8")), None, False)
    assert offenders == []

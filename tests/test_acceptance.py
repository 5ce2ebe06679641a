"""Acceptance suite: every criterion verified exactly, one line per criterion.

All arithmetic is integral or exact-rational; there are no tolerances
anywhere. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

from fractions import Fraction

from conftest import brute_shortest_paths, floyd_warshall, random_graph
from coarselab.calculator import Surface, asdim_mod, complexity, euler, vcd_mod
from coarselab.cli import pipeline_a1
from coarselab.cover import CoverParams, asdim_upper_from_D, build_cover, multiplicity, verify_diameters
from coarselab.geodesics import GeodesicFamily, check_property_b, thin_delta
from coarselab.graphs import all_geodesics, bfs_distances
from coarselab.probes import growth_probe
from coarselab.spaces import broom_tree, farey_truncation, grid, regular_tree


def report(num: int, text: str):
    def wrap(fn):
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {text}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {text}")

        inner.__name__ = fn.__name__
        return inner

    return wrap


@report(1, "tree cover: boundedness constant 1, diameters <= 40, multiplicity <= 2, asdim bound 1")
def test_criterion_1_tree_cover():
    b = broom_tree(120)
    fam = GeodesicFamily.all_of(b.graph)
    # The pair universe at this size (26.4M pairs) cannot be enumerated in
    # seconds, so the checker samples pairs deterministically per its
    # contract; every sampled instance is checked in full and exactly.
    rep = check_property_b(fam, ell=0, k=0, r_max=5, pair_budget=400, c_budget=64, seed=0)
    assert rep.qualifying_found
    assert rep.observed_D == 1
    assert rep.violations_total == 0
    assert rep.samples_checked >= 100_000
    # The same check on a broom small enough to exhaust: same conclusions,
    # exhaustive flag set.
    small = broom_tree(8)
    fam_small = GeodesicFamily.all_of(small.graph)
    rep_small = check_property_b(fam_small, ell=0, k=0, r_max=5, pair_budget=700, c_budget=64)
    assert rep_small.exhaustive
    assert rep_small.observed_D == 1
    assert rep_small.violations_total == 0

    cover = build_cover(b.graph, fam, CoverParams(r=1, ell=0, delta=0, basepoint=b.basepoint))
    diam = verify_diameters(b.graph, cover)
    assert diam.passed and diam.max_diameter <= 40
    mult = multiplicity(b.graph, cover, 1 // 2, d_constant=rep.observed_D)
    assert mult.passed and mult.max_multiplicity <= 2
    assert asdim_upper_from_D(rep.observed_D) == 1


@report(2, "partition pipeline at r=1,2,4: all exact identities hold, variation sup non-increasing")
def test_criterion_2_a1_pipeline():
    results = {}
    b400 = broom_tree(400)
    results[1] = pipeline_a1(b400, r=1, space_name="broom:400")
    b800 = broom_tree(800)
    for r in (2, 4):
        results[r] = pipeline_a1(b800, r=r, space_name="broom:800")
    sups = []
    for r, res in results.items():
        assert res.exit_code == 0, f"pipeline at r={r} failed"
        assert res.all_pass
        assert res.propb.observed_D == 1
        assert res.max_support <= 2        # 2D with D = 1
        # the report's variation section
        sweep = dict(line.split("=", 1) for line in res.lines if "=" in line)
        # adjacent pairs: K = 1, so the chain bound is (4D+1)^2 / r
        assert Fraction(sweep["l1_bound"]) == Fraction(25, r)
        checks = ("variation_l1", "variation_phi", "variation_complement", "variation_step")
        assert all(sweep[f"check_{name}"] == "pass" for name in checks)
        sups.append(Fraction(sweep["sup_l1"]))
        assert sups[-1] <= Fraction(25, 1)
        assert Fraction(sweep["phi_bound"]) == Fraction(5, r)
    assert sups[0] >= sups[1] >= sups[2]


@report(3, "Farey window: adjacency rule verified on 100000 sampled pairs, 0/1 has >= 200 unit neighbors")
def test_criterion_3_farey_structure():
    import random as rnd

    f = farey_truncation(200)
    g = f.graph
    fracs = [tuple(int(t) for t in lab.split("/")) for lab in f.labels]
    rng = rnd.Random(2024)
    n = g.vertex_count
    mismatches = 0
    for _ in range(100_000):
        u, v = rng.sample(range(n), 2)
        p, q = fracs[u]
        r, s = fracs[v]
        rule = abs(p * s - r * q) == 1
        if rule != g.has_edge(u, v):
            mismatches += 1
    assert mismatches == 0
    zero = f.basepoint
    unit_neighbors = [
        w for w in g.neighbors(zero) if abs(fracs[w][0]) == 1
    ]
    assert len(unit_neighbors) >= 200


@report(4, "growth probes: Farey ball capacity strictly increases, regular-tree ball stays constant")
def test_criterion_4_growth_contrast():
    farey_rep = growth_probe(farey_truncation, (25, 50, 100, 200), 2, 2)
    assert farey_rep.verdict == "UNBOUNDED-TREND"
    assert all(b > a for a, b in zip(farey_rep.cardinalities, farey_rep.cardinalities[1:]))
    tree_rep = growth_probe(lambda d: regular_tree(4, d), (4, 5, 6, 7, 8), 2, 3)
    assert tree_rep.verdict == "BOUNDED"
    assert len(set(tree_rep.cardinalities)) == 1


@report(5, "calculator: exact asdim/vcd tables and consistency invariants on the full grid")
def test_criterion_5_calculator_table():
    for p in range(4, 12):
        b = asdim_mod(Surface(0, p))
        assert b.exact and b.upper == p - 3
    for p in range(1, 12):
        b = asdim_mod(Surface(1, p))
        assert b.exact and b.upper == p
    assert asdim_mod(Surface(0, 4)).upper == 1
    assert asdim_mod(Surface(1, 1)).upper == 1
    assert asdim_mod(Surface(2, 0)).upper == 3
    for p in range(1, 12):
        b = asdim_mod(Surface(2, p))
        assert b.exact and b.upper == p + 4
    # vcd rows over the stated domain
    for g in range(0, 4):
        for p in range(0, 7):
            v = vcd_mod(Surface(g, p))
            if g == 0:
                assert v == max(0, p - 3)
            elif g == 1:
                assert v == (1 if p == 0 else p)
            else:
                assert v == (4 * g - 5 if p == 0 else 4 * g - 4 + p)
    # consistency: vcd <= exact asdim where both defined; recursion coherence
    for g in range(0, 3):
        for p in range(0, 9):
            s = Surface(g, p)
            b = asdim_mod(s)
            if b.exact:
                assert b.lower == b.upper
                if euler(s) < 0:
                    assert vcd_mod(s) <= b.upper
                assert b.upper >= complexity(s)
    closed2 = asdim_mod(Surface(2, 0)).upper
    for p in range(1, 9):
        assert asdim_mod(Surface(2, p)).upper <= closed2 + p + 1


@report(6, "oracle equivalence on 200 random graphs: BFS = Floyd-Warshall, geodesics = brute enumeration")
def test_criterion_6_oracles():
    for seed in range(200):
        g = random_graph(seed, max_vertices=12)
        oracle = floyd_warshall(g)
        for u in range(g.vertex_count):
            row = bfs_distances(g, u)
            for v in range(g.vertex_count):
                expected = None if oracle[u][v] == float("inf") else int(oracle[u][v])
                assert (None if row[v] < 0 else row[v]) == expected
        for u in range(g.vertex_count):
            for v in range(u + 1, g.vertex_count):
                expected_paths = brute_shortest_paths(g, u, v)
                if not expected_paths:
                    continue
                paths, truncated = all_geodesics(g, u, v)
                assert not truncated
                assert sorted(p.vertices for p in paths) == expected_paths


@report(7, "negative controls: grid delta strictly increases, grid boundedness constant exceeds 1")
def test_criterion_7_negative_controls():
    deltas = []
    for n in (4, 6, 8):
        sp = grid(n)
        fam = GeodesicFamily.canonical_of(sp.graph)
        rep = thin_delta(sp.graph, fam, budget=50_000)
        assert rep.exhaustive
        deltas.append(rep.delta)
    assert deltas[0] < deltas[1] < deltas[2]

    sp = grid(8)
    fam = GeodesicFamily.all_of(sp.graph)
    k = 2 * deltas[-1]
    rep = check_property_b(fam, ell=0, k=k, r_max=3, pair_budget=2100, c_budget=64, seed=0)
    assert rep.exhaustive
    assert rep.observed_D > 1

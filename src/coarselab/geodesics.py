"""Geodesic families, thin-triangle measurement, and the boundedness checker.

A :class:`GeodesicFamily` fixes, for every vertex pair, a nonempty set of
geodesics: either all of them (``ALL``) or the single lexicographically
least one (``CANONICAL``). On top of a family this module provides the
united geodesic sets G(a,b) and G(a,b;r), the thin-triangle constant of a
graph, and :func:`check_property_b`, which measures the boundedness
constant D and hunts for intersection-clause violations.

For each qualifying instance (a, b, r, c) it visits, the checker verifies

* the cardinality of ``G(a,b;r) ∩ N(c;k)``, whose max is ``observed_D``;
* that every family geodesic from N(a;r) to N(b;r) meets N(c;k), recording
  a witness geodesic whenever one avoids it.

Instance enumeration is exhaustive when the pair universe fits the budget,
otherwise a seeded deterministic sample is drawn and reported as such.
Every instance that is checked is checked exactly: integer distances,
exact shortest-path counting, no tolerances. Trees are handled through a
vectorized ancestor structure, small graphs through full distance tables,
and large graphs pair-locally through the geodesic envelope of the pair.

Convention note: ``observed_D`` is a single constant, the max over all
checked radii r <= r_max. Some formulations in the literature let the
constant depend on r; this checker deliberately reports the uniform
reading and leaves per-radius analysis to the caller.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

import numpy as np

from .graphs import (
    GEODESIC_CAP,
    MetricGraph,
    Path,
    _bfs,
    _distance_to_set,
    all_geodesics,
    bfs_distances,
    canonical_geodesic,
    distance_vector,
)

__all__ = [
    "GeodesicFamily",
    "HyperbolicityReport",
    "thin_delta",
    "PropertyBViolation",
    "PropertyBReport",
    "check_property_b",
]

# Graphs at or below this vertex count get full distance/path-count tables.
_SMALL_GRAPH_MAX = 512

# Shortest-path counts above this bound fall back from vectorized int64
# products to exact per-instance big-integer counting.
_SIGMA_VECTOR_MAX = 2**31


@dataclass(frozen=True)
class GeodesicFamily:
    """A deterministic choice of geodesics joining every vertex pair.

    ``kind == "all"`` resolves to every geodesic (enumeration capped at
    ``cap`` with an explicit truncation flag); ``kind == "canonical"``
    resolves to the single lexicographically least geodesic.
    """

    graph: MetricGraph
    kind: Literal["all", "canonical"]
    cap: int = GEODESIC_CAP

    @staticmethod
    def all_of(graph: MetricGraph, cap: int = GEODESIC_CAP) -> "GeodesicFamily":
        return GeodesicFamily(graph, "all", cap)

    @staticmethod
    def canonical_of(graph: MetricGraph) -> "GeodesicFamily":
        return GeodesicFamily(graph, "canonical")

    def geodesics(self, u: int, v: int) -> tuple[list[Path], bool]:
        """Resolved geodesics for the pair plus a truncation flag."""
        if self.kind == "canonical":
            return [canonical_geodesic(self.graph, u, v)], False
        return all_geodesics(self.graph, u, v, cap=self.cap)

    def union(self, u: int, v: int) -> set[int]:
        """G(u, v): all vertices lying on some family geodesic.

        For the ALL kind this comes from the distance identity
        d(u,w) + d(w,v) = d(u,v), which is exact and needs no enumeration.
        """
        g = self.graph
        g.check_vertex(u)
        g.check_vertex(v)
        if self.kind == "canonical":
            return set(canonical_geodesic(g, u, v).vertices)
        du = bfs_distances(g, u)
        dv = bfs_distances(g, v)
        if du[v] < 0:
            raise ValueError(f"vertices {u} and {v} are unreachable from each other")
        d = du[v]
        return {w for w in range(g.vertex_count) if du[w] >= 0 and du[w] + dv[w] == d}

    def union_r(self, a: int, b: int, r: int) -> set[int]:
        """G(a, b; r): the union of G(a', b') over a' in N(a;r), b' in N(b;r)."""
        if r < 0:
            raise ValueError("r must be nonnegative")
        g = self.graph
        da = bfs_distances(g, a)
        db = bfs_distances(g, b)
        if da[b] < 0:
            raise ValueError(f"vertices {a} and {b} are unreachable from each other")
        ball_a = [x for x, d in enumerate(da) if 0 <= d <= r]
        ball_b = [x for x, d in enumerate(db) if 0 <= d <= r]
        out: set[int] = set()
        if self.kind == "canonical":
            for ap in ball_a:
                for bp in ball_b:
                    out.update(canonical_geodesic(g, ap, bp).vertices)
            return out
        rows = {x: bfs_distances(g, x) for x in set(ball_a) | set(ball_b)}
        for ap in ball_a:
            ra = rows[ap]
            for bp in ball_b:
                rb = rows[bp]
                d = ra[bp]
                if d < 0:
                    continue
                out.update(w for w in range(g.vertex_count) if ra[w] >= 0 and ra[w] + rb[w] == d)
        return out


# -- thin triangles ----------------------------------------------------


@dataclass(frozen=True)
class HyperbolicityReport:
    delta: int
    witness_triangle: tuple[Path, Path, Path] | None
    triangles_checked: int
    exhaustive: bool


def thin_delta(
    g: MetricGraph,
    fam: GeodesicFamily,
    budget: int = 20_000,
    seed: int = 0,
) -> HyperbolicityReport:
    """Least delta making every checked geodesic triangle delta-thin.

    A triangle is one family geodesic per side of a vertex triple; its
    thinness defect is the max over side vertices of the distance to the
    union of the other two sides. All triangles over all vertex triples
    are checked when their total fits the budget; otherwise a seeded
    sample of vertex triples is used and the report says so.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if not g.is_connected:
        raise ValueError("thin_delta requires a connected graph")
    if fam.graph is not g:
        raise ValueError("family is bound to a different graph")
    n = g.vertex_count
    if n < 3:
        return HyperbolicityReport(0, None, 0, True)

    tm = g.tree_metric() if g.is_tree else None
    tables = _SmallTables.build(g) if tm is None and n <= _SMALL_GRAPH_MAX else None
    dist_to_set = _dist_to_set_fn(g, tables, tm)

    total_triples = math.comb(n, 3)
    exhaustive_triples = total_triples <= budget
    if exhaustive_triples:
        triples: Iterable[tuple[int, int, int]] = itertools.combinations(range(n), 3)
    else:
        rng = random.Random(seed)
        chosen: set[tuple[int, int, int]] = set()
        attempts = 0
        while len(chosen) < budget and attempts < 4 * budget + 64:
            attempts += 1
            chosen.add(tuple(sorted(rng.sample(range(n), 3))))
        triples = sorted(chosen)

    delta = 0
    witness: tuple[Path, Path, Path] | None = None
    checked = 0
    truncated_resolution = False
    out_of_budget = False
    for x, y, z in triples:
        gxy, t1 = _resolve_paths(g, fam, tables, tm, x, y)
        gyz, t2 = _resolve_paths(g, fam, tables, tm, y, z)
        gxz, t3 = _resolve_paths(g, fam, tables, tm, x, z)
        truncated_resolution = truncated_resolution or t1 or t2 or t3
        for sxy, syz, sxz in itertools.product(gxy, gyz, gxz):
            if checked >= budget:
                out_of_budget = True
                break
            checked += 1
            worst = 0
            sides = (sxy.vertices, syz.vertices, sxz.vertices)
            for i in range(3):
                d = dist_to_set(sides[i], sides[(i + 1) % 3] + sides[(i + 2) % 3])
                if d > worst:
                    worst = d
            if witness is None or worst > delta:
                delta = worst
                witness = (sxy, syz, sxz)
        if out_of_budget:
            break
    exhaustive = exhaustive_triples and not truncated_resolution and not out_of_budget
    return HyperbolicityReport(delta, witness, checked, exhaustive)


def _dist_to_set_fn(g: MetricGraph, tables: "_SmallTables | None", tm):
    if tables is not None:
        dmat = tables.dist

        def from_matrix(side, other):
            return int(dmat[np.ix_(side, sorted(set(other)))].min(axis=1).max())

        return from_matrix
    if tm is not None:

        def from_tree(side, other):
            ou = np.asarray(sorted(set(other)), dtype=np.int64)
            return int(tm.pairwise(np.asarray(side, dtype=np.int64), ou).min(axis=1).max())

        return from_tree

    def generic(side, other):
        targets = set(other)
        best = 0
        for v in side:
            best = max(best, _distance_to_set(g, v, targets))
        return best

    return generic


def _resolve_paths(g, fam, tables, tm, u, v) -> tuple[list[Path], bool]:
    if tm is not None:
        return [Path(tuple(tm.path(u, v)))], False
    if fam.kind == "canonical" and tables is not None:
        return [_canonical_from_matrix(g, tables.dist, u, v)], False
    return fam.geodesics(u, v)


def _canonical_from_matrix(g: MetricGraph, dmat: np.ndarray, u: int, v: int) -> Path:
    path = [u]
    cur = u
    while cur != v:
        cur = min(w for w in g.neighbors(cur) if dmat[w, v] == dmat[cur, v] - 1)
        path.append(cur)
    return Path(tuple(path))


# -- boundedness checker -----------------------------------------------


@dataclass(frozen=True)
class PropertyBViolation:
    """A family geodesic between the fattened endpoints missing N(c;k)."""

    a: int
    b: int
    r: int
    c: int
    geodesic: Path


@dataclass(frozen=True)
class PropertyBReport:
    ell: int
    k: int
    r_max: int
    observed_D: int
    intersection_violations: tuple[PropertyBViolation, ...]
    samples_checked: int
    exhaustive: bool
    pairs_checked: int
    violations_total: int
    qualifying_found: bool

    @property
    def clean(self) -> bool:
        return self.violations_total == 0


class _SmallTables:
    """Full distance (and optional shortest-path-count) tables."""

    def __init__(self, dist: np.ndarray, sigma_rows: list[list[int]] | None):
        self.dist = dist
        self.sigma_rows = sigma_rows
        self.sigma_matrix: np.ndarray | None = None
        if sigma_rows is not None:
            peak = max((max(row) for row in sigma_rows), default=0)
            if peak < _SIGMA_VECTOR_MAX:
                self.sigma_matrix = np.asarray(sigma_rows, dtype=np.int64)

    @staticmethod
    def build(g: MetricGraph, with_sigma: bool = False) -> "_SmallTables":
        rows = [bfs_distances(g, s) for s in range(g.vertex_count)]
        dist = np.asarray(rows, dtype=np.int32)
        sigma = None
        if with_sigma and not g.is_tree:
            sigma = [_sigma_row(g, rows[s], s) for s in range(g.vertex_count)]
        return _SmallTables(dist, sigma)


def _sigma_row(g: MetricGraph, dist: list[int], s: int) -> list[int]:
    # exact shortest-path counts from s, as python ints (no overflow)
    sig = [0] * g.vertex_count
    sig[s] = 1
    order = sorted((d, v) for v, d in enumerate(dist) if d > 0)
    for _, v in order:
        dv = dist[v]
        total = 0
        for u in g.neighbors(v):
            if dist[u] == dv - 1:
                total += sig[u]
        sig[v] = total
    return sig


def _pair_from_rank(rank: int, n: int) -> tuple[int, int]:
    # unordered pairs (a < b) of range(n), lexicographic rank
    a = 0
    remaining = rank
    row = n - 1
    while remaining >= row:
        remaining -= row
        a += 1
        row -= 1
    return a, a + 1 + remaining


def check_property_b(
    fam: GeodesicFamily,
    ell: int,
    k: int,
    r_max: int,
    pair_budget: int = 4000,
    c_budget: int = 64,
    seed: int = 0,
    violation_cap: int = 50,
) -> PropertyBReport:
    """Measure the boundedness constant of a geodesic family.

    Enumerates (a, b) pairs in ascending order (all of them when the pair
    count fits ``pair_budget``, else a seeded sample), radii r = 0..r_max,
    and the qualifying deep points c on G(a,b) with d(c, {a,b}) >= r + ell
    (subsampled to ``c_budget`` per pair when necessary). For every
    instance it computes ``|G(a,b;r) ∩ N(c;k)|`` exactly and verifies the
    intersection clause, recording one witness geodesic per violating
    instance (list capped at ``violation_cap``; ``violations_total`` keeps
    the full count).

    ``observed_D == 0`` with ``qualifying_found == False`` means no
    instance qualified at these parameters: a vacuous run, not a pass.
    """
    if ell < 0 or k < 0 or r_max < 0:
        raise ValueError("ell, k, r_max must be nonnegative")
    if pair_budget < 1 or c_budget < 1:
        raise ValueError("budgets must be positive")
    g = fam.graph
    n = g.vertex_count
    total_pairs = n * (n - 1) // 2
    exhaustive_pairs = total_pairs <= pair_budget
    if exhaustive_pairs:
        pair_iter: Iterator[tuple[int, int]] = iter(itertools.combinations(range(n), 2))
    else:
        rng = random.Random(seed)
        ranks = sorted(rng.sample(range(total_pairs), pair_budget))
        pair_iter = (_pair_from_rank(t, n) for t in ranks)

    tm = g.tree_metric() if g.is_tree else None
    tables = None
    if tm is None and n <= _SMALL_GRAPH_MAX:
        tables = _SmallTables.build(g, with_sigma=(fam.kind == "all"))

    observed = 0
    samples = 0
    pairs_checked = 0
    qualifying_found = False
    c_truncated = False
    violations: list[PropertyBViolation] = []
    violations_total = 0

    for a, b in pair_iter:
        if tm is not None:
            worker: _TreePairChecker | _PairChecker = _TreePairChecker(g, tm, a, b, ell, k, r_max)
        else:
            worker = _PairChecker(fam, tables, a, b, ell, k, r_max)
        if not worker.reachable:
            continue
        pairs_checked += 1
        pool = worker.qualifying_pool()
        if not pool:
            continue
        qualifying_found = True
        if len(pool) > c_budget:
            c_truncated = True
            rng_c = random.Random(seed * 2_654_435_761 + a * 1_000_003 + b)
            pool = sorted(rng_c.sample(pool, c_budget))
        for r in range(0, r_max + 1):
            cs = [c for c in pool if worker.depth(c) >= r + ell]
            if not cs:
                continue
            for c, cnt in zip(cs, worker.counts(r, cs)):
                samples += 1
                if cnt > observed:
                    observed = cnt
            for c, witness in worker.violations(r, cs):
                violations_total += 1
                if len(violations) < violation_cap:
                    violations.append(PropertyBViolation(a, b, r, c, witness))

    exhaustive = exhaustive_pairs and not c_truncated
    return PropertyBReport(
        ell=ell,
        k=k,
        r_max=r_max,
        observed_D=observed,
        intersection_violations=tuple(violations),
        samples_checked=samples,
        exhaustive=exhaustive,
        pairs_checked=pairs_checked,
        violations_total=violations_total,
        qualifying_found=qualifying_found,
    )


class _TreePairChecker:
    """Tree fast path: unique geodesics and vectorized ancestor distances.

    On a tree the two family kinds coincide (each pair has exactly one
    geodesic), G(a,b) is the a-b path, and every pairwise distance comes
    from the shared ancestor structure with no per-pair search at all.
    """

    reachable = True

    def __init__(self, g: MetricGraph, tm, a: int, b: int, ell: int, k: int, r_max: int):
        self.g = g
        self.tm = tm
        self.a, self.b, self.ell, self.k = a, b, ell, k
        self.path = tm.path(a, b)
        self.d_ab = len(self.path) - 1
        self.pos = {v: i for i, v in enumerate(self.path)}
        ball_a = _bfs(g, (a,), r_max)
        ball_b = _bfs(g, (b,), r_max)
        self.A = sorted(ball_a)
        self.B = sorted(ball_b)
        self.da_A = np.asarray([ball_a[v] for v in self.A], dtype=np.int64)
        self.db_B = np.asarray([ball_b[v] for v in self.B], dtype=np.int64)
        self.mab = tm.pairwise(self.A, self.B)
        self._hoods: dict[int, list[int]] = {}
        self._w_pos: dict[int, int] = {}
        self._maw: np.ndarray | None = None
        self._mwb: np.ndarray | None = None

    def depth(self, c: int) -> int:
        i = self.pos[c]
        return min(i, self.d_ab - i)

    def qualifying_pool(self) -> list[int]:
        return sorted(c for c in self.path if self.depth(c) >= self.ell)

    def _neighborhood(self, c: int) -> list[int]:
        hood = self._hoods.get(c)
        if hood is None:
            hood = [c] if self.k == 0 else sorted(_bfs(self.g, (c,), self.k))
            self._hoods[c] = hood
        return hood

    def _witness_matrices(self, cs: list[int]) -> tuple[np.ndarray, np.ndarray]:
        need = sorted({w for c in cs for w in self._neighborhood(c)} - self._w_pos.keys())
        if self._maw is None or need:
            ws = sorted(self._w_pos.keys() | set(need))
            self._w_pos = {w: i for i, w in enumerate(ws)}
            self._maw = self.tm.pairwise(self.A, ws)
            self._mwb = self.tm.pairwise(ws, self.B)
        return self._maw, self._mwb

    def _selection(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        return np.flatnonzero(self.da_A <= r), np.flatnonzero(self.db_B <= r)

    def counts(self, r: int, cs: list[int]) -> list[int]:
        if self.k == 0:
            # N(c;0) = {c} and c ∈ G(a,b) ⊆ G(a,b;r): the intersection is {c}.
            return [1] * len(cs)
        maw, mwb = self._witness_matrices(cs)
        sa, sb = self._selection(r)
        mab = self.mab[np.ix_(sa, sb)]
        out = []
        for c in cs:
            hood_pos = [self._w_pos[w] for w in self._neighborhood(c)]
            on = (
                maw[np.ix_(sa, hood_pos)][:, None, :] + mwb[np.ix_(hood_pos, sb)].T[None, :, :]
                == mab[:, :, None]
            ).any(axis=(0, 1))
            out.append(int(on.sum()))
        return out

    def violations(self, r: int, cs: list[int]):
        maw, mwb = self._witness_matrices(cs)
        sa, sb = self._selection(r)
        mab = self.mab[np.ix_(sa, sb)]
        if self.k == 0:
            # singleton neighborhoods: test all c in one broadcast
            cpos = [self._w_pos[c] for c in cs]
            meets = (
                maw[np.ix_(sa, cpos)][:, None, :] + mwb[np.ix_(cpos, sb)].T[None, :, :]
                == mab[:, :, None]
            )
            clean = meets.all(axis=(0, 1))
            for idx in np.flatnonzero(~clean):
                i, j = map(int, np.argwhere(~meets[:, :, idx])[0])
                yield cs[int(idx)], Path(tuple(self.tm.path(self.A[int(sa[i])], self.B[int(sb[j])])))
            return
        for c in cs:
            hood_pos = [self._w_pos[w] for w in self._neighborhood(c)]
            meets = (
                maw[np.ix_(sa, hood_pos)][:, None, :] + mwb[np.ix_(hood_pos, sb)].T[None, :, :]
                == mab[:, :, None]
            ).any(axis=2)
            if meets.all():
                continue
            i, j = map(int, np.argwhere(~meets)[0])
            ap = self.A[int(sa[i])]
            bp = self.B[int(sb[j])]
            yield c, Path(tuple(self.tm.path(ap, bp)))


class _PairChecker:
    """Exact per-pair verification for non-tree graphs.

    Small graphs run against shared full tables. Large graphs are
    localized to the geodesic envelope of the pair: every shortest path
    between N(a;r) and N(b;r) for r <= r_max lies in
    E = {w : d(a,w) + d(w,b) <= d(a,b) + 4 r_max}, so all distance and
    path-count questions are answered inside the subgraph induced on E.
    """

    def __init__(
        self,
        fam: GeodesicFamily,
        tables: _SmallTables | None,
        a: int,
        b: int,
        ell: int,
        k: int,
        r_max: int,
    ):
        self.fam = fam
        self.g = fam.graph
        self.a, self.b, self.ell, self.k, self.r_max = a, b, ell, k, r_max
        self.tables = tables
        g = self.g
        n = g.vertex_count
        if tables is not None:
            da = tables.dist[a].astype(np.int64)
            db = tables.dist[b].astype(np.int64)
        else:
            da = distance_vector(g, a).astype(np.int64)
            db = distance_vector(g, b).astype(np.int64)
        self.reachable = bool(da[b] >= 0)
        if not self.reachable:
            return
        self.d_ab = int(da[b])
        self.da, self.db = da, db
        reach = (da >= 0) & (db >= 0)
        if tables is not None:
            # full tables: work in global indices
            self.env = np.arange(n, dtype=np.int64)
            self.local_of: dict[int, int] | _IdentityIndex = _IdentityIndex(n)
            self.local_adj = g._adj
        else:
            env = np.flatnonzero(reach & (da + db <= self.d_ab + 4 * r_max))
            self.env = env
            self.local_of = {int(v): i for i, v in enumerate(env)}
            self.local_adj = [
                [self.local_of[w] for w in g.neighbors(int(v)) if w in self.local_of] for v in env
            ]
        self.ball_a = sorted(int(v) for v in np.flatnonzero(reach & (da <= r_max)))
        self.ball_b = sorted(int(v) for v in np.flatnonzero(reach & (db <= r_max)))
        self._rows: dict[int, np.ndarray] = {}
        self._hoods: dict[int, list[int]] = {}
        self._canonical_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        if fam.kind == "all":
            self.g_ab = [int(v) for v in np.flatnonzero(reach & (da + db == self.d_ab))]
        else:
            self.g_ab = sorted(set(self._canonical_local(a, b)))

    # -- local machinery --

    def _local_bfs(self, src: int) -> np.ndarray:
        row = self._rows.get(src)
        if row is None:
            if self.tables is not None:
                row = self.tables.dist[src].astype(np.int64)
            else:
                dist = _bfs(self.g, (src,), within=self.local_of)
                row = np.full(len(self.env), -1, dtype=np.int64)
                row[[self.local_of[v] for v in dist]] = list(dist.values())
            self._rows[src] = row
        return row

    def _canonical_local(self, u: int, v: int) -> tuple[int, ...]:
        # Canonical geodesics only step through shortest-path vertices,
        # all inside the envelope, so the local walk equals the global one.
        key = (u, v)
        cached = self._canonical_cache.get(key)
        if cached is None:
            row = self._local_bfs(v)
            cur = self.local_of[u]
            tgt = self.local_of[v]
            out = [u]
            while cur != tgt:
                cur = min(w for w in self.local_adj[cur] if row[w] == row[cur] - 1)
                out.append(int(self.env[cur]))
            cached = tuple(out)
            self._canonical_cache[key] = cached
        return cached

    def depth(self, c: int) -> int:
        return int(min(self.da[c], self.db[c]))

    def qualifying_pool(self) -> list[int]:
        return sorted(c for c in self.g_ab if self.depth(c) >= self.ell)

    def _sets_at(self, r: int) -> tuple[list[int], list[int]]:
        return (
            [v for v in self.ball_a if self.da[v] <= r],
            [v for v in self.ball_b if self.db[v] <= r],
        )

    def _neighborhood(self, c: int) -> list[int]:
        hood = self._hoods.get(c)
        if hood is None:
            if self.k == 0:
                hood = [c]
            elif self.tables is not None:
                row = self.tables.dist[c]
                hood = [int(v) for v in np.flatnonzero((row >= 0) & (row <= self.k))]
            else:
                hood = sorted(_bfs(self.g, (c,), self.k))
            self._hoods[c] = hood
        return hood

    # -- counting --

    def counts(self, r: int, cs: list[int]) -> list[int]:
        if self.k == 0:
            # N(c;0) = {c} and c ∈ G(a,b) ⊆ G(a,b;r): the intersection is {c}.
            return [1] * len(cs)
        A, B = self._sets_at(r)
        members = self._members_of_union_r(A, B)
        return [sum(1 for w in self._neighborhood(c) if w in members) for c in cs]

    def _members_of_union_r(self, A: list[int], B: list[int]) -> set[int]:
        if self.fam.kind == "canonical":
            members: set[int] = set()
            for ap in A:
                for bp in B:
                    members.update(self._canonical_local(ap, bp))
            return members
        rows_a = np.stack([self._local_bfs(x) for x in A])
        rows_b = np.stack([self._local_bfs(x) for x in B])
        mab = rows_a[:, [self.local_of[x] for x in B]]
        ok = (rows_a[:, None, :] >= 0) & (rows_b[None, :, :] >= 0) & (mab[:, :, None] >= 0)
        hit = ok & (rows_a[:, None, :] + rows_b[None, :, :] == mab[:, :, None])
        mask = hit.any(axis=(0, 1))
        return {int(self.env[i]) for i in np.flatnonzero(mask)}

    # -- intersection clause --

    def violations(self, r: int, cs: list[int]):
        A, B = self._sets_at(r)
        if self.fam.kind == "canonical":
            yield from self._violations_canonical(A, B, cs)
        elif self.k == 0 and self.tables is not None and self.tables.sigma_matrix is not None:
            yield from self._violations_sigma(A, B, cs)
        else:
            yield from self._violations_general(A, B, cs)

    def _violations_canonical(self, A, B, cs):
        pairs = [(ap, bp) for ap in A for bp in B]
        paths = [self._canonical_local(ap, bp) for ap, bp in pairs]
        sets = [frozenset(p) for p in paths]
        for c in cs:
            hood = set(self._neighborhood(c))
            for p, s in zip(paths, sets):
                if not (s & hood):
                    yield c, Path(p)
                    break

    def _violations_sigma(self, A, B, cs):
        # c lies on every shortest a'→b' path iff the distance identity
        # holds and the path counts multiply: sig(a',c)·sig(c,b') = sig(a',b').
        dmat = self.tables.dist
        sig = self.tables.sigma_matrix
        dab = dmat[np.ix_(A, B)].astype(np.int64)
        sab = sig[np.ix_(A, B)]
        dac = dmat[np.ix_(A, cs)].astype(np.int64)
        dcb = dmat[np.ix_(cs, B)].astype(np.int64)
        sac = sig[np.ix_(A, cs)]
        scb = sig[np.ix_(cs, B)]
        on_all = (dac[:, None, :] + np.transpose(dcb)[None, :, :] == dab[:, :, None]) & (
            sac[:, None, :] * np.transpose(scb)[None, :, :] == sab[:, :, None]
        )
        avoidable = ~on_all
        for idx, c in enumerate(cs):
            cells = np.argwhere(avoidable[:, :, idx])
            if cells.size == 0:
                continue
            i, j = map(int, cells[0])
            witness = self._avoiding_geodesic(A[i], B[j], {c})
            if witness is not None:
                yield c, witness

    def _violations_general(self, A, B, cs):
        for c in cs:
            hood = set(self._neighborhood(c))
            found = None
            for ap in A:
                if found:
                    break
                if ap in hood:
                    continue
                for bp in B:
                    if bp in hood:
                        continue
                    witness = self._avoiding_geodesic(ap, bp, hood)
                    if witness is not None:
                        found = (c, witness)
                        break
            if found:
                yield found

    def _avoiding_geodesic(self, ap: int, bp: int, hood: set[int]) -> Path | None:
        # Count shortest a'→b' paths avoiding the neighborhood by DP over
        # the shortest-path DAG, then walk a witness backwards through
        # positive counts.
        row_a = self._local_bfs(ap)
        row_b = self._local_bfs(bp)
        start = self.local_of[ap]
        tgt = self.local_of[bp]
        d = row_a[tgt]
        if d < 0:
            return None
        allowed = {
            v
            for v in range(len(self.env))
            if row_a[v] >= 0
            and row_b[v] >= 0
            and row_a[v] + row_b[v] == d
            and int(self.env[v]) not in hood
        }
        if start not in allowed or tgt not in allowed:
            return None
        count: dict[int, int] = {start: 1}
        for v in sorted(allowed, key=lambda x: int(row_a[x])):
            if v == start:
                continue
            total = 0
            for u in self.local_adj[v]:
                if u in allowed and row_a[u] == row_a[v] - 1:
                    total += count.get(u, 0)
            count[v] = total
        if count.get(tgt, 0) == 0:
            return None
        rev = [bp]
        cur = tgt
        while cur != start:
            cur = min(
                u
                for u in self.local_adj[cur]
                if u in allowed and row_a[u] == row_a[cur] - 1 and count.get(u, 0) > 0
            )
            rev.append(int(self.env[cur]))
        return Path(tuple(rev[::-1]))


class _IdentityIndex:
    """Dict-like identity map over range(n) for the full-table mode."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __getitem__(self, key: int) -> int:
        return key

    def __contains__(self, key: int) -> bool:
        return 0 <= key < self.n

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

Instance enumeration is exhaustive when the pair universe fits the
budget, otherwise a seeded deterministic sample is drawn and reported as
such. Every instance that is checked is checked exactly: integer
distances, exact shortest-path counting, no tolerances. On trees a pair
reads no adjacency and rests on two lemmas. A vertex w joins G(a,b;r) at
r = 0 when d(a,w) + d(w,b) = d(a,b), else at min(d(a,w), d(b,w)): every
path from a or b into w's branch goes through w. And the intersection
clause is vacuous: with d(c,{a,b}) >= r, N(a;r) projects onto [a,b]
inside [a,c] and N(b;r) inside [c,b], so every a'-b' geodesic passes
through c (if both projections are c, then a' or b' is c). Counts take
the set balls N(c;k) over the CSR arrays and their distances to a and b
from the tree metric, none at k = 0. Other graphs go pair by pair inside
the geodesic envelope of the pair, reading distance and path-count rows
from one memoised store per call (``graphs._Rows``). It loads the
endpoint rows of a run of pairs, which build the run's checkers together
as (pairs x n) array operations, then the rows their instances read, in
runs that fill the store whole kernel blocks at a time; it hands the
distance rows of many sources at many columns back as one matrix
(``_Rows.block``) and single distance and count entries of many rows as
arrays (``_Rows.cells``). With k = 0 and all geodesics the intersection
clause is one pass per run of pairs over the levels r = 0, 1, ... of the
endpoint cells (a', b'), level max(d(a,a'), d(b,b')): each level's cells
are read once, by path counts, against the centres that have not yet
violated, so every centre gets its first violating radius and leaves the
pass there. A checker names the violating centres (``violations``) and
builds a witness geodesic, by one row-major search of the endpoint cells,
only for a violation the report keeps (``witness``). :func:`thin_delta`
takes one path on every graph. Its triples, all of them or the seeded
sample, which ``coarselab.triples`` draws from the generator's words in
bulk, exactly as one ``random.sample`` call per attempt would, are the
rows of (T, 3) arrays. Sorts of windows of far ends cut them into runs
whose far ends' rows the same kind of store loads at once, as many as it
holds (one kernel block for the all family, which turns each row into a
list), with no Python work per triple. A run's distinct sides are
the rows of one array, each padded with its far end, and its triangles
are rows of three indices into it: canonical sides all walk down the far
ends' rows together (``graphs._canonical_walks``), and all-family sides
are enumerated side by side, their products cut at the budget. One
set-labelled bit-parallel BFS gives every defect of a batch of triangles
(``graphs._triangle_defects``).

A family enters only as its walk down a distance row: the canonical walk
(the least-id step) or all walks (every step one closer). G(a,b;r) has
one implementation, ``_PairChecker._members_of_union_r``, which
:meth:`GeodesicFamily.union_r` also calls; the intersection clause asks
one question per endpoint cell, whether a family geodesic avoids N(c;k).

Convention note: ``observed_D`` is a single constant, the max over all
checked radii r <= r_max. Some formulations in the literature let the
constant depend on r; this checker deliberately reports the uniform
reading and leaves per-radius analysis to the caller.
"""

from __future__ import annotations

import functools
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
    _all_walks,
    _BLOCK,
    _canonical_walk,
    _canonical_walks,
    _SIGMA_MAX,
    _Rows,
    _set_balls,
    _sorted_unique,
    _triangle_defects,
    _walk_room,
    ball,
)

__all__ = [
    "ClaimViolation",
    "GeodesicFamily",
    "HyperbolicityReport",
    "thin_delta",
    "PropertyBViolation",
    "PropertyBReport",
    "check_property_b",
]


class ClaimViolation(RuntimeError):
    """A verified claim of the construction failed: a theorem alarm that
    must never fire on correct code and true premises."""


# Shortest-path counts at or above this bound (row stores saturate there)
# fall back from vectorized int64 products to exact per-instance search.
_SIGMA_VECTOR_MAX = _SIGMA_MAX

# The all family's G(a,b;r) cube, |N(b;r)| x |envelope| cells per row of
# N(a;r), is cut into slices of at most this many cells (or one row, if
# that is larger). The σ clause's level pass reads its (pair, centre,
# cell) entries in slices of a 64th of it: an entry's indices and its
# three reads take about 16 int64 cells.
_CUBE_CELLS = 2**21


@dataclass(frozen=True)
class GeodesicFamily:
    """A deterministic choice of geodesics joining every vertex pair.

    ``kind == "all"`` resolves to every geodesic (enumeration capped at
    ``GEODESIC_CAP`` with an explicit truncation flag); ``kind ==
    "canonical"`` resolves to the single lexicographically least geodesic.
    """

    graph: MetricGraph
    kind: Literal["all", "canonical"]

    def __post_init__(self):
        if self.kind not in ("all", "canonical"):
            raise ValueError(f"geodesic family kind must be 'all' or 'canonical', got {self.kind!r}")

    @staticmethod
    def all_of(graph: MetricGraph) -> "GeodesicFamily":
        return GeodesicFamily(graph, "all")

    @staticmethod
    def canonical_of(graph: MetricGraph) -> "GeodesicFamily":
        return GeodesicFamily(graph, "canonical")

    def union(self, u: int, v: int) -> set[int]:
        """G(u, v): all vertices lying on some family geodesic.

        For the ALL kind this comes from the distance identity
        d(u,w) + d(w,v) = d(u,v), which is exact and needs no enumeration.
        """
        return self.union_r(u, v, 0)

    def union_r(self, a: int, b: int, r: int) -> set[int]:
        """G(a, b; r): the union of G(a', b') over a' in N(a;r), b' in N(b;r)."""
        if r < 0:
            raise ValueError("r must be nonnegative")
        (checker,), _, _ = _PairChecker.run(self, _Rows(self.graph), [(a, b)], 0, 0, r, {})
        if not checker.reachable:
            raise ValueError(f"vertices {a} and {b} are unreachable from each other")
        return set(np.flatnonzero(checker._members_of_union_r(*checker._sets_at(r))).tolist())


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

    The sample is that of the loop ``tuple(sorted(rng.sample(range(n),
    3)))``, ``rng = random.Random(seed)``, run until ``budget`` triples
    are distinct or for 4 * budget + 64 draws, sorted. It is drawn from
    the generator's 32-bit words in bulk, with every ``sample`` call
    replayed by array operations (``triples._sampled_triples``); all
    triples arrive in chunks of ``itertools.combinations``. Either way
    the triples are the rows of (T, 3) arrays, which
    ``triples._triple_runs`` cuts into the runs whose far ends' rows the
    store loads at once.
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

    from .triples import _all_triples, _sampled_triples, _triple_runs  # here, so runs without a δ never load it

    rows = _Rows(g)

    exhaustive_triples = math.comb(n, 3) <= budget
    parts = _all_triples(n) if exhaustive_triples else [_sampled_triples(n, budget, seed)]

    delta = 0
    witness: tuple[Path, Path, Path] | None = None
    checked = 0
    truncated = out_of_budget = False
    # A run's triangles are rows of indices into one array of its distinct
    # sides x-y, y-z and x-z, each padded with its far end y or z, whose
    # rows the run loads. A canonical run fills the store, with as many
    # triples as ``_canonical_walks`` walks within its cell budget; the
    # all family turns each far end's row into a list, so its runs keep to
    # one block of far ends.
    if fam.kind == "canonical":
        room, most = None, max(_walk_room(rows) // 3, 1)
    else:
        room, most = _BLOCK, None
    for chunk, far_ends in _triple_runs(parts, rows, room, most):
        if fam.kind == "canonical":
            sides, tris = _canonical_sides(rows, chunk)
        else:
            sides, tris, cut, out_of_budget = _all_family_sides(rows, chunk, far_ends, budget - checked)
            truncated = truncated or cut
        if len(tris):
            worst = _triangle_defects(g, sides, tris)
            t = int(worst.argmax())
            if witness is None or worst[t] > delta:
                delta = int(worst[t])
                # A side ends at the first copy of its far end.
                witness = tuple(Path(tuple(side[: side.index(side[-1]) + 1])) for side in sides[tris[t]].tolist())
        checked += len(tris)
        if out_of_budget:
            break
    exhaustive = exhaustive_triples and not truncated and not out_of_budget
    return HyperbolicityReport(delta, witness, checked, exhaustive)


def _canonical_sides(rows: _Rows, chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical triangles of the triples (rows) of ``chunk``: every
    distinct side walked once (``_canonical_walks``), and each triangle as
    the row of its sides x-y, y-z and x-z in those walks."""
    n = rows.g.vertex_count
    tri = np.asarray(chunk, dtype=np.min_scalar_type(n * n))  # holds every key s * n + v
    keys = tri[:, [0, 1, 0]] * n + tri[:, [1, 2, 2]]
    pairs = _sorted_unique(keys.flatten())
    return _canonical_walks(rows, *np.divmod(pairs, n)), np.searchsorted(pairs, keys)


def _all_family_sides(rows: _Rows, chunk: np.ndarray, far_ends: list[int], room: int):
    """The all family's triangles over the triples (rows) of ``chunk``, at
    most ``room`` of them, in enumeration order: triple by triple, and within a
    triple the product of its sides' geodesics in ``itertools.product``
    order, each side's geodesics in lexicographic order (``_all_walks``).
    Returns every distinct side's geodesics as the rows of one array,
    padded with their far ends, the triangles as rows of three indices
    into it, whether some side's enumeration stopped at ``GEODESIC_CAP``,
    and whether ``room`` cut the enumeration short."""
    adj = rows.g._adj
    chunk = chunk.tolist()
    walk_rows = {v: rows[v].tolist() for v in far_ends}
    width = 1 + max(max(walk_rows[y][x], walk_rows[z][y], walk_rows[z][x]) for x, y, z in chunk)
    blocks: list[np.ndarray] = []  # each distinct side's geodesics
    ids: dict[tuple[int, int], np.ndarray] = {}  # a side's rows in the blocks
    parts = []
    count = 0
    truncated = cut = False
    for x, y, z in chunk:
        for u, end in ((x, y), (y, z), (x, z)):
            if (u, end) not in ids:
                walks, capped = _all_walks(adj, walk_rows[end], u, GEODESIC_CAP)
                truncated = truncated or capped
                block = np.full((len(walks), width), end, dtype=np.int32)
                block[:, : len(walks[0])] = [walk.vertices for walk in walks]
                blocks.append(block)
                ids[u, end] = np.arange(count, count + len(walks))
                count += len(walks)
        sides = (ids[x, y], ids[y, z], ids[x, z])
        shape = tuple(map(len, sides))
        take = min(math.prod(shape), room)
        room -= take
        part = np.empty((take, 3), dtype=np.int64)
        for i, pick in enumerate(np.unravel_index(np.arange(take), shape)):
            part[:, i] = sides[i][pick]
        parts.append(part)
        if take < math.prod(shape):
            cut = True
            break
    return np.concatenate(blocks), np.concatenate(parts), truncated, cut


def _loaded_runs(
    items: Iterable, rows: _Rows, ends, room: int | None = None, most: int | None = None
) -> Iterator[tuple[list, list[int]]]:
    """Consecutive runs of ``items``, each with the vertices whose rows its
    items read (``ends(item)``, in order of first use), loaded into
    ``rows`` before the run is yielded, so ``load`` fills whole kernel
    blocks. A run has at least one item and at most ``most``; beyond its
    first item, its vertices fit the store and number at most ``room``.
    Each item's ends are checked against the run's once, so a run costs
    time linear in the ends of its items. Property B's runs of pairs and
    of checkers go through it; ``thin_delta``'s triples, which are arrays,
    through ``triples._triple_runs``."""
    room = rows.capacity if room is None else min(room, rows.capacity)
    chunk: list = []
    used: dict[int, None] = {}
    for item in items:
        fresh = dict.fromkeys(v for v in ends(item) if v not in used)
        if chunk and (len(used) + len(fresh) > room or len(chunk) == most):
            rows.load(used)
            yield chunk, list(used)
            chunk, used = [], {}
            fresh = dict.fromkeys(ends(item))
        chunk.append(item)
        used.update(fresh)
    if chunk:
        rows.load(used)
        yield chunk, list(used)


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


def _pair_from_rank(rank: int, n: int) -> tuple[int, int]:
    # Unordered pairs (a < b) of range(n) in lexicographic rank. Rows 0..a-1
    # hold start(a) = a(2n - a - 1)/2 pairs; a is the largest row with
    # start(a) <= rank, the root of a quadratic up to integer rounding.
    def start(a: int) -> int:
        return a * (2 * n - a - 1) // 2

    a = (2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * rank)) // 2
    while start(a) > rank:
        a -= 1
    while start(a + 1) <= rank:
        a += 1
    return a, a + 1 + rank - start(a)


def check_property_b(
    fam: GeodesicFamily,
    ell: int,
    k: int,
    r_max: int,
    pair_budget: int = 4000,
    c_budget: int = 64,
    seed: int = 0,
    violation_cap: int = 10,
) -> PropertyBReport:
    """Measure the boundedness constant of a geodesic family.

    Enumerates (a, b) pairs in ascending order (all of them when the pair
    count fits ``pair_budget``, else a seeded sample), radii r = 0..r_max,
    and the qualifying deep points c on G(a,b) with d(c, {a,b}) >= r + ell
    (subsampled to ``c_budget`` per pair when necessary). For every
    instance it computes ``|G(a,b;r) ∩ N(c;k)|`` exactly (1 at k = 0) and
    verifies the intersection clause, recording one witness geodesic per
    violating instance (list capped at ``violation_cap``;
    ``violations_total`` keeps the full count, and only the violations
    kept ask their checker for a witness).

    ``observed_D == 0`` with ``qualifying_found == False`` means no
    instance qualified at these parameters: a vacuous run, not a pass.

    On a tree each pair is one ``_TreePairChecker``: w joins G(a,b;r) at
    r = 0 on [a,b] and at min(d(a,w), d(b,w)) off it, since every path
    from a or b into w's branch goes through w; and no geodesic at radius
    r avoids a centre at depth r or more, since N(a;r) projects onto
    [a,c] and N(b;r) onto [c,b]; a centre nearer an end than r is a
    :class:`ClaimViolation`. Elsewhere the pairs go in runs
    (``_pair_checkers``): a run's endpoint rows are loaded at once and
    build its checkers and pools, then the rows their instances read are
    loaded in runs that fill the store. With k = 0 and all geodesics the
    σ clause is settled level by level over the run (``_sigma_levels``):
    the cells (a', b') of level exactly r, max(d(a,a'), d(b,b')) = r, are
    N(a;r) x {b' : d(b,b') = r} and {a' : d(a,a') = r} x N(b;r-1); each is
    read once against each centre still in play, and a centre leaves at
    its first violating level or once r passes its depth - ell. Other
    pairs, and every witness, take one row-major search of the cells.
    N(c;k) is computed once per call.
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

    if g.is_tree:
        tm = g.tree_metric()
        trees = (_TreePairChecker(g, tm, a, b, ell, k, r_max) for a, b in pair_iter)
        workers: Iterable = ((tree, _centres(tree, c_budget, seed)) for tree in trees)
    else:
        workers = _pair_checkers(fam, pair_iter, ell, k, r_max, c_budget, seed)

    observed = 0
    samples = 0
    pairs_checked = 0
    qualifying_found = False
    c_truncated = False
    violations: list[PropertyBViolation] = []
    violations_total = 0

    for worker, centres in workers:
        if not worker.reachable:
            continue
        pairs_checked += 1
        if not centres:
            continue
        qualifying_found = True
        a, b = worker.a, worker.b
        c_truncated = c_truncated or len(centres) < len(worker.pool)
        pool_at = np.asarray(centres)
        pool_depth = worker.depths(centres)
        # a centre at depth d is checked at radii r <= d - ell
        for r in range(min(r_max, int(pool_depth.max()) - ell) + 1):
            cs = pool_at[pool_depth >= r + ell].tolist()
            samples += len(cs)
            # N(c;0) = {c} and c lies on G(a,b) ⊆ G(a,b;r): every k = 0 count is 1.
            observed = max(observed, *worker.counts(r, cs)) if k else max(observed, 1)
            # Every violation counts; only those kept build their witness.
            for c in worker.violations(r, cs):
                violations_total += 1
                if len(violations) < violation_cap:
                    violations.append(PropertyBViolation(a, b, r, c, worker.witness(r, c)))

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


def _row_lists(mask: np.ndarray) -> list[list[int]]:
    """The columns set in each row of a boolean matrix, by one nonzero."""
    flat = np.nonzero(mask)[1].tolist()
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    return [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _centres(worker, c_budget: int, seed: int) -> list[int]:
    """The centres checked for a pair: its qualifying pool, or a seeded
    sample of ``c_budget`` of them, sorted."""
    pool = worker.pool
    if len(pool) <= c_budget:
        return pool
    rng_c = random.Random(seed * 2_654_435_761 + worker.a * 1_000_003 + worker.b)
    return sorted(rng_c.sample(pool, c_budget))


def _pair_checkers(
    fam: GeodesicFamily, pairs: Iterable[tuple[int, int]], ell: int, k: int, r_max: int, c_budget: int, seed: int
) -> Iterator[tuple[_PairChecker, list[int]]]:
    """The checker of every pair of ``pairs``, in order, with its centres,
    on one row store that is filled run by run. The endpoint rows of a run
    of at most ``_BLOCK`` pairs (so the run's (pairs x n) arrays stay
    small) build its checkers together (``_PairChecker.run``). With k = 0
    and all geodesics, one level pass (``_sigma_levels``) then settles the
    σ clause of the whole run, loading only the rows it reads. The rows
    the other checkers' instances read (``_PairChecker.reads``) are loaded
    in runs of checkers whose rows fit the store, whole kernel blocks at a
    time. Neighbourhoods are memoised for the whole call."""
    sigma = fam.kind == "all" and k == 0
    rows = _Rows(fam.graph, counts=sigma)
    hoods: dict[int, np.ndarray] = {}
    for run, _ in _loaded_runs(pairs, rows, lambda pair: pair, most=_BLOCK):
        checkers, Da, Db = _PairChecker.run(fam, rows, run, ell, k, r_max, hoods)
        centres = [_centres(checker, c_budget, seed) for checker in checkers]
        if sigma:
            _sigma_levels(rows, checkers, centres, Da, Db)
        for part, _ in _loaded_runs(zip(checkers, centres), rows, lambda item: item[0].reads):
            yield from part


def _sigma_levels(
    rows: _Rows, checkers: list[_PairChecker], centres: list[list[int]], Da: np.ndarray, Db: np.ndarray
) -> None:
    """The σ clause (k = 0, all geodesics) of a run of checkers, in one
    pass over the levels r = 0, 1, ... of their endpoint cells; ``Da`` and
    ``Db`` are the run's endpoint rows, which built its checkers.

    A cell (a', b') is in play from its level max(d(a,a'), d(b,b')) on: it
    is the least r with a' in N(a;r) and b' in N(b;r). So the cells of
    level exactly r are N(a;r) x {b' : d(b,b') = r} and {a' : d(a,a') = r}
    x N(b;r-1), and a centre first violates at the least level of a cell
    some of whose geodesics avoid it (``_avoided``). Each level reads its
    cells against the centres still in play, over every pair of the run
    at once, in slices of at most ``_CUBE_CELLS // 64`` (pair, centre,
    cell) entries: a centre leaves the pass at its first violating level,
    or once r passes its own depth - ell, the last radius it is checked
    at.
    Each settled checker gets its centres' first violating levels
    (r_max + 1 if none) and reads no more rows. A pair that reads a path
    count too large for exact int64 products keeps its reads, for the
    per-radius search."""
    todo = [i for i, cs in enumerate(centres) if cs]
    if not todo:
        return
    group = [checkers[i] for i in todo]
    pairs, n = len(group), rows.g.vertex_count
    ell, r_max = group[0].ell, group[0].r_max
    owner = np.repeat(np.arange(pairs), [len(centres[i]) for i in todo])
    cs = np.concatenate([centres[i] for i in todo])
    Da, Db = Da[todo], Db[todo]
    reach = (Da >= 0) & (Db >= 0)
    last = np.minimum(r_max, np.minimum(Da, Db)[owner, cs] - ell)  # the last level each centre is checked at
    top = int(last.max())
    # Each pair's vertices in order of their distance from a, and from b,
    # and where level r starts in each order: |N(a;r-1)|, |N(b;r-1)|.
    (order_a, below_a), (order_b, below_b) = (_level_order(D, reach, top) for D in (Da, Db))
    first = np.full(cs.size, r_max + 1)
    live = np.ones(cs.size, dtype=bool)
    inexact = np.zeros(pairs, dtype=bool)
    step = max(1, _CUBE_CELLS // 64)
    for r in range(top + 1):
        idx = np.flatnonzero(live & (last >= r))
        if not idx.size:
            break
        z = np.bincount(owner[idx], minlength=pairs)  # each pair's centres in play
        z_at = np.cumsum(z) - z
        # Two blocks of cells per pair, one after the other, so a pair's
        # slices share its rows: N(a;r) x S(b;r) and S(a;r) x N(b;r-1), as
        # row and column ranges of the pair's orders.
        a_lo, b_lo = np.zeros(2 * pairs, dtype=np.int64), np.zeros(2 * pairs, dtype=np.int64)
        a_hi, b_hi = np.repeat(below_a[:, r + 1], 2), np.repeat(below_b[:, r + 1], 2)
        a_lo[1::2], b_lo[0::2], b_hi[1::2] = below_a[:, r], below_b[:, r], below_b[:, r]
        x, y, zz = a_hi - a_lo, b_hi - b_lo, np.repeat(z, 2)
        sizes = x * y * zz
        ends = np.cumsum(sizes)
        total = int(ends[-1])
        avoided = np.zeros(cs.size, dtype=bool)
        for lo in range(0, total, step):
            t = np.arange(lo, min(lo + step, total))
            blk = np.searchsorted(ends, t, side="right")
            at = t - (ends[blk] - sizes[blk])
            i, rest = np.divmod(at, y[blk] * zz[blk])
            j, l = np.divmod(rest, zz[blk])
            p = blk // 2
            ap = order_a[p * n + a_lo[blk] + i]
            bp = order_b[p * n + b_lo[blk] + j]
            ci = idx[z_at[p] + l]
            fails, saturated = _avoided(rows, ap, bp, cs[ci])
            avoided[ci[fails]] = True
            inexact[p[saturated]] = True
        newly = np.flatnonzero(avoided & live)
        first[newly] = r
        live[newly] = False
        live &= ~inexact[owner]
    for p, checker in enumerate(group):
        if not inexact[p]:
            checker._first = dict(zip(centres[todo[p]], first[owner == p].tolist()))
            checker.reads = []


def _level_order(D: np.ndarray, reach: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's reached columns in order of their value up to ``top``,
    flattened (row p from p * n on), and below[p, r], the number of them
    below r, for r = 0..top + 1."""
    pairs = len(D)
    key = np.where(reach & (D <= top), D, top + 1).astype(np.min_scalar_type(top + 1))
    by_level = np.bincount((key + np.arange(pairs)[:, None] * (top + 2)).ravel(), minlength=pairs * (top + 2))
    below = np.zeros((pairs, top + 3), dtype=np.int64)
    below[:, 1:] = by_level.reshape(pairs, top + 2).cumsum(axis=1)
    return np.argsort(key, axis=1, kind="stable").astype(np.int32).ravel(), below


def _avoided(rows: _Rows, ap: np.ndarray, bp: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each entry i, whether some geodesic from ``ap[i]`` to ``bp[i]``
    avoids ``c[i]``, and whether a path count read is too large for the
    exact test. c lies on every such geodesic iff the distance identity
    holds and the path counts multiply, sig(a',c)·sig(c,b') = sig(a',b');
    counts are symmetric, so b''s row gives sig(c,b')."""
    m = ap.size
    dist, sigma = rows.cells(np.concatenate((ap, ap, bp)), np.concatenate((bp, c, c)))
    d_ab, d_ac, d_bc = dist[:m], dist[m : 2 * m], dist[2 * m :]
    s_ab, s_ac, s_bc = sigma[:m], sigma[m : 2 * m], sigma[2 * m :]
    saturated = (sigma >= _SIGMA_VECTOR_MAX).reshape(3, m).any(axis=0)
    return (d_ac + d_bc != d_ab) | (s_ac * s_bc != s_ab), saturated


class _TreePairChecker:
    """Tree fast path: unique geodesics and distances from the shared tree
    metric, no search over the adjacency.

    On a tree the two family kinds coincide (each pair has exactly one
    geodesic) and G(a,b) is the a-b path. Two lemmas settle every instance
    from d(w,a) and d(w,b) alone:

    * Join level. w joins G(a,b;r) at r = 0 when d(a,w) + d(w,b) = d(a,b),
      otherwise at min(d(a,w), d(b,w)): every path from a or b into w's
      branch goes through w, so the cheapest cell whose geodesic holds w
      is (w, b) or (a, w). At k = 0 every count is 1, since each centre
      lies on [a,b]; otherwise a pair's counts take one ``_set_balls``
      call for its N(c;k) and one LCA batch for their distances to a and b.
    * The intersection clause is vacuous. For a centre c with
      d(c,{a,b}) >= r, a' in N(a;r) projects onto [a,b] inside [a,c] and
      b' in N(b;r) inside [c,b]; if both projections are c, then a' = c or
      b' = c. So [a',b'] always passes through c.
    """

    reachable = True

    def __init__(self, g: MetricGraph, tm, a: int, b: int, ell: int, k: int, r_max: int):
        self.g, self.tm = g, tm
        self.a, self.b, self.ell, self.k, self.r_max = a, b, ell, k, r_max
        self.path = tm.path(a, b)
        self.d_ab = len(self.path) - 1
        self.pos = {v: i for i, v in enumerate(self.path)}
        i = np.arange(self.d_ab + 1)
        self.pool = np.sort(np.asarray(self.path)[np.minimum(i, self.d_ab - i) >= ell]).tolist()
        self._counts: dict[int, list[int]] = {}  # c -> |G(a,b;r) ∩ N(c;k)| for r = 0..r_max

    def depths(self, cs: list[int]) -> np.ndarray:
        """d(c, {a, b}) for every c of ``cs``, all on the a-b path."""
        i = np.asarray([self.pos[c] for c in cs])
        return np.minimum(i, self.d_ab - i)

    def counts(self, r: int, cs: list[int]) -> list[int]:
        self._settle(cs)
        return [self._counts[c][r] for c in cs]

    def violations(self, r: int, cs: list[int]) -> tuple:
        """Always empty, so no witness is ever asked for: every a'-b'
        geodesic at radius r passes through each centre at depth r or more.
        That premise is checked here; a centre nearer an end is an internal
        error, not bad input."""
        if (self.depths(cs) < r).any():
            raise ClaimViolation(f"a centre lies within {r} of an end of its pair, where the vacuous clause is not proved")
        return ()

    def _settle(self, cs: list[int]) -> None:
        """Fill ``_counts`` for the centres of ``cs`` not yet settled."""
        centres = [c for c in cs if c not in self._counts]
        if not centres:
            return
        n, never = self.g.vertex_count, self.r_max + 1
        keys = _set_balls(self.g, np.arange(len(centres), dtype=np.int64) * n + centres, self.k)
        owner, ws = np.divmod(keys, n)
        d = self.tm.pair_distances(np.concatenate((ws, ws)), np.repeat([self.a, self.b], ws.size))
        da, db = d[: ws.size], d[ws.size :]
        joins = np.where(da + db == self.d_ab, 0, np.minimum(np.minimum(da, db), never))
        # Counts by radius: how many of each centre's neighbourhood have joined.
        joined = np.bincount(owner * (never + 1) + joins, minlength=len(centres) * (never + 1))
        by_r = np.cumsum(joined.reshape(len(centres), never + 1), axis=1)[:, :never].tolist()
        self._counts.update(zip(centres, by_r))


class _PairChecker:
    """Exact per-pair verification for non-tree graphs, in global ids, on
    the rows of the store shared by one :func:`check_property_b` call.

    Every shortest path between N(a;r) and N(b;r) for r <= r_max lies in the
    envelope E = {w : d(a,w) + d(w,b) <= d(a,b) + 4 r_max}; the union
    G(a,b;r) is computed on E's columns only, found on first use. Checkers
    are built in runs, together, from their endpoint rows (:meth:`run`),
    which give every pair's reach, depths and qualifying pool as (pairs x
    n) array operations; ``reads`` lists the sources whose rows the pair's
    instances read: N(a;R) and N(b;R) at its deepest radius R, or only
    N(b;R), the far ends, for the canonical family. The caller loads them
    for a run of checkers at once. Each N(c;k) is a sorted int32 array in
    ``hoods``, a memo the caller shares between pairs. With k = 0 and all
    geodesics, ``_sigma_levels`` settles the intersection clause of a run
    of checkers level by level: the cells (a', b') of level exactly r,
    max(d(a,a'), d(b,b')) = r, are read once against each centre not yet
    violated, which gives each centre its first violating radius
    (``_first``), unless the pair reads a path count too large for exact
    int64 products, and falls back to the search.

    ``violations(r, cs)`` returns the violating centres, from ``_first``
    or the search, which keeps each one's geodesic for ``witness(r, c)``;
    for a settled pair ``witness`` runs the search for a kept one. Counts
    and the search take N(a;r) and N(b;r) once per (pair, r); the search
    asks their cells outside N(c;k), in row-major order (``_cells``), for
    a geodesic avoiding N(c;k) (``_avoiding_geodesic``).
    """

    def __init__(self, fam: GeodesicFamily, rows: _Rows, a: int, b: int, ell: int, k: int, r_max: int, hoods: dict):
        # the pair's fields from its endpoint rows come from ``run``
        self.g, self.rows = fam.graph, rows
        self.a, self.b = a, b
        self.ell, self.k, self.r_max = ell, k, r_max
        self.hoods = hoods
        # canonical(u, v): the canonical u-v geodesic, walked once down v's
        # row, which becomes a list once per far end v
        self.canonical = None
        if fam.kind == "canonical":
            adj = self.g._adj
            row_list = functools.cache(lambda v: rows[v].tolist())
            self.canonical = functools.cache(lambda u, v: tuple(_canonical_walk(adj, row_list(v), u)))
        # each centre's first violating radius, once the level pass settles it
        self._first: dict[int, int] | None = None
        # N(a;r) and N(b;r) at the last radius asked, and the geodesic the
        # search found for each violating centre there
        self._sets: tuple[int, tuple[list[int], list[int]] | None] = (-1, None)
        self._found: tuple[int, dict[int, Path]] = (-1, {})

    @classmethod
    def run(cls, fam: GeodesicFamily, rows: _Rows, pairs: list, ell: int, k: int, r_max: int, hoods: dict) -> tuple:
        """The checkers of ``pairs``, built together from their endpoint
        rows: every pair's reach, depths, pool and reads by (pairs x n)
        array operations; and those rows, as the matrices Da and Db."""
        checkers = [cls(fam, rows, a, b, ell, k, r_max, hoods) for a, b in pairs]
        canonical = fam.kind == "canonical"
        D = rows.block([a for a, _ in pairs] + [b for _, b in pairs], np.arange(rows.g.vertex_count))
        Da, Db = D[: len(pairs)], D[len(pairs) :]
        d_ab = Da[np.arange(len(checkers)), [checker.b for checker in checkers]][:, None]
        lengths = d_ab.ravel().tolist()
        reach = (Da >= 0) & (Db >= 0)
        depth = np.minimum(Da, Db)
        if not canonical:
            on = reach & (Da + Db == d_ab)  # G(a,b), by the distance identity
        else:
            on = np.zeros_like(reach)
            for i, checker in enumerate(checkers):
                if lengths[i] >= 0:
                    on[i, list(checker.canonical(checker.a, checker.b))] = True
        pool = on & (depth >= ell)
        # A radius r is checked only with a deep point at depth r + ell; its
        # instances read the rows of N(a;r) and N(b;r), or only of N(b;r)
        # (the far ends) for the canonical family. A pair without a pool
        # reads nothing: its deepest radius is negative.
        deepest = np.minimum(r_max, np.where(pool, depth, -1).max(axis=1) - ell)[:, None]
        near = Db <= deepest if canonical else (Da <= deepest) | (Db <= deepest)
        pools, reads = _row_lists(pool), _row_lists(reach & near)
        for i, checker in enumerate(checkers):
            checker.d_ab = lengths[i]
            checker.reachable = checker.d_ab >= 0
            checker.da, checker.db, checker.reach, checker.depth_row = Da[i], Db[i], reach[i], depth[i]
            checker.pool, checker.reads = pools[i], reads[i]
        return checkers, Da, Db

    @functools.cached_property
    def envelope(self) -> np.ndarray:
        """The columns of E, which only the all family's G(a,b;r) reads."""
        return np.flatnonzero(self.reach & (self.da + self.db <= self.d_ab + 4 * self.r_max))

    def depths(self, cs: list[int]) -> np.ndarray:
        """d(c, {a, b}) for every c of ``cs``."""
        return self.depth_row[cs]

    def _neighborhood(self, c: int) -> np.ndarray:
        """N(c;k), sorted, memoised in ``hoods``."""
        hood = self.hoods.get(c)
        if hood is None:
            hood = self.hoods[c] = np.array(sorted(ball(self.g, c, self.k)), dtype=np.int32)
        return hood

    def _sets_at(self, r: int) -> tuple[list[int], list[int]]:
        """N(a;r) and N(b;r), taken once per radius."""
        if self._sets[0] != r:
            A = np.flatnonzero(self.reach & (self.da <= r)).tolist()
            self._sets = (r, (A, np.flatnonzero(self.reach & (self.db <= r)).tolist()))
        return self._sets[1]

    # -- counting --

    def counts(self, r: int, cs: list[int]) -> list[int]:
        members = self._members_of_union_r(*self._sets_at(r))
        # One gather over every neighbourhood, summed neighbourhood by neighbourhood.
        hoods = [self._neighborhood(c) for c in cs]
        starts = np.cumsum([0] + [len(hood) for hood in hoods[:-1]])
        return np.add.reduceat(members[np.concatenate(hoods)], starts, dtype=np.int64).tolist()

    def _members_of_union_r(self, A: list[int], B: list[int]) -> np.ndarray:
        """G(a,b;r) from A = N(a;r) and B = N(b;r), as a vertex mask."""
        members = np.zeros(self.g.vertex_count, dtype=bool)
        if self.canonical is not None:
            members[list(set().union(*(self.canonical(ap, bp) for ap in A for bp in B)))] = True
            return members
        # Every member lies in the envelope, so only its columns are compared.
        # A, B and the envelope lie in the component of a and b, so every
        # distance read is nonnegative.
        env = self.envelope
        dist_a = self.rows.block(A, np.concatenate((B, env)))
        rows_b = self.rows.block(B, env)
        mab, rows_a = dist_a[:, : len(B), None], dist_a[:, None, len(B) :]
        hit = np.zeros(env.size, dtype=bool)
        step = max(1, _CUBE_CELLS // rows_b.size)
        for t in range(0, len(A), step):
            hit |= (rows_a[t : t + step] + rows_b == mab[t : t + step]).any(axis=(0, 1))
        members[env[hit]] = True
        return members

    # -- intersection clause --

    def violations(self, r: int, cs: list[int]) -> list[int]:
        """The centres of ``cs`` that some family geodesic from N(a;r) to
        N(b;r) avoids, in order: from the level pass where it settled the
        pair, else by the witness search, which keeps the geodesic it found
        for each."""
        if self._first is not None:
            return [c for c in cs if self._first[c] <= r]
        A, B = self._sets_at(r)
        found = ((c, self._search(A, B, c)) for c in cs)
        self._found = (r, {c: path for c, path in found if path is not None})
        return list(self._found[1])

    def witness(self, r: int, c: int) -> Path:
        """A family geodesic from N(a;r) to N(b;r) that avoids N(c;k), for a
        violating centre c: that of the first cell (a', b'), in row-major
        order, that has one; the one ``violations`` found, if it searched."""
        found = self._found[1].get(c) if self._found[0] == r else self._search(*self._sets_at(r), c)
        if found is None:
            raise ClaimViolation(f"centre {c} of pair ({self.a}, {self.b}) violates at radius {r}, but no geodesic avoids it")
        return found

    def _search(self, A: list[int], B: list[int], c: int) -> Path | None:
        hood = set(self._neighborhood(c).tolist())
        found = (self._avoiding_geodesic(ap, bp, hood) for ap, bp in self._cells(A, B, c, hood))
        return next((path for path in found if path is not None), None)

    def _cells(self, A: list[int], B: list[int], c: int, hood: set[int]) -> Iterator[tuple[int, int]]:
        """The cells (a', b') of A x B outside ``hood`` = N(c;k) that might
        hold a geodesic avoiding it, in row-major order, for A = N(a;r) and
        B = N(b;r). For a pair the level pass settled, those where the σ
        test fails or a count too large for it leaves the search to decide
        (``_avoided``), read in slices of rows of at most ``_CUBE_CELLS //
        64`` cells; else all of them."""
        A, B = [ap for ap in A if ap not in hood], [bp for bp in B if bp not in hood]
        if self._first is None or not B:
            yield from itertools.product(A, B)
            return
        step = max(1, _CUBE_CELLS // 64 // len(B))
        for lo in range(0, len(A), step):
            some = A[lo : lo + step]
            ap, bp = np.repeat(some, len(B)), np.tile(B, len(some))
            fails, saturated = _avoided(self.rows, ap, bp, np.full(ap.size, c))
            hit = np.flatnonzero(fails | saturated)
            yield from zip(ap[hit].tolist(), bp[hit].tolist())

    def _avoiding_geodesic(self, ap: int, bp: int, hood: set[int]) -> Path | None:
        # A family geodesic from a' to b' that misses the neighbourhood, or
        # None. The canonical family has one. For all geodesics, mark the
        # shortest-path-DAG vertices outside the neighbourhood that a'
        # reaches through such vertices, level by level, then walk back from
        # b' through the least-id marked predecessor.
        if self.canonical is not None:
            path = self.canonical(ap, bp)
            return Path(path) if hood.isdisjoint(path) else None
        row_a = self.rows[ap]
        d = row_a[bp]
        if d < 0:
            return None
        row_b = self.rows[bp]
        on = np.flatnonzero((row_a >= 0) & (row_b >= 0) & (row_a + row_b == d))
        level = {v: lv for v, lv in zip(on.tolist(), row_a[on].tolist()) if v not in hood}
        if ap not in level or bp not in level:
            return None
        adj = self.g._adj
        reached = {ap}
        for v in sorted(level, key=level.__getitem__):
            closer = level[v] - 1
            if any(u in reached and level[u] == closer for u in adj[v]):
                reached.add(v)
        if bp not in reached:
            return None
        rev = [bp]
        cur = bp
        while cur != ap:
            cur = min(u for u in adj[cur] if u in reached and level[u] == level[cur] - 1)
            rev.append(cur)
        return Path(tuple(rev[::-1]))

"""Annulus covers built from geodesic crossings, with exact bound checks.

The construction: fix a basepoint and a scale, slice the graph into annuli
of width ``10(r+ell)``, and split each annulus ``A_n`` (n >= 3) into one
set per sphere point two annuli below, a set holding exactly the vertices
whose family geodesic to the basepoint crosses that point. Annuli 1 and 2
stay whole. The two claims this construction is supposed to satisfy are
checked exactly, with no tolerance:

* every set has diameter at most ``40(r+ell)``;
* a ball of radius ``floor(r/2)`` meets at most ``2D`` sets, where D is the
  measured boundedness constant of the family.

On a finite truncation the outermost annuli lack the geodesics the
construction relies on, so bounds are asserted on *complete* annuli only
(outer radius at least ``r+ell`` away from the truncation edge); reports
label the incomplete ones. ``Cover.core`` is the part of the complete
region whose balls of a given radius stay inside it, computed once per
radius.

The checks after the build read the sets as one array of sorted int64
keys s*n + v, one per set s and member v: N(x; radius) meets set s
exactly when x lies in the radius-ball of s, so ``multiplicity`` is one
``graphs._set_balls`` expansion of the keys and one ``np.bincount`` over
the vertices.

A family enters only as its step towards the basepoint: the canonical
step, or every neighbour one closer. One propagation in distance order
gives each vertex the union of its steps' anchor sets. It carries an
anchor-set id per vertex in an integer array: a vertex with one step
takes that step's id in one numpy gather per level, and only a vertex
with several steps (the ``all`` family off trees) has its union built in
Python. One lexsort of (anchor, vertex) per annulus gives its sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .geodesics import GeodesicFamily
from .graphs import MetricGraph, _closer_steps, _set_balls, distance_vector, set_diameter

__all__ = [
    "CoverParams",
    "CoverSet",
    "Cover",
    "CoverDiameterReport",
    "MultiplicityReport",
    "build_cover",
    "verify_diameters",
    "multiplicity",
    "asdim_upper_from_D",
    "store_cover",
]


@dataclass(frozen=True)
class CoverParams:
    """Scale parameters; the builder refuses ``ell < 10*delta`` rather than
    clamping, to keep the precondition explicit."""

    r: int
    ell: int
    delta: int
    basepoint: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be at least 1")
        if self.ell < 0 or self.delta < 0:
            raise ValueError("ell and delta must be nonnegative")
        if self.ell < 10 * self.delta:
            raise ValueError(f"ell = {self.ell} violates ell >= 10*delta = {10 * self.delta}")

    @property
    def width(self) -> int:
        return self.r + self.ell

    @property
    def band(self) -> int:
        return 10 * self.width


@dataclass(frozen=True)
class CoverSet:
    """One cover element: annulus index, sphere anchor (None for n in {1,2}),
    and its vertices."""

    n: int
    anchor: int | None
    members: frozenset[int]


@dataclass(frozen=True)
class Cover:
    """The cover of the graph it was built on. ``_keys`` and ``_core_mask``
    take that graph and are built once per cover (and radius)."""

    params: CoverParams
    sets: tuple[CoverSet, ...]
    annuli: dict[int, frozenset[int]]
    spheres: dict[int, frozenset[int]]
    complete: frozenset[int]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_max(self) -> int:
        return max(self.annuli) if self.annuli else 0

    def complete_region(self) -> frozenset[int]:
        out: set[int] = set()
        for n in self.complete:
            out |= self.annuli[n]
        return frozenset(out)

    def core(self, g: MetricGraph, radius: int) -> frozenset[int]:
        """The complete region's vertices farther than ``radius`` from every
        vertex outside it: those whose ``radius``-ball stays inside it."""
        return frozenset(np.flatnonzero(self._core_mask(g, radius)).tolist())

    def _core_mask(self, g: MetricGraph, radius: int) -> np.ndarray:
        """:meth:`core` as a read-only boolean mask over the vertices."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        mask = self._memo.get(("core", radius))
        if mask is None:
            mask = np.zeros(g.vertex_count, dtype=bool)
            for n in self.complete:
                mask[np.fromiter(self.annuli[n], np.int64, len(self.annuli[n]))] = True
            outside = np.flatnonzero(~mask)
            if outside.size and radius:
                mask[_set_balls(g, outside, radius)] = False  # the keys of one set are its vertices
            mask.flags.writeable = False
            self._memo[("core", radius)] = mask
        return mask

    def _keys(self, g: MetricGraph) -> np.ndarray:
        """The sets as sorted int64 keys s*n + v, one per set s and member v
        (n the vertex count)."""
        keys = self._memo.get("keys")
        if keys is None:
            sizes = [len(cs.members) for cs in self.sets]
            members = chain.from_iterable(cs.members for cs in self.sets)
            keys = np.repeat(np.arange(len(sizes), dtype=np.int64) * g.vertex_count, sizes)
            keys += np.fromiter(members, np.int64, keys.size)
            keys.sort(kind="stable")
            keys.flags.writeable = False
            self._memo["keys"] = keys
        return keys

    def eccentricity(self, g: MetricGraph) -> int:
        """The basepoint's eccentricity: the radius of the truncation about it."""
        return int(distance_vector(g, self.params.basepoint).max())


def build_cover(g: MetricGraph, fam: GeodesicFamily, params: CoverParams) -> Cover:
    """Construct the annulus cover anchored at ``params.basepoint``.

    For n >= 3, vertex x of annulus A_n joins the set of anchor s exactly
    when some family geodesic from x to the basepoint passes through s,
    where s runs over the sphere two bands below. Every annulus vertex is
    covered: geodesics to the basepoint cross each intermediate distance
    level. Empty anchor sets are dropped.
    """
    if fam.graph is not g:
        raise ValueError("family is bound to a different graph")
    g.check_vertex(params.basepoint)
    dist = distance_vector(g, params.basepoint).astype(np.int64)
    if (dist < 0).any():
        missing = int(np.flatnonzero(dist < 0)[0])
        raise ValueError(f"basepoint {params.basepoint} does not reach vertex {missing}")
    band = params.band
    d_max = int(dist.max())
    n_max = max(1, -(-d_max // band))

    # One stable sort orders the vertices by (distance, id); level d is
    # the slice order[starts[d] : starts[d + 1]].
    order = np.argsort(dist, kind="stable")
    starts = np.searchsorted(dist[order], np.arange(d_max + 2)).tolist()
    # Every set below gathers its members from one object array, so the
    # sets share one int per vertex.
    vertex = np.arange(g.vertex_count).astype(object)
    order_list = vertex[order].tolist()

    def levels(lo: int, hi: int) -> list[int]:
        return order_list[starts[min(lo, d_max + 1)] : starts[min(hi, d_max) + 1]]

    annuli: dict[int, frozenset[int]] = {}
    spheres: dict[int, frozenset[int]] = {}
    for n in range(1, n_max + 1):
        annuli[n] = frozenset(levels(band * (n - 1), band * n))
        spheres[n] = frozenset(levels(band * n, band * n))

    sets = [CoverSet(n, None, annuli[n]) for n in (1, 2) if annuli.get(n)]
    sets += _anchored_sets(g, dist, order, starts, vertex, band, fam.kind == "canonical")

    complete = frozenset(n for n in annuli if band * n <= d_max - params.width)
    return Cover(
        params=params,
        sets=tuple(sets),
        annuli=annuli,
        spheres=spheres,
        complete=complete,
    )


def _anchored_sets(
    g: MetricGraph,
    dist: np.ndarray,
    order: np.ndarray,
    starts: list[int],
    vertex: np.ndarray,
    band: int,
    canonical: bool,
) -> list[CoverSet]:
    """The sets of the annuli n >= 3, each split by the anchors at level
    band*(n-2) on the family geodesics [x, basepoint] of its vertices x.

    Every vertex carries an anchor-set id. With the ``top`` vertices of
    the anchor level ranked by id, an id k < top stands for the singleton
    of the k-th, and top + i for the i-th union met in the annulus, kept
    as a bitset over the ranks. Level by level out from the anchors, one
    gather copies each vertex's id from its canonical step. In the "all"
    family a vertex with several neighbours one closer then gets the id
    of the union of their sets, in Python; on a tree there are none.
    ``order`` is the (distance, id) vertex order, ``starts`` its level
    bounds and ``vertex`` the ids as Python ints."""
    d_max = len(starts) - 2
    if d_max <= 2 * band:  # no annulus beyond the second
        return []
    steps, ptr, heads = _closer_steps(g, dist)
    # level -> (its vertices with several steps, their steps, how many each)
    multi: dict[int, tuple[np.ndarray, np.ndarray, list[int]]] = {}
    if not canonical:
        counts = np.diff(ptr)
        for d in range(1, d_max + 1):
            level = order[starts[d] : starts[d + 1]]
            vs = level[counts[level] > 1]
            if vs.size:
                c = counts[vs]
                first = np.repeat(ptr[vs] - (np.cumsum(c) - c), c)
                multi[d] = (vs, heads[first + np.arange(int(c.sum()))], c.tolist())
    ids = np.empty(g.vertex_count, dtype=np.int64)
    sets: list[CoverSet] = []
    for n in range(3, -(-d_max // band) + 1):
        base = band * (n - 2)
        anchor_level = order[starts[base] : starts[base + 1]]
        top = anchor_level.size
        ids[anchor_level] = np.arange(top)
        unions: list[int] = []
        for d in range(base + 1, min(band * n, d_max) + 1):
            level = order[starts[d] : starts[d + 1]]
            ids[level] = ids[steps[level]]
            if d in multi:
                vs, nbrs, sizes = multi[d]
                step_ids = ids[nbrs].tolist()
                out = []
                pos = 0
                for c in sizes:
                    group = step_ids[pos : pos + c]
                    pos += c
                    if group.count(group[0]) == c:  # every step carries one id: share it
                        out.append(group[0])
                        continue
                    bits = 0
                    for k in group:
                        bits |= unions[k - top] if k >= top else 1 << k
                    out.append(top + len(unions))
                    unions.append(bits)
                ids[vs] = out
        annulus = order[starts[band * (n - 1)] : starts[min(band * n, d_max) + 1]]
        ranks = ids[annulus]
        several = ranks >= top
        if several.any():
            # One (rank, vertex) pair per bit of each union id.
            width = (top + 7) // 8
            blob = b"".join(unions[k].to_bytes(width, "little") for k in (ranks[several] - top).tolist())
            packed = np.frombuffer(blob, dtype=np.uint8).reshape(-1, width)
            rows, cols = np.nonzero(packed)
            bit_rows, bit = np.nonzero(np.unpackbits(packed[rows, cols][:, None], axis=1, bitorder="little"))
            ranks = np.concatenate((ranks[~several], cols[bit_rows] * 8 + bit))
            annulus = np.concatenate((annulus[~several], annulus[several][rows[bit_rows]]))
        anchors = anchor_level[ranks]
        by = np.lexsort((annulus, anchors))
        anchors, vertices = anchors[by], vertex[annulus[by]].tolist()
        cuts = (np.flatnonzero(anchors[1:] != anchors[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(vertices)]):
            sets.append(CoverSet(n, int(anchors[lo]), frozenset(vertices[lo:hi])))
    return sets


@dataclass(frozen=True)
class CoverDiameterReport:
    max_diameter: int
    bound: int
    passed: bool
    incomplete_annuli: tuple[int, ...]
    incomplete_max_diameter: int | None


def verify_diameters(g: MetricGraph, cover: Cover) -> CoverDiameterReport:
    """Exact max set diameter over complete annuli against ``40(r+ell)``;
    incomplete annuli are measured too but only labeled, never asserted."""
    bound = 40 * cover.params.width
    best = 0
    best_incomplete: int | None = None
    # One batched call. It goes through set_diameter itself, the function
    # perfbench's per-layer diameter metrics trace by name.
    diameters = set_diameter(g, [cs.members for cs in cover.sets], batch=True)
    if None in diameters:
        raise ValueError("cover set spans disconnected vertices")
    for cs, d in zip(cover.sets, diameters):
        if cs.n in cover.complete:
            best = max(best, d)
        else:
            best_incomplete = d if best_incomplete is None else max(best_incomplete, d)
    incomplete = tuple(sorted(set(cover.annuli) - set(cover.complete)))
    return CoverDiameterReport(
        max_diameter=best,
        bound=bound,
        passed=best <= bound,
        incomplete_annuli=incomplete,
        incomplete_max_diameter=best_incomplete,
    )


@dataclass(frozen=True)
class MultiplicityReport:
    radius: int
    max_multiplicity: int
    witness: int | None
    bound_2d: int | None
    passed: bool | None


def multiplicity(
    g: MetricGraph,
    cover: Cover,
    radius: int,
    d_constant: int | None = None,
    complete_only: bool = True,
) -> MultiplicityReport:
    """Max number of cover sets meeting ``N(x; radius)``, by set index;
    the witness is the least vertex attaining a positive max.

    With ``complete_only`` (the claim-checking mode) only vertices whose
    ball stays inside the complete annuli are counted, since the bound is
    a statement about the untruncated construction; without it the raw
    measurement runs over every vertex. The claimed bound is ``2D`` when
    a boundedness constant is supplied.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    keys = cover._keys(g)
    counts = np.bincount(_set_balls(g, keys, radius) % max(g.vertex_count, 1), minlength=g.vertex_count)
    if complete_only:
        counts[~cover._core_mask(g, radius)] = 0
    witness = int(counts.argmax()) if counts.any() else None
    max_mult = 0 if witness is None else int(counts[witness])
    bound = None if d_constant is None else 2 * d_constant
    passed = None if bound is None else max_mult <= bound
    return MultiplicityReport(radius, max_mult, witness, bound, passed)


def asdim_upper_from_D(d_constant: int) -> int:
    """Asymptotic-dimension upper bound ``2D - 1`` from the boundedness
    constant of a geodesic family."""
    if d_constant < 1:
        raise ValueError("D must be at least 1")
    return 2 * d_constant - 1


def store_cover(cover: Cover) -> str:
    """Line format: ``cover r=<r> ell=<ell> base=<id>`` then one line per
    set ``set n=<n> anchor=<id|-> : <member ids sorted>``."""
    p = cover.params
    lines = [f"cover r={p.r} ell={p.ell} base={p.basepoint}"]
    for cs in cover.sets:
        anchor = "-" if cs.anchor is None else str(cs.anchor)
        members = " ".join(str(v) for v in sorted(cs.members))
        lines.append(f"set n={cs.n} anchor={anchor} : {members}")
    return "\n".join(lines) + "\n"

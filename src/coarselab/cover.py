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
region whose balls of a given radius stay inside it.

A family enters only as its step towards the basepoint: the canonical
step, or every neighbour one closer. One propagation in distance order
gives each vertex the union of its steps' anchor sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geodesics import GeodesicFamily
from .graphs import MetricGraph, _bfs, _canonical_step, distance_vector, multi_source_distances, set_diameter

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
    params: CoverParams
    sets: tuple[CoverSet, ...]
    annuli: dict[int, frozenset[int]]
    spheres: dict[int, frozenset[int]]
    complete: frozenset[int]

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
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        region = self.complete_region()
        outside = [v for v in range(g.vertex_count) if v not in region]
        if not outside or radius == 0:
            return region
        dist_out = multi_source_distances(g, outside, cutoff=radius)
        return frozenset(v for v in region if not 0 <= dist_out[v] <= radius)


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

    # One stable sort orders the vertices by (distance, id); every level
    # range [lo, hi] below is a slice of that order.
    order_arr = np.argsort(dist, kind="stable")
    sorted_dist = dist[order_arr]
    order = order_arr.tolist()
    dist_list = dist.tolist()

    def levels(lo: int, hi: int) -> list[int]:
        return order[np.searchsorted(sorted_dist, lo, "left") : np.searchsorted(sorted_dist, hi, "right")]

    annuli: dict[int, frozenset[int]] = {}
    spheres: dict[int, frozenset[int]] = {}
    for n in range(1, n_max + 1):
        annuli[n] = frozenset(levels(band * (n - 1), band * n))
        spheres[n] = frozenset(levels(band * n, band * n))

    sets: list[CoverSet] = []
    for n in (1, 2):
        if n in annuli and annuli[n]:
            sets.append(CoverSet(n, None, annuli[n]))
    canonical = fam.kind == "canonical"
    for n in range(3, n_max + 1):
        if not annuli[n]:
            continue
        zone = levels(band * (n - 2), band * n)
        buckets = _anchor_sets(g._adj, dist_list, zone, band * (n - 2), band * (n - 1), canonical)
        for anchor in sorted(buckets):
            sets.append(CoverSet(n, anchor, frozenset(buckets[anchor])))

    complete = frozenset(n for n in annuli if band * n <= d_max - params.width)
    return Cover(
        params=params,
        sets=tuple(sets),
        annuli=annuli,
        spheres=spheres,
        complete=complete,
    )


def _anchor_sets(adj, dist, zone, level, inner, canonical) -> dict[int, set[int]]:
    """Anchors at ``level`` on the family geodesics [x, basepoint], for x in
    the annulus. ``zone`` holds the vertices from ``level`` outwards by
    (distance, id); those at ``inner`` or beyond form the annulus. A
    vertex's anchor set is the union of its family steps' sets: its
    canonical step, or every neighbour one closer. A vertex with one step
    shares that step's set."""
    anc: dict[int, frozenset[int]] = {}
    buckets: dict[int, set[int]] = {}
    for v in zone:
        dv = dist[v]
        if dv == level:
            mine = frozenset((v,))
        else:
            steps = (_canonical_step(adj, dist, v),) if canonical else [u for u in adj[v] if dist[u] == dv - 1]
            mine = anc[steps[0]] if len(steps) == 1 else frozenset().union(*(anc[u] for u in steps))
        anc[v] = mine
        if dv >= inner:
            for s in mine:
                buckets.setdefault(s, set()).add(v)
    return buckets


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
    """Max number of cover sets meeting ``N(x; radius)``, by set index.

    With ``complete_only`` (the claim-checking mode) only vertices whose
    ball stays inside the complete annuli are counted, since the bound is
    a statement about the untruncated construction; without it the raw
    measurement runs over every vertex. The claimed bound is ``2D`` when
    a boundedness constant is supplied.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    eligible = sorted(cover.core(g, radius)) if complete_only else list(range(g.vertex_count))
    eligible_mask = set(eligible)
    counts: dict[int, int] = {}
    for cs in cover.sets:
        for v in cs.members if radius == 0 else _bfs(g, cs.members, radius):
            if v in eligible_mask:
                counts[v] = counts.get(v, 0) + 1
    max_mult = 0
    witness = None
    for v in eligible:
        c = counts.get(v, 0)
        if c > max_mult:
            max_mult = c
            witness = v
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

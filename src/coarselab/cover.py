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

A cover holds its sets as one incidence: sorted int64 keys s*n + v, one
per set s and member v, beside each set's annulus and anchor. The checks
read these arrays: N(x; radius) meets set s exactly when x lies in the
radius-ball of s, so ``multiplicity`` is one ``graphs._set_balls``
expansion of the keys and one ``np.bincount`` over the vertices.

A family enters only through the steps one level outward from the
basepoint that it keeps: every such step, or for the canonical family the
step into each vertex from its least neighbour one closer. A vertex x
lies on a family geodesic [x, basepoint] through the anchor s exactly
when x lies in s's forward cone along those steps, so one set-labelled
expansion (``graphs._set_cones``) grows every anchor's cone at once, and
its levels two bands out are the anchor's set.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .geodesics import GeodesicFamily
from .graphs import MetricGraph, _set_balls, _set_cones, distance_vector, set_diameter

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


def _set_keys(vertex_count: int, members: Sequence[Sequence[int]]) -> np.ndarray:
    """The keys s*n + v (n = ``vertex_count``) of sets given as ascending members."""
    keys = np.repeat(np.arange(len(members), dtype=np.int64) * vertex_count, list(map(len, members)))
    keys += np.fromiter(chain.from_iterable(members), np.int64, keys.size)
    return keys


def _split_keys(keys: np.ndarray, vertex_count: int, set_count: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Each key's set s and member v; set s holds ``member[bounds[s] : bounds[s + 1]]``."""
    set_id, member = np.divmod(keys, vertex_count)
    return set_id, member, np.searchsorted(set_id, np.arange(set_count + 1)).tolist()


@dataclass(frozen=True, eq=False)
class Cover:
    """A cover as one set incidence: sorted keys s*n + v (n =
    ``vertex_count``) and each set's annulus and anchor (-1 for none).
    ``annuli`` holds each annulus's (inner, outer) distance band about the
    basepoint, ``region`` masks the complete annuli, and ``sets`` is a
    view built on demand."""

    params: CoverParams
    vertex_count: int
    set_count: int
    keys: np.ndarray = field(repr=False)
    set_n: np.ndarray = field(repr=False)
    set_anchor: np.ndarray = field(repr=False)
    annuli: dict[int, tuple[int, int]]
    complete: frozenset[int]
    region: np.ndarray = field(repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_sets(cls, g: MetricGraph, sets: Sequence[CoverSet], **fields) -> Cover:
        """A cover of ``g`` holding ``sets`` as built by hand, with the
        remaining fields given by name; ``sets`` is kept as the view."""
        keys = _set_keys(g.vertex_count, [sorted(cs.members) for cs in sets])
        set_n = np.array([cs.n for cs in sets], np.int64)
        set_anchor = np.array([-1 if cs.anchor is None else cs.anchor for cs in sets], np.int64)
        cov = cls(
            vertex_count=g.vertex_count, set_count=len(sets), keys=keys, set_n=set_n, set_anchor=set_anchor, **fields
        )
        cov.__dict__["sets"] = tuple(sets)
        return cov

    @cached_property
    def sets(self) -> tuple[CoverSet, ...]:
        """The sets as frozensets, with their annuli and anchors."""
        return tuple(CoverSet(n, anchor, frozenset(ms)) for n, anchor, ms in self._runs())

    def _runs(self) -> Iterator[tuple[int, int | None, list[int]]]:
        """Each set's annulus, anchor (None for none) and members ascending."""
        _, member, bounds = _split_keys(self.keys, self.vertex_count, self.set_count)
        vs = member.tolist()
        for n, a, lo, hi in zip(self.set_n.tolist(), self.set_anchor.tolist(), bounds, bounds[1:]):
            yield n, None if a < 0 else a, vs[lo:hi]

    @property
    def n_max(self) -> int:
        return max(self.annuli) if self.annuli else 0

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
            mask = self.region.copy()
            outside = np.flatnonzero(~mask)
            if outside.size and radius:
                mask[_set_balls(g, outside, radius)] = False  # the keys of one set are its vertices
            mask.flags.writeable = False
            self._memo[("core", radius)] = mask
        return mask

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
    dist = distance_vector(g, params.basepoint)
    if (dist < 0).any():
        missing = int(np.flatnonzero(dist < 0)[0])
        raise ValueError(f"basepoint {params.basepoint} does not reach vertex {missing}")
    band = params.band
    d_max = int(dist.max())
    n_max = max(1, -(-d_max // band))
    set_n, set_anchor, keys = _annulus_sets(g, dist, band, n_max, fam.kind == "canonical")
    keys.flags.writeable = False
    complete = frozenset(n for n in range(1, n_max + 1) if band * n <= d_max - params.width)
    return Cover(
        params=params,
        vertex_count=g.vertex_count,
        set_count=set_n.size,
        keys=keys,
        set_n=set_n,
        set_anchor=set_anchor,
        annuli={n: (band * (n - 1), band * n) for n in range(1, n_max + 1)},
        complete=complete,
        region=dist <= band * max(complete, default=-1),
    )


def _annulus_sets(
    g: MetricGraph, dist: np.ndarray, band: int, n_max: int, canonical: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each set's annulus and anchor (-1 for none), and the sorted keys of
    the sets, numbered in (annulus, anchor) order. Annuli 1 and 2 are one
    set each, their distance bands. For n >= 3 every vertex s at level
    band*(n-2) anchors the set of the vertices of A_n in its forward cone,
    those reached from s by steps one level outward along the family: x
    lies in it exactly when a family geodesic [x, basepoint] passes through
    s. One expansion (``graphs._set_cones``) grows every anchor's cone at
    once; the family decides only which steps count. An anchor whose cone
    ends before its annulus leaves an empty set, which is dropped."""
    n = g.vertex_count
    whole = [np.flatnonzero((band * (k - 1) <= dist) & (dist <= band * k)) for k in range(1, min(n_max, 2) + 1)]
    # While the cones grow, each set is numbered by its anchor's id: the
    # frontier then visits the vertices nearer to id order than in
    # (annulus, anchor) order, and its gathers miss the cache less.
    at = np.flatnonzero((dist % band == 0) & (band <= dist) & (dist <= band * (n_max - 2)))
    anchor, member = np.divmod(_set_cones(g, dist, at * (n + 1), band, 2 * band, canonical), n)
    # The nonempty sets, numbered after annuli 1 and 2 in (annulus, anchor) order.
    held = np.zeros(n, dtype=bool)
    held[anchor] = True
    held = np.flatnonzero(held)
    held = held[np.argsort(dist[held], kind="stable")]
    rank = np.empty(n, dtype=np.int64)
    rank[held] = np.arange(2, 2 + held.size)
    keys = rank[anchor] * n + member
    keys.sort()
    set_n = np.concatenate((np.arange(1, len(whole) + 1), dist[held] // band + 2))
    set_anchor = np.concatenate((np.full(len(whole), -1), held))
    return set_n, set_anchor, np.concatenate([k * n + vs for k, vs in enumerate(whole)] + [keys])


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
    # One batched call on the keys. It goes through set_diameter itself,
    # the function perfbench's per-layer diameter metrics trace by name.
    diameters = set_diameter(g, cover.keys, batch=True)
    if len(diameters) < cover.set_count:  # the last sets hold no keys
        raise ValueError("set_diameter of an empty set")
    if None in diameters:
        raise ValueError("cover set spans disconnected vertices")
    diameters = np.asarray(diameters, dtype=np.int64)
    in_complete = np.isin(cover.set_n, list(cover.complete))
    best = int(diameters[in_complete].max(initial=0))
    best_incomplete = None if in_complete.all() else int(diameters[~in_complete].max())
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
    counts = np.bincount(_set_balls(g, cover.keys, radius) % max(g.vertex_count, 1), minlength=g.vertex_count)
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
    for n, anchor, members in cover._runs():
        lines.append(f"set n={n} anchor={'-' if anchor is None else anchor} : {' '.join(map(str, members))}")
    return "\n".join(lines) + "\n"

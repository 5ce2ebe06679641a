"""Partition-of-unity pipeline: fattened covers, exact rational weights,
anchored ℓ¹ maps, and their variation bounds.

Starting from an annulus cover built at scale ``10r`` (so its ``5r``-ball
multiplicity bound applies), every set is fattened by ``2r``. The fattened
cover has r as a Lebesgue number, each point x gets exact rational weights

    phi_V(x) = d(x, complement of V) / sum_W d(x, complement of W),

each set V an anchor point x_V maximizing its complement distance, and x
the finitely supported probability vector a_x = sum_V phi_V(x) * delta_{x_V}.

Everything in this module is exact. A point's weights are integers: its
depth profile (set -> d(x, complement)) gives the numerators, and their
total is the one shared denominator; folding the profile onto the anchors
gives the numerators of a_x. Sums to one are integer equalities and all
inequality checks are integer cross-multiplications. ``fractions.Fraction``
values appear only at the public boundary: ``phi``, ``a1_map``/``A1Map``,
``variation`` and the fields of the reports. No floats appear anywhere.

A fat cover holds its sets as one incidence array: sorted int64 keys
i*n + v, one per set i and member v, with an aligned array of depths
d(v, complement of set i). One expansion of the base cover's keys by 2r
(``graphs._set_balls``) fattens every set at once, and one inward
expansion over the fattened keys (``graphs._set_depths``) gives the
depths. The order, the Lebesgue check and the support radius are
reductions over these arrays; frozensets and dicts of the sets
(``FatCover.sets``, ``FatCover.sets_of``) are built only when asked for.

The whole-core stages (anchors, ``check_a1_maps``, ``variation_sweep``,
``store_a1_maps``) run on integer numpy arrays held once per cover,
``FatCover.profiles``: one row per safe vertex, one padded slot per set
holding it (set id, depth, the set's anchor). Folding onto the anchors,
totals, positivity and support counts are row reductions; the sweep runs
over the graph's CSR edge list restricted to the safe core. The arrays are
int64 while a bound from the largest total shows that no product in the
sweep can reach 2^63; past it the same code runs on Python ints
(``dtype=object``). The pointwise ``phi``, ``a1_map`` and ``variation``
look up x in the incidence keys set by set, apart from the profiles, and
serve as their oracles.

On a truncation, bounds are only asserted on the safe core: vertices whose
``5r``-ball stays inside the complete annuli of the base cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .cover import Cover, CoverDiameterReport, CoverParams, _set_keys, _split_keys, build_cover, verify_diameters
from .geodesics import ClaimViolation, GeodesicFamily
from .graphs import MetricGraph, _find, _set_balls, _set_depths, distance, distance_vector

__all__ = [
    "ScopeTooSmallError",
    "ClaimViolation",
    "FatCoverOrderError",
    "FatSet",
    "FatCover",
    "A1Map",
    "A1MapsReport",
    "DepthProfiles",
    "VariationReport",
    "VariationSweepReport",
    "LebesgueReport",
    "build_fat_cover",
    "lebesgue_check",
    "phi",
    "a1_map",
    "check_a1_maps",
    "variation",
    "variation_sweep",
    "store_a1_maps",
]


class ScopeTooSmallError(RuntimeError):
    """The truncation cannot host the construction at this scale."""


class FatCoverOrderError(ClaimViolation):
    """A safe vertex lies in more than 2D fattened sets, contradicting the
    verified multiplicity premise."""


@dataclass(frozen=True)
class FatSet:
    """A fattened cover set with its interior depth map d(x, complement)."""

    origin_n: int
    origin_anchor: int | None
    members: frozenset[int]
    depth: dict[int, int] = field(repr=False)


@dataclass(frozen=True, eq=False)
class FatCover:
    """The fattened sets as one incidence: ``keys`` holds the sorted int64
    keys i*n + v, one per set i and member v (n = ``vertex_count``), and
    ``depth``, aligned with it, d(v, complement of set i), or 0 where v
    has no path to the complement. ``sets`` and ``sets_of`` are views of
    them built on demand; the pipeline reads only the arrays."""

    r: int
    d_constant: int
    base: Cover | None
    vertex_count: int
    set_count: int
    keys: np.ndarray = field(repr=False)
    depth: np.ndarray = field(repr=False)
    diam_base: int
    safe: frozenset[int]
    order_max: int
    # The base cover's diameter check, made once while building; hand-built
    # covers have none.
    base_diameters: CoverDiameterReport | None = field(default=None, repr=False)

    @classmethod
    def from_sets(cls, g: MetricGraph, sets: Sequence[FatSet], **fields) -> FatCover:
        """A cover of ``g`` holding ``sets`` as built by hand, with the
        remaining fields given by name; ``sets`` is kept as the view."""
        members = [sorted(fs.members) for fs in sets]
        depth = np.asarray([fs.depth.get(v, 0) for fs, ms in zip(sets, members) for v in ms], np.int64)
        fc = cls(
            vertex_count=g.vertex_count, set_count=len(sets), keys=_set_keys(g.vertex_count, members), depth=depth, **fields
        )
        fc.__dict__["sets"] = tuple(sets)
        return fc

    @cached_property
    def sets(self) -> tuple[FatSet, ...]:
        """The sets as frozensets with their depth dicts, each with its
        origin in the base cover."""
        _, vertex, bounds = _split_keys(self.keys, self.vertex_count, self.set_count)
        vs, ds = vertex.tolist(), self.depth.tolist()
        return tuple(
            FatSet(n, None if a < 0 else a, frozenset(vs[lo:hi]), {v: d for v, d in zip(vs[lo:hi], ds[lo:hi]) if d})
            for n, a, lo, hi in zip(self.base.set_n.tolist(), self.base.set_anchor.tolist(), bounds, bounds[1:])
        )

    @cached_property
    def sets_of(self) -> dict[int, tuple[int, ...]]:
        """Vertex -> the ids of the sets holding it, ascending."""
        set_id, vertex = np.divmod(self.keys, self.vertex_count)
        out: dict[int, list[int]] = {}
        for i, v in zip(set_id.tolist(), vertex.tolist()):  # keys run in set order
            out.setdefault(v, []).append(i)
        return {v: tuple(ix) for v, ix in out.items()}

    @cached_property
    def profiles(self) -> DepthProfiles:
        """The safe core's depth profiles as integer arrays, built once per
        cover; see :class:`DepthProfiles`."""
        return _depth_profiles(self)

    @cached_property
    def anchor_fold(self) -> tuple[np.ndarray, np.ndarray]:
        """The safe core's profiles folded onto their anchors, read-only,
        built once per cover; see :func:`_anchor_fold`."""
        fold = _anchor_fold(self.profiles)
        for part in fold:
            part.flags.writeable = False
        return fold

    @cached_property
    def anchors(self) -> dict[int, int]:
        """Anchor of each set: the member deepest inside it, least id on
        ties, so its weight against the set is nonzero. Computed once per
        cover."""
        return dict(enumerate(self.profiles.set_anchor.tolist()))


class DepthProfiles(NamedTuple):
    """Depth profiles of the safe core in padded slots. Row k belongs to
    ``vertex[k]``, the safe vertices ascending; its slots hold the sets
    containing it in ascending id order, then padding (set -1, depth 0,
    anchor -1). All arrays are int64."""

    vertex: np.ndarray  # (rows,)
    set_id: np.ndarray  # (rows, width)
    depth: np.ndarray  # (rows, width): d(vertex, complement of the set)
    anchor: np.ndarray  # (rows, width): the anchor of the slot's set
    set_anchor: np.ndarray  # (sets,): the anchor of every set


@dataclass(frozen=True)
class A1Map:
    """Finitely supported exact probability vector attached to x."""

    x: int
    entries: dict[int, Fraction]

    def l1_norm(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))


def build_fat_cover(
    g: MetricGraph,
    fam: GeodesicFamily,
    r: int,
    delta: int,
    d_constant: int,
    basepoint: int,
    ell: int | None = None,
) -> FatCover:
    """Base cover at scale 10r, every set fattened by 2r.

    ``d_constant`` is the measured boundedness constant of the family; the
    fattened cover must have order at most ``2 * d_constant`` on the safe
    core, and a violation raises :class:`FatCoverOrderError` since it
    contradicts a verified premise. A fattened set swallowing the whole
    scope (or an empty safe core) raises :class:`ScopeTooSmallError`.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if d_constant < 1:
        raise ValueError("d_constant must be at least 1")
    if ell is None:
        ell = 10 * delta
    params = CoverParams(r=10 * r, ell=ell, delta=delta, basepoint=basepoint)
    base = build_cover(g, fam, params)

    base_diameters = verify_diameters(g, base)
    diam_base = max(base_diameters.max_diameter, base_diameters.incomplete_max_diameter or 0)

    n = g.vertex_count
    keys = _set_balls(g, base.keys, 2 * r)
    if (np.bincount(keys // n, minlength=base.set_count) == n).any():
        raise ScopeTooSmallError(
            f"scope too small for r={r}: a fattened set covers the whole truncation; the fattening "
            f"needs radius 2r = {2 * r} about each set of the base cover (band {base.params.band}), "
            f"and the truncation has radius {base.eccentricity(g)} about the basepoint"
        )

    safe = base._core_mask(g, 5 * r)
    if not safe.any():
        reach = base.params.band * max(base.complete, default=0)  # the complete region's radius
        raise ScopeTooSmallError(
            f"scope too small for r={r}: empty safe core; it needs radius 5r = {5 * r} inside the "
            f"complete annuli, which reach radius {reach} about the basepoint (eccentricity "
            f"{base.eccentricity(g)})"
        )

    order_max = int(np.bincount(keys % n, minlength=n)[safe].max())
    if order_max > 2 * d_constant:
        raise FatCoverOrderError(
            f"fattened cover has order {order_max} > 2D = {2 * d_constant} on the safe core"
        )
    return FatCover(
        r=r,
        d_constant=d_constant,
        base=base,
        vertex_count=n,
        set_count=base.set_count,
        keys=keys,
        depth=_set_depths(g, keys),
        diam_base=diam_base,
        safe=frozenset(np.flatnonzero(safe).tolist()),
        order_max=order_max,
        base_diameters=base_diameters,
    )


@dataclass(frozen=True)
class LebesgueReport:
    passed: bool
    radius: int
    witness: int | None


def lebesgue_check(g: MetricGraph, fc: FatCover) -> LebesgueReport:
    """Every ball of radius floor((r-1)/2) (diameter < r) must sit inside
    one fattened set; for r = 1 this reduces to plain coverage. The ball
    of a member x sits inside its set exactly when d(x, complement) > rad,
    or x has no path to the complement; the witness is the least vertex
    whose ball sits in no set."""
    rad = (fc.r - 1) // 2
    inside = (fc.depth > rad) | (fc.depth == 0)
    held = np.bincount(fc.keys[inside] % fc.vertex_count, minlength=g.vertex_count)
    missing = np.flatnonzero(held == 0)
    return LebesgueReport(False, rad, int(missing[0])) if missing.size else LebesgueReport(True, rad, None)


def phi(g: MetricGraph, fc: FatCover, x: int) -> dict[int, Fraction]:
    """Exact rational weights of x against the fattened sets; zero entries
    are omitted and the returned values sum to exactly 1."""
    g.check_vertex(x)
    depths, total = _weights(fc, x)
    return {i: Fraction(d, total) for i, d in sorted(depths.items())}


def _weights(fc: FatCover, x: int) -> tuple[dict[int, int], int]:
    """phi(x) in integers: the depth profile of x, whose values are the
    numerators, and their total, the shared denominator. Raises as
    :func:`phi` does when the total is 0 or below r."""
    pos, held = _find(fc.keys, np.arange(fc.set_count, dtype=np.int64) * fc.vertex_count + x)
    held[held] = fc.depth[pos[held]] > 0
    depths = dict(zip(np.flatnonzero(held).tolist(), fc.depth[pos[held]].tolist()))
    total = sum(depths.values())
    _check_total(fc, x, total)
    return depths, total


def _check_total(fc: FatCover, x: int, total: int) -> None:
    if total == 0:
        raise ValueError(
            f"vertex {x} has no positive complement distance: either it is "
            "uncovered or every set containing it has an empty complement"
        )
    if total < fc.r:
        raise ClaimViolation(
            f"Lebesgue consequence failed at vertex {x}: complement-distance sum "
            f"{total} < r = {fc.r}"
        )


def _anchor_numerators(depths: dict[int, int], anchors: dict[int, int]) -> dict[int, int]:
    """Fold a depth profile onto the anchors: the numerators of a_x over
    the profile's total."""
    nums: dict[int, int] = {}
    for i, d in depths.items():
        z = anchors[i]
        nums[z] = nums.get(z, 0) + d
    return nums


def a1_map(g: MetricGraph, fc: FatCover, x: int) -> A1Map:
    """The probability vector a_x: weight phi_V(x) placed at the anchor of
    each set containing x; colliding anchors accumulate."""
    anchors = fc.anchors
    entries: dict[int, Fraction] = {}
    for i, w in phi(g, fc, x).items():
        z = anchors[i]
        entries[z] = entries[z] + w if z in entries else w
    return A1Map(x, dict(sorted(entries.items())))


# -- the safe core as integer arrays ------------------------------------


def _depth_profiles(fc: FatCover) -> DepthProfiles:
    """:class:`DepthProfiles` from the members of positive depth; a set
    with none raises."""
    inner = fc.depth > 0
    set_id, vertex = np.divmod(fc.keys[inner], fc.vertex_count)
    depth = fc.depth[inner]

    # Anchors: per set, the deepest member, least id on ties.
    order = np.lexsort((vertex, -depth, set_id))
    by_set = set_id[order]
    lead = np.ones(by_set.size, dtype=bool)
    lead[1:] = by_set[1:] != by_set[:-1]
    set_anchor = np.full(fc.set_count, -1, dtype=np.int64)
    set_anchor[by_set[lead]] = vertex[order][lead]
    empty = np.flatnonzero(set_anchor < 0)
    if empty.size:
        raise ValueError(f"fattened set {empty[0]} has empty interior")

    # Safe rows; the entries run in ascending set order, so a stable sort
    # by row keeps each row's sets ascending.
    safe = np.sort(np.fromiter(fc.safe, np.int64, len(fc.safe)))
    is_safe = np.zeros(fc.vertex_count, dtype=bool)
    is_safe[safe] = True
    on_safe = is_safe[vertex]
    row = np.searchsorted(safe, vertex[on_safe])
    order = np.argsort(row, kind="stable")
    row, set_id, depth = row[order], set_id[on_safe][order], depth[on_safe][order]
    counts = np.bincount(row, minlength=len(safe))
    width = max(1, int(counts.max(initial=0)))
    slot = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    slots = np.full((len(safe), width), -1, dtype=np.int64)
    slots[row, slot] = set_id
    depths = np.zeros((len(safe), width), dtype=np.int64)
    depths[row, slot] = depth
    anchor = np.where(slots >= 0, set_anchor[slots], -1)
    return DepthProfiles(safe, slots, depths, anchor, set_anchor)


def _totals(fc: FatCover, p: DepthProfiles) -> np.ndarray:
    """Each safe vertex's total depth, its weights' shared denominator.
    Raises as :func:`phi` does at the least vertex whose total is 0 or
    below r."""
    total = p.depth.sum(axis=1)
    low = np.flatnonzero(total < fc.r)
    if low.size:
        _check_total(fc, int(p.vertex[low[0]]), int(total[low[0]]))
    return total


def _anchor_fold(p: DepthProfiles) -> tuple[np.ndarray, np.ndarray]:
    """Fold each row's slots onto their anchors: the anchors ascending,
    each with the summed depth of its sets (the numerators of a_x over the
    row's total), then padding (anchor -1, numerator 0)."""
    held = p.set_id >= 0
    num = np.zeros_like(p.depth)
    lead = held.copy()  # a slot leads its anchor when no earlier slot shares it
    for i in range(held.shape[1]):
        for j in range(held.shape[1]):
            same = held[:, j] & (p.anchor[:, j] == p.anchor[:, i])
            num[:, i] += p.depth[:, j] * same
            if j < i:
                lead[:, i] &= ~same
    key = np.where(lead, p.anchor, np.iinfo(np.int64).max)
    order = np.argsort(key, axis=1, kind="stable")
    lead = np.take_along_axis(lead, order, axis=1)
    return (
        np.where(lead, np.take_along_axis(key, order, axis=1), -1),
        np.where(lead, np.take_along_axis(num, order, axis=1), 0),
    )


@dataclass(frozen=True)
class A1MapsReport:
    """The identities of the maps a_x over the safe core. ``widest`` is
    the first vertex of largest support and ``widest_phi`` its weights as
    the arrays give them, for comparison with :func:`phi`."""

    checked: int
    norm_ok: bool
    positive_ok: bool
    max_support: int
    widest: int
    widest_phi: dict[int, Fraction]
    support_radius_bound: int
    support_radius_ok: bool


def check_a1_maps(g: MetricGraph, fc: FatCover) -> A1MapsReport:
    """Check a_x = sum_V (d(x, V^c) / total) delta_{anchor V} on every safe
    vertex, on its integer numerators: they sum to the total, each is
    positive, and their count is the support. Raises as :func:`phi` does at
    the least vertex whose total is 0 or below r, so every total checked
    is at least r. The support radius holds when every member of every set
    is within ``4r + diam_base`` of the set's anchor, since the support
    points of a_x are anchors of sets containing x."""
    p = fc.profiles
    total = _totals(fc, p)
    fold_anchor, fold_num = fc.anchor_fold
    held = fold_anchor >= 0
    support = held.sum(axis=1)
    k = int(support.argmax())
    bound = 4 * fc.r + fc.diam_base
    return A1MapsReport(
        checked=len(p.vertex),
        norm_ok=bool((fold_num.sum(axis=1) == total).all()),
        positive_ok=bool((fold_num > 0)[held].all()),
        max_support=int(support[k]),
        widest=int(p.vertex[k]),
        widest_phi={
            i: Fraction(d, int(total[k])) for i, d in zip(p.set_id[k].tolist(), p.depth[k].tolist()) if i >= 0
        },
        support_radius_bound=bound,
        support_radius_ok=_support_radius_ok(g, fc, bound),
    )


def _support_radius_ok(g: MetricGraph, fc: FatCover, bound: int) -> bool:
    anchors = fc.profiles.set_anchor
    set_id, members, bounds = _split_keys(fc.keys, fc.vertex_count, fc.set_count)
    if g.is_tree:
        return bool((g.tree_metric().pair_distances(anchors[set_id], members) <= bound).all())
    for anchor, lo, hi in zip(anchors.tolist(), bounds, bounds[1:]):
        if distance_vector(g, anchor)[members[lo:hi]].max(initial=-1) > bound:
            return False
    return True


# -- variation ------------------------------------------------------------


@dataclass(frozen=True)
class VariationReport:
    distance: int
    l1: Fraction
    max_phi_diff: Fraction
    complement_diff_sum: int


def variation(g: MetricGraph, fc: FatCover, z: int, w: int) -> VariationReport:
    """Exact ||a_z - a_w||_1 plus the two intermediate quantities the
    variation bound chains through: the largest per-set weight difference
    and the summed complement-distance displacement."""
    g.check_vertex(z)
    pz, sz = _weights(fc, z)
    g.check_vertex(w)
    pw, sw = _weights(fc, w)
    comp = sum(abs(pz.get(i, 0) - pw.get(i, 0)) for i in pz.keys() | pw.keys())
    phi_num = max((abs(pz.get(i, 0) * sw - pw.get(i, 0) * sz) for i in pz.keys() | pw.keys()), default=0)
    nz = _anchor_numerators(pz, fc.anchors)
    nw = _anchor_numerators(pw, fc.anchors)
    l1_num = sum(abs(nz.get(v, 0) * sw - nw.get(v, 0) * sz) for v in nz.keys() | nw.keys())
    d = distance(g, z, w)
    if d is None:
        raise ValueError(f"vertices {z} and {w} are unreachable from each other")
    return VariationReport(
        distance=d, l1=Fraction(l1_num, sz * sw), max_phi_diff=Fraction(phi_num, sz * sw), complement_diff_sum=comp
    )


@dataclass(frozen=True)
class VariationSweepReport:
    pairs_checked: int
    sup_l1: Fraction
    sup_phi_diff: Fraction
    l1_bound: Fraction
    phi_bound: Fraction
    complement_bound: int
    l1_ok: bool
    phi_ok: bool
    complement_ok: bool
    step_ok: bool
    witness_pair: tuple[int, int] | None


# Largest value an int64 product may take. When a bound from the largest
# total exceeds it, the sweep runs its array code on Python ints.
_INT64_MAX = 2**63 - 1

# Adjacent pairs per block of the sweep.
_SWEEP_BLOCK = 2**12


def variation_sweep(g: MetricGraph, fc: FatCover) -> VariationSweepReport:
    """Check every adjacent safe pair against the exact variation bounds.

    For adjacent z, w (distance 1, so K = 1) the chain gives, with
    D = ``fc.d_constant``:

    * per set, |d(z, complement) - d(w, complement)| <= 1;
    * the summed displacement is at most 4D;
    * per set, |phi(z) - phi(w)| <= (4D+1)/r;
    * ||a_z - a_w||_1 <= (4D+1)^2 / r.

    The pairs are the graph's edges z < w inside the safe core, taken
    together as arrays. Over the denominator ``s_z * s_w`` (the product
    of the totals) the per-set differences are |d_z s_w - d_w s_z| and
    the l1 distance sums |n_z s_w - n_w s_z| over the anchor numerators.
    All comparisons are integer cross-multiplications; the returned sups
    are exact fractions, and the witness is the first pair in (z, w) order
    that attains the l1 sup.
    """
    dd = fc.d_constant
    r = fc.r
    phi_top = 4 * dd + 1  # the phi bound is phi_top / r, the l1 bound l1_top / r
    l1_top = phi_top * phi_top
    comp_bound = 4 * dd

    p = fc.profiles
    fold_anchor, fold_num = fc.anchor_fold
    depth, total = p.depth, p.depth.sum(axis=1)
    top = int(total.max(initial=0))
    # l1 numerators reach 2 s_z s_w <= 2 top^2; the largest product is one
    # of them times a denominator, r or l1_top.
    if 2 * top * top * max(top * top, r, l1_top) > _INT64_MAX:
        depth, fold_num, total = depth.astype(object), fold_num.astype(object), total.astype(object)

    indptr, indices = g.csr_arrays()
    tail = np.repeat(np.arange(g.vertex_count, dtype=indices.dtype), np.diff(indptr))
    safe = np.zeros(g.vertex_count, dtype=bool)
    safe[p.vertex] = True
    pick = (tail < indices) & safe[tail] & safe[indices]
    row_z = np.searchsorted(p.vertex, tail[pick])
    row_w = np.searchsorted(p.vertex, indices[pick])
    den = total[row_z] * total[row_w]

    # Blocks of pairs bound the (pairs x width) temporaries.
    phi_num = np.zeros(len(den), dtype=depth.dtype)
    l1_num = np.zeros(len(den), dtype=depth.dtype)
    step_ok = comp_ok = True
    for lo in range(0, len(den), _SWEEP_BLOCK):
        block = slice(lo, lo + _SWEEP_BLOCK)
        z, w = row_z[block], row_w[block]
        step, cross = _pair_diffs(p.set_id, depth, total, z, w)
        step_ok = step_ok and bool((step <= 1).all())
        comp_ok = comp_ok and bool((step.sum(axis=1) <= comp_bound).all())
        phi_num[block] = cross.max(axis=1)
        l1_num[block] = _pair_diffs(fold_anchor, fold_num, total, z, w)[1].sum(axis=1)

    best_phi = _first_max(phi_num, den)
    best_l1 = _first_max(l1_num, den)
    return VariationSweepReport(
        pairs_checked=len(den),
        sup_l1=Fraction(int(l1_num[best_l1]), int(den[best_l1])) if best_l1 is not None else Fraction(0),
        sup_phi_diff=Fraction(int(phi_num[best_phi]), int(den[best_phi])) if best_phi is not None else Fraction(0),
        l1_bound=Fraction(l1_top, r),
        phi_bound=Fraction(phi_top, r),
        complement_bound=comp_bound,
        l1_ok=bool((l1_num * r <= l1_top * den).all()),
        phi_ok=bool((phi_num * r <= phi_top * den).all()),
        complement_ok=comp_ok,
        step_ok=step_ok,
        witness_pair=(int(p.vertex[row_z[best_l1]]), int(p.vertex[row_w[best_l1]])) if best_l1 is not None else None,
    )


def _pair_diffs(
    keys: np.ndarray, vals: np.ndarray, total: np.ndarray, z: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Line up the padded (key, value) rows of each pair z, w (keys unique
    within a row, -1 pads), a key a row lacks having value 0 there. Over
    z's slots, then over w's slots whose key z lacks, return the steps
    |v_z - v_w| and the cross differences |v_z s_w - v_w s_z|, s being the
    row totals."""
    kz, kw, vz, vw = keys[z], keys[w], vals[z], vals[w]
    at_z = np.zeros(kz.shape, dtype=vals.dtype)  # w's value at each key of z
    w_only = vw.copy()
    for i in range(kz.shape[1]):
        held = kz[:, i] >= 0
        for j in range(kw.shape[1]):
            eq = (kz[:, i] == kw[:, j]) & held
            at_z[:, i] += vw[:, j] * eq
            w_only[:, j] *= ~eq
    sz, sw = total[z, None], total[w, None]
    step = np.concatenate([abs(vz - at_z), w_only], axis=1)
    cross = np.concatenate([abs(vz * sw - at_z * sz), w_only * sz], axis=1)
    return step, cross


def _first_max(num: np.ndarray, den: np.ndarray) -> int | None:
    """Index of the first pair with the largest num/den, by a pairwise
    tournament of exact cross-multiplications; ``None`` when no ratio is
    positive. A zero denominator comes with a zero numerator and counts
    as 0."""
    den = np.where(den == 0, 1, den)
    idx = np.arange(len(num))
    while idx.size > 1:
        # Each entry holds the first maximum of a run of pairs; the later
        # of two neighbouring runs wins only with a strictly larger ratio.
        even = idx.size - idx.size % 2
        a, b = idx[0:even:2], idx[1:even:2]
        idx = np.concatenate([np.where(num[b] * den[a] > num[a] * den[b], b, a), idx[even:]])
    return int(idx[0]) if idx.size and num[idx[0]] > 0 else None


def store_a1_maps(g: MetricGraph, fc: FatCover) -> str:
    """Dump format: one line per safe vertex,
    ``a x=<id> : <anchor>=<num>/<den> ...`` with anchors ascending and
    every weight in lowest terms."""
    p = fc.profiles
    total = _totals(fc, p)[:, None]
    fold_anchor, fold_num = fc.anchor_fold
    div = np.gcd(fold_num, total)
    held = fold_anchor >= 0
    entries = [
        f"{z}={n}/{d}"
        for z, n, d in zip(fold_anchor[held].tolist(), (fold_num // div)[held].tolist(), (total // div)[held].tolist())
    ]
    ends = np.cumsum(held.sum(axis=1)).tolist()
    lines = [f"a x={x} : " + " ".join(entries[s:e]) for x, s, e in zip(p.vertex.tolist(), [0] + ends[:-1], ends)]
    return "\n".join(lines) + "\n"

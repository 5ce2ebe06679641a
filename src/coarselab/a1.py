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

On a truncation, bounds are only asserted on the safe core: vertices whose
``5r``-ball stays inside the complete annuli of the base cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .cover import Cover, CoverParams, build_cover
from .geodesics import GeodesicFamily
from .graphs import MetricGraph, _bfs, distance, multi_source_distances, set_diameter

__all__ = [
    "ScopeTooSmallError",
    "ClaimViolation",
    "FatCoverOrderError",
    "FatSet",
    "FatCover",
    "A1Map",
    "VariationReport",
    "VariationSweepReport",
    "LebesgueReport",
    "build_fat_cover",
    "lebesgue_check",
    "phi",
    "select_anchors",
    "a1_map",
    "variation",
    "variation_sweep",
    "store_a1_maps",
]


class ScopeTooSmallError(RuntimeError):
    """The truncation cannot host the construction at this scale."""


class ClaimViolation(RuntimeError):
    """A verified claim of the construction failed: a theorem alarm that
    must never fire on correct code and true premises."""


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


@dataclass(frozen=True)
class FatCover:
    r: int
    d_constant: int
    base: Cover
    sets: tuple[FatSet, ...]
    sets_of: dict[int, tuple[int, ...]] = field(repr=False)
    diam_base: int
    safe: frozenset[int]
    order_max: int

    @cached_property
    def anchors(self) -> dict[int, int]:
        """Anchor of each set: the member deepest inside it, least id on
        ties. Computed once per cover; see :func:`select_anchors`."""
        anchors: dict[int, int] = {}
        for i, fs in enumerate(self.sets):
            best_depth = 0
            best_v: int | None = None
            for v in sorted(fs.members):
                d = fs.depth.get(v, 0)
                if d > best_depth:
                    best_depth = d
                    best_v = v
            if best_v is None:
                raise ValueError(f"fattened set {i} has empty interior")
            anchors[i] = best_v
        return anchors


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

    diameters = set_diameter(g, [cs.members for cs in base.sets], batch=True)
    if None in diameters:
        raise ValueError("cover set spans disconnected vertices")
    diam_base = max(diameters, default=0)

    n = g.vertex_count
    fat_sets: list[FatSet] = []
    for cs in base.sets:
        members = frozenset(_bfs(g, cs.members, 2 * r))
        if len(members) == n:
            raise ScopeTooSmallError(
                f"scope too small for r={r}: a fattened set covers the whole truncation"
            )
        fat_sets.append(FatSet(cs.n, cs.anchor, members, _interior_depths(g, members)))

    sets_of: dict[int, list[int]] = {}
    for i, fs in enumerate(fat_sets):
        for v in fs.members:
            sets_of.setdefault(v, []).append(i)

    region = base.complete_region()
    outside = [v for v in range(n) if v not in region]
    if outside:
        dist_out = multi_source_distances(g, outside, cutoff=5 * r)
        safe = frozenset(v for v in region if not 0 <= dist_out[v] <= 5 * r)
    else:
        safe = frozenset(region)
    if not safe:
        raise ScopeTooSmallError(f"scope too small for r={r}: empty safe core")

    order_max = max(len(sets_of.get(v, ())) for v in safe)
    if order_max > 2 * d_constant:
        raise FatCoverOrderError(
            f"fattened cover has order {order_max} > 2D = {2 * d_constant} on the safe core"
        )
    return FatCover(
        r=r,
        d_constant=d_constant,
        base=base,
        sets=tuple(fat_sets),
        sets_of={v: tuple(ix) for v, ix in sets_of.items()},
        diam_base=diam_base,
        safe=safe,
        order_max=order_max,
    )


def _interior_depths(g: MetricGraph, members: frozenset[int]) -> dict[int, int]:
    """d(x, complement) for every x in the set.

    A shortest path to the complement stays inside the set until its final
    step, so a BFS inside the induced subgraph seeded with the boundary-
    adjacent vertices at depth 1 is exact.
    """
    adj = g._adj
    boundary = [v for v in members if any(w not in members for w in adj[v])]
    # A member with no path to the complement can only happen when the set
    # is the whole component; the builder rejects that case upstream.
    depth = _bfs(g, boundary, within=members)
    for v in depth:
        depth[v] += 1
    return depth


@dataclass(frozen=True)
class LebesgueReport:
    passed: bool
    radius: int
    witness: int | None


def lebesgue_check(g: MetricGraph, fc: FatCover) -> LebesgueReport:
    """Every ball of radius floor((r-1)/2) (diameter < r) must sit inside
    one fattened set; for r = 1 this reduces to plain coverage."""
    rad = (fc.r - 1) // 2
    for x in range(g.vertex_count):
        candidates = fc.sets_of.get(x, ())
        if not candidates:
            return LebesgueReport(False, rad, x)
        if rad == 0:
            continue
        ball_x = _bfs(g, (x,), rad).keys()
        if not any(ball_x <= fc.sets[i].members for i in candidates):
            return LebesgueReport(False, rad, x)
    return LebesgueReport(True, rad, None)


def phi(g: MetricGraph, fc: FatCover, x: int) -> dict[int, Fraction]:
    """Exact rational weights of x against the fattened sets; zero entries
    are omitted and the returned values sum to exactly 1."""
    g.check_vertex(x)
    depths, total = _weights(fc, x)
    return {i: Fraction(d, total) for i, d in sorted(depths.items())}


def _depth_profile(fc: FatCover, x: int) -> dict[int, int]:
    return {i: fc.sets[i].depth[x] for i in fc.sets_of.get(x, ()) if x in fc.sets[i].depth}


def _weights(fc: FatCover, x: int) -> tuple[dict[int, int], int]:
    """phi(x) in integers: the depth profile of x, whose values are the
    numerators, and their total, the shared denominator. Raises as
    :func:`phi` does when the total is 0 or below r."""
    depths = _depth_profile(fc, x)
    total = sum(depths.values())
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
    return depths, total


def _anchor_numerators(depths: dict[int, int], anchors: dict[int, int]) -> dict[int, int]:
    """Fold a depth profile onto the anchors: the numerators of a_x over
    the profile's total."""
    nums: dict[int, int] = {}
    for i, d in depths.items():
        z = anchors[i]
        nums[z] = nums.get(z, 0) + d
    return nums


def select_anchors(g: MetricGraph, fc: FatCover) -> dict[int, int]:
    """Anchor of each set: the member deepest inside it, least id on ties.
    Its weight against the set is automatically nonzero."""
    return dict(fc.anchors)


def a1_map(g: MetricGraph, fc: FatCover, x: int, anchors: dict[int, int] | None = None) -> A1Map:
    """The probability vector a_x: weight phi_V(x) placed at the anchor of
    each set containing x; colliding anchors accumulate."""
    if anchors is None:
        anchors = fc.anchors
    entries: dict[int, Fraction] = {}
    for i, w in phi(g, fc, x).items():
        z = anchors[i]
        entries[z] = entries[z] + w if z in entries else w
    return A1Map(x, dict(sorted(entries.items())))


def _pair_numerators(
    pz: dict[int, int], sz: int, nz: dict[int, int], pw: dict[int, int], sw: int, nw: dict[int, int]
) -> tuple[bool, int, int, int]:
    """The variation chain of the pair z, w from their depth profiles,
    totals and anchor numerators: whether every per-set depth step is at
    most 1, the summed displacement, and the numerators over ``sz * sw`` of
    the largest per-set weight difference and of ||a_z - a_w||_1."""
    step_ok = True
    comp = 0
    phi_num = 0
    for i in pz.keys() | pw.keys():
        dz = pz.get(i, 0)
        dw = pw.get(i, 0)
        step = abs(dz - dw)
        if step > 1:
            step_ok = False
        comp += step
        num = abs(dz * sw - dw * sz)
        if num > phi_num:
            phi_num = num
    l1_num = sum(abs(nz.get(v, 0) * sw - nw.get(v, 0) * sz) for v in nz.keys() | nw.keys())
    return step_ok, comp, phi_num, l1_num


@dataclass(frozen=True)
class VariationReport:
    distance: int
    l1: Fraction
    max_phi_diff: Fraction
    complement_diff_sum: int


def variation(g: MetricGraph, fc: FatCover, z: int, w: int, anchors: dict[int, int] | None = None) -> VariationReport:
    """Exact ||a_z - a_w||_1 plus the two intermediate quantities the
    variation bound chains through: the largest per-set weight difference
    and the summed complement-distance displacement."""
    if anchors is None:
        anchors = fc.anchors
    g.check_vertex(z)
    pz, sz = _weights(fc, z)
    g.check_vertex(w)
    pw, sw = _weights(fc, w)
    _, comp, phi_num, l1_num = _pair_numerators(
        pz, sz, _anchor_numerators(pz, anchors), pw, sw, _anchor_numerators(pw, anchors)
    )
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


def variation_sweep(g: MetricGraph, fc: FatCover) -> VariationSweepReport:
    """Check every adjacent safe pair against the exact variation bounds.

    For adjacent z, w (distance 1, so K = 1) the chain gives, with
    D = ``fc.d_constant``:

    * per set, |d(z, complement) - d(w, complement)| <= 1;
    * the summed displacement is at most 4D;
    * per set, |phi(z) - phi(w)| <= (4D+1)/r;
    * ||a_z - a_w||_1 <= (4D+1)^2 / r.

    All comparisons are integer cross-multiplications; the returned sups
    are exact fractions.
    """
    anchors = fc.anchors
    dd = fc.d_constant
    r = fc.r
    phi_top = 4 * dd + 1  # the phi bound is phi_top / r, the l1 bound l1_top / r
    l1_top = phi_top * phi_top
    comp_bound = 4 * dd

    # Pairs run with z ascending and w > z, so once z's pairs are done its
    # entry is never read again and is dropped.
    points: dict[int, tuple[dict[int, int], int, dict[int, int]]] = {}

    def point(x: int) -> tuple[dict[int, int], int, dict[int, int]]:
        p = points.get(x)
        if p is None:
            depths = _depth_profile(fc, x)
            p = points[x] = (depths, sum(depths.values()), _anchor_numerators(depths, anchors))
        return p

    sup_l1_num, sup_l1_den = 0, 1
    sup_phi_num, sup_phi_den = 0, 1
    l1_ok = phi_ok = comp_ok = step_ok = True
    pairs = 0
    witness: tuple[int, int] | None = None
    safe = fc.safe
    adj = g._adj
    for z in sorted(safe):
        for w in adj[z]:
            if w <= z or w not in safe:
                continue
            pairs += 1
            pz, sz, nz = point(z)
            pw, sw, nw = point(w)
            step, comp, phi_num, l1_num = _pair_numerators(pz, sz, nz, pw, sw, nw)
            den = sz * sw
            if not step:
                step_ok = False
            if comp > comp_bound:
                comp_ok = False
            if phi_num * r > phi_top * den:
                phi_ok = False
            if phi_num * sup_phi_den > sup_phi_num * den:
                sup_phi_num, sup_phi_den = phi_num, den
            if l1_num * r > l1_top * den:
                l1_ok = False
            if l1_num * sup_l1_den > sup_l1_num * den:
                sup_l1_num, sup_l1_den = l1_num, den
                witness = (z, w)
        points.pop(z, None)
    return VariationSweepReport(
        pairs_checked=pairs,
        sup_l1=Fraction(sup_l1_num, sup_l1_den),
        sup_phi_diff=Fraction(sup_phi_num, sup_phi_den),
        l1_bound=Fraction(l1_top, r),
        phi_bound=Fraction(phi_top, r),
        complement_bound=comp_bound,
        l1_ok=l1_ok,
        phi_ok=phi_ok,
        complement_ok=comp_ok,
        step_ok=step_ok,
        witness_pair=witness,
    )


def store_a1_maps(g: MetricGraph, fc: FatCover) -> str:
    """Dump format: one line per safe vertex,
    ``a x=<id> : <anchor>=<num>/<den> ...`` with anchors ascending."""
    anchors = fc.anchors
    lines = []
    for x in sorted(fc.safe):
        entries = a1_map(g, fc, x, anchors).entries
        body = " ".join(f"{z}={v.numerator}/{v.denominator}" for z, v in sorted(entries.items()))
        lines.append(f"a x={x} : {body}")
    return "\n".join(lines) + "\n"

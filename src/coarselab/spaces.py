"""Generators for the test spaces: broom trees, regular trees, Farey
truncations, and square grids as non-hyperbolic negative controls.

Every generator returns a :class:`LabeledGraph` carrying a basepoint and an
injective vertex labeling. Outputs are deterministic: the same parameters
always produce the same vertex ids, labels and edges. No generator stores
its labels: each names vertex v by a closed form of v and finds the vertex
of a label by parsing it (:class:`VertexLabels`).

The Farey graph is infinite; :func:`farey_truncation` materializes the
window ``{1/0} ∪ {p/q reduced : 1 <= q <= qmax, |p| <= qmax}``. Truncation
distorts distances near the window boundary, so metric assertions are only
made inside the empirically stabilized ball, see :func:`farey_safe_radius`.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate
from math import gcd, isqrt

import numpy as np

from .graphs import MetricGraph, bfs_distances

__all__ = [
    "ProjectiveRational",
    "VertexLabels",
    "LabeledGraph",
    "broom_tree",
    "regular_tree",
    "farey_truncation",
    "grid",
    "farey_safe_radius",
]


@dataclass(frozen=True)
class ProjectiveRational:
    """A reduced projective rational p/q with q >= 0; 1/0 is the single
    point at infinity and 0 is written 0/1. Sign is carried on p."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 0:
            raise ValueError("denominator must be nonnegative")
        if self.q == 0 and self.p != 1:
            raise ValueError("the only vertex with q = 0 is 1/0")
        if gcd(abs(self.p), self.q) != 1:
            raise ValueError(f"{self.p}/{self.q} is not reduced")

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


class VertexLabels(Sequence):
    """The labels of vertices ``0 .. n - 1``, held as two maps of the vertex
    id instead of ``n`` strings: ``label(v)`` is the label of v, and
    ``parse(text)`` is the one id that could carry ``text`` (any int, or a
    ``ValueError`` when ``text`` names none). ``index`` accepts ``text`` only
    when that id is a vertex and ``label(id) == text``, so a lax parse cannot
    accept a label that is not one. Compares and hashes like the tuple of
    its labels."""

    __slots__ = ("n", "_label", "_parse")

    def __init__(self, n: int, label: Callable[[int], str], parse: Callable[[str], int]):
        self.n = n
        self._label = label
        self._parse = parse

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, v):
        ids = range(self.n)[v]
        return tuple(map(self._label, ids)) if isinstance(ids, range) else self._label(ids)

    def __iter__(self):
        return map(self._label, range(self.n))

    def index(self, text: str) -> int:
        try:
            v = self._parse(text) if isinstance(text, str) else -1
        except ValueError:
            v = -1
        if 0 <= v < self.n and self._label(v) == text:
            return v
        raise ValueError(f"{text!r} is not a label")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, VertexLabels)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"VertexLabels(n={self.n})"


@dataclass(frozen=True)
class LabeledGraph:
    """A metric graph plus an injective labeling and a distinguished basepoint.

    ``labels`` is a :class:`VertexLabels`; any other sequence a caller
    passes is checked for injectivity and indexed by a dict once."""

    graph: MetricGraph
    labels: Sequence[str]
    basepoint: int

    def __post_init__(self):
        if len(self.labels) != self.graph.vertex_count:
            raise ValueError("one label per vertex required")
        if not isinstance(self.labels, VertexLabels):
            labels = tuple(self.labels)
            ids = {lab: v for v, lab in enumerate(labels)}
            if len(ids) != len(labels):
                raise ValueError("labels must be injective")
            object.__setattr__(self, "labels", VertexLabels(len(labels), labels.__getitem__, lambda t: ids.get(t, -1)))
        self.graph.check_vertex(self.basepoint)

    def label_of(self, v: int) -> str:
        return self.labels[v]

    def vertex_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no vertex labeled {label!r}") from None


def broom_tree(m: int) -> LabeledGraph:
    """Root with m attached subdivided paths of lengths 1..m.

    The classical picture has edges of length 1, 2, 3, ... issuing from a
    single vertex; keeping edges unit length, those become paths of that
    many unit edges. Basepoint is the root, which has valence m.
    """
    if m < 1:
        raise ValueError("broom_tree needs m >= 1")
    nv = 1 + m * (m + 1) // 2
    # Vertex v > 0 hangs off v - 1, except the first vertex of each ray,
    # which hangs off the root.
    parent = np.arange(nv - 1)
    parent[np.arange(m) * np.arange(1, m + 1) // 2] = 0
    edges = np.stack((parent, np.arange(1, nv)), axis=1)
    g = MetricGraph(nv, edges, name=f"broom_{m}")

    # Ray r holds the ids r(r-1)/2 + 1 .. r(r+1)/2, labelled "r.depth".
    def label(v: int) -> str:
        if v == 0:
            return "x0"
        ray = (isqrt(8 * v - 7) + 1) // 2
        return f"{ray}.{v - ray * (ray - 1) // 2}"

    def parse(text: str) -> int:
        if text == "x0":
            return 0
        ray, depth = map(int, text.split("."))
        return ray * (ray - 1) // 2 + depth

    return LabeledGraph(g, VertexLabels(nv, label, parse), 0)


def regular_tree(valence: int, depth: int) -> LabeledGraph:
    """Rooted tree in which every non-leaf vertex has the given valence,
    truncated at the given depth; a finite ball of the Cayley graph of a
    free group when the valence is even."""
    if valence < 2:
        raise ValueError("regular_tree needs valence >= 2")
    if depth < 1:
        raise ValueError("regular_tree needs depth >= 1")
    # Level L holds the ids starts[L] .. starts[L + 1] - 1, children in the
    # order of their parents: the root has `valence` children, every other
    # vertex above the leaves `valence - 1`.
    starts = list(accumulate([1] + [valence * (valence - 1) ** level for level in range(depth)], initial=0))
    nv, inner = starts[-1], starts[-2]
    kids = np.full(inner, valence - 1)
    kids[0] = valence
    edges = np.stack((np.repeat(np.arange(inner), kids), np.arange(1, nv)), axis=1)
    g = MetricGraph(nv, edges, name=f"tree_{valence}_{depth}")

    # A vertex is labelled by its path from the root, "r.k1.k2...": its
    # place in its level written in the mixed radix valence, valence - 1, ...
    def label(v: int) -> str:
        level = bisect_right(starts, v) - 1
        i, path = v - starts[level], []
        for _ in range(level - 1):
            i, k = divmod(i, valence - 1)
            path.append(str(k))
        if level:
            path.append(str(i))
        path.append("r")
        return ".".join(reversed(path))

    def parse(text: str) -> int:
        root, *path = text.split(".")
        if root != "r" or len(path) > depth:
            raise ValueError(text)
        i = 0
        for k in map(int, path):
            i = i * (valence - 1) + k
        return starts[len(path)] + i

    return LabeledGraph(g, VertexLabels(nv, label, parse), 0)


def farey_truncation(qmax: int) -> LabeledGraph:
    """Finite window of the Farey graph.

    Vertices are 1/0 together with the reduced fractions p/q with
    1 <= q <= qmax and |p| <= qmax; two fractions p/q and r/s are joined
    exactly when |p*s - r*q| = 1. Basepoint is 0/1. Vertex ids sort by
    (q, p), so 1/0 gets id 0.
    """
    if qmax < 1:
        raise ValueError("farey_truncation needs qmax >= 1")
    # The reduced fractions of the (q, p) grid, in (q, p) order after 1/0.
    q_grid, p_grid = np.mgrid[1 : qmax + 1, -qmax : qmax + 1]
    reduced = np.gcd(p_grid, q_grid) == 1
    ps = np.concatenate(([1], p_grid[reduced]))
    qs = np.concatenate(([0], q_grid[reduced]))
    index = np.full((qmax + 1, 2 * qmax + 1), -1, dtype=np.int64)  # (q, p + qmax) -> id
    index[qs, ps + qmax] = np.arange(ps.size)
    # 1/0 meets exactly the integers n/1 (|1*1 - n*0| = 1).
    edges = [np.stack((np.zeros(2 * qmax + 1, dtype=np.int64), index[1]), axis=1)]
    p, q = ps[1:], qs[1:]
    inv = _inverses(p % q, q)
    # |r| <= qmax needs |p|*s <= qmax*q + 1, since |p*s - r*q| = 1.
    last = np.minimum(qmax, (qmax * q + 1) // np.maximum(np.abs(p), 1))
    for sign in (1, -1):
        # p*s - r*q = sign forces s ≡ sign * p^{-1} (mod q): s runs from its
        # least positive residue up to ``last`` in steps of q.
        first = (sign * inv) % q
        first[first == 0] = q[first == 0]
        counts = np.maximum((last - first) // q + 1, 0)
        at = np.repeat(np.arange(p.size), counts)
        s = first[at] + q[at] * (np.arange(at.size) - np.repeat(np.cumsum(counts) - counts, counts))
        r = (p[at] * s - sign) // q[at]
        keep = np.abs(r) <= qmax
        edges.append(np.stack((at[keep] + 1, index[s[keep], r[keep] + qmax]), axis=1))
    g = MetricGraph(ps.size, np.concatenate(edges), name=f"farey_{qmax}")

    def label(v: int) -> str:
        return f"{ps[v]}/{qs[v]}"

    def parse(text: str) -> int:
        p, q = map(int, text.split("/"))
        return int(index[q, p + qmax]) if 0 <= q <= qmax and abs(p) <= qmax else -1

    return LabeledGraph(g, VertexLabels(ps.size, label, parse), int(index[1, qmax]))


def _inverses(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``pow(a, -1, m)`` elementwise for int64 arrays with gcd(a, m) = 1 and
    m >= 1, by one extended Euclid pass over the arrays: t0·a ≡ r0 and
    t1·a ≡ r1 (mod m) hold throughout, until r1 = 0 leaves r0 = 1."""
    r0, r1 = m.copy(), a % m
    t0, t1 = np.zeros_like(m), np.ones_like(m)
    live = r1 != 0
    while live.any():
        q = r0[live] // r1[live]
        r0[live], r1[live] = r1[live], r0[live] - q * r1[live]
        t0[live], t1[live] = t1[live], t0[live] - q * t1[live]
        live = r1 != 0
    return t0 % m


def grid(n: int) -> LabeledGraph:
    """n-by-n square lattice with 4-neighbor adjacency; basepoint (0,0).

    Not hyperbolic at large n: included purely as falsification material
    for the boundedness and thin-triangle checkers.
    """
    if n < 2:
        raise ValueError("grid needs n >= 2")
    ids = np.arange(n * n).reshape(n, n)
    down = np.stack((ids[:-1].ravel(), ids[1:].ravel()), axis=1)
    right = np.stack((ids[:, :-1].ravel(), ids[:, 1:].ravel()), axis=1)
    edges = np.concatenate((down, right))
    g = MetricGraph(n * n, edges, name=f"grid_{n}")

    def label(v: int) -> str:
        return "({},{})".format(*divmod(v, n))

    def parse(text: str) -> int:
        i, j = map(int, text[1:-1].split(","))
        return i * n + j

    return LabeledGraph(g, VertexLabels(n * n, label, parse), 0)


def farey_safe_radius(qmax: int) -> int:
    """Empirical stabilization radius of the basepoint ball.

    The largest R such that every window vertex within distance R of 0/1
    (distance taken in the doubled window) has the same distance in both
    the qmax and the 2*qmax truncations. Doubling the window can only add
    shortcut routes, so disagreement means the smaller window distorts the
    metric there; inside R the truncated distances are trusted, outside no
    metric claim is asserted.
    """
    small = farey_truncation(qmax)
    big = farey_truncation(2 * qmax)
    ds = bfs_distances(small.graph, small.basepoint)
    db = bfs_distances(big.graph, big.basepoint)
    horizon = max((d for d in db if d >= 0), default=0)
    first_bad = horizon + 1
    for v, lab in enumerate(small.labels):
        d_small = ds[v]
        d_big = db[big.vertex_of(lab)]
        if d_small != d_big:
            anchor = d_big if d_big >= 0 else d_small
            first_bad = min(first_bad, anchor)
    return max(first_bad - 1, 0)

"""Generators for the test spaces: broom trees, regular trees, Farey
truncations, and square grids as non-hyperbolic negative controls.

Every generator returns a :class:`LabeledGraph` carrying a basepoint and an
injective vertex labeling. Outputs are deterministic: the same parameters
always produce the same vertex ids, labels and edges.

The Farey graph is infinite; :func:`farey_truncation` materializes the
window ``{1/0} ∪ {p/q reduced : 1 <= q <= qmax, |p| <= qmax}``. Truncation
distorts distances near the window boundary, so metric assertions are only
made inside the empirically stabilized ball, see :func:`farey_safe_radius`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .graphs import MetricGraph, bfs_distances

__all__ = [
    "ProjectiveRational",
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


@dataclass(frozen=True)
class LabeledGraph:
    """A metric graph plus an injective labeling and a distinguished basepoint."""

    graph: MetricGraph
    labels: tuple[str, ...]
    basepoint: int

    def __post_init__(self):
        if len(self.labels) != self.graph.vertex_count:
            raise ValueError("one label per vertex required")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be injective")
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
    numerals = [str(i) for i in range(m + 1)]
    labels = ["x0"]
    for ray in range(1, m + 1):
        head = numerals[ray] + "."
        labels += [head + depth for depth in numerals[1 : ray + 1]]
    nv = len(labels)
    # Vertex v > 0 hangs off v - 1, except the first vertex of each ray,
    # which hangs off the root.
    parent = np.arange(nv - 1)
    parent[np.arange(m) * np.arange(1, m + 1) // 2] = 0
    edges = np.stack((parent, np.arange(1, nv)), axis=1)
    g = MetricGraph(nv, edges, name=f"broom_{m}")
    return LabeledGraph(g, tuple(labels), 0)


def regular_tree(valence: int, depth: int) -> LabeledGraph:
    """Rooted tree in which every non-leaf vertex has the given valence,
    truncated at the given depth; a finite ball of the Cayley graph of a
    free group when the valence is even."""
    if valence < 2:
        raise ValueError("regular_tree needs valence >= 2")
    if depth < 1:
        raise ValueError("regular_tree needs depth >= 1")
    labels = ["r"]
    parents = []
    lo = 0  # the current level holds the ids lo .. len(labels) - 1
    for level in range(depth):
        kids = valence if level == 0 else valence - 1
        hi = len(labels)
        parents.append(np.repeat(np.arange(lo, hi), kids))
        labels += [f"{labels[u]}.{k}" for u in range(lo, hi) for k in range(kids)]
        lo = hi
    nv = len(labels)
    edges = np.stack((np.concatenate(parents), np.arange(1, nv)), axis=1)
    g = MetricGraph(nv, edges, name=f"tree_{valence}_{depth}")
    return LabeledGraph(g, tuple(labels), 0)


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
    inv = np.array([pow(a, -1, m) for a, m in zip((p % q).tolist(), q.tolist())], dtype=np.int64)
    for sign in (1, -1):
        # p*s - r*q = sign forces s ≡ sign * p^{-1} (mod q): s runs from its
        # least positive residue up to qmax in steps of q.
        first = (sign * inv) % q
        first[first == 0] = q[first == 0]
        counts = (qmax - first) // q + 1
        at = np.repeat(np.arange(p.size), counts)
        s = first[at] + q[at] * (np.arange(at.size) - np.repeat(np.cumsum(counts) - counts, counts))
        r = (p[at] * s - sign) // q[at]
        keep = np.abs(r) <= qmax
        edges.append(np.stack((at[keep] + 1, index[s[keep], r[keep] + qmax]), axis=1))
    g = MetricGraph(ps.size, np.concatenate(edges), name=f"farey_{qmax}")
    labels = tuple(f"{a}/{b}" for a, b in zip(ps.tolist(), qs.tolist()))
    return LabeledGraph(g, labels, int(index[1, qmax]))


def grid(n: int) -> LabeledGraph:
    """n-by-n square lattice with 4-neighbor adjacency; basepoint (0,0).

    Not hyperbolic at large n: included purely as falsification material
    for the boundedness and thin-triangle checkers.
    """
    if n < 2:
        raise ValueError("grid needs n >= 2")
    labels = [f"({i},{j})" for i in range(n) for j in range(n)]
    ids = np.arange(n * n).reshape(n, n)
    down = np.stack((ids[:-1].ravel(), ids[1:].ravel()), axis=1)
    right = np.stack((ids[:, :-1].ravel(), ids[:, 1:].ravel()), axis=1)
    edges = np.concatenate((down, right))
    g = MetricGraph(n * n, edges, name=f"grid_{n}")
    return LabeledGraph(g, tuple(labels), 0)


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
    big_of = {big.labels[v]: v for v in range(big.graph.vertex_count)}
    horizon = max((d for d in db if d >= 0), default=0)
    first_bad = horizon + 1
    for v, lab in enumerate(small.labels):
        d_small = ds[v]
        d_big = db[big_of[lab]]
        if d_small != d_big:
            anchor = d_big if d_big >= 0 else d_small
            first_bad = min(first_bad, anchor)
    return max(first_bad - 1, 0)

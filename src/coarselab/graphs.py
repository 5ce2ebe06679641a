"""Finite metric graphs with unit edge lengths.

A :class:`MetricGraph` is a simple undirected graph on dense integer vertex
ids, equipped with the shortest-path metric. Everything downstream (spaces,
geodesic families, covers, partition maps) is built on top of the operations
here: BFS distances, balls and spheres, geodesic enumeration, set diameters,
and the line-oriented graph file format.

Graphs are immutable after construction and safe to share between threads;
all operations are pure functions of their inputs. Distances are integers;
an unreachable pair is reported as ``None`` rather than an error so probes
on disconnected truncations stay total.

Every breadth-first search in the package runs here. The private kernel
``_bfs`` is bounded and multi-source and returns a dict, so its cost follows
the ball, not the graph; it serves every local search (balls, spheres,
fattened sets, interior depths, pair neighbourhoods, envelope rows, conflict
balls). Full distance rows (tables, geodesic enumeration, tree depths, the
safe core) stay list-backed in ``bfs_distances``/``multi_source_distances``;
``distance_vector`` switches to a numpy level-synchronous BFS from
``_NP_BFS_MIN`` vertices up. ``distance`` and the thin-triangle defect stop
at the first target they reach.

The canonical tie-break (step to the least-id neighbour one closer) lives
in ``_canonical_step``; every canonical path and cover anchor uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable, Iterator

import numpy as np

__all__ = [
    "MetricGraph",
    "Path",
    "GraphFormatError",
    "distance",
    "distance_vector",
    "bfs_distances",
    "multi_source_distances",
    "ball",
    "sphere",
    "all_geodesics",
    "canonical_geodesic",
    "set_diameter",
    "set_diameters",
    "load_graph",
    "store_graph",
]

GEODESIC_CAP = 10_000

# Above this vertex count, full-graph BFS switches to the numpy
# level-synchronous implementation.
_NP_BFS_MIN = 20_000


@dataclass(frozen=True)
class Path:
    """A walk given by its vertex sequence; geodesics are built only through
    the constructors in this module, which guarantee minimality."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


class GraphFormatError(ValueError):
    """Raised by :func:`load_graph` with a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MetricGraph:
    """Immutable simple undirected graph with unit edge lengths.

    Vertex ids are dense in ``[0, vertex_count)``. Adjacency lists are kept
    sorted, which fixes the vertex-id lexicographic tie-break used across
    the whole package.
    """

    __slots__ = (
        "name",
        "vertex_count",
        "_adj",
        "_edge_count",
        "_arrays_cache",
        "_connected",
        "_root_row",
        "_tree_metric",
    )

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]], name: str = "graph"):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        if not name or any(c.isspace() for c in name):
            raise ValueError("graph name must be a nonempty token without whitespace")
        adj: list[set[int]] = [set() for _ in range(vertex_count)]
        count = 0
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                count += 1
        self.name = name
        self.vertex_count = vertex_count
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)
        self._edge_count = count
        self._arrays_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._connected: bool | None = None
        self._root_row: list[int] | None = None
        self._tree_metric: _TreeMetric | None = None

    # -- structure -----------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.vertex_count):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return v in self._adj[u]

    def check_vertex(self, v: int) -> None:
        if not isinstance(v, (int, np.integer)) or not (0 <= v < self.vertex_count):
            raise ValueError(f"invalid vertex id {v!r} for graph with {self.vertex_count} vertices")

    @property
    def is_connected(self) -> bool:
        if self._connected is None:
            if self.vertex_count == 0:
                self._connected = True
            else:
                row = bfs_distances(self, 0)
                self._connected = min(row) >= 0
                if self._connected and self._edge_count == self.vertex_count - 1:
                    self._root_row = row  # a tree's depths from 0, kept for tree_metric
        return self._connected

    @property
    def is_tree(self) -> bool:
        return self.vertex_count > 0 and self._edge_count == self.vertex_count - 1 and self.is_connected

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) in CSR layout, cached; neighbor order is sorted."""
        if self._arrays_cache is None:
            adj = self._adj
            indptr = np.zeros(self.vertex_count + 1, dtype=np.int64)
            np.cumsum(np.fromiter(map(len, adj), dtype=np.int64, count=self.vertex_count), out=indptr[1:])
            indices = np.fromiter(chain.from_iterable(adj), dtype=np.int32, count=int(indptr[-1]))
            self._arrays_cache = (indptr, indices)
        return self._arrays_cache

    def tree_metric(self) -> "_TreeMetric":
        if not self.is_tree:
            raise ValueError("tree_metric is only defined for trees")
        if self._tree_metric is None:
            self._tree_metric = _TreeMetric(self, self._root_row)
            self._root_row = None
        return self._tree_metric

    def __repr__(self) -> str:
        return f"MetricGraph({self.name!r}, V={self.vertex_count}, E={self._edge_count})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricGraph):
            return NotImplemented
        return (
            self.name == other.name
            and self.vertex_count == other.vertex_count
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.name, self.vertex_count, self._adj))


# -- BFS metric --------------------------------------------------------


def bfs_distances(g: MetricGraph, source: int, cutoff: int | None = None) -> list[int]:
    """Distances from ``source`` to every vertex; ``-1`` marks unreachable
    (or beyond ``cutoff``)."""
    return _dense_bfs(g, (source,), cutoff)


def multi_source_distances(g: MetricGraph, sources: Iterable[int], cutoff: int | None = None) -> list[int]:
    """Distance to the nearest of ``sources`` for every vertex, ``-1`` beyond reach."""
    return _dense_bfs(g, sources, cutoff)


def _dense_bfs(g: MetricGraph, sources: Iterable[int], cutoff: int | None) -> list[int]:
    dist = [-1] * g.vertex_count
    queue = []
    for s in sources:
        g.check_vertex(s)
        if dist[s] != 0:
            dist[s] = 0
            queue.append(s)
    limit = g.vertex_count if cutoff is None else cutoff
    adj = g._adj
    for u in queue:
        du = dist[u]
        if du >= limit:
            continue
        du += 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return dist


def _bfs(
    g: MetricGraph, sources: Iterable[int], radius: int | None = None, within: Collection[int] | None = None
) -> dict[int, int]:
    """Distance to the nearest of ``sources`` for every vertex within
    ``radius`` of them, keyed in the order a FIFO search reaches them. With
    ``within`` given, the search steps only onto vertices in it."""
    seen = bytearray(g.vertex_count)
    dist: dict[int, int] = {}
    queue = []
    for s in sources:
        g.check_vertex(s)
        if not seen[s]:
            seen[s] = 1
            dist[s] = 0
            queue.append(s)
    limit = g.vertex_count if radius is None else radius
    adj = g._adj
    for u in queue:
        du = dist[u]
        if du >= limit:
            continue
        du += 1
        for w in adj[u]:
            if not seen[w] and (within is None or w in within):
                seen[w] = 1
                dist[w] = du
                queue.append(w)
    return dist


def _distance_to_set(g: MetricGraph, v: int, targets: Collection[int]) -> int | None:
    """d(v, targets), stopping at the first target reached; ``None`` when
    no target is reachable."""
    if v in targets:
        return 0
    dist = {v: 0}
    queue = [v]
    adj = g._adj
    for u in queue:
        du = dist[u] + 1
        for w in adj[u]:
            if w not in dist:
                if w in targets:
                    return du
                dist[w] = du
                queue.append(w)
    return None


def distance_vector(g: MetricGraph, source: int) -> np.ndarray:
    """Full distance row from ``source`` as an int32 array (-1 unreachable).

    Switches to a level-synchronous numpy BFS on large graphs; result is
    identical to :func:`bfs_distances`.
    """
    if g.vertex_count < _NP_BFS_MIN:
        return np.asarray(bfs_distances(g, source), dtype=np.int32)
    g.check_vertex(source)
    indptr, indices = g.csr_arrays()
    dist = np.full(g.vertex_count, -1, dtype=np.int32)
    frontier = np.asarray([source], dtype=np.int32)
    dist[frontier] = 0
    d = 0
    while frontier.size:
        d += 1
        starts = indptr[frontier]
        counts = (indptr[frontier + 1] - starts).astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            break
        offsets = np.repeat(starts, counts) + (
            np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
        )
        nbrs = indices[offsets]
        nbrs = nbrs[dist[nbrs] < 0]
        if nbrs.size == 0:
            break
        frontier = np.unique(nbrs)
        dist[frontier] = d
    return dist


def distance(g: MetricGraph, u: int, v: int) -> int | None:
    """Shortest-path distance, ``None`` when u and v lie in different components."""
    g.check_vertex(u)
    g.check_vertex(v)
    return _distance_to_set(g, u, (v,))


def ball(g: MetricGraph, x: int, r: int) -> set[int]:
    """``{v : d(x, v) <= r}``."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return set(_bfs(g, (x,), r))


def sphere(g: MetricGraph, x: int, r: int) -> set[int]:
    """``{v : d(x, v) = r}``; ``sphere(g, x, 0) == {x}``."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return {v for v, d in _bfs(g, (x,), r).items() if d == r}


# -- geodesics ---------------------------------------------------------


def all_geodesics(g: MetricGraph, u: int, v: int, cap: int = GEODESIC_CAP) -> tuple[list[Path], bool]:
    """Every geodesic from u to v, in vertex-id lexicographic order.

    Returns ``(paths, truncated)``. With the flag unset the list is
    exhaustive; with it set, exactly ``cap`` paths are returned. Counting
    geodesics is exponential in general, hence the cap.
    """
    g.check_vertex(u)
    g.check_vertex(v)
    if cap < 1:
        raise ValueError("cap must be positive")
    dv = bfs_distances(g, v)
    if dv[u] < 0:
        raise ValueError(f"vertices {u} and {v} are unreachable from each other")
    adj = g._adj
    paths: list[Path] = []
    truncated = False
    # Iterative DFS over the shortest-path DAG; sorted adjacency makes the
    # output lexicographic and deterministic.
    path = [u]
    iters = [iter([w for w in adj[u] if dv[w] == dv[u] - 1])] if u != v else []
    if u == v:
        return [Path((u,))], False
    while iters:
        it = iters[-1]
        step = next(it, None)
        if step is None:
            iters.pop()
            path.pop()
            continue
        path.append(step)
        if step == v:
            if len(paths) == cap:
                truncated = True
                break
            paths.append(Path(tuple(path)))
            path.pop()
            continue
        iters.append(iter([w for w in adj[step] if dv[w] == dv[step] - 1]))
    return paths, truncated


def canonical_geodesic(g: MetricGraph, u: int, v: int) -> Path:
    """The lexicographically least geodesic from u to v, built step by step
    from u with the least-vertex-id tie-break."""
    g.check_vertex(u)
    g.check_vertex(v)
    dv = bfs_distances(g, v)
    if dv[u] < 0:
        raise ValueError(f"vertices {u} and {v} are unreachable from each other")
    return Path(tuple(_canonical_walk(g._adj, dv, u)))


def _canonical_step(adj, dist, v: int) -> int:
    """v's least-id neighbour one closer to the target of ``dist`` (ids may
    be local, if their order matches the global one)."""
    closer = dist[v] - 1
    return min(w for w in adj[v] if dist[w] == closer)


def _canonical_walk(adj, dist, u: int) -> list[int]:
    """Canonical steps from u down ``dist`` to its target."""
    path = [u]
    while dist[u]:
        u = _canonical_step(adj, dist, u)
        path.append(u)
    return path


def set_diameter(
    g: MetricGraph, members: Iterable[int] | Iterable[Iterable[int]], *, batch: bool = False
) -> int | None | list[int | None]:
    """Max pairwise distance within ``members``, measured in g (not the
    induced subgraph); ``None`` if some pair is unreachable.

    With ``batch=True``, ``members`` is an iterable of vertex sets and the
    list of their diameters is returned, in order (see
    :func:`set_diameters`). Every member of every set is validated before
    any distance is taken; an empty set anywhere raises. On a tree the
    whole batch costs two batched LCA sweeps over all members together (an
    exact double sweep per set, reduced per segment). On other graphs each
    set gets an exact centre-pruned BFS scan.
    """
    sets = [sorted(set(ms)) for ms in (members if batch else [members])]
    for ms in sets:
        if not ms:
            raise ValueError("set_diameter of an empty set")
        for m in ms:
            g.check_vertex(m)
    if not sets:
        diameters = []
    elif g.is_tree:
        diameters = _tree_set_diameters(g.tree_metric(), sets)
    else:
        diameters = [_scan_diameter(g, ms) for ms in sets]
    return diameters if batch else diameters[0]


def set_diameters(g: MetricGraph, member_sets: Iterable[Iterable[int]]) -> list[int | None]:
    """:func:`set_diameter` of every set in ``member_sets``, in order; on a
    tree, two batched LCA sweeps over all members together."""
    return set_diameter(g, member_sets, batch=True)


def _tree_set_diameters(tm: "_TreeMetric", sets: list[list[int]]) -> list[int]:
    # Double sweep is exact for subsets of a tree metric (four-point
    # condition: the vertex farthest from any start is a diameter end).
    # All sets run at once as segments of one flat member array.
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    flat = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=int(sizes.sum()))
    starts = np.zeros(len(sets), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    seg = np.repeat(np.arange(len(sets)), sizes)
    d0 = tm.pair_distances(flat[starts][seg], flat)
    # First farthest member of each set: every segment holds its maximum,
    # so the first hit at or after a segment's start lies inside it.
    hits = np.flatnonzero(d0 == np.maximum.reduceat(d0, starts)[seg])
    far = flat[hits[np.searchsorted(hits, starts)]]
    d1 = tm.pair_distances(far[seg], flat)
    return np.maximum.reduceat(d1, starts).tolist()


def _scan_diameter(g: MetricGraph, ms: list[int]) -> int | None:
    """Exact centre-pruned scan of one sorted, validated, nonempty set.

    Seed the best value by a two-sweep, then only members far from the
    center can still extend it: an unscanned pair (u, v) satisfies
    d(u,v) <= d(u,c) + d(c,v).
    """
    if len(ms) == 1:
        return 0
    arr = np.asarray(ms, dtype=np.int64)
    row_c = distance_vector(g, ms[0])
    dc = row_c[arr]
    if (dc < 0).any():
        return None
    far = int(arr[int(np.argmax(dc))])
    d_far = distance_vector(g, far)[arr]
    if (d_far < 0).any():
        return None
    best = int(d_far.max())
    order = np.argsort(-dc, kind="stable")
    for idx in order:
        if 2 * int(dc[idx]) <= best:
            break
        du = distance_vector(g, int(arr[idx]))[arr]
        if (du < 0).any():
            return None
        best = max(best, int(du.max()))
    return best


# -- tree metric helper ------------------------------------------------


class _TreeMetric:
    """Binary-lifting LCA structure giving vectorized exact tree distances."""

    def __init__(self, g: MetricGraph, depths_from_0: list[int]):
        n = g.vertex_count
        depth = np.asarray(depths_from_0, dtype=np.int64)
        # On a tree the parent of v is its unique neighbour at depth - 1;
        # the root 0 has none and is its own parent.
        indptr, indices = g.csr_arrays()
        tail = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
        up_edge = depth[indices] == depth[tail] - 1
        k = max(1, int(np.ceil(np.log2(max(2, n)))))
        up = np.empty((k, n), dtype=np.int32)  # vertex ids fit; depths stay int64
        up[0, 0] = 0
        up[0][tail[up_edge]] = indices[up_edge]
        for i in range(1, k):
            up[i] = up[i - 1][up[i - 1]]
        self.depth = depth
        self.up = up
        self.levels = k

    def lca_pairs(self, a_in: np.ndarray, b_in: np.ndarray) -> np.ndarray:
        depth, up = self.depth, self.up
        a = a_in.astype(np.int64)
        b = b_in.astype(np.int64)
        diff = depth[a] - depth[b]
        for k in range(self.levels):
            bit = 1 << k
            m = (diff > 0) & ((diff & bit) != 0)
            if m.any():
                a[m] = up[k][a[m]]
            m = (diff < 0) & (((-diff) & bit) != 0)
            if m.any():
                b[m] = up[k][b[m]]
        neq = a != b
        for k in range(self.levels - 1, -1, -1):
            take = neq & (up[k][a] != up[k][b])
            if take.any():
                a[take] = up[k][a[take]]
                b[take] = up[k][b[take]]
            neq = a != b
        a[neq] = up[0][a[neq]]
        return a

    def pair_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact tree distances ``d(a[i], b[i])`` of two aligned id arrays."""
        anc = self.lca_pairs(a, b)
        return self.depth[a] + self.depth[b] - 2 * self.depth[anc]

    def distances(self, u: int, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        return self.pair_distances(np.full(xs.shape, u, dtype=np.int64), xs)

    def pairwise(self, us, vs) -> np.ndarray:
        """|us| x |vs| matrix of exact tree distances."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.size == 0 or vs.size == 0:
            return np.zeros((us.size, vs.size), dtype=np.int64)
        return self.pair_distances(np.repeat(us, vs.size), np.tile(vs, us.size)).reshape(us.size, vs.size)

    def path(self, u: int, v: int) -> list[int]:
        """The unique u-v path, via parent pointers through the meet."""
        anc = int(self.lca_pairs(np.asarray([u]), np.asarray([v]))[0])
        up_side = []
        a = u
        while a != anc:
            up_side.append(a)
            a = int(self.up[0][a])
        down_side = []
        b = v
        while b != anc:
            down_side.append(b)
            b = int(self.up[0][b])
        return up_side + [anc] + down_side[::-1]


# -- file format -------------------------------------------------------
#
# Line-oriented text:
#   graph <name> <vertex_count>
#   <id>: <neighbor> <neighbor> ...
# with ids ascending, neighbor lists strictly ascending, and `#` starting
# a comment line. Round trips are bit-exact modulo comments/whitespace.


def store_graph(g: MetricGraph) -> str:
    lines = [f"graph {g.name} {g.vertex_count}"]
    for i in range(g.vertex_count):
        ns = g._adj[i]
        lines.append(f"{i}:" + ("" if not ns else " " + " ".join(str(n) for n in ns)))
    return "\n".join(lines) + "\n"


def load_graph(text: str) -> MetricGraph:
    header: tuple[str, int] | None = None
    rows: dict[int, tuple[int, list[int]]] = {}
    expected = 0
    last_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 3 or parts[0] != "graph":
                raise GraphFormatError(lineno, f"expected 'graph <name> <vertex_count>', got {line!r}")
            try:
                expected = int(parts[2])
            except ValueError:
                raise GraphFormatError(lineno, f"vertex count {parts[2]!r} is not an integer") from None
            if expected < 0:
                raise GraphFormatError(lineno, "vertex count must be nonnegative")
            header = (parts[1], expected)
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise GraphFormatError(lineno, f"expected '<id>: <neighbors>', got {line!r}")
        try:
            vid = int(head.strip())
        except ValueError:
            raise GraphFormatError(lineno, f"vertex id {head.strip()!r} is not an integer") from None
        if not 0 <= vid < expected:
            raise GraphFormatError(lineno, f"vertex id {vid} out of range [0, {expected})")
        if vid != last_id + 1:
            raise GraphFormatError(lineno, f"vertex ids must be ascending without gaps; got {vid} after {last_id}")
        last_id = vid
        try:
            ns = [int(t) for t in tail.split()]
        except ValueError:
            raise GraphFormatError(lineno, f"malformed neighbor list {tail.strip()!r}") from None
        for n in ns:
            if not 0 <= n < expected:
                raise GraphFormatError(lineno, f"neighbor id {n} out of range [0, {expected})")
            if n == vid:
                raise GraphFormatError(lineno, f"self-loop at vertex {vid}")
        if any(a >= b for a, b in zip(ns, ns[1:])):
            raise GraphFormatError(lineno, f"neighbor list of vertex {vid} is not strictly ascending")
        rows[vid] = (lineno, ns)
    if header is None:
        raise GraphFormatError(1, "missing 'graph' header line")
    if last_id != expected - 1:
        raise GraphFormatError(last_id + 2, f"expected {expected} vertex lines, found {last_id + 1}")
    # symmetry check, reported with the line of the one-sided endpoint
    for vid, (lineno, ns) in rows.items():
        for n in ns:
            if vid not in rows[n][1]:
                raise GraphFormatError(
                    lineno, f"asymmetric edge list: {vid} lists {n} but {n} does not list {vid}"
                )
    edges = [(vid, n) for vid, (_, ns) in rows.items() for n in ns if vid < n]
    return MetricGraph(expected, edges, name=header[0])

"""Finite metric graphs with unit edge lengths.

A :class:`MetricGraph` is a simple undirected graph on dense integer vertex
ids, equipped with the shortest-path metric. It is built from an edge list
or an (E, 2) integer array by one sort of u*n + v keys and stored as CSR
arrays (``csr_arrays``), which equality and hashing compare. The sorted
adjacency tuples ``_adj`` that the Python traversals read are built from
them on first access, so a run that reads only the arrays never pays for
them. The connectivity check takes its row from ``distance_vector(g, 0)``,
and the graph keeps that row, read-only, for every later reader of the
row from 0 (the tree metric, a cover based at 0). Everything downstream
(spaces, geodesic families, covers, partition maps) is built on top of the
operations here: BFS distances, balls and spheres, geodesic enumeration,
set diameters, and the line-oriented graph file format.

Graphs are immutable after construction and safe to share between threads;
all operations are pure functions of their inputs. Distances are integers;
an unreachable pair is reported as ``None`` rather than an error so probes
on disconnected truncations stay total.

Every breadth-first search in the package runs here. The local searches
(balls, spheres, ``distance``, and through ``ball`` the pair
neighbourhoods and conflict balls) read one generator, ``_spheres``, which
yields the spheres about one vertex radius by radius and keeps its seen
vertices in a set, so its cost follows the ball, not the graph; each
caller stops it at the radius it needs. Many vertex sets at once travel
as one sorted int64 array of keys s*n + v, one per (set, member) pair.
``_set_balls`` grows every set by a radius over the graph's CSR arrays,
and ``_set_cones`` grows forward cones over the steps one level outward
from a basepoint (``_outward_steps``, of all geodesics or of the
canonical ones); each level of either is one gather of the frontier's
CSR rows (``_key_neighbours``) and one dedupe by sort. ``_set_depths``
gives every member its distance to the set's complement by an inward
expansion over the same keys. They serve the cover's anchored annuli,
multiplicity and safe core, and the fattened sets with their interior
depths. Full distance rows for geodesic enumeration
stay list-backed in ``bfs_distances``/``multi_source_distances``;
``distance_vector`` switches to a numpy level-synchronous BFS from
``_NP_BFS_MIN`` vertices up. The geodesics layer reads its distance and
shortest-path-count rows from one on-demand store, ``_Rows``, which keeps
at most ``_ROW_CELLS`` cells of them. One map gives each held source a
slot: a row of an int32 matrix of distances and, in a store made for path
counts, of an int64 matrix of counts. A distance row is a read-only view
of its slot, ``_Rows.block`` reads the distance rows of many sources at
many columns by one fancy index, and ``_Rows.cells`` one distance and
count entry each of many rows, the only read of counts. Every row
enters through ``_Rows.load``, which fills a block's distance and count
rows together: ``_distance_rows`` is a
bit-parallel BFS that runs up to 64 searches in the bits of one machine
word (MS-BFS: Then et al., *The More the Merrier*, PVLDB 8(4), 2014),
used where the searches are shallow for their number (a bound read from
the graph's kept row from 0), which keeps the level each bit arrives at
in bit planes; its rows are copied once, into their slots. The count
rows come from one level-synchronous pass over the block
(``_count_rows``). The kernel's level step, ``_bit_levels`` (a
gather of the frontier words over the edges, a ``bitwise_or.reduceat``
per vertex, the isolated vertices zeroed and the bits seen before
dropped), also runs ``_triangle_defects``: one search per side of many
geodesic triangles, each starting from the two other sides, whose last
level to reach a side vertex is the triangle's thinness defect.

On a tree, exact distances come from ``_TreeMetric``, a heavy-path
decomposition from root 0 built on the depth row the connectivity check
already keeps: each vertex's parent, depth and chain head, O(n) arrays
in all. A batch of lowest common ancestors takes one numpy pass per light
edge its root paths cross (at most two on a broom, O(log n) on any tree).
Tree set diameters are two such batches (a double sweep) over the members
flattened into one array, and the tree backend of property B reads its
distances and paths from the same object.

The canonical tie-break (step to the least-id neighbour one closer) lives
in ``_canonical_step``, which the single walks take. ``_canonical_walks``
takes it for many walks at once, one ``np.minimum.reduceat`` over their
neighbours per step, and ``_outward_steps`` turns it round for every
vertex at once: the canonical step u -> w outward is kept where u is
w's least neighbour one closer, one ``np.minimum.at`` over the steps.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from collections.abc import Collection, Iterable, Iterator

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

# A row store keeps at most this many int32 cells (8 MB), or one source's
# rows where those take more; a shortest-path count row takes two cells per
# vertex. A store without room for the rows asked for starts over.
_ROW_CELLS = 2**21

# Rows the bit-parallel kernel computes per uint64 word; the row store
# fills at most this many at once.
_BLOCK = 64

# Shortest-path counts in a row store saturate at this bound, so every sum
# of a vertex's predecessor counts stays exact in int64.
_SIGMA_MAX = 2**31

# Id types a batch check settles by one range test; any other type (bool,
# other numpy integers, floats, ...) is checked id by id.
_PLAIN_IDS = frozenset({int, np.int64, np.int32})


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

    Vertex ids are dense in ``[0, vertex_count)``. ``edges`` is any
    iterable of id pairs or an (E, 2) integer array; duplicates in either
    orientation count once. Adjacency lists are kept sorted, which fixes
    the vertex-id lexicographic tie-break used across the whole package.
    """

    __slots__ = (
        "name",
        "vertex_count",
        "_tuples",
        "_edge_count",
        "_csr",
        "_connected",
        "_root_row",
        "_tree_metric",
    )

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] | np.ndarray, name: str = "graph"):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        if not name or any(c.isspace() for c in name):
            raise ValueError("graph name must be a nonempty token without whitespace")
        n = vertex_count
        pairs = _edge_array(edges, n)
        # Both orientations of every edge as u*n + v keys: one sort orders
        # them by (tail, head) and puts duplicates side by side.
        keys = np.concatenate((pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0]))
        keys = _sorted_unique(keys)
        tails, heads = np.divmod(keys, max(n, 1))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
        indices = heads.astype(np.int32)
        indptr.flags.writeable = indices.flags.writeable = False
        self.name = name
        self.vertex_count = vertex_count
        self._tuples: tuple[tuple[int, ...], ...] | None = None
        self._edge_count = keys.size // 2
        self._csr = (indptr, indices)
        self._connected: bool | None = None
        self._root_row: np.ndarray | None = None
        self._tree_metric: _TreeMetric | None = None

    @property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        """The sorted neighbour tuples the Python traversals read, built
        from the CSR arrays on first access."""
        if self._tuples is None:
            self._tuples = _adjacency_tuples(*self._csr)
        return self._tuples

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

    def check_vertices(self, vs: Collection[int]) -> None:
        """:meth:`check_vertex` for a whole batch at once: the ids it accepts
        pass, and the first id it rejects raises its error."""
        if len(vs) and not (set(map(type, vs)) <= _PLAIN_IDS and 0 <= min(vs) and max(vs) < self.vertex_count):
            for v in vs:
                self.check_vertex(v)

    @property
    def is_connected(self) -> bool:
        if self._connected is None:
            # The row from 0 stays with the graph (see distance_vector).
            self._connected = self.vertex_count == 0 or bool(distance_vector(self, 0).min() >= 0)
        return self._connected

    @property
    def is_tree(self) -> bool:
        return self.vertex_count > 0 and self._edge_count == self.vertex_count - 1 and self.is_connected

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) in CSR layout, read-only; neighbor order is sorted."""
        return self._csr

    def tree_metric(self) -> "_TreeMetric":
        if not self.is_tree:
            raise ValueError("tree_metric is only defined for trees")
        if self._tree_metric is None:
            self._tree_metric = _TreeMetric(self, distance_vector(self, 0))
        return self._tree_metric

    def __repr__(self) -> str:
        return f"MetricGraph({self.name!r}, V={self.vertex_count}, E={self._edge_count})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricGraph):
            return NotImplemented
        return (
            self.name == other.name
            and self.vertex_count == other.vertex_count
            and all(map(np.array_equal, self._csr, other._csr))
        )

    def __hash__(self) -> int:
        return hash((self.name, self.vertex_count, *(a.tobytes() for a in self._csr)))


def _adjacency_tuples(indptr: np.ndarray, indices: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """One ascending tuple of neighbours per vertex, sliced from the CSR
    arrays. Gathered from one object array, the tuples share one int per
    vertex."""
    flat = tuple(np.arange(indptr.size - 1).astype(object)[indices].tolist())
    bounds = indptr.tolist()
    return tuple(flat[a:b] for a, b in zip(bounds, bounds[1:]))


def _edge_array(edges: Iterable[tuple[int, int]] | np.ndarray, n: int) -> np.ndarray:
    """``edges`` as an (E, 2) int64 array of ids in ``[0, n)`` without
    self-loops. The first bad edge in input order raises: out of range,
    else a self-loop, else a non-integer id (never truncated)."""
    pairs = edges if isinstance(edges, np.ndarray) else list(edges)
    arr = np.asarray(pairs) if len(pairs) else np.empty((0, 2), dtype=np.int64)
    if arr.ndim == 2 and arr.shape[1] == 2 and arr.dtype.kind in "biu":
        ids = arr.astype(np.int64, copy=False)
        if not ids.size or (ids.min() >= 0 and ids.max() < n and not (ids[:, 0] == ids[:, 1]).any()):
            return ids
        bad = (ids < 0).any(axis=1) | (ids >= n).any(axis=1) | (ids[:, 0] == ids[:, 1])
        pairs = [tuple(pairs[int(np.argmax(bad))])]
    # Pair by pair: a bad edge found above, or ids numpy could not hold
    # as one integer array (floats, mixed numpy types, huge ints).
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (isinstance(u, (int, np.integer)) and isinstance(v, (int, np.integer))):
            raise TypeError(f"edge ({u}, {v}) has a non-integer vertex id")
    return np.array([(int(u), int(v)) for u, v in pairs], dtype=np.int64).reshape(-1, 2)


# -- BFS metric --------------------------------------------------------


def bfs_distances(g: MetricGraph, source: int) -> list[int]:
    """Distances from ``source`` to every vertex; ``-1`` marks unreachable."""
    return _dense_bfs(g, (source,))


def multi_source_distances(g: MetricGraph, sources: Iterable[int]) -> list[int]:
    """Distance to the nearest of ``sources`` for every vertex, ``-1`` beyond reach."""
    return _dense_bfs(g, sources)


def _dense_bfs(g: MetricGraph, sources: Iterable[int]) -> list[int]:
    sources = list(sources)
    g.check_vertices(sources)
    dist = [-1] * g.vertex_count
    queue = []
    for s in sources:
        if dist[s] != 0:
            dist[s] = 0
            queue.append(s)
    adj = g._adj
    for u in queue:
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return dist


def _spheres(g: MetricGraph, x: int) -> Iterator[list[int]]:
    """The spheres about ``x`` for radius 0, 1, 2, ..., while they are
    nonempty. The search keeps its seen vertices in a set, so its cost
    follows the ball, not the graph."""
    g.check_vertex(x)
    adj = g._adj
    seen = {x}
    shell = [x]
    while shell:
        yield shell
        outer = []
        for u in shell:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    outer.append(w)
        shell = outer


def distance_vector(g: MetricGraph, source: int) -> np.ndarray:
    """Full distance row from ``source`` as an int32 array (-1 unreachable).

    Switches to a level-synchronous numpy BFS on large graphs; result is
    identical to :func:`bfs_distances`. The row from vertex 0 is computed
    once and kept by the graph, read-only: the connectivity check, the
    tree metric and every later call share it.
    """
    g.check_vertex(source)
    if source == 0 and g._root_row is not None:
        return g._root_row
    if g.vertex_count < _NP_BFS_MIN:
        dist = np.asarray(bfs_distances(g, source), dtype=np.int32)
    else:
        indptr, indices = g.csr_arrays()
        dist = np.full(g.vertex_count, -1, dtype=np.int32)
        frontier = np.asarray([source], dtype=np.int32)
        dist[frontier] = 0
        d = 0
        while frontier.size:
            d += 1
            nbrs = indices[_segments(indptr, frontier)[0]]
            frontier = _sorted_unique(nbrs[dist[nbrs] < 0])
            dist[frontier] = d
    if source == 0:
        dist.flags.writeable = False
        g._root_row = dist
    return dist


def _bit_levels(g: MetricGraph, frontier: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The levels of a bit-parallel BFS over the CSR arrays, one per step.

    ``frontier`` is an (n + 1, words) uint64 matrix whose row v holds the
    bits of the searches that start at v; row n is a zero word, so every
    reduceat start lies in range and the last vertex's segment ends on it.
    A step gathers the frontier over the edges, ORs it vertex by vertex
    and keeps the bits not seen before; it yields the vertices that gained
    a bit and the (n, words) bits gained, and the search ends at the first
    step that gains none. The frontier is updated in place."""
    n = g.vertex_count
    indptr, indices = g.csr_arrays()
    gather = np.append(indices, n)
    starts = indptr[:-1]
    # An empty segment would read its neighbour's word.
    isolated = np.flatnonzero(starts == indptr[1:])
    seen = frontier[:n].copy()
    while True:
        reached = np.bitwise_or.reduceat(frontier[gather], starts, axis=0)
        reached[isolated] = 0
        reached &= ~seen
        hit = np.flatnonzero(reached.any(axis=1))
        if not hit.size:
            return
        seen[hit] |= reached[hit]
        frontier[:n] = reached
        yield hit, reached


def _distance_rows(g: MetricGraph, sources: Collection[int]) -> np.ndarray:
    """Distance rows from every one of ``sources`` at once, as a (k, n)
    int32 array (-1 unreachable; a transposed view, so one copy places the
    rows): a bit-parallel BFS (:func:`_bit_levels`) in which source i owns
    bit i % 64 of word i // 64 of every vertex, so one pass over the edges
    per level advances up to 64 searches per word.

    Arrivals are kept bit-sliced: a bit that arrives at level d is ORed
    into plane b for every binary digit b of d + 1 (the sources arrive at
    level 0), and the ⌈log2(levels + 2)⌉ planes are unpacked once at the
    end, where their sum less one is the distance and -1 where no bit
    came."""
    g.check_vertices(sources)
    src = np.asarray(sources, dtype=np.int64).reshape(-1)
    k, n = src.size, g.vertex_count
    ids = np.arange(k)
    frontier = np.zeros((n + 1, (k + 63) // 64), dtype=np.uint64)
    np.bitwise_or.at(frontier, (src, ids // 64), np.left_shift(np.uint64(1), (ids % 64).astype(np.uint64)))
    planes = [frontier[:n].copy()]
    for mark, (hit, reached) in enumerate(_bit_levels(g, frontier), start=2):  # mark = level + 1
        gained = reached[hit]
        planes += [np.zeros_like(planes[0]) for _ in range(mark.bit_length() - len(planes))]
        for b in range(mark.bit_length()):
            if mark >> b & 1:
                planes[b][hit] |= gained
    # Levels + 1 in the narrowest type that holds them, transposed.
    dist = np.zeros((n, k), dtype=np.min_scalar_type((1 << len(planes)) - 1))
    for b, plane in enumerate(planes):
        bits = np.unpackbits(plane.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little")[:, :k]
        dist |= bits.astype(dist.dtype, copy=False) << b
    return np.subtract(dist, 1, dtype=np.int32).T


def _count_rows(g: MetricGraph, sources: list[int], dist: np.ndarray) -> np.ndarray:
    """Shortest-path counts from every one of ``sources``, given their
    (k, n) distance rows ``dist``, as a (k, n) int64 array, each count
    saturated at ``_SIGMA_MAX``; 0 where unreachable.

    One level-synchronous pass serves every source. Each cell (i, v) is
    the key i*n + v, and one stable sort of the distances orders the keys
    by level. A level's keys gather their neighbours' counts over the CSR
    arrays (``_key_neighbours``) and sum them by ``np.add.reduceat``: the
    neighbours one closer are the only ones counted by then, since those
    at the same level or beyond still hold 0. Saturating each sum keeps
    every later sum exact in int64, and min(count, ``_SIGMA_MAX``) exact.

    A level's keys gather in slices of about ``_ROW_CELLS // 16``
    neighbours (a gathered neighbour holds some 40 bytes of int64
    temporaries, so a slice stays within the store's 8 MB), and the
    level's counts are written once all its slices are summed."""
    n = g.vertex_count
    indptr, indices = g.csr_arrays()
    degree = np.diff(indptr)
    most = max(_ROW_CELLS // 16, 1)
    flat = dist.reshape(-1)
    # Levels from -1 up, shifted to 0 up in the narrowest type that holds
    # them: numpy's stable sort of small integers is a radix sort.
    shifted = (flat + 1).astype(np.min_scalar_type(int(flat.max(initial=0)) + 1))
    keys = np.argsort(shifted, kind="stable")  # the unreachable cells first
    ends = np.cumsum(np.bincount(shifted))  # where each level's keys end
    sig = np.zeros(flat.size, dtype=np.int64)
    sig[np.arange(len(sources)) * n + sources] = 1
    for lo, hi in zip(ends[1:-1].tolist(), ends[2:].tolist()):
        level = keys[lo:hi]
        gathered = np.cumsum(degree[level % n])
        cuts = np.searchsorted(gathered, np.arange(most, int(gathered[-1]), most), side="right").tolist()
        sums = np.empty(level.size, dtype=np.int64)
        for a, b in zip([0, *cuts], [*cuts, level.size]):
            if a < b:
                # A vertex at level 1 or beyond has a neighbour, so no segment is empty.
                nbrs, counts = _key_neighbours(indptr, indices, level[a:b])
                sums[a:b] = np.add.reduceat(sig[nbrs], np.cumsum(counts) - counts)
        sig[level] = np.minimum(sums, _SIGMA_MAX)
    return sig.reshape(len(sources), n)


def _triangle_defects(g: MetricGraph, sides: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """The thinness defect of every triangle of ``triangles``, a (T, 3)
    array of rows of ``sides``, whose rows are geodesics padded with their
    far ends: the max, over sides i and vertices v of side i, of the
    distance from v to the other two sides. The graph must be connected.

    Set 3t + i starts from the two sides of triangle t other than i, and
    owns bit (3t + i) % 63 of word (3t + i) // 63 of a bit-parallel BFS
    (:func:`_bit_levels`) over batches of at most ``_BLOCK`` words of
    sets. A word of a batch holds 63 · width side positions and a word per
    edge of the level step's gather; a batch keeps these within
    ``_ROW_CELLS // 16`` cells, at least one word.
    Each level checks the side vertices not yet reached by their own set;
    the level that reaches the last of a triangle's is its defect. A
    padded vertex is the end of another side, reached before any level
    runs, and on a tree every side vertex is, so no level runs there."""
    n = g.vertex_count
    per_word = 21  # triangles per word: three sets each, in one word
    cells = 3 * per_word * sides.shape[1] + g.csr_arrays()[1].size + 1
    step = per_word * min(_BLOCK, max(_ROW_CELLS // 16 // cells, 1))
    worst = np.zeros(len(triangles), dtype=np.int64)
    for lo in range(0, len(triangles), step):
        batch = sides[triangles[lo : lo + step]]
        count, _, width = batch.shape
        words = -(-count // per_word)
        # Side j of a triangle starts the triangle's two other sets and
        # ends its own, set j.
        own = np.left_shift(np.uint64(1), np.arange(3 * count, dtype=np.uint64).reshape(count, 3) % (3 * per_word))
        starts = np.bitwise_or.reduce(own, axis=1, keepdims=True) ^ own
        # Cells as positions v * words + word of the row-major bit matrices.
        cell = np.promote_types(np.int32, np.min_scalar_type(-max((n + 1) * words, batch.size)))
        at = batch.astype(cell) * words + (np.arange(count, dtype=cell) // per_word)[:, None, None]
        frontier = np.zeros((n + 1, words), dtype=np.uint64)
        np.bitwise_or.at(frontier.reshape(-1), at, starts[:, :, None])
        unreached = frontier.reshape(-1)[at]
        unreached &= own[:, :, None]
        pending = np.flatnonzero(unreached == 0).astype(cell)
        del unreached
        at, bit, owner = at.reshape(-1)[pending], own.reshape(-1)[pending // width], pending // (3 * width)
        levels = enumerate(_bit_levels(g, frontier), start=1)
        while at.size:
            level, (_, reached) = next(levels)
            done = (reached.reshape(-1)[at] & bit) != 0
            worst[lo + owner[done]] = level
            at, bit, owner = at[~done], bit[~done], owner[~done]
    return worst


# -- set-labelled expansion ----------------------------------------------
#
# Many vertex sets at once, as one sorted int64 array of keys s*n + v, one
# per member v of set s. The set id rides in the key as the source bit
# does in ``_distance_rows``.


def _set_balls(g: MetricGraph, keys: np.ndarray, radius: int) -> np.ndarray:
    """The ``radius``-balls of many vertex sets: the sorted keys of every
    (s, w) with w within ``radius`` of set s, from the sorted, repeat-free
    ``keys`` of the sets. Level by level it gathers the frontier's
    neighbours over the CSR arrays, dedupes them by a sort and drops the
    keys already held."""
    held = frontier = keys
    for _ in range(radius):
        if not frontier.size:
            break
        nbrs = _sorted_unique(_key_neighbours(*g.csr_arrays(), frontier)[0])
        frontier = nbrs[~_find(held, nbrs)[1]]
        # Two sorted runs: the stable sort merges them in one pass.
        held = np.concatenate((held, frontier))
        held.sort(kind="stable")
    return held


def _set_depths(g: MetricGraph, keys: np.ndarray) -> np.ndarray:
    """d(v, complement of set s) for every key s*n + v of the sorted,
    repeat-free ``keys``, aligned with them; 0 where v has no path to the
    complement. A member with a neighbour outside its set has depth 1, and
    an inward expansion over the keys gives the rest: a shortest path to
    the complement stays inside the set until its last step."""
    nbrs, counts = _key_neighbours(*g.csr_arrays(), keys)
    pos, inside = _find(keys, nbrs)
    owner = np.repeat(np.arange(keys.size), counts)
    depth = np.zeros(keys.size, dtype=np.int64)
    frontier = np.flatnonzero(np.bincount(owner[~inside], minlength=keys.size))
    # The members' in-set neighbours as CSR over key positions.
    heads = pos[inside]
    ptr = np.zeros(keys.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[inside], minlength=keys.size), out=ptr[1:])
    level = 1
    while frontier.size:
        depth[frontier] = level
        level += 1
        nxt = heads[_segments(ptr, frontier)[0]]
        frontier = _sorted_unique(nxt[depth[nxt] == 0])
    return depth


def _set_cones(g: MetricGraph, dist: np.ndarray, keys: np.ndarray, first: int, last: int, canonical: bool) -> np.ndarray:
    """The forward cones of many vertex sets about the source of the int32
    distance row ``dist``: the keys of every (s, w) with w reached from a
    member of set s by ``first`` to ``last`` steps one level outward
    (:func:`_outward_steps`, canonical or all), from the sorted,
    repeat-free ``keys`` of the sets. Level by level it gathers the
    frontier's steps and dedupes them by a sort; the result holds the
    levels in order, each sorted, and no key twice."""
    ptr, heads = _outward_steps(g, dist, canonical)
    frontier = keys
    cones = []
    for level in range(1, last + 1):
        # The keys arrive in runs, one per set, each sorted where the set
        # has one frontier vertex: a stable sort merges them.
        frontier = _sorted_unique(_key_neighbours(ptr, heads, frontier)[0], kind="stable")
        if level >= first:
            cones.append(frontier)
    return np.concatenate(cones) if cones else np.empty(0, dtype=np.int64)


def _outward_steps(g: MetricGraph, dist: np.ndarray, canonical: bool) -> tuple[np.ndarray, np.ndarray]:
    """The steps one level outward from the source of the int32 distance
    row ``dist`` (-1 unreachable) as CSR arrays ``(ptr, heads)``, by one
    pass over the graph's: ``heads[ptr[u] : ptr[u + 1]]`` lists, ascending,
    the neighbours w of u with ``dist[w] == dist[u] + 1``. ``canonical``
    keeps only the steps u -> w where u is the least tail of a step into
    w, w's least neighbour one closer: the tie-break of
    :func:`_canonical_step`."""
    n = g.vertex_count
    indptr, indices = g.csr_arrays()
    tails = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
    rising = np.flatnonzero(dist[indices] - dist[tails] == 1)
    tails, heads = tails[rising], indices[rising]
    if canonical:
        least = np.full(n, n, dtype=np.int32)
        np.minimum.at(least, heads, tails)
        keep = least[heads] == tails
        tails, heads = tails[keep], heads[keep]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=ptr[1:])
    return ptr, heads


def _key_neighbours(indptr: np.ndarray, indices: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys s*n + w of the heads w of the CSR rows (``indptr``,
    ``indices``) of every key s*n + v, key by key in row order, and how
    many each key has."""
    v = keys % max(indptr.size - 1, 1)
    at, counts = _segments(indptr, v)
    return np.repeat(keys - v, counts) + indices[at], counts


def _segments(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions ``ptr[r] : ptr[r + 1]`` of every one of ``rows``,
    concatenated in order, and how many each row has; each row's bounds
    are read once."""
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(int(ends[-1]) if ends.size else 0), counts


def _sorted_unique(a: np.ndarray, kind: str | None = None) -> np.ndarray:
    """The distinct values of ``a``, ascending: ``a`` sorted in place (by
    the sort ``kind``) and the first of each run of equal values
    (``np.unique`` is far slower)."""
    a.sort(kind=kind)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def _find(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where ``queries`` sit in the sorted array ``keys`` (their insertion
    points) and whether each is present."""
    pos = np.searchsorted(keys, queries)
    found = pos < keys.size
    found[found] = keys[pos[found]] == queries[found]
    return pos, found


def _mapped(shape: tuple[int, int], dtype: type) -> np.ndarray:
    """A zero matrix on private anonymous pages, which take memory only
    when written (numpy advises an array of 4 MiB and up onto huge pages,
    resident 2 MiB at a time)."""
    import mmap  # here, so only runs that keep rows load it

    size = shape[0] * shape[1]
    buf = mmap.mmap(-1, max(size * np.dtype(dtype).itemsize, 1), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype, size).reshape(shape)


class _Rows:
    """Distance rows of one graph, computed on demand and memoised in at
    most ``_ROW_CELLS`` int32 cells.

    ``rows[s]`` is the read-only int32 distance row from ``s`` in global
    ids; it reads -1 where a vertex is unreachable. One map gives each held
    source its slot: a row of an int32 matrix of distance rows and, in a
    store made with ``counts``, the same row of an int64 matrix of
    shortest-path counts, exact below ``_SIGMA_MAX`` and ``_SIGMA_MAX`` for
    every count at or above it. A count row takes two cells per vertex, and
    the store holds ``capacity`` sources' rows, at least one. Its matrices
    are mapped on the first row and resident only as far as rows are
    written.

    Every row enters through ``rows.load(sources)``, which fills a
    source's distance and count rows together, block by block, and
    ``rows[s]`` loads ``s`` when it is not held. A store without room for
    the rows asked for starts over with fresh matrices, so a row handed out
    earlier keeps its values. ``rows.block(X, cols)`` reads the distance
    rows of many sources at many columns, ``capacity`` sources at a time,
    by one fancy index; ``rows.cells(sources, cols)`` reads one distance
    and one count entry of each pair, by one fancy index into each matrix.
    """

    __slots__ = ("g", "capacity", "_counts", "_slot", "_dist", "_sigma")

    def __init__(self, g: MetricGraph, counts: bool = False):
        self.g = g
        self._counts = counts  # whether ``load`` fills count rows too
        # A source's rows take n cells, and 2n more with its count row.
        self.capacity = max(_ROW_CELLS // max(g.vertex_count * (1 + 2 * counts), 1), 1)
        self._clear()

    def _clear(self) -> None:
        # Fresh matrices, so rows handed out before keep their values.
        n = self.g.vertex_count
        self._slot: dict[int, int] = {}
        self._dist, self._sigma = np.empty((0, n), dtype=np.int32), np.empty((0, n), dtype=np.int64)

    def _take(self, sources: list[int]) -> slice:
        """The slots of ``sources``, after those held; a fresh store maps
        its matrices first."""
        if not len(self._dist):
            shape = (self.capacity, self.g.vertex_count)
            self._dist = _mapped(shape, np.int32)
            if self._counts:
                self._sigma = _mapped(shape, np.int64)
        used = len(self._slot)
        self._slot.update(zip(sources, range(used, used + len(sources))))
        return slice(used, used + len(sources))

    def __getitem__(self, s: int) -> np.ndarray:
        slot = self._slot.get(s)
        if slot is None:
            self.load([s])
            slot = self._slot[s]
        row = self._dist[slot]
        row.flags.writeable = False
        return row

    def load(self, sources: Iterable[int]) -> None:
        """Memoise the rows of the first ``capacity`` distinct ``sources``,
        filling the missing ones block by block; a store without room for
        them beside the rows held starts over first.

        A block holds at most ``_BLOCK`` sources. The row from vertex 0 is
        the one the graph keeps (``distance_vector``), copied. The others
        come from one ``_distance_rows`` call when the level bound, max
        d(0, s) + ecc(0) over them, read from that kept row, is at most
        three levels per source, and one by one from ``distance_vector``
        otherwise, a lone row too: one list row costs about three levels of
        a 64-source kernel call (on grid:40, 0.30 ms a row against 0.08 ms
        a level). In a store made with ``counts`` the block's count rows
        come from one ``_count_rows`` pass over its distance rows.
        """
        wanted = list(dict.fromkeys(sources))
        self.g.check_vertices(wanted)
        wanted = wanted[: self.capacity]
        missing = [s for s in wanted if s not in self._slot]
        if len(self._slot) + len(missing) > self.capacity:
            self._clear()
            missing = wanted
        for lo in range(0, len(missing), _BLOCK):
            run = sorted(missing[lo : lo + _BLOCK], key=bool)  # vertex 0 first
            at = self._take(run)
            dist = self._dist[at]
            if run[0] == 0:
                dist[0] = distance_vector(self.g, 0)
            rest = run[run[0] == 0 :]
            if len(rest) > 1 and self._level_bound(rest) <= 3 * len(rest):
                dist[len(run) - len(rest) :] = _distance_rows(self.g, rest)
            else:
                for i, s in enumerate(rest, start=len(run) - len(rest)):
                    dist[i] = distance_vector(self.g, s)
            if self._counts:
                self._sigma[at] = _count_rows(self.g, run, dist)

    def _level_bound(self, sources: list[int]) -> int:
        """A bound on the levels of a search from ``sources``, from the row
        from vertex 0 that the graph keeps: ecc(s) <= d(0, s) + ecc(0), or
        n where some source lies outside 0's component."""
        g = self.g
        root = g._root_row if g._root_row is not None else distance_vector(g, 0)
        near = root[sources]
        return int(near.max()) + int(root.max()) if near.min() >= 0 else g.vertex_count

    def block(self, X: list[int], cols) -> np.ndarray:
        """The distance rows of ``X`` at the columns ``cols``, as a matrix.

        ``X`` is loaded ``capacity`` sources at a time, and each chunk read
        by index: whole rows by one take of the slots, then the columns,
        when they cover half a row or more (two contiguous takes), else
        slots by columns in one fancy index.
        """
        cols = np.asarray(cols)
        parts = []
        for lo in range(0, max(len(X), 1), self.capacity):  # an empty X reads one empty chunk
            part = X[lo : lo + self.capacity]
            if not all(map(self._slot.__contains__, part)):
                self.load(part)
            at = np.fromiter(map(self._slot.__getitem__, part), np.intp, len(part))
            if 2 * cols.size >= self.g.vertex_count:
                parts.append(self._dist.take(at, axis=0).take(cols, axis=1))
            else:
                parts.append(self._dist[at[:, None], cols])
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def cells(self, sources: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distance and path count from ``sources[i]`` at ``cols[i]``
        for every i, as two arrays, in a store made with ``counts``.

        The distinct sources are read ``capacity`` at a time, those held
        first, so a read that fits the store beside its rows loads only the
        missing ones; each group is read by one fancy index into each
        matrix."""
        distinct = _sorted_unique(sources.copy())
        pos = np.searchsorted(distinct, sources)
        held = np.fromiter(map(self._slot.__contains__, distinct.tolist()), bool, distinct.size)
        order = np.argsort(~held, kind="stable")  # held sources first
        groups = range(0, distinct.size, self.capacity)
        if len(groups) > 1:
            group_of = np.empty(distinct.size, dtype=np.intp)
            group_of[order] = np.arange(distinct.size) // self.capacity
            group_of = group_of[pos]
        slot_of = np.empty(distinct.size, dtype=np.intp)
        dist = np.empty(sources.size, dtype=np.int32)
        sigma = np.empty(sources.size, dtype=np.int64)
        for lo in groups:
            ids = order[lo : lo + self.capacity]
            group = distinct[ids].tolist()
            self.load(group)
            slot_of[ids] = list(map(self._slot.__getitem__, group))
            mine = np.flatnonzero(group_of == lo // self.capacity) if len(groups) > 1 else slice(None)
            at, where = slot_of[pos[mine]], cols[mine]
            dist[mine], sigma[mine] = self._dist[at, where], self._sigma[at, where]
        return dist, sigma


def distance(g: MetricGraph, u: int, v: int) -> int | None:
    """Shortest-path distance, ``None`` when u and v lie in different
    components. The search stops at the first sphere about u that holds v."""
    g.check_vertex(u)
    g.check_vertex(v)
    return next((r for r, shell in enumerate(_spheres(g, u)) if v in shell), None)


def ball(g: MetricGraph, x: int, r: int) -> set[int]:
    """``{v : d(x, v) <= r}``."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return set(chain.from_iterable(islice(_spheres(g, x), r + 1)))


def sphere(g: MetricGraph, x: int, r: int) -> set[int]:
    """``{v : d(x, v) = r}``; ``sphere(g, x, 0) == {x}``."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return set(next(islice(_spheres(g, x), r, None), ()))


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
    return _all_walks(g._adj, dv, u, cap)


def canonical_geodesic(g: MetricGraph, u: int, v: int) -> Path:
    """The lexicographically least geodesic from u to v, built step by step
    from u with the least-vertex-id tie-break."""
    g.check_vertex(u)
    g.check_vertex(v)
    dv = bfs_distances(g, v)
    if dv[u] < 0:
        raise ValueError(f"vertices {u} and {v} are unreachable from each other")
    return Path(tuple(_canonical_walk(g._adj, dv, u)))


def _all_walks(adj, dist, u: int, cap: int) -> tuple[list[Path], bool]:
    """Every walk from u down ``dist`` to its target in lexicographic order,
    at most ``cap`` of them, and whether more exist."""
    if not dist[u]:
        return [Path((u,))], False
    paths: list[Path] = []
    # Iterative DFS over the shortest-path DAG; sorted adjacency makes the
    # output lexicographic and deterministic.
    path = [u]
    iters = [iter([w for w in adj[u] if dist[w] == dist[u] - 1])]
    while iters:
        step = next(iters[-1], None)
        if step is None:
            iters.pop()
            path.pop()
            continue
        path.append(step)
        if not dist[step]:
            if len(paths) == cap:
                return paths, True
            paths.append(Path(tuple(path)))
            path.pop()
            continue
        iters.append(iter([w for w in adj[step] if dist[w] == dist[step] - 1]))
    return paths, False


def _canonical_step(adj, dist, v: int) -> int:
    """v's least-id neighbour one closer to the target of ``dist``."""
    closer = dist[v] - 1
    return min(w for w in adj[v] if dist[w] == closer)


def _canonical_walk(adj, dist, u: int) -> list[int]:
    """Canonical steps from u down ``dist`` to its target."""
    path = [u]
    while dist[u]:
        u = _canonical_step(adj, dist, u)
        path.append(u)
    return path


def _canonical_walks(rows: "_Rows", sources: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The canonical geodesic from every ``sources[w]`` to ``ends[w]`` (a
    pair joined by a path), as row w of one (W, L) int32 array padded with
    its far end ``ends[w]``; L is one more than the longest.

    The walks advance together down their far ends' rows, read in place
    from their slots in ``rows``, with the far ends loaded ``capacity`` at
    a time (one group when they fit the store): each step gathers the live
    walks' neighbours over the CSR arrays and takes, per walk, the least
    one closer by one ``np.minimum.reduceat``, the tie-break of
    :func:`_canonical_step`."""
    g = rows.g
    n = g.vertex_count
    indptr, indices = g.csr_arrays()
    ends = np.asarray(ends, dtype=np.int64)
    starts = np.asarray(sources, dtype=np.int32)
    far = _sorted_unique(ends.copy())
    owner = np.searchsorted(far, ends)  # each walk's far end in ``far``
    groups = []
    for lo in range(0, far.size, rows.capacity):
        group = far[lo : lo + rows.capacity].tolist()
        rows.load(group)
        slots = np.fromiter(map(rows._slot.__getitem__, group), np.int64, len(group))
        mine = np.flatnonzero((owner >= lo) & (owner < lo + len(group)))
        flat = rows._dist.reshape(-1)
        base = slots[owner[mine] - lo] * n  # each walk's row in ``flat``
        cur = starts[mine]
        left = flat[base + cur]  # steps still to take
        walks = np.empty((cur.size, int(left.max(initial=0)) + 1), dtype=np.int32)
        walks[:, 0] = cur
        live = np.flatnonzero(left)
        for step in range(1, walks.shape[1]):
            at, counts = _segments(indptr, cur[live])
            nbrs = indices[at]
            closer = flat[np.repeat(base[live], counts) + nbrs] == np.repeat(left[live] - 1, counts)
            cur[live] = np.minimum.reduceat(np.where(closer, nbrs, n), np.cumsum(counts) - counts)
            left[live] -= 1
            walks[:, step] = cur
            live = live[left[live] > 0]
        groups.append((mine, walks))
    if len(groups) == 1:
        return groups[0][1]
    out = np.empty((starts.size, max((walks.shape[1] for _, walks in groups), default=1)), dtype=np.int32)
    for mine, walks in groups:
        out[mine, : walks.shape[1]] = walks
        out[mine, walks.shape[1] :] = walks[:, -1:]
    return out


def _walk_room(rows: "_Rows") -> int:
    """How many walks :func:`_canonical_walks` takes at once within
    ``_ROW_CELLS // 16`` cells of walks: one walk takes at most 1 + 2 ecc(0)
    cells, a bound on the diameter from the row from vertex 0 that the
    graph keeps."""
    return max(_ROW_CELLS // 16 // (1 + 2 * rows._level_bound([0])), 1)


def set_diameter(
    g: MetricGraph, members: Iterable[int] | Iterable[Iterable[int]], *, batch: bool = False
) -> int | None | list[int | None]:
    """Max pairwise distance within ``members``, measured in g (not the
    induced subgraph); ``None`` if some pair is unreachable.

    With ``batch=True``, ``members`` is an iterable of vertex sets, or the
    sets as strictly ascending int64 keys s*n + v (n the vertex count), as
    :func:`_set_balls` takes them, and the list of their diameters is
    returned, in order (see :func:`set_diameters`). Every member of every
    set is validated before any distance is taken; an empty set anywhere
    raises. The members are flattened once into one int64 array, checked
    by one range test. On a tree the whole batch costs two batched LCA
    sweeps over it (an exact double sweep per set, reduced per segment).
    On other graphs each set gets an exact centre-pruned BFS scan.
    """
    if batch and isinstance(members, np.ndarray) and members.ndim == 1:
        if members.size and (members[0] < 0 or (members[1:] <= members[:-1]).any()):
            raise ValueError("set keys must be nonnegative and strictly ascending")
        set_id, flat = np.divmod(members, g.vertex_count)
        sizes = np.bincount(set_id)
    else:
        sets = [ms if isinstance(ms, Collection) else tuple(ms) for ms in (members if batch else [members])]
        sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        try:
            flat = np.fromiter(map(operator.index, chain.from_iterable(sets)), dtype=np.int64, count=int(sizes.sum()))
        except (TypeError, OverflowError):
            flat = None
        if flat is None or (flat.size and (flat.min() < 0 or flat.max() >= g.vertex_count)):
            for ms in sets:  # the first invalid id raises
                g.check_vertices(ms)
    if not sizes.all():
        raise ValueError("set_diameter of an empty set")
    if g.is_tree:
        diameters = _tree_set_diameters(g.tree_metric(), flat, sizes)
    else:
        bounds = np.cumsum(sizes).tolist()
        diameters = [_scan_diameter(g, sorted(set(flat[lo:hi].tolist()))) for lo, hi in zip([0, *bounds], bounds)]
    return diameters if batch else diameters[0]


def set_diameters(g: MetricGraph, member_sets: Iterable[Iterable[int]]) -> list[int | None]:
    """:func:`set_diameter` of every set in ``member_sets``, in order; on a
    tree, two batched LCA sweeps over all members together."""
    return set_diameter(g, member_sets, batch=True)


def _tree_set_diameters(tm: "_TreeMetric", flat: np.ndarray, sizes: np.ndarray) -> list[int]:
    # Double sweep is exact for subsets of a tree metric (four-point
    # condition: the vertex farthest from any start is a diameter end).
    # All sets run at once as segments of the one flat member array.
    starts = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    d0 = tm.pair_distances(np.repeat(flat[starts], sizes), flat)
    # First farthest member of each set: every segment holds its maximum,
    # so the first hit at or after a segment's start lies inside it.
    hits = np.flatnonzero(d0 == np.repeat(np.maximum.reduceat(d0, starts), sizes))
    far = flat[hits[np.searchsorted(hits, starts)]]
    d1 = tm.pair_distances(np.repeat(far, sizes), flat)
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
    """Exact tree distances by heavy-path decomposition, from root 0.

    Every vertex keeps its ``parent`` (the root is its own), its ``depth``
    and the ``head`` of its heavy chain. A chain runs from its head down
    through heavy children; a vertex's heavy child is its child with the
    largest subtree, least id on ties. ``jump`` (the head's parent) and
    ``head_depth`` (the head's depth) are kept per vertex. A light child's
    subtree is at most half its parent's, so a root path crosses at most
    log2(n) light edges, and an LCA query leaves a chain at most that many
    times on each side (once on a broom). Five O(n) arrays in all; ``path``
    adds two more, laying the chains out as slices, on its first call.
    """

    def __init__(self, g: MetricGraph, depths_from_0: np.ndarray):
        n = g.vertex_count
        depth = np.asarray(depths_from_0, dtype=np.int64)
        # On a tree the parent of v is its unique neighbour at depth - 1;
        # the root 0 has none and is its own parent.
        indptr, indices = g.csr_arrays()
        tail = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
        up_edge = depth[indices] == depth[tail] - 1
        parent = np.zeros(n, dtype=np.int32)
        parent[tail[up_edge]] = indices[up_edge]
        # Scratch arrays are dropped as soon as they are used up: the first
        # call often comes with a large batch of members already held.
        del tail, up_edge
        # Slots in level order: order[bounds[d] : bounds[d + 1]] holds the
        # vertices at depth d, and above[i] is the slot of order[i]'s parent.
        order = np.argsort(depth, kind="stable")
        bounds = np.searchsorted(depth[order], np.arange(int(depth[order[-1]]) + 2)).tolist()
        slot = np.empty(n, dtype=np.int64)
        slot[order] = np.arange(n)
        above = slot[parent[order]]
        del slot
        # Subtree sizes by slot, bottom-up. The added values are copied
        # first: given a view of its own target, add.at runs many times slower.
        size = np.ones(n, dtype=np.int32)
        for lo, hi in zip(bounds[-2:0:-1], bounds[-1:1:-1]):
            np.add.at(size, above[lo:hi], size[lo:hi].copy())
        # A heavy child: its parent's child with the largest subtree, least
        # id on ties.
        kids = slice(bounds[1], n)
        largest = np.zeros(n, dtype=np.int32)
        np.maximum.at(largest, above[kids], size[kids])
        tied = bounds[1] + np.flatnonzero(size[kids] == largest[above[kids]])
        del size, largest
        least = np.full(n, n, dtype=np.int64)
        np.minimum.at(least, above[tied], order[tied])
        heavy = order == least[above]
        del tied, least
        # Chain heads by slot, top-down: a heavy child takes its parent's.
        by_slot = order.astype(np.int32)
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            np.copyto(by_slot[lo:hi], by_slot[above[lo:hi]], where=heavy[lo:hi])
        head = np.empty(n, dtype=np.int32)
        head[order] = by_slot
        self.parent = parent
        self.depth = depth
        self.head = head
        self.jump = parent[head]
        self.head_depth = depth[head]

    def lca_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Lowest common ancestors of two aligned id arrays."""
        head, jump, head_depth = self.head, self.jump, self.head_depth
        u = np.array(a, dtype=np.int64)
        v = np.array(b, dtype=np.int64)
        # Each pass lifts, in every pair still on two chains, the side whose
        # head is deeper to the chain above; the meet lies above that head,
        # so no pair overshoots it. On one chain the shallower side is it.
        live = np.flatnonzero(head[u] != head[v])
        x, y = u[live], v[live]
        while live.size:
            lift = head_depth[x] >= head_depth[y]
            lifted = jump[np.where(lift, x, y)]
            x = np.where(lift, lifted, x)
            y = np.where(lift, y, lifted)
            u[live] = x
            v[live] = y
            keep = np.flatnonzero(head[x] != head[y])
            live, x, y = live[keep], x[keep], y[keep]
        return np.where(self.depth[u] <= self.depth[v], u, v)

    def pair_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact tree distances ``d(a[i], b[i])`` of two aligned id arrays."""
        anc = self.lca_pairs(a, b)
        return self.depth[a] + self.depth[b] - 2 * self.depth[anc]

    def path(self, u: int, v: int) -> list[int]:
        """The unique u-v path: both ends climb to their meet."""
        anc = int(self.lca_pairs(np.asarray([u]), np.asarray([v]))[0])
        return self._climb(u, anc) + self._climb(v, anc)[-2::-1]

    def _climb(self, x: int, anc: int) -> list[int]:
        """x, its parent, ... up to its ancestor anc, one chain slice at a time."""
        order, pos = self._chain_order
        head, jump, depth, head_depth = self.head, self.jump, self.depth, self.head_depth
        slices = []  # each from a chain's head, or from anc, down to x
        while head[x] != head[anc]:
            slices.append(order[pos[x] - (depth[x] - head_depth[x]) : pos[x] + 1])
            x = jump[x]
        slices.append(order[pos[anc] : pos[x] + 1])
        return np.concatenate(slices[::-1])[::-1].tolist()

    @cached_property
    def _chain_order(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, pos)`` with ``order[pos[v]] == v``: the vertices chain by
        chain, each chain from its head down. Built on the first ``path``."""
        n = self.head.size
        offset = np.zeros(n, dtype=np.int64)
        np.cumsum(np.bincount(self.head, minlength=n)[:-1], out=offset[1:])
        pos = (offset[self.head] + self.depth - self.head_depth).astype(np.int32)
        order = np.empty(n, dtype=np.int32)
        order[pos] = np.arange(n, dtype=np.int32)
        return order, pos


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
        # the missing vertex line would come after the last line of the text
        raise GraphFormatError(lineno + 1, f"expected {expected} vertex lines, found {last_id + 1}")
    # symmetry check, reported with the line of the one-sided endpoint
    for vid, (lineno, ns) in rows.items():
        for n in ns:
            if vid not in rows[n][1]:
                raise GraphFormatError(
                    lineno, f"asymmetric edge list: {vid} lists {n} but {n} does not list {vid}"
                )
    edges = [(vid, n) for vid, (_, ns) in rows.items() for n in ns if vid < n]
    return MetricGraph(expected, edges, name=header[0])

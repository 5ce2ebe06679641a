"""Shared independent oracles: brute-force implementations the tests trust
instead of the code paths they check."""

from __future__ import annotations

import itertools
import random

from coarselab import graphs
from coarselab.graphs import MetricGraph


def random_graph(seed: int, max_vertices: int = 12, edge_prob: float = 0.3) -> MetricGraph:
    rng = random.Random(seed)
    n = rng.randint(2, max_vertices)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    return MetricGraph(n, edges, name=f"rand_{seed}")


def kernel_graph(seed: int) -> MetricGraph:
    # sparse draws are mostly disconnected, dense ones mostly connected
    return random_graph(seed, max_vertices=14, edge_prob=(0.1, 0.2, 0.35)[seed % 3])


def floyd_warshall(g: MetricGraph) -> list[list[float]]:
    n = g.vertex_count
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def brute_shortest_paths(g: MetricGraph, u: int, v: int) -> list[tuple[int, ...]]:
    """All shortest u-v paths by exhaustive simple-path search with length
    pruning; independent of any BFS predecessor structure."""
    target = floyd_warshall(g)[u][v]
    if target == float("inf"):
        return []
    found: list[tuple[int, ...]] = []

    def walk(path: list[int]) -> None:
        cur = path[-1]
        if cur == v:
            if len(path) - 1 == target:
                found.append(tuple(path))
            return
        if len(path) - 1 >= target:
            return
        for w in g.neighbors(cur):
            if w not in path:
                path.append(w)
                walk(path)
                path.pop()

    walk([u])
    return sorted(found)


def brute_path_counts(g: MetricGraph) -> list[list[int]]:
    """Shortest-path counts between every pair by dynamic programming over
    Floyd-Warshall distances: 1 from a vertex to itself, and to v the sum
    over v's neighbours one closer to the source."""
    dist = floyd_warshall(g)
    n = g.vertex_count
    counts = [[0] * n for _ in range(n)]
    for s in range(n):
        counts[s][s] = 1
        for v in sorted((v for v in range(n) if 0 < dist[s][v] < float("inf")), key=dist[s].__getitem__):
            counts[s][v] = sum(counts[s][u] for u in g.neighbors(v) if dist[s][u] == dist[s][v] - 1)
    return counts


def brute_diameter(g: MetricGraph, members) -> int | None:
    dist = floyd_warshall(g)
    best = 0
    for x, y in itertools.combinations(sorted(set(members)), 2):
        d = dist[x][y]
        if d == float("inf"):
            return None
        best = max(best, int(d))
    return best


def brute_max_discrete(g: MetricGraph, candidates, d_sep: int) -> int:
    """Maximum D-discrete subset cardinality by subset enumeration."""
    cand = sorted(set(candidates))
    dist = floyd_warshall(g)
    best = 0
    for size in range(len(cand), 0, -1):
        for sub in itertools.combinations(cand, size):
            if all(dist[x][y] >= d_sep for x, y in itertools.combinations(sub, 2)):
                return size
    return best


def spy_rows(monkeypatch) -> tuple[list, list, list]:
    """Record the source of every single distance row, and the sources of
    every kernel call and of every count-row pass."""
    single, batched, counted = [], [], []
    real_vector, real_rows, real_counts = graphs.distance_vector, graphs._distance_rows, graphs._count_rows
    monkeypatch.setattr(graphs, "distance_vector", lambda g, s: single.append(s) or real_vector(g, s))
    monkeypatch.setattr(graphs, "_distance_rows", lambda g, ss: batched.append(list(ss)) or real_rows(g, ss))
    monkeypatch.setattr(graphs, "_count_rows", lambda g, ss, d: counted.append(list(ss)) or real_counts(g, ss, d))
    return single, batched, counted

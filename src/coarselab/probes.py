"""Non-properness and geometry probes.

A finite truncation cannot literally contain an infinite D-discrete bounded
subset, so the probes operationalize the obstruction as a growth trend: the
capacity of a fixed ball across a family of growing truncations. A strictly
increasing trend is the finite shadow of non-properness; a constant one is
bounded geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Sequence

from .graphs import MetricGraph, ball
from .spaces import LabeledGraph

__all__ = [
    "DiscreteSubsetReport",
    "GrowthProbeReport",
    "discrete_capacity",
    "ray_points",
    "growth_probe",
]

EXACT_LIMIT_DEFAULT = 40


@dataclass(frozen=True)
class DiscreteSubsetReport:
    """A verified D-discrete subset of a ball, exact or greedy."""

    d_separation: int
    container_center: int
    container_radius: int
    subset: tuple[int, ...]
    cardinality: int
    method: Literal["EXACT", "GREEDY"]


def discrete_capacity(
    g: MetricGraph,
    d_separation: int,
    center: int,
    radius: int,
    exact_limit: int = EXACT_LIMIT_DEFAULT,
) -> DiscreteSubsetReport:
    """Largest (exact) or maximal-greedy subset of ball(center, radius)
    with pairwise distances at least ``d_separation``.

    Exact search (branch and bound over the conflict graph) runs when the
    candidate count fits ``exact_limit``; otherwise the greedy sweep by
    ascending vertex id gives a lower bound on the capacity.
    """
    if d_separation < 1:
        raise ValueError("separation must be at least 1")
    g.check_vertex(center)
    candidates = sorted(ball(g, center, radius))
    if d_separation == 1:
        # any two distinct vertices are already 1-separated
        return DiscreteSubsetReport(
            d_separation, center, radius, tuple(candidates), len(candidates), "EXACT"
        )
    cand = set(candidates)
    if len(candidates) <= exact_limit:
        conflicts = {v: _near_candidates(g, v, cand, d_separation) for v in candidates}
        chosen = _max_independent_set(candidates, conflicts)
        method: Literal["EXACT", "GREEDY"] = "EXACT"
    else:
        chosen = _greedy_independent_set(g, candidates, cand, d_separation)
        method = "GREEDY"
    return DiscreteSubsetReport(d_separation, center, radius, tuple(chosen), len(chosen), method)


def _near_candidates(g: MetricGraph, v: int, cand: set[int], d_sep: int) -> set[int]:
    """Candidates at distance < d_sep from v."""
    return (ball(g, v, d_sep - 1) & cand) - {v}


def _greedy_independent_set(g: MetricGraph, candidates: list[int], cand: set[int], d_sep: int) -> list[int]:
    # conflicts are only materialized for the vertices actually chosen
    chosen: list[int] = []
    blocked: set[int] = set()
    for v in candidates:
        if v not in blocked:
            chosen.append(v)
            blocked |= _near_candidates(g, v, cand, d_sep)
    return chosen


def _max_independent_set(candidates: list[int], conflicts: dict[int, set[int]]) -> list[int]:
    """Branch and bound; first maximum set found in ascending-id order, so
    the result is the lexicographically least maximum set."""
    order = candidates
    best: list[int] = []

    def extend(idx: int, chosen: list[int], blocked: set[int]) -> None:
        nonlocal best
        remaining = [v for v in order[idx:] if v not in blocked]
        if len(chosen) + len(remaining) <= len(best):
            return
        if not remaining:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        v = remaining[0]
        vi = order.index(v)
        # branch: take v
        extend(vi + 1, chosen + [v], blocked | conflicts[v] | {v})
        # branch: skip v
        extend(vi + 1, chosen, blocked | {v})

    extend(0, [], set())
    return best


def ray_points(space: LabeledGraph, depth: int) -> set[int]:
    """The depth-``depth`` vertex of every root ray long enough to have one.

    Only meaningful on broom-shaped trees (a root with disjoint attached
    paths); the rays are recovered from the structure, no labels needed.
    The chosen points are pairwise at distance exactly ``2 * depth``.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    g = space.graph
    root = space.basepoint
    if depth == 0:
        return {root}
    points: set[int] = set()
    for start in g.neighbors(root):
        prev, cur = root, start
        steps = 1
        while steps < depth:
            nxt = [w for w in g.neighbors(cur) if w != prev]
            if len(nxt) != 1:
                break
            prev, cur = cur, nxt[0]
            steps += 1
        if steps == depth:
            points.add(cur)
    if not points:
        raise ValueError(f"no ray of length at least {depth}")
    return points


@dataclass(frozen=True)
class GrowthProbeReport:
    d_separation: int
    radius: int
    parameters: tuple[int, ...]
    cardinalities: tuple[int, ...]
    methods: tuple[str, ...]
    verdict: Literal["UNBOUNDED-TREND", "BOUNDED", "INCONCLUSIVE"]


def growth_probe(
    generator: Callable[[int], LabeledGraph],
    parameters: Sequence[int],
    d_separation: int,
    radius: int,
    exact_limit: int = EXACT_LIMIT_DEFAULT,
) -> GrowthProbeReport:
    """Capacity of the basepoint ball across a growing truncation family.

    Strictly increasing cardinalities give the verdict UNBOUNDED-TREND,
    an eventually constant tail gives BOUNDED, anything else is reported
    INCONCLUSIVE rather than over-claimed.
    """
    params = tuple(parameters)
    if len(params) < 2:
        raise ValueError("need at least two parameters for a trend")
    if any(b <= a for a, b in zip(params, params[1:])):
        raise ValueError("parameter sequence must be strictly increasing")
    cards = []
    methods = []
    for p in params:
        space = generator(p)
        report = discrete_capacity(space.graph, d_separation, space.basepoint, radius, exact_limit)
        cards.append(report.cardinality)
        methods.append(report.method)
    cards_t = tuple(cards)
    if all(b > a for a, b in zip(cards_t, cards_t[1:])):
        verdict: Literal["UNBOUNDED-TREND", "BOUNDED", "INCONCLUSIVE"] = "UNBOUNDED-TREND"
    elif _eventually_constant(cards_t):
        verdict = "BOUNDED"
    else:
        verdict = "INCONCLUSIVE"
    return GrowthProbeReport(d_separation, radius, params, cards_t, tuple(methods), verdict)


def _eventually_constant(cards: tuple[int, ...]) -> bool:
    tail = cards[-1]
    k = len(cards)
    while k > 0 and cards[k - 1] == tail:
        k -= 1
    return len(cards) - k >= 2

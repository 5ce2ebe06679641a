"""Per-layer metrics of the traced run.

The layers are the package's modules. ``make_tracer`` wraps their public
functions (and ``MetricGraph.tree_metric``); ``layer_metrics`` turns the
spans and counters of one traced pass into the metrics listed under
``per_layer`` in BENCHMARK.json. A ``*_s`` metric is the self time of the
named spans (span time minus the traced spans it called), except the two
rates, which divide by the inclusive time, and ``a1.dump_s``, which is
the inclusive time of the whole emission path. A metric of a layer a
workload does not touch reads 0.
"""

from __future__ import annotations

import importlib

from tracer import Tracer

TRACED = ("spaces", "graphs", "geodesics", "cover", "a1", "probes")
NAMESPACES = TRACED + ("cli",)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _backend(g, large: str) -> str:
    """The backend ``thin_delta``/``check_property_b`` dispatch to: tree,
    full tables up to the small-graph limit, else ``large``."""
    from coarselab import geodesics

    if g.is_tree:
        return "tree"
    return "table" if g.vertex_count <= getattr(geodesics, "_SMALL_GRAPH_MAX", 512) else large


def _bfs_branch(args, kwargs) -> str:
    from coarselab import graphs

    g = _arg(args, kwargs, 0, "g")
    return "numpy" if g.vertex_count >= getattr(graphs, "_NP_BFS_MIN", 20_000) else "python"


VARIANTS = {
    "graphs.distance_vector": _bfs_branch,
    "geodesics.thin_delta": lambda a, k: _backend(_arg(a, k, 0, "g"), "generic"),
    "geodesics.check_property_b": lambda a, k: _backend(_arg(a, k, 0, "fam").graph, "envelope"),
}


_GENERATORS = tuple(f"spaces.{name}" for name in ("broom_tree", "regular_tree", "farey_truncation", "grid"))

OBSERVERS = {
    **{name: (lambda a, k, r: {"spaces.vertices": r.graph.vertex_count}) for name in _GENERATORS},
    "geodesics.thin_delta": lambda a, k, r: {"geodesics.triangles": r.triangles_checked},
    "geodesics.check_property_b": lambda a, k, r: {
        "geodesics.propb_pairs": r.pairs_checked,
        "geodesics.propb_instances": r.samples_checked,
    },
    "cover.build_cover": lambda a, k, r: {"cover.sets": len(r.sets), "cover.annuli": len(r.annuli)},
    "cover.verify_diameters": lambda a, k, r: {"cover.sets_verified": len(_arg(a, k, 1, "cover").sets)},
    "a1.build_fat_cover": lambda a, k, r: {"a1.fat_sets": len(r.sets), "a1.safe_vertices": len(r.safe)},
    "a1.variation_sweep": lambda a, k, r: {"a1.sweep_pairs": r.pairs_checked},
}


def make_tracer() -> Tracer:
    modules = {name: importlib.import_module(f"coarselab.{name}") for name in TRACED}
    graph_cls = modules["graphs"].MetricGraph
    return Tracer(modules, extra_methods=[("graphs", graph_cls, "tree_metric")], variants=VARIANTS, observers=OBSERVERS)


def namespaces():
    return [importlib.import_module(f"coarselab.{name}") for name in NAMESPACES]


# -- metrics -----------------------------------------------------------

_BFS = ("graphs.bfs_distances", "graphs.multi_source_distances", "graphs.distance_vector[numpy]")
_BFS_ALL = _BFS + ("graphs.distance_vector[python]", "graphs.ball", "graphs.sphere", "graphs.distance")
_GEODESIC = ("graphs.all_geodesics", "graphs.canonical_geodesic")
_DELTA = tuple(f"geodesics.thin_delta[{b}]" for b in ("tree", "table", "generic"))
_PROPB = tuple(f"geodesics.check_property_b[{b}]" for b in ("tree", "table", "envelope"))

# (metric, unit, source) where source is ("self"|"calls"|"total", span names),
# ("counter", name), ("rate", counter, span names), ("ratio", counter, counter)
# or ("bytes",).
METRICS = [
    ("spaces.build_s", "s", ("self", _GENERATORS + ("spaces.farey_safe_radius",))),
    ("spaces.vertices", "count", ("counter", "spaces.vertices")),
    ("graphs.bfs_calls", "count", ("calls", _BFS)),
    ("graphs.bfs_s", "s", ("self", _BFS_ALL)),
    ("graphs.geodesic_calls", "count", ("calls", _GEODESIC)),
    ("graphs.geodesic_s", "s", ("self", _GEODESIC)),
    ("graphs.set_diameter_calls", "count", ("calls", ("graphs.set_diameter",))),
    ("graphs.set_diameter_s", "s", ("self", ("graphs.set_diameter",))),
    ("graphs.tree_metric_s", "s", ("self", ("graphs.tree_metric",))),
    *[(f"geodesics.thin_delta_s.{b}", "s", ("self", (f"geodesics.thin_delta[{b}]",))) for b in ("tree", "table", "generic")],
    ("geodesics.triangles", "count", ("counter", "geodesics.triangles")),
    ("geodesics.triangles_per_s", "1/s", ("rate", "geodesics.triangles", _DELTA)),
    *[(f"geodesics.propb_s.{b}", "s", ("self", (f"geodesics.check_property_b[{b}]",))) for b in ("tree", "table", "envelope")],
    ("geodesics.propb_pairs", "count", ("counter", "geodesics.propb_pairs")),
    ("geodesics.propb_instances", "count", ("counter", "geodesics.propb_instances")),
    ("geodesics.instances_per_pair", "ratio", ("ratio", "geodesics.propb_instances", "geodesics.propb_pairs")),
    ("geodesics.instances_per_s", "1/s", ("rate", "geodesics.propb_instances", _PROPB)),
    ("cover.build_s", "s", ("self", ("cover.build_cover",))),
    ("cover.sets", "count", ("counter", "cover.sets")),
    ("cover.annuli", "count", ("counter", "cover.annuli")),
    ("cover.verify_s", "s", ("self", ("cover.verify_diameters",))),
    ("cover.sets_verified_per_s", "1/s", ("rate", "cover.sets_verified", ("cover.verify_diameters",))),
    ("cover.multiplicity_s", "s", ("self", ("cover.multiplicity",))),
    ("a1.fat_cover_s", "s", ("self", ("a1.build_fat_cover",))),
    ("a1.fat_sets", "count", ("counter", "a1.fat_sets")),
    ("a1.safe_vertices", "count", ("counter", "a1.safe_vertices")),
    ("a1.lebesgue_s", "s", ("self", ("a1.lebesgue_check",))),
    ("a1.anchors_s", "s", ("self", ("a1.select_anchors",))),
    ("a1.phi_calls", "count", ("calls", ("a1.phi",))),
    ("a1.phi_s", "s", ("self", ("a1.phi",))),
    ("a1.map_calls", "count", ("calls", ("a1.a1_map",))),
    ("a1.map_s", "s", ("self", ("a1.a1_map",))),
    ("a1.sweep_s", "s", ("self", ("a1.variation_sweep",))),
    ("a1.sweep_pairs", "count", ("counter", "a1.sweep_pairs")),
    ("a1.dump_s", "s", ("total", ("a1.store_a1_maps",))),
    ("probes.capacity_calls", "count", ("calls", ("probes.discrete_capacity",))),
    ("probes.capacity_s", "s", ("self", ("probes.discrete_capacity",))),
    ("cli.self_s", "s", ("self", ("cli.main",))),
    ("cli.report_bytes", "count", ("bytes",)),
]

UNITS = {name: unit for name, unit, _ in METRICS}
UNITS["trace.overhead_s"] = "s"


def layer_metrics(op_traces: list[dict], report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the traces of its ops."""
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    for trace in op_traces:
        for path, agg in trace["spans"].items():
            acc = spans.setdefault(path.rpartition(">")[2], [0, 0.0, 0.0])  # by the span name at the path's end
            for i in range(3):
                acc[i] += agg[i]
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def pick(names, field):
        return sum(spans[n][field] for n in names if n in spans)

    out: dict[str, float] = {}
    for name, _unit, source in METRICS:
        kind = source[0]
        if kind == "self":
            value = pick(source[1], 2)
        elif kind == "calls":
            value = pick(source[1], 0)
        elif kind == "total":
            value = pick(source[1], 1)
        elif kind == "counter":
            value = counters.get(source[1], 0)
        elif kind == "rate":
            seconds = pick(source[2], 1)
            value = counters.get(source[1], 0) / seconds if seconds > 0 else 0.0
        elif kind == "ratio":
            den = counters.get(source[2], 0)
            value = counters.get(source[1], 0) / den if den else 0.0
        else:
            value = report_bytes
        out[name] = value
    return out

"""Batch command-line front end.

Subcommands wire the generators, checkers, builders and the calculator
into reproducible report runs: ``gen``, ``delta``, ``propb``, ``cover``,
``a1``, ``probe``, ``asdim``. Reports are line-oriented ``key=value``
records grouped under ``# section`` comments, and are byte-deterministic
for a fixed configuration and seed.

Exit codes: 0 all asserted checks passed; 1 a verified-claim violation
(a theorem alarm that must never fire on correct code and true premises);
2 usage or input error; 3 scope too small for the requested scale.

Space specs: ``broom:m``, ``tree:v,d``, ``farey:qmax``, ``grid:n``,
``file:path``. Documented defaults: k = 2*delta, geodesic cap 10000,
capacity exact limit 40.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass

from . import calculator
from .a1 import (
    ClaimViolation,
    FatCover,
    ScopeTooSmallError,
    build_fat_cover,
    check_a1_maps,
    lebesgue_check,
    phi,
    store_a1_maps,
    variation_sweep,
)
from .cover import CoverParams, asdim_upper_from_D, build_cover, multiplicity, store_cover, verify_diameters
from .geodesics import GeodesicFamily, PropertyBReport, check_property_b, thin_delta
from .graphs import load_graph, store_graph
from .probes import discrete_capacity, growth_probe
from .spaces import LabeledGraph, VertexLabels, broom_tree, farey_truncation, grid, regular_tree

EXIT_OK = 0
EXIT_ALARM = 1
EXIT_USAGE = 2
EXIT_SCOPE = 3


class SpaceSpecError(ValueError):
    pass


# Each space kind's builder, and the form of its parameters. The builders
# are the values of _SPACES itself, so a wrapper put in their place (the
# perfbench tracer's) sees every space that parse_space builds.
_SPACES = {"broom": broom_tree, "tree": regular_tree, "farey": farey_truncation, "grid": grid}
_SPACE_FORMS = {"broom": "m", "tree": "v,d", "farey": "qmax", "grid": "n"}


def parse_space(spec: str) -> LabeledGraph:
    """Instantiate a space from its mini-language spec."""
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise SpaceSpecError(f"malformed space spec {spec!r}; expected kind:params")
    if kind not in _SPACES and kind != "file":
        raise SpaceSpecError(f"unknown space kind {kind!r}")
    try:
        if kind == "file":
            with open(arg, "r", encoding="utf-8") as fh:
                g = load_graph(fh.read())
            return LabeledGraph(g, VertexLabels(g.vertex_count, str, int), 0)
        form = _SPACE_FORMS[kind]
        return _SPACES[kind](*_comma_values("space spec", spec, f"{kind}:{form}", *(int,) * len(form.split(",")), values=arg))
    except SpaceSpecError:
        raise
    except (ValueError, OSError) as exc:
        raise SpaceSpecError(f"bad space spec {spec!r}: {exc}") from exc


def _comma_values(flag: str, text: str, form: str, *kinds: type, values: str | None = None) -> list:
    """The comma-separated values of ``flag``, one per kind of ``kinds``,
    or any number of integers when no kinds are given; they are read from
    ``values``, by default all of ``text``. A value of another shape fails
    with a message that names the flag, ``text`` and its ``form``."""
    fields = (text if values is None else values).split(",")
    kinds = kinds or (int,) * len(fields)
    try:
        if len(fields) != len(kinds):
            raise ValueError
        return [kind(t) for kind, t in zip(kinds, fields)]
    except ValueError:
        raise SpaceSpecError(f"bad {flag} {text!r}: expected {form}") from None


def _is_farey(spec: str) -> bool:
    return spec.startswith("farey:")


def _resolve_delta(space: LabeledGraph, given: int | None, budget: int, seed: int, lines: list[str]) -> int:
    """Supplied delta wins; trees are 0-thin by uniqueness of geodesics;
    anything else is measured on the canonical family."""
    if given is not None:
        lines.append(f"delta={given}")
        lines.append("delta_source=given")
        return given
    if space.graph.is_tree:
        lines.append("delta=0")
        lines.append("delta_source=tree")
        return 0
    rep = thin_delta(space.graph, GeodesicFamily.canonical_of(space.graph), budget=budget, seed=seed)
    lines.append(f"delta={rep.delta}")
    lines.append("delta_source=measured")
    lines.append(f"delta_exhaustive={'yes' if rep.exhaustive else 'no'}")
    return rep.delta


def _farey_note(spec: str, lines: list[str]) -> None:
    if _is_farey(spec):
        lines.append(
            "# farey note: finite window |p| <= qmax, 1 <= q <= qmax; distances are "
            "trustworthy only inside the stabilized safe core"
        )


# -- subcommand: gen ----------------------------------------------------


def cmd_gen(args) -> tuple[int, list[str]]:
    space = parse_space(args.space)
    lines = [f"# space={args.space} basepoint={space.basepoint}"]
    _farey_note(args.space, lines)
    if args.labels:
        for v in range(space.graph.vertex_count):
            lines.append(f"# label {v} {space.labels[v]}")
    lines.extend(store_graph(space.graph).rstrip("\n").split("\n"))
    return EXIT_OK, lines


# -- subcommand: delta --------------------------------------------------


def cmd_delta(args) -> tuple[int, list[str]]:
    space = parse_space(args.space)
    fam = GeodesicFamily(space.graph, args.family)
    rep = thin_delta(space.graph, fam, budget=args.budget, seed=args.seed)
    lines = ["# section delta"]
    _farey_note(args.space, lines)
    lines.append(f"space={args.space}")
    lines.append(f"family={args.family}")
    lines.append(f"delta={rep.delta}")
    lines.append(f"triangles_checked={rep.triangles_checked}")
    lines.append(f"exhaustive={'yes' if rep.exhaustive else 'no'}")
    return EXIT_OK, lines


# -- subcommand: propb --------------------------------------------------


def _propb_lines(rep: PropertyBReport) -> list[str]:
    lines = [
        f"ell={rep.ell}",
        f"k={rep.k}",
        f"rmax={rep.r_max}",
        f"observed_D={rep.observed_D}",
        f"violations_total={rep.violations_total}",
        f"samples_checked={rep.samples_checked}",
        f"pairs_checked={rep.pairs_checked}",
        f"exhaustive={'yes' if rep.exhaustive else 'no'}",
        f"qualifying_found={'yes' if rep.qualifying_found else 'no'}",
    ]
    if not rep.qualifying_found:
        lines.append("# WARNING: no qualifying instance at these parameters; observed_D=0 is vacuous")
    for v in rep.intersection_violations:
        path = "-".join(str(x) for x in v.geodesic.vertices)
        lines.append(f"violation a={v.a} b={v.b} r={v.r} c={v.c} path={path}")
    return lines


def cmd_propb(args) -> tuple[int, list[str]]:
    space = parse_space(args.space)
    fam = GeodesicFamily(space.graph, args.family)
    lines = ["# section property_b"]
    _farey_note(args.space, lines)
    lines.append(f"space={args.space}")
    lines.append(f"family={args.family}")
    if args.k is None:
        delta = _resolve_delta(space, args.delta, args.delta_budget, args.seed, lines)
        k = 2 * delta
        lines.append(f"k_source=2*delta={k}")
    else:
        k = args.k
    rep = check_property_b(
        fam,
        ell=args.ell,
        k=k,
        r_max=args.rmax,
        pair_budget=args.pair_budget,
        c_budget=args.c_budget,
        seed=args.seed,
    )
    lines.extend(_propb_lines(rep))
    return EXIT_OK, lines


# -- subcommand: cover --------------------------------------------------


def cmd_cover(args) -> tuple[int, list[str]]:
    space = parse_space(args.space)
    fam = GeodesicFamily(space.graph, args.family)
    lines = ["# section cover"]
    _farey_note(args.space, lines)
    lines.append(f"space={args.space}")
    lines.append(f"family={args.family}")
    delta = _resolve_delta(space, args.delta, args.delta_budget, args.seed, lines)
    params = CoverParams(r=args.r, ell=args.ell, delta=delta, basepoint=space.basepoint)
    cover = build_cover(space.graph, fam, params)
    lines.append(f"r={params.r}")
    lines.append(f"ell={params.ell}")
    lines.append(f"base={params.basepoint}")
    lines.append(f"sets={cover.set_count}")
    lines.append(f"n_max={cover.n_max}")
    lines.append(f"complete={','.join(str(n) for n in sorted(cover.complete)) or '-'}")
    if not cover.complete:
        lines.append(
            f"# scope: no complete annulus; one needs the basepoint's eccentricity to reach "
            f"band + r + ell = {params.band + params.width} (band = 10(r+ell) = {params.band}), "
            f"and it is {cover.eccentricity(space.graph)}"
        )
        return EXIT_SCOPE, lines
    diam = verify_diameters(space.graph, cover)
    lines.append(f"max_diam={diam.max_diameter}")
    lines.append(f"diam_bound={diam.bound}")
    lines.append(f"diam_pass={'yes' if diam.passed else 'no'}")
    radius = args.radius if args.radius is not None else params.r // 2
    mult = multiplicity(space.graph, cover, radius, d_constant=args.d_constant)
    lines.append(f"mult_radius={radius}")
    lines.append(f"max_mult={mult.max_multiplicity}")
    if mult.bound_2d is not None:
        lines.append(f"mult_bound={mult.bound_2d}")
        lines.append(f"mult_pass={'yes' if mult.passed else 'no'}")
        lines.append(f"asdim_upper={asdim_upper_from_D(args.d_constant)}")
    if args.dump:
        lines.extend(store_cover(cover).rstrip("\n").split("\n"))
    failed = (not diam.passed) or (mult.passed is False)
    return (EXIT_ALARM if failed else EXIT_OK), lines


# -- subcommand: a1 (full pipeline) --------------------------------------


@dataclass
class PipelineA1Result:
    exit_code: int
    lines: list[str]
    propb: PropertyBReport | None = None
    fat: FatCover | None = None
    max_support: int | None = None
    all_pass: bool = False


def pipeline_a1(
    space: LabeledGraph,
    r: int,
    delta: int | None = None,
    d_constant: int | None = None,
    ell: int | None = None,
    pair_budget: int = 24,
    c_budget: int = 48,
    seed: int = 0,
    delta_budget: int = 20_000,
    space_name: str = "",
) -> PipelineA1Result:
    """End-to-end: measure delta, measure D, build the scale-10r cover,
    fatten, check the Lebesgue property, verify the partition and map
    identities on the safe core, and sweep the variation bounds.

    All assertions are exact; a failed one is a theorem alarm (exit 1),
    a truncation too small for the scale is exit 3.
    """
    g = space.graph
    lines = ["# section space", f"space={space_name or g.name}", f"vertices={g.vertex_count}"]
    fam = GeodesicFamily.all_of(g)

    lines.append("# section delta")
    delta_val = _resolve_delta(space, delta, delta_budget, seed, lines)

    lines.append("# section property_b")
    lines.append(f"k=2*delta={2 * delta_val}")
    rep = check_property_b(
        fam,
        ell=10 * delta_val,
        k=2 * delta_val,
        r_max=5,
        pair_budget=pair_budget,
        c_budget=c_budget,
        seed=seed,
    )
    lines.extend(_propb_lines(rep))
    if d_constant is None:
        if not rep.qualifying_found:
            lines.append("# no qualifying instance: cannot measure D at this scale")
            return PipelineA1Result(EXIT_SCOPE, lines, propb=rep)
        if rep.violations_total > 0:
            lines.append("# family fails the intersection clause: boundedness premise refuted")
            return PipelineA1Result(EXIT_SCOPE, lines, propb=rep)
        d_constant = rep.observed_D
    lines.append(f"d_constant={d_constant}")
    lines.append(f"asdim_upper={asdim_upper_from_D(d_constant)}")

    checks: dict[str, bool] = {}
    try:
        fat = build_fat_cover(g, fam, r, delta_val, d_constant, space.basepoint, ell=ell)
    except ScopeTooSmallError as exc:
        lines.append(f"# scope: {exc}")
        return PipelineA1Result(EXIT_SCOPE, lines, propb=rep)

    base = fat.base
    lines.append("# section cover")
    lines.append(f"base_r={base.params.r}")
    lines.append(f"base_ell={base.params.ell}")
    lines.append(f"sets={base.set_count}")
    lines.append(f"complete={','.join(str(n) for n in sorted(base.complete)) or '-'}")
    diam = fat.base_diameters
    lines.append(f"max_diam={diam.max_diameter}")
    lines.append(f"diam_bound={diam.bound}")
    checks["diam"] = diam.passed
    mult = multiplicity(g, base, 5 * r, d_constant=d_constant)
    lines.append(f"mult_radius={5 * r}")
    lines.append(f"max_mult={mult.max_multiplicity}")
    lines.append(f"mult_bound={2 * d_constant}")
    checks["mult_5r"] = bool(mult.passed)

    lines.append("# section fat_cover")
    lines.append(f"fat_sets={fat.set_count}")
    lines.append(f"order={fat.order_max}")
    lines.append(f"order_bound={2 * d_constant}")
    lines.append(f"diam_base={fat.diam_base}")
    lines.append(f"safe_vertices={len(fat.safe)}")
    checks["order"] = fat.order_max <= 2 * d_constant
    leb = lebesgue_check(g, fat)
    lines.append(f"lebesgue_radius={leb.radius}")
    checks["lebesgue"] = leb.passed

    lines.append("# section a1")
    maps = check_a1_maps(g, fat)
    # The Fraction boundary must agree with the integer core: compare phi
    # with the numerators at the first vertex of largest support.
    weights = phi(g, fat, maps.widest)
    norm_ok = maps.norm_ok and weights == maps.widest_phi
    checks["l1_norm"] = norm_ok
    checks["nonneg"] = maps.positive_ok
    checks["support_count"] = maps.max_support <= 2 * d_constant
    checks["denominator"] = True
    checks["support_radius"] = maps.support_radius_ok
    lines.append(f"checked_x={maps.checked}")
    lines.append(f"norm_exact={'yes' if norm_ok else 'no'}")
    lines.append(f"entries_positive={'yes' if maps.positive_ok else 'no'}")
    lines.append(f"max_support={maps.max_support}")
    lines.append(f"support_bound_2D={2 * d_constant}")
    lines.append(f"support_radius_bound={maps.support_radius_bound}")
    lines.append(f"support_radius_ok={'yes' if maps.support_radius_ok else 'no'}")

    lines.append("# section variation")
    sweep = variation_sweep(g, fat)
    lines.append(f"pairs={sweep.pairs_checked}")
    lines.append(f"sup_l1={sweep.sup_l1}")
    lines.append(f"l1_bound={sweep.l1_bound}")
    lines.append(f"sup_phi_diff={sweep.sup_phi_diff}")
    lines.append(f"phi_bound={sweep.phi_bound}")
    lines.append(f"complement_bound={sweep.complement_bound}")
    checks["variation_l1"] = sweep.l1_ok
    checks["variation_phi"] = sweep.phi_ok
    checks["variation_complement"] = sweep.complement_ok
    checks["variation_step"] = sweep.step_ok

    all_pass = all(checks.values())
    lines.append("# section verdict")
    for name in sorted(checks):
        lines.append(f"check_{name}={'pass' if checks[name] else 'FAIL'}")
    lines.append(f"verdict={'pass' if all_pass else 'FAIL'}")
    return PipelineA1Result(
        EXIT_OK if all_pass else EXIT_ALARM,
        lines,
        propb=rep,
        fat=fat,
        max_support=maps.max_support,
        all_pass=all_pass,
    )


def cmd_a1(args) -> tuple[int, list[str]]:
    space = parse_space(args.space)
    result = pipeline_a1(
        space,
        r=args.r,
        delta=args.delta,
        d_constant=args.d_constant,
        ell=args.ell,
        pair_budget=args.pair_budget,
        c_budget=args.c_budget,
        seed=args.seed,
        delta_budget=args.delta_budget,
        space_name=args.space,
    )
    lines = result.lines
    _farey_note(args.space, lines)
    if args.dump_maps and result.fat is not None:
        lines.append("# section a1_maps")
        lines.extend(store_a1_maps(space.graph, result.fat).rstrip("\n").split("\n"))
    return result.exit_code, lines


# -- subcommand: probe ---------------------------------------------------


_GENERATORS = {"broom": broom_tree, "tree4": lambda d: regular_tree(4, d), "farey": farey_truncation, "grid": grid}


def cmd_probe(args) -> tuple[int, list[str]]:
    lines = ["# section probe"]
    if args.mode == "capacity":
        if args.space is None:
            raise SpaceSpecError("capacity probe needs --space")
        space = parse_space(args.space)
        _farey_note(args.space, lines)
        center = space.basepoint
        if args.center_label is not None:
            try:
                center = space.vertex_of(args.center_label)
            except KeyError as exc:
                raise SpaceSpecError(f"bad --center-label: {exc.args[0]}") from None
        rep = discrete_capacity(space.graph, args.d, center, args.radius, exact_limit=args.exact_limit)
        lines.append(f"capacity D={rep.d_separation} param={args.space} card={rep.cardinality} method={rep.method}")
        return EXIT_OK, lines
    if args.generator not in _GENERATORS:
        raise SpaceSpecError(f"unknown generator {args.generator!r}; pick one of {sorted(_GENERATORS)}")
    if args.params is None:
        raise SpaceSpecError("growth probe needs --params")
    params = _comma_values("--params", args.params, "comma-separated integers")
    rep = growth_probe(_GENERATORS[args.generator], params, args.d, args.radius, exact_limit=args.exact_limit)
    for p, card, method in zip(rep.parameters, rep.cardinalities, rep.methods):
        lines.append(f"capacity D={rep.d_separation} param={p} card={card} method={method}")
    lines.append(f"verdict={rep.verdict}")
    return EXIT_OK, lines


# -- subcommand: asdim ---------------------------------------------------


def _bound_lines(title: str, bound) -> list[str]:
    upper = "unknown" if bound.upper is None else str(bound.upper)
    lower = "-" if bound.lower is None else str(bound.lower)
    exact = "y" if bound.exact else "n"
    lines = [f"{title} : lower={lower} upper={upper} exact={exact}"]
    for step, cite in bound.provenance:
        lines.append(f"# {step} [{cite}]")
    return lines


def cmd_asdim(args) -> tuple[int, list[str]]:
    lines: list[str] = []
    if args.surface is not None:
        gg, pp = _comma_values("--surface", args.surface, "g,p", int, int)
        s = calculator.Surface(gg, pp)
        b = calculator.asdim_mod(s)
        lines += _bound_lines(f"asdim Mod(S_{{{gg},{pp}}})", b)
        lines.append(f"vcd={calculator.vcd_mod(s)}")
        lines.append(f"complexity={calculator.complexity(s)}")
        lines.append(f"euler={calculator.euler(s)}")
    elif args.braid is not None:
        lines += _bound_lines(f"asdim B_{args.braid}", calculator.braid_bound(args.braid))
    elif args.artin is not None:
        fam, n = _comma_values("--artin", args.artin, "FAMILY,n", str, int)
        lines += _bound_lines(f"asdim Artin({fam},{n})", calculator.artin_bound(fam, n))
    elif args.torelli is not None:
        lines += _bound_lines(f"asdim Torelli_{args.torelli}", calculator.torelli(args.torelli))
    elif args.farey:
        lines.append(f"asdim Farey : exact={calculator.farey_asdim()}")
    elif args.from_d is not None:
        lines.append(f"asdim_upper={asdim_upper_from_D(args.from_d)}")
    elif args.hyperbolic is not None:
        s, d = _comma_values("--hyperbolic", args.hyperbolic, "s,delta", int, int)
        lines.append(f"asdim_upper={calculator.hyperbolic_group_asdim_upper(s, d)}")
    else:
        raise SpaceSpecError("asdim needs one of --surface/--braid/--artin/--torelli/--farey/--from-d/--hyperbolic")
    return EXIT_OK, lines


# -- parser ---------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by later
    ``main`` calls in the same process."""
    p = argparse.ArgumentParser(prog="coarselab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")

    sp = sub.add_parser("gen", help="generate a space and print its graph file")
    sp.add_argument("--space", required=True)
    sp.add_argument("--labels", action="store_true", help="include vertex labels as comments")
    add_out(sp)

    sp = sub.add_parser("delta", help="thin-triangle constant of a space")
    sp.add_argument("--space", required=True)
    sp.add_argument("--family", choices=("all", "canonical"), default="canonical")
    sp.add_argument("--budget", type=int, default=20_000)
    sp.add_argument("--seed", type=int, default=0)
    add_out(sp)

    sp = sub.add_parser("propb", help="boundedness-constant measurement")
    sp.add_argument("--space", required=True)
    sp.add_argument("--family", choices=("all", "canonical"), default="all")
    sp.add_argument("--ell", type=int, default=0)
    sp.add_argument("--k", type=int, default=None, help="default: 2*delta")
    sp.add_argument("--rmax", type=int, default=5)
    sp.add_argument("--delta", type=int, default=None, help="supplied thinness constant (for k default)")
    sp.add_argument("--delta-budget", type=int, default=20_000)
    sp.add_argument("--pair-budget", type=int, default=1000)
    sp.add_argument("--c-budget", type=int, default=64)
    sp.add_argument("--seed", type=int, default=0)
    add_out(sp)

    sp = sub.add_parser("cover", help="build the annulus cover and verify its bounds")
    sp.add_argument("--space", required=True)
    sp.add_argument("--family", choices=("all", "canonical"), default="all")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--ell", type=int, default=0)
    sp.add_argument("--delta", type=int, default=None, help="supplied thinness constant; default 0 on trees, measured otherwise")
    sp.add_argument("--delta-budget", type=int, default=20_000)
    sp.add_argument("--radius", type=int, default=None, help="multiplicity radius; default floor(r/2)")
    sp.add_argument("--d-constant", type=int, default=None, help="verified boundedness constant for the 2D bound")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dump", action="store_true", help="append the cover serialization")
    add_out(sp)

    sp = sub.add_parser("a1", help="full partition-of-unity pipeline at scale r")
    sp.add_argument("--space", required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--delta", type=int, default=None)
    sp.add_argument("--ell", type=int, default=None, help="default 10*delta")
    sp.add_argument("--d-constant", type=int, default=None, help="override the measured boundedness constant")
    sp.add_argument("--delta-budget", type=int, default=20_000)
    sp.add_argument("--pair-budget", type=int, default=24)
    sp.add_argument("--c-budget", type=int, default=48)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dump-maps", action="store_true", help="append one map line per safe vertex")
    add_out(sp)

    sp = sub.add_parser("probe", help="capacity and growth probes")
    sp.add_argument("mode", choices=("capacity", "growth"))
    sp.add_argument("--space", default=None, help="capacity mode: space spec")
    sp.add_argument("--generator", default=None, help="growth mode: broom|tree4|farey|grid")
    sp.add_argument("--params", default=None, help="growth mode: comma-separated increasing parameters")
    sp.add_argument("--d", type=int, required=True, help="separation D")
    sp.add_argument("--radius", type=int, required=True)
    sp.add_argument("--center-label", default=None)
    sp.add_argument("--exact-limit", type=int, default=40)
    add_out(sp)

    sp = sub.add_parser("asdim", help="formula-corpus calculator")
    sp.add_argument("--surface", default=None, metavar="g,p")
    sp.add_argument("--braid", type=int, default=None, metavar="n")
    sp.add_argument("--artin", default=None, metavar="FAMILY,n")
    sp.add_argument("--torelli", type=int, default=None, metavar="g")
    sp.add_argument("--farey", action="store_true")
    sp.add_argument("--from-d", type=int, default=None, metavar="D")
    sp.add_argument("--hyperbolic", default=None, metavar="s,delta")
    add_out(sp)

    return p


_HANDLERS = {
    "gen": cmd_gen,
    "delta": cmd_delta,
    "propb": cmd_propb,
    "cover": cmd_cover,
    "a1": cmd_a1,
    "probe": cmd_probe,
    "asdim": cmd_asdim,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, lines = _HANDLERS[args.command](args)
        text = "\n".join(lines) + "\n"
        out = getattr(args, "out", None)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ScopeTooSmallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    except ClaimViolation as exc:
        print(f"THEOREM ALARM: {exc}", file=sys.stderr)
        return EXIT_ALARM
    except (SpaceSpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Instances are JSON files (or ``-`` for stdin) in the formats documented
in cat0.jsonio; output is deterministic JSON (default) or CSV. Exit
codes: 0 on success, 1 when a checked property reports false, 2 on
usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Tuple

from .conjugate import (
    DEFAULT_LAMBDA_GRID,
    fenchel_conjugate_p,
    gamma_p_membership,
)
from .dual import pair
from .extreal import Scalar, agree
from .fitzpatrick import (
    fitzpatrick_inf,
    fitzpatrick_sup,
    fitzpatrick_via_conjugate,
    worked_examples,
)
from .jsonio import (
    Errors,
    InputError,
    encode_csv,
    encode_json,
    load_json_text,
    parse_grid,
    parse_graph,
    parse_paired,
    parse_pairs,
    parse_point,
    parse_dual,
    parse_scalar,
    parse_space,
    parse_table,
)
from .monotone import (
    f_property_check,
    flatness_check,
    is_maximal_relative,
    is_monotone,
    monotone_polar,
)
from .geometry import quasilinearization
from .spaces import (
    BoundVector,
    GeometryError,
    distance,
    geodesic_point,
)

DEFAULT_T_GRID: Tuple[Scalar, ...] = DEFAULT_LAMBDA_GRID


def _read_instance(path: Optional[str], required: bool = True):
    if path is None:
        if required:
            raise InputError(["an instance path (or - for stdin) is required"])
        return None
    if path == "-":
        text = sys.stdin.read()
        return load_json_text(text, "<stdin>")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError([f"{path}: {exc.strerror or exc}"])
    return load_json_text(text, path)


def _as_object(obj):
    if not isinstance(obj, dict):
        raise InputError(["instance must be a JSON object"])
    return obj


def _space_and_errors(obj):
    errs = Errors()
    space = parse_space(obj.get("space"), "space", errs)
    errs.raise_if_any()
    return space, Errors()


def _lambda_grid(args) -> Tuple[Scalar, ...]:
    if getattr(args, "lambda_grid", None):
        return parse_grid(args.lambda_grid)
    return DEFAULT_LAMBDA_GRID


def _load_universe_pairs(args, space, inline, errs):
    if getattr(args, "universe", None):
        obj = _read_instance(args.universe)
        if isinstance(obj, dict) and "space" in obj:
            uspace = parse_space(obj["space"], "universe.space", errs)
            if uspace is not None and uspace != space:
                errs.add("universe", "universe file uses a different space")
        pairs = parse_pairs(space, obj, "universe", errs)
    elif inline is not None:
        pairs = parse_pairs(space, inline, "universe", errs)
    else:
        pairs = None
    return pairs


# --------------------------------------------------------------------------
# commands


def cmd_quasi(args):
    obj = _as_object(_read_instance(args.instance))
    space, errs = _space_and_errors(obj)
    x = parse_point(space, obj.get("x"), "x", errs)
    y = parse_point(space, obj.get("y"), "y", errs)
    u = parse_point(space, obj.get("u"), "u", errs)
    v = parse_point(space, obj.get("v"), "v", errs)
    errs.raise_if_any()
    value = quasilinearization(BoundVector(x, y), BoundVector(u, v))
    return {"value": value}, True


def cmd_distance(args):
    obj = _as_object(_read_instance(args.instance))
    space, errs = _space_and_errors(obj)
    x = parse_point(space, obj.get("x"), "x", errs)
    y = parse_point(space, obj.get("y"), "y", errs)
    errs.raise_if_any()
    return {"value": distance(x, y)}, True


def cmd_geodesic(args):
    obj = _as_object(_read_instance(args.instance))
    space, errs = _space_and_errors(obj)
    x = parse_point(space, obj.get("x"), "x", errs)
    y = parse_point(space, obj.get("y"), "y", errs)
    t = parse_scalar(obj.get("t"), "t", errs)
    errs.raise_if_any()
    return {"point": geodesic_point(x, y, t)}, True


def cmd_pair(args):
    obj = _as_object(_read_instance(args.instance))
    space, errs = _space_and_errors(obj)
    xd = parse_dual(space, obj.get("xd"), "xd", errs)
    x = parse_point(space, obj.get("x"), "x", errs)
    y = parse_point(space, obj.get("y"), "y", errs)
    errs.raise_if_any()
    return {"value": pair(xd, BoundVector(x, y))}, True


def cmd_conjugate(args):
    obj = _as_object(_read_instance(args.instance))
    space, errs = _space_and_errors(obj)
    table = parse_table(space, obj.get("table"), "table", errs)
    query = obj.get("query")
    if not isinstance(query, dict):
        errs.add("query", "must be an object with xd and x")
        errs.raise_if_any()
    xd = parse_dual(space, query.get("xd"), "query.xd", errs)
    x = parse_point(space, query.get("x"), "query.x", errs)
    universe = _load_universe_pairs(args, space, obj.get("universe"), errs)
    errs.raise_if_any()
    if universe is None:
        universe = table.domain
    p = table.p
    value = fenchel_conjugate_p(table, p, universe, xd, x)
    return {
        "value": value,
        "universe_label": f"relative universe of {len(universe)} pairs",
    }, True


def cmd_fitz(args):
    obj = _as_object(_read_instance(args.instance))
    errs = Errors()
    space = None
    if "space" in obj:
        space = parse_space(obj.get("space"), "space", errs)
    graph = parse_graph(obj.get("graph"), "graph", errs, default_space=space)
    if graph is not None and space is None:
        space = graph.space
    if space is None:
        errs.raise_if_any()
    p = parse_point(space, obj.get("p"), "p", errs)
    query = obj.get("query")
    if not isinstance(query, dict):
        errs.add("query", "must be an object with x and xd")
        errs.raise_if_any()
    q = parse_paired(space, query, "query", errs)
    errs.raise_if_any()
    tol = args.tol if args.tol is not None else 1e-9
    forms = (
        fitzpatrick_sup(graph, p, q),
        fitzpatrick_inf(graph, p, q),
        fitzpatrick_via_conjugate(graph, p, q),
    )
    ok = agree(forms, tol)
    return {
        "value": forms[0],
        "form_agreement": ok,
        "universe_label": f"graph of {len(graph.pairs)} pairs",
    }, ok


def cmd_monotone_check(args):
    obj = _as_object(_read_instance(args.instance))
    errs = Errors()
    space = parse_space(obj.get("space"), "space", errs) if "space" in obj else None
    graph = parse_graph(obj.get("graph", obj), "graph", errs, default_space=space)
    errs.raise_if_any()
    tol = args.tol if args.tol is not None else 1e-9
    rep = is_monotone(graph, tol)
    return {"holds": rep.holds, "witness": rep.witness}, rep.holds


def cmd_polar(args):
    obj = _as_object(_read_instance(args.instance))
    space, errs = _space_and_errors(obj)
    members = parse_pairs(space, obj.get("set", []), "set", errs)
    universe = _load_universe_pairs(args, space, obj.get("universe"), errs)
    errs.raise_if_any()
    if universe is None:
        raise InputError(["polar needs a universe (inline or --universe)"])
    tol = args.tol if args.tol is not None else 1e-9
    polar = monotone_polar(members, universe, tol)
    return {"pairs": list(polar), "count": len(polar)}, True


def cmd_maximal_check(args):
    obj = _as_object(_read_instance(args.instance))
    errs = Errors()
    space = parse_space(obj.get("space"), "space", errs) if "space" in obj else None
    graph = parse_graph(obj.get("graph"), "graph", errs, default_space=space)
    if graph is not None and space is None:
        space = graph.space
    universe = _load_universe_pairs(args, space, obj.get("universe"), errs)
    errs.raise_if_any()
    if universe is None:
        raise InputError(["maximal-check needs a universe (inline or --universe)"])
    tol = args.tol if args.tol is not None else 1e-9
    rep = is_maximal_relative(graph, universe, match_tol=tol)
    return {"holds": rep.holds, "witness": rep.witness}, rep.holds


def cmd_flatness(args):
    obj = _as_object(_read_instance(args.instance))
    space, errs = _space_and_errors(obj)
    triples_obj = obj.get("triples")
    triples = []
    if not isinstance(triples_obj, (list, tuple)):
        errs.add("triples", "must be an array of [x, y, z] point triples")
    else:
        for i, t in enumerate(triples_obj):
            if not isinstance(t, (list, tuple)) or len(t) != 3:
                errs.add(f"triples[{i}]", "must be a [x, y, z] triple")
                continue
            pts = [parse_point(space, c, f"triples[{i}][{j}]", errs) for j, c in enumerate(t)]
            if all(p is not None for p in pts):
                triples.append(tuple(pts))
    t_grid = DEFAULT_T_GRID
    if "t_grid" in obj:
        grid_obj = obj["t_grid"]
        if not isinstance(grid_obj, (list, tuple)):
            errs.add("t_grid", "must be an array of parameters")
        else:
            parsed = [parse_scalar(g, f"t_grid[{i}]", errs) for i, g in enumerate(grid_obj)]
            if all(g is not None for g in parsed):
                t_grid = tuple(parsed)
    errs.raise_if_any()
    rep = flatness_check(space, triples, t_grid, tol=args.tol)
    return {"holds": rep.holds, "witness": rep.witness}, rep.holds


def cmd_f_property(args):
    obj = _as_object(_read_instance(args.instance))
    space, errs = _space_and_errors(obj)
    members = parse_pairs(space, obj.get("set", []), "set", errs)
    p = parse_point(space, obj.get("p"), "p", errs)
    errs.raise_if_any()
    rep = f_property_check(members, p, _lambda_grid(args), tol=args.tol)
    ok = rep.lower.holds and rep.upper.holds
    return {
        "lower": {"holds": rep.lower.holds, "witness": rep.lower.witness},
        "upper": {"holds": rep.upper.holds, "witness": rep.upper.witness},
    }, ok


def cmd_gamma_check(args):
    obj = _as_object(_read_instance(args.instance))
    space, errs = _space_and_errors(obj)
    table = parse_table(space, obj.get("table"), "table", errs)
    universe = _load_universe_pairs(args, space, obj.get("universe"), errs)
    errs.raise_if_any()
    if universe is None:
        universe = table.domain
    tol = args.tol if args.tol is not None else 1e-9
    rep = gamma_p_membership(table, table.p, universe, lambda_grid=_lambda_grid(args), tol=tol)
    return {
        "holds": rep.holds,
        "proper": rep.proper,
        "convexity_holds": rep.convexity_holds,
        "fixed_point_holds": rep.fixed_point_holds,
        "worst_defect": rep.worst_defect,
        "skipped_combinations": rep.skipped_combinations,
        "convexity_witness": rep.convexity_witness,
    }, rep.holds


def cmd_paper_examples(args):
    rows = worked_examples()
    all_passed = all(r.passed for r in rows)
    return {
        "rows": [
            {
                "name": r.name,
                "computed": r.computed,
                "expected": r.expected,
                "tolerance": r.tol,
                "status": "pass" if r.passed else "FAIL",
            }
            for r in rows
        ],
        "all_passed": all_passed,
    }, all_passed


# --------------------------------------------------------------------------
# wiring


def _add_common(sp, needs_instance=True, universe=False, grid=False):
    if needs_instance:
        sp.add_argument("instance", nargs="?", help="instance JSON path, or - for stdin")
    sp.add_argument("--tol", type=float, default=None, help="comparison tolerance override")
    sp.add_argument(
        "--format", dest="fmt", choices=("json", "csv"), default="json",
        help="output format",
    )
    if universe:
        sp.add_argument("--universe", default=None, help="path to a candidate-universe file")
    if grid:
        sp.add_argument(
            "--lambda-grid", dest="lambda_grid", default=None,
            help="comma-separated geodesic parameters, e.g. 0,1/4,1/2,3/4,1",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cat0",
        description=(
            "Convex analysis on Hadamard spaces at desk scale: pairings, "
            "geodesics, conjugates, monotone graphs and their transforms "
            "on finite instances."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("quasi", cmd_quasi, "pairing of the bound vectors x->y and u->v", {}),
        ("distance", cmd_distance, "geodesic distance between two points", {}),
        ("geodesic", cmd_geodesic, "point at parameter t on the geodesic x->y", {}),
        ("pair", cmd_pair, "action of a dual vector on the bound vector x->y", {}),
        ("conjugate", cmd_conjugate, "basepoint conjugate of a function table", {"universe": True}),
        ("fitz", cmd_fitz, "transform of a graph at a query pair (three forms)", {}),
        ("monotone-check", cmd_monotone_check, "pairwise relatedness of a graph", {}),
        ("polar", cmd_polar, "monotone polar of a set inside a universe", {"universe": True}),
        ("maximal-check", cmd_maximal_check, "maximality relative to a universe", {"universe": True}),
        ("flatness", cmd_flatness, "chord-condition equality on point triples", {}),
        ("f-property", cmd_f_property, "one-sided coupling-convexity properties", {"grid": True}),
        ("gamma-check", cmd_gamma_check, "representable-class membership of a table", {"universe": True, "grid": True}),
    ]
    for name, func, help_text, extras in specs:
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp, **extras)
        sp.set_defaults(func=func)

    sp = sub.add_parser(
        "paper-examples",
        help="recompute the bundled reference examples against their known values",
    )
    _add_common(sp, needs_instance=False)
    sp.set_defaults(func=cmd_paper_examples)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tree, ok = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = encode_csv(tree) if args.fmt == "csv" else encode_json(tree)
    sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

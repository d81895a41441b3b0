"""Command line front end.

Instances are JSON files (or ``-`` for stdin) in the formats documented
in cat0.jsonio; output is deterministic JSON (default) or CSV. Exit
codes: 0 on success, 1 when a checked property reports false, 2 on
usage or input errors.

Each subcommand is one row of COMMANDS: its name, its help text, the
flags it reads and the instance fields it parses, in order. One runner
reads the instance, parses its space and fields, reports every schema
error at once and hands the parsed values to the command's body.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

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


def _read_instance(path: Optional[str]):
    if path is None:
        raise InputError(["an instance path (or - for stdin) is required"])
    if path == "-":
        text = sys.stdin.read()
        return load_json_text(text, "<stdin>")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError([f"{path}: {exc.strerror or exc}"])
    return load_json_text(text, path)


def _lambda_grid(args) -> Tuple[Scalar, ...]:
    if args.lambda_grid is not None:
        return parse_grid(args.lambda_grid)
    return DEFAULT_LAMBDA_GRID


def _load_universe_pairs(args, space, inline, errs):
    if args.universe:
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
# field parsers: (space, value, where, errs) -> parsed value or None


def _space(space, v, where, errs):
    """The instance's space itself, for a body that needs it."""
    return space


def _scalar(space, v, where, errs):
    return parse_scalar(v, where, errs)


def _graph(space, v, where, errs):
    return parse_graph(v, where, errs, default_space=space)


def _query(space, v, where, errs):
    if not isinstance(v, dict):
        errs.add(where, "must be an object with x and xd")
        errs.raise_if_any()
    return parse_paired(space, v, where, errs)


def _triples(space, v, where, errs):
    if not isinstance(v, (list, tuple)):
        errs.add(where, "must be an array of [x, y, z] point triples")
        return None
    triples = []
    for i, t in enumerate(v):
        if not isinstance(t, (list, tuple)) or len(t) != 3:
            errs.add(f"{where}[{i}]", "must be a [x, y, z] triple")
            continue
        pts = [parse_point(space, c, f"{where}[{i}][{j}]", errs) for j, c in enumerate(t)]
        if all(p is not None for p in pts):
            triples.append(tuple(pts))
    return triples


def _t_grid(space, v, where, errs):
    if v is DEFAULT_LAMBDA_GRID:  # the key is absent
        return v
    if not isinstance(v, (list, tuple)):
        errs.add(where, "must be an array of parameters")
        return None
    parsed = [parse_scalar(g, f"{where}[{i}]", errs) for i, g in enumerate(v)]
    return tuple(parsed) if all(g is not None for g in parsed) else None


# --------------------------------------------------------------------------
# the command table


class Command(NamedTuple):
    name: str
    help: str
    flags: Tuple[Tuple[str, dict], ...]
    # (key, parser[, default]) in parse order; None: no instance is read
    fields: Optional[Tuple[tuple, ...]]
    body: Callable


COMMANDS: List[Command] = []

def tolerance(text: str) -> float:
    """A --tol value: any float but nan, which would pass every comparison."""
    tol = float(text)
    if math.isnan(tol):
        raise argparse.ArgumentTypeError(f"a bound must be a number, got {text!r}")
    return tol


_TOL = ("--tol", {
    "type": tolerance, "default": None,
    "help": "bound on every comparison the subcommand makes (default: the space's tolerance)",
})
_UNIVERSE = ("--universe", {"default": None, "help": "path to a candidate-universe file"})
_GRID = ("--lambda-grid", {
    "dest": "lambda_grid", "default": None,
    "help": "comma-separated geodesic parameters, e.g. 0,1/4,1/2,3/4,1",
})
_INSTANCE = object()  # field default: the whole instance


def command(name: str, help: str, fields=None, flags=()):
    def register(body):
        COMMANDS.append(Command(name, help, flags, fields, body))
        return body
    return register


def _run(cmd: Command, args) -> Tuple[dict, bool]:
    """Parse the command's instance fields, raise every schema error once, run it."""
    if cmd.fields is None:
        return cmd.body(args)
    obj = _read_instance(args.instance)
    if not isinstance(obj, dict):
        raise InputError(["instance must be a JSON object"])
    errs = Errors()
    # a command whose first field is a graph takes the graph's space when
    # the instance has no valid one, and stops if the graph has none either
    from_graph = cmd.fields[0][1] is _graph
    space = None
    if "space" in obj or not from_graph:
        space = parse_space(obj.get("space"), "space", errs)
    if not from_graph:
        errs.raise_if_any()
    values = []
    for key, parse, *default in cmd.fields:
        v = obj.get(key, *default)
        values.append(parse(space, obj if v is _INSTANCE else v, key, errs))
        if space is None:
            if values[0] is None:
                errs.raise_if_any()
            space = values[0].space
    if _UNIVERSE in cmd.flags:
        values.append(_load_universe_pairs(args, space, obj.get("universe"), errs))
    errs.raise_if_any()
    return cmd.body(args, *values)


@command("quasi", "pairing of the bound vectors x->y and u->v",
         (("x", parse_point), ("y", parse_point), ("u", parse_point), ("v", parse_point)))
def _quasi(args, x, y, u, v):
    return {"value": quasilinearization(BoundVector(x, y), BoundVector(u, v))}, True


@command("distance", "geodesic distance between two points",
         (("x", parse_point), ("y", parse_point)))
def _distance(args, x, y):
    return {"value": distance(x, y)}, True


@command("geodesic", "point at parameter t on the geodesic x->y",
         (("x", parse_point), ("y", parse_point), ("t", _scalar)))
def _geodesic(args, x, y, t):
    return {"point": geodesic_point(x, y, t)}, True


@command("pair", "action of a dual vector on the bound vector x->y",
         (("xd", parse_dual), ("x", parse_point), ("y", parse_point)))
def _pair(args, xd, x, y):
    return {"value": pair(xd, BoundVector(x, y))}, True


@command("conjugate", "basepoint conjugate of a function table",
         (("table", parse_table), ("query", _query)), (_UNIVERSE,))
def _conjugate(args, table, query, universe):
    if universe is None:
        universe = table.domain
    return {
        "value": fenchel_conjugate_p(table, table.p, universe, query.xd, query.x),
        "universe_label": f"relative universe of {len(universe)} pairs",
    }, True


@command("fitz", "transform of a graph at a query pair (three forms)",
         (("graph", _graph), ("p", parse_point), ("query", _query)), (_TOL,))
def _fitz(args, graph, p, q):
    forms = (
        fitzpatrick_sup(graph, p, q),
        fitzpatrick_inf(graph, p, q),
        fitzpatrick_via_conjugate(graph, p, q),
    )
    ok = agree(forms, p.space.default_tol if args.tol is None else args.tol)
    return {
        "value": forms[0],
        "form_agreement": ok,
        "universe_label": f"graph of {len(graph.pairs)} pairs",
    }, ok


@command("monotone-check", "pairwise relatedness of a graph",
         (("graph", _graph, _INSTANCE),), (_TOL,))
def _monotone_check(args, graph):
    rep = is_monotone(graph, args.tol)
    return {"holds": rep.holds, "witness": rep.witness}, rep.holds


@command("polar", "monotone polar of a set inside a universe",
         (("set", parse_pairs, []),), (_TOL, _UNIVERSE))
def _polar(args, members, universe):
    if universe is None:
        raise InputError(["polar needs a universe (inline or --universe)"])
    polar = monotone_polar(members, universe, args.tol)
    return {"pairs": list(polar), "count": len(polar)}, True


@command("maximal-check", "maximality relative to a universe",
         (("graph", _graph),), (_TOL, _UNIVERSE))
def _maximal_check(args, graph, universe):
    if universe is None:
        raise InputError(["maximal-check needs a universe (inline or --universe)"])
    rep = is_maximal_relative(graph, universe, args.tol)
    return {"holds": rep.holds, "witness": rep.witness}, rep.holds


@command("flatness", "chord-condition equality on point triples",
         (("space", _space), ("triples", _triples), ("t_grid", _t_grid, DEFAULT_LAMBDA_GRID)),
         (_TOL,))
def _flatness(args, space, triples, t_grid):
    rep = flatness_check(space, triples, t_grid, tol=args.tol)
    return {"holds": rep.holds, "witness": rep.witness}, rep.holds


@command("f-property", "one-sided coupling-convexity properties",
         (("set", parse_pairs, []), ("p", parse_point)), (_TOL, _GRID))
def _f_property(args, members, p):
    rep = f_property_check(members, p, _lambda_grid(args), tol=args.tol)
    ok = rep.lower.holds and rep.upper.holds
    return {
        "lower": {"holds": rep.lower.holds, "witness": rep.lower.witness},
        "upper": {"holds": rep.upper.holds, "witness": rep.upper.witness},
    }, ok


@command("gamma-check", "representable-class membership of a table",
         (("table", parse_table),), (_TOL, _UNIVERSE, _GRID))
def _gamma_check(args, table, universe):
    if universe is None:
        universe = table.domain
    rep = gamma_p_membership(table, table.p, universe, lambda_grid=_lambda_grid(args), tol=args.tol)
    return {
        "holds": rep.holds,
        "proper": rep.proper,
        "convexity_holds": rep.convexity_holds,
        "fixed_point_holds": rep.fixed_point_holds,
        "worst_defect": rep.worst_defect,
        "skipped_combinations": rep.skipped_combinations,
        "convexity_witness": rep.convexity_witness,
    }, rep.holds


@command("paper-examples", "recompute the bundled reference examples against their known values")
def _paper_examples(args):
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
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd.name, help=cmd.help)
        if cmd.fields is not None:
            sp.add_argument("instance", nargs="?", help="instance JSON path, or - for stdin")
        for flag, options in cmd.flags:
            sp.add_argument(flag, **options)
        sp.add_argument(
            "--format", dest="fmt", choices=("json", "csv"), default="json",
            help="output format",
        )
        sp.set_defaults(func=functools.partial(_run, cmd))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tree, ok = args.func(args)
    except (InputError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a float formed from an exact input too large for one
        print(f"error: a value is past float range: {exc}", file=sys.stderr)
        return 2
    text = encode_csv(tree) if args.fmt == "csv" else encode_json(tree)
    sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

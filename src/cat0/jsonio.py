"""JSON wire formats: schema-checked parsing and deterministic output.

Input conventions (shared by the CLI and the instance files):

* space:  {"kind": "euclidean", "dim": n} | {"kind": "rtree"}
          | {"kind": "hyperbolic", "dim": n}
* point payloads: euclidean -> [x1..xn]; rtree -> [branch, t];
  hyperbolic -> [x1..x(n+1)] on the sheet
* dual:   {"terms": [{"coeff": a, "a": <point>, "b": <point>}]}
* pair:   {"x": <point>, "xd": <dual>}
* graph:  {"space": <space>, "pairs": [<pair>...]}
* table:  {"p": <point>, "entries": [{"x":..., "xd":..., "value": v}]}

Everywhere a number is accepted, a string rational like "7/6" (or a
decimal string) is accepted too and parsed exactly; extended-real
values additionally accept "+inf"/"-inf". Schema violations are
collected and reported together, capped at the first 10.

Output is deterministic byte for byte: keys sorted, floats printed
with 12 significant digits, exact rationals as "n/d" strings (plain
integers when the denominator is 1), infinities as "+inf"/"-inf".
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .conjugate import FunctionTable, PairedPoint
from .dual import DualVector, dual_vector
from .extreal import ExtReal, NEG_INF, POS_INF, Scalar
from .monotone import OperatorGraph
from .spaces import (
    EUCLIDEAN,
    HYPERBOLIC,
    RTREE,
    BoundVector,
    GeometryError,
    Point,
    SpaceHandle,
    make_point,
)

MAX_REPORTED_ERRORS = 10


class InputError(ValueError):
    """Invalid input; carries up to MAX_REPORTED_ERRORS messages."""

    def __init__(self, messages: Sequence[str]):
        self.messages = list(messages)[:MAX_REPORTED_ERRORS]
        extra = len(messages) - len(self.messages)
        text = "\n".join(self.messages)
        if extra > 0:
            text += f"\n... and {extra} more"
        super().__init__(text)


class Errors:
    """Collects schema violations so one pass reports them all."""

    def __init__(self):
        self.messages: List[str] = []

    def add(self, where: str, what: str):
        self.messages.append(f"{where}: {what}")

    def raise_if_any(self):
        if self.messages:
            raise InputError(self.messages)


def load_json_text(text: str, source: str = "<input>"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError([f"{source}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"])


# --------------------------------------------------------------------------
# parsing


def parse_scalar(v, where: str, errs: Errors) -> Optional[Scalar]:
    """A finite number; strings are parsed as exact rationals."""
    if isinstance(v, bool):
        errs.add(where, f"expected a number, got {v!r}")
        return None
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        if not math.isfinite(v):
            errs.add(where, f"number must be finite, got {v!r}")
            return None
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            errs.add(where, f"not a rational literal: {v!r}")
            return None
    errs.add(where, f"expected a number, got {type(v).__name__}")
    return None


def parse_extended(v, where: str, errs: Errors) -> Optional[ExtReal]:
    """A scalar or an explicit infinity string."""
    if isinstance(v, str):
        token = v.strip().lower()
        if token in ("+inf", "inf", "+infinity", "infinity"):
            return POS_INF
        if token in ("-inf", "-infinity"):
            return NEG_INF
    s = parse_scalar(v, where, errs)
    return None if s is None else ExtReal(s)


def parse_space(obj, where: str, errs: Errors) -> Optional[SpaceHandle]:
    if not isinstance(obj, dict):
        errs.add(where, f"space must be an object, got {type(obj).__name__}")
        return None
    kind = obj.get("kind")
    if kind not in (EUCLIDEAN, RTREE, HYPERBOLIC):
        errs.add(where, f"unknown space kind {kind!r}")
        return None
    if kind == RTREE:
        return SpaceHandle(RTREE)
    dim = obj.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        errs.add(where, f"{kind} space needs an integer dim >= 1, got {dim!r}")
        return None
    return SpaceHandle(kind, dim)


def parse_point(space: SpaceHandle, v, where: str, errs: Errors) -> Optional[Point]:
    if not isinstance(v, (list, tuple)):
        errs.add(where, f"point must be an array, got {type(v).__name__}")
        return None
    coords = []
    ok = True
    for i, c in enumerate(v):
        s = parse_scalar(c, f"{where}[{i}]", errs)
        if s is None:
            ok = False
        else:
            coords.append(s)
    if not ok:
        return None
    try:
        return make_point(space, coords)
    except GeometryError as exc:
        errs.add(where, str(exc))
        return None


def parse_dual(space: SpaceHandle, v, where: str, errs: Errors) -> Optional[DualVector]:
    if not isinstance(v, dict) or "terms" not in v:
        errs.add(where, 'dual must be an object with a "terms" array')
        return None
    terms_obj = v["terms"]
    if not isinstance(terms_obj, (list, tuple)):
        errs.add(f"{where}.terms", "must be an array")
        return None
    terms = []
    ok = True
    for i, t in enumerate(terms_obj):
        twhere = f"{where}.terms[{i}]"
        if not isinstance(t, dict):
            errs.add(twhere, "term must be an object")
            ok = False
            continue
        coeff = parse_scalar(t.get("coeff"), f"{twhere}.coeff", errs)
        a = parse_point(space, t.get("a"), f"{twhere}.a", errs)
        b = parse_point(space, t.get("b"), f"{twhere}.b", errs)
        if coeff is None or a is None or b is None:
            ok = False
            continue
        terms.append((coeff, BoundVector(a, b)))
    if not ok:
        return None
    return dual_vector(terms)


def parse_paired(space: SpaceHandle, v, where: str, errs: Errors) -> Optional[PairedPoint]:
    if not isinstance(v, dict):
        errs.add(where, "pair must be an object with x and xd")
        return None
    x = parse_point(space, v.get("x"), f"{where}.x", errs)
    xd = parse_dual(space, v.get("xd"), f"{where}.xd", errs)
    if x is None or xd is None:
        return None
    return PairedPoint(x, xd)


def parse_pairs(
    space: SpaceHandle, v, where: str, errs: Errors
) -> Optional[Tuple[PairedPoint, ...]]:
    if isinstance(v, dict) and "pairs" in v:
        v = v["pairs"]
    if not isinstance(v, (list, tuple)):
        errs.add(where, "expected an array of pairs")
        return None
    out = []
    ok = True
    for i, item in enumerate(v):
        q = parse_paired(space, item, f"{where}[{i}]", errs)
        if q is None:
            ok = False
        else:
            out.append(q)
    return tuple(out) if ok else None


def parse_graph(
    obj, where: str, errs: Errors, default_space: Optional[SpaceHandle] = None
) -> Optional[OperatorGraph]:
    if not isinstance(obj, dict):
        errs.add(where, "graph must be an object")
        return None
    space = default_space
    if "space" in obj:
        space = parse_space(obj["space"], f"{where}.space", errs)
    if space is None:
        errs.add(where, "graph needs a space (inline or inherited)")
        return None
    pairs = parse_pairs(space, obj.get("pairs"), f"{where}.pairs", errs)
    if pairs is None:
        return None
    return OperatorGraph(space, pairs)


def parse_table(
    space: SpaceHandle, obj, where: str, errs: Errors
) -> Optional[FunctionTable]:
    if not isinstance(obj, dict):
        errs.add(where, "table must be an object with p and entries")
        return None
    p = parse_point(space, obj.get("p"), f"{where}.p", errs)
    entries_obj = obj.get("entries")
    if not isinstance(entries_obj, (list, tuple)):
        errs.add(f"{where}.entries", "must be an array")
        return None
    entries = []
    ok = True
    for i, e in enumerate(entries_obj):
        ewhere = f"{where}.entries[{i}]"
        if not isinstance(e, dict):
            errs.add(ewhere, "entry must be an object")
            ok = False
            continue
        q = parse_paired(space, e, ewhere, errs)
        val = parse_extended(e.get("value"), f"{ewhere}.value", errs)
        if q is None or val is None:
            ok = False
            continue
        entries.append((q, val))
    if p is None or not ok:
        return None
    try:
        return FunctionTable(p, tuple(entries))
    except GeometryError as exc:
        errs.add(where, str(exc))
        return None


def parse_grid(text: str) -> Tuple[Fraction, ...]:
    """Parse a comma-separated grid flag like "0,1/4,0.5,1" exactly."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise InputError([f"grid: not a rational literal: {tok!r}"])
    if not out:
        raise InputError(["grid: empty"])
    return tuple(out)


# --------------------------------------------------------------------------
# serialization


def jsonable(v):
    """Convert domain objects to a plain tree the encoder understands."""
    if isinstance(v, Point):
        return [jsonable(c) for c in v.payload]
    if isinstance(v, BoundVector):
        return {"tail": jsonable(v.tail), "head": jsonable(v.head)}
    if isinstance(v, DualVector):
        return {
            "terms": [
                {"coeff": jsonable(c), "a": jsonable(bv.tail), "b": jsonable(bv.head)}
                for c, bv in v.terms
            ]
        }
    if isinstance(v, PairedPoint):
        return {"x": jsonable(v.x), "xd": jsonable(v.xd)}
    if isinstance(v, SpaceHandle):
        out = {"kind": v.kind}
        if v.kind != RTREE:
            out["dim"] = v.dim
        return out
    if isinstance(v, ExtReal):
        return v
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return {
            f.name: jsonable(getattr(v, f.name))
            for f in dataclasses.fields(v)
            if not f.name.startswith("_")
        }
    if isinstance(v, dict):
        return {k: jsonable(val) for k, val in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(item) for item in v]
    return v


def _fmt_float(x: float) -> str:
    if x == 0:
        x = 0.0  # collapse -0.0
    return format(x, ".12g")


def _fmt_leaf(v) -> str:
    if isinstance(v, float) and math.isinf(v):
        v = POS_INF if v > 0 else NEG_INF
    if isinstance(v, ExtReal):
        if v.is_pos_inf:
            return '"+inf"'
        if v.is_neg_inf:
            return '"-inf"'
        return _fmt_leaf(v.value)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f'"{v.numerator}/{v.denominator}"'
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot encode {type(v).__name__}: {v!r}")


def _is_leaf(v) -> bool:
    return not isinstance(v, (dict, list, tuple))


def _emit(v, depth: int) -> str:
    pad = "  " * depth
    inner_pad = "  " * (depth + 1)
    if isinstance(v, dict):
        if not v:
            return "{}"
        parts = [
            f"{inner_pad}{json.dumps(str(k))}: {_emit(val, depth + 1)}"
            for k, val in sorted(v.items(), key=lambda kv: str(kv[0]))
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(v, (list, tuple)):
        items = list(v)
        if not items:
            return "[]"
        if all(_is_leaf(i) for i in items):
            return "[" + ", ".join(_fmt_leaf(i) for i in items) + "]"
        parts = [f"{inner_pad}{_emit(i, depth + 1)}" for i in items]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return _fmt_leaf(v)


def encode_json(tree) -> str:
    """Deterministic pretty JSON with the number conventions above."""
    return _emit(jsonable(tree), 0) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, (dict, list, tuple)):
        return _emit(jsonable(v), 0).replace("\n", " ")
    s = _fmt_leaf(jsonable(v))
    if s.startswith('"') and s.endswith('"'):
        s = s[1:-1]
    return s


def encode_csv(tree) -> str:
    """CSV rendering: tables of rows become real CSV, the rest key,value lines."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    tree = jsonable(tree)
    rows = tree.get("rows") if isinstance(tree, dict) else None
    if isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows):
        header = list(rows[0].keys())
        writer.writerow(header)
        for r in rows:
            writer.writerow([_csv_cell(r.get(k)) for k in header])
        return buf.getvalue()

    def flatten(prefix: str, v):
        if isinstance(v, dict):
            for k in sorted(v, key=str):
                flatten(f"{prefix}.{k}" if prefix else str(k), v[k])
        elif isinstance(v, list):
            for i, item in enumerate(v):
                flatten(f"{prefix}[{i}]", item)
        else:
            writer.writerow([prefix, _csv_cell(v)])

    writer.writerow(["key", "value"])
    flatten("", tree)
    return buf.getvalue()

"""Seeded input generation for the benchmark, and the functions that read it.

Inputs are generated as plain JSON trees in the CLI's own instance
grammar (points as arrays, exact numbers as "n/d" strings, duals as
{"terms": [...]}), so the same generated bytes feed the library
workloads and the CLI instance files. Generation never calls the
library: the program under test receives only these inputs. The
build_* functions turn the JSON trees into library objects without going
through cat0.jsonio, which the traced run's CLI split measures separately.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

from cat0 import (
    OperatorGraph,
    PairedPoint,
    dual_vector,
    euclidean,
    hyperbolic,
    make_point,
    rtree,
)
from cat0.spaces import BoundVector

ZERO = {"terms": []}
ROOT = [1, "0"]
E2 = {"kind": "euclidean", "dim": 2}
TREE = {"kind": "rtree"}
H2 = {"kind": "hyperbolic", "dim": 2}


def rng_for(workload: str, seed: int) -> random.Random:
    """A generator private to one workload and seed (string seeds hash stably)."""
    return random.Random(f"{workload}:{seed}")


def digest(tree) -> str:
    """sha256 of the canonical JSON text of a generated input tree."""
    text = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def q(x) -> str:
    """An exact number in the wire grammar."""
    return str(Fraction(x))


def term(coeff, a, b) -> dict:
    return {"terms": [{"coeff": coeff, "a": a, "b": b}]}


# --------------------------------------------------------------------------
# random points and duals, per space


def rand_rational_point(rng: random.Random, lo: int = -8, hi: int = 8, den: int = 4):
    return [q(Fraction(rng.randint(lo, hi), den)) for _ in range(2)]


def rand_tree_point(rng: random.Random, branches=(1, 4), den: int = 4):
    k = rng.randint(0, den)
    if k == 0:
        return list(ROOT)
    return [rng.randint(*branches), q(Fraction(k, den))]


def rand_hyp_point(rng: random.Random, spread: float = 1.5):
    u = [rng.uniform(-spread, spread) for _ in range(2)]
    return [u[0], u[1], math.sqrt(1 + u[0] * u[0] + u[1] * u[1])]


def rand_term(rng: random.Random, draw, coeff) -> dict:
    """A single-term dual between two distinct drawn points."""
    a = draw(rng)
    b = draw(rng)
    while b == a:
        b = draw(rng)
    return term(coeff, a, b)


def curve_point(t: float):
    """The paper's hyperboloid curve (sinh t, 0, cosh t)."""
    return [math.sinh(t), 0.0, math.cosh(t)]


# --------------------------------------------------------------------------
# universes and graphs as wire trees


def grid_universe(side: int) -> list:
    """side^2 integer grid points x every dual with entries in {-1, 0, 1} (criterion 9)."""
    pts = [list(c) for c in itertools.product(range(side), repeat=2)]
    vecs = itertools.product(range(-1, 2), repeat=2)
    duals = [vector_dual(v) for v in vecs]
    return [{"x": x, "xd": d} for x in pts for d in duals]


def vector_dual(v) -> dict:
    """The dual with canonical Euclidean vector v, anchored at the origin."""
    if all(c == 0 for c in v):
        return ZERO
    return term(1, [0, 0], list(v))


def tree_universe(rng: random.Random, n_points: int, n_duals: int) -> list:
    """Root plus distinct random points of branches 1-4, times the zero dual and random terms."""
    pts = [list(ROOT)]
    while len(pts) < n_points:
        p = rand_tree_point(rng)
        if p not in pts:
            pts.append(p)
    duals = [ZERO]
    while len(duals) < n_duals:
        d = rand_term(rng, rand_tree_point, rng.randint(1, 2))
        if d not in duals:
            duals.append(d)
    return [{"x": x, "xd": d} for x in pts for d in duals]


def hyp_universe(rng: random.Random, n_points: int, n_duals: int) -> list:
    pts = [rand_hyp_point(rng) for _ in range(n_points)]
    duals = [rand_term(rng, rand_hyp_point, 1.0) for _ in range(n_duals)]
    return [{"x": x, "xd": d} for x in pts for d in duals]


def rational_graph(rng: random.Random, n_pairs: int) -> list:
    """Rational points with single-term rational duals (exact Euclidean)."""
    return [
        {
            "x": rand_rational_point(rng),
            "xd": rand_term(
                rng, rand_rational_point, q(Fraction(rng.randint(1, 4), rng.choice((1, 2))))
            ),
        }
        for _ in range(n_pairs)
    ]


def chain_graph(depth: int) -> list:
    """The paper's tree chain: (n, 1/n) paired with [chain_n -> chain_n+1]."""
    pts = [[n, q(Fraction(1, n))] for n in range(1, depth + 2)]
    return [{"x": pts[n], "xd": term(1, pts[n], pts[n + 1])} for n in range(depth)]


def curve_graph(stop: float, step: float) -> list:
    """The paper's curve operator on the grid 0, step, ..., stop."""
    pairs = []
    for k in range(int(round(stop / step)) + 1):
        t = k * step
        pairs.append({"x": curve_point(t), "xd": term(1.0, curve_point(t), curve_point(t + 1.0))})
    return pairs


# --------------------------------------------------------------------------
# wire trees -> library objects


def build_space(obj):
    if obj["kind"] == "euclidean":
        return euclidean(obj["dim"])
    if obj["kind"] == "hyperbolic":
        return hyperbolic(obj["dim"])
    return rtree()


def num(v):
    return Fraction(v) if isinstance(v, str) else v


def build_point(space, v):
    return make_point(space, [num(c) for c in v])


def build_dual(space, obj):
    return dual_vector(
        (num(t["coeff"]), BoundVector(build_point(space, t["a"]), build_point(space, t["b"])))
        for t in obj["terms"]
    )


def build_pair(space, obj) -> PairedPoint:
    return PairedPoint(build_point(space, obj["x"]), build_dual(space, obj["xd"]))


def build_pairs(space, objs) -> tuple:
    return tuple(build_pair(space, o) for o in objs)


def build_graph(space, objs) -> OperatorGraph:
    return OperatorGraph(space, build_pairs(space, objs))

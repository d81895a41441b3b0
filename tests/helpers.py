"""Shared instance builders for the test suite.

Everything here is deterministic given an explicit random.Random, and
Euclidean instances stay on integer grids so the whole pipeline runs in
exact rational arithmetic.
"""

import itertools
import math
import random
from fractions import Fraction
from operator import getitem
from typing import List, Optional, Sequence, Tuple, Union

from cat0 import (
    DualVector,
    FunctionTable,
    ImproperTableError,
    OperatorGraph,
    PairedPoint,
    Point,
    SpaceHandle,
    dual_term,
    euclidean,
    fitzpatrick_sup,
    make_point,
    monotone_polar,
    pair,
    pair_in,
    zero_dual,
)
from cat0.conjugate import _conjugate, _values
from cat0.dual import _Potentials, _potential2
from cat0.fitzpatrick import _transform2
from cat0.monotone import _gaps2
from cat0.extreal import NEG_INF, ExtReal, Scalar, ext, scale
from cat0.geometry import half_of
from cat0.spaces import BoundVector, _snapped_to_one

ORIGIN2 = make_point(euclidean(2), (0, 0))


def chain_split_check(
    xd: DualVector, a: Point, b: Point, w: Point, tol: Optional[float] = None
) -> bool:
    """Does <xd, ab-> equal <xd, aw-> + <xd, wb-> within tol?

    This is an algebraic identity of the pairing (the squared-distance
    terms at w cancel), so it holds for every w, on or off the geodesic
    from a to b; the check exists to detect implementation drift.
    """
    if tol is None:
        tol = a.space.default_tol
    whole = pair(xd, BoundVector(a, b))
    split = pair(xd, BoundVector(a, w)) + pair(xd, BoundVector(w, b))
    return abs(whole - split) <= tol


def avg_lowerbound_check(
    h: FunctionTable,
    p: Point,
    universe: Sequence[PairedPoint],
    tol: Optional[float] = None,
) -> bool:
    """(h + h*_p o swap) / 2 >= pi_p - tol at every universe pair.

    Universe pairs are matched to the listed pairs within tol, each
    once, and every pairing is read from one potential table. Over a
    table's own pairs this is a consequence of the definition (a listed
    pair is one of the conjugate's rows, an unlisted one reads +inf), so
    it returns True or raises; it checks the conjugate sweep.
    """
    tol = p.space.default_tol if tol is None else tol
    values = _values(h, universe, tol)
    finite = [(q, v) for q, v in zip(universe, values) if not v.is_pos_inf]
    pot = _Potentials()
    handles = pot.handles([q for q, _ in finite])
    rows = [(z, row, 2 * v.value) for (z, row), (_, v) in zip(handles, finite)]
    zp = pot.point(p)
    side, row_duals = [z for z, _, _ in rows] + [zp], [row for _, row, _ in rows]
    # a universe pair's values are filled when it is reached, and its
    # own potential is kept in its row
    for q, u, v in zip(universe, pot.handles(universe), values):
        zu, ru = u
        pot.fill((ru,), side)
        pot.fill_at(row_duals, zu)
        pot.fill_at(row_duals, zp)
        conj = _conjugate(getitem, zp, rows, u)
        if conj.is_neg_inf:  # no finite row: h + h*_p would be +inf + (-inf)
            raise ImproperTableError("table is +inf on every universe pair")
        ((_, _, own),) = pot.members([q], [u])
        if not scale(Fraction(1, 2), v + conj) >= half_of(own - ru[zp]) - tol:
            return False
    return True


def single_queries_per_call(g: OperatorGraph, p: Point, q: PairedPoint) -> Tuple[ExtReal, ExtReal, ExtReal]:
    """fitzpatrick_sup, fitzpatrick_inf and fitzpatrick_via_conjugate of g at (p, q), every potential apart.

    The reference for the forms that read the graph's kept frame
    (OperatorGraph._frame): the same term expressions (_transform2,
    _gaps2, _conjugate) read each potential from its own _potential2
    call on (point, dual) handles, so nothing is kept, batched, gathered
    or put on an integer scale. Each potential is still one sum() over
    its dual's terms in term order, so the bits must agree; on exact
    inputs half_of gives the Fractions the scale's division gives.
    """
    if not g.pairs:
        return NEG_INF, NEG_INF, NEG_INF
    P = _potential2
    members = [(y.x, y.xd, P(y.xd, y.x)) for y in g.pairs]
    sup = ExtReal(half_of(_transform2(P, p, members, (q.x, q.xd))))
    a = (q.x, q.xd, P(q.xd, q.x))
    worst = min(_gaps2(P, zip(itertools.repeat(a), members)))
    zero = BoundVector(p, q.x).is_zero or not q.xd.terms
    inf = ExtReal((0 if zero else half_of(a[2] - P(q.xd, p))) - half_of(worst))
    rows = ((zy, dy, own - P(dy, p)) for zy, dy, own in members)
    return sup, inf, _conjugate(P, p, rows, (q.x, q.xd))


def basepoint_shift(q: PairedPoint, p: Point, p2: Point) -> Scalar:
    """delta = <q.xd, p p2->, by which moving the basepoint from p to p2 lowers the p-forms at q.

    The quasilinearization is additive, <q.xd, p y-> = <q.xd, p p2-> +
    <q.xd, p2 y->, so pi_p2(q) = pi_p(q) - delta, and so do the three
    transform forms at q and the p-conjugate at the swapped q, the last
    of a table lowered by each pair's own delta (shifted_table).
    """
    return pair(q.xd, BoundVector(p, p2))


def shifted_table(h: FunctionTable, p2: Point) -> FunctionTable:
    """h - delta at the basepoint p2: each finite value lowered by basepoint_shift(q, h.p, p2)."""
    return FunctionTable(p2, tuple(
        (q, ExtReal(v.value - basepoint_shift(q, h.p, p2)) if v.is_finite else v) for q, v in h.entries
    ))


def hyperbolic_dists_sq_loop(xs: Sequence[tuple], y, each: bool = False) -> List[Scalar]:
    """acosh(-<x,y>)^2 of each hyperboloid payload x against y, or with each its partner in y, one at a time.

    The reference that cat0.spaces._hyperbolic_dists_sq must match bit
    for bit: the int 0 where x == y, tested first; otherwise -<x,y> as
    the loop of minkowski_form forms it, ((0 + x_0 y_0) + ...) - x_n y_n,
    snapped up to 1 within ACOSH_SLACK.
    """
    out: List[Scalar] = []
    for x, y in zip(xs, y if each else itertools.repeat(y)):
        if x == y:
            out.append(0)
            continue
        total = 0
        for a, b in zip(x[:-1], y[:-1]):
            total += a * b
        m = -(total - x[-1] * y[-1])
        d = math.acosh(_snapped_to_one(m) if m < 1 else m)
        out.append(d * d)
    return out


def int_points(space: SpaceHandle, rng: random.Random, n: int, lo: int = -3, hi: int = 3) -> List[Point]:
    """n random integer-coordinate points (duplicates possible)."""
    return [
        make_point(space, tuple(rng.randint(lo, hi) for _ in range(space.dim)))
        for _ in range(n)
    ]


def grid_points(space: SpaceHandle, coords: Sequence[int]) -> List[Point]:
    """The full integer grid coords^dim as points."""
    return [make_point(space, c) for c in itertools.product(coords, repeat=space.dim)]


def vector_dual(space: SpaceHandle, vec: Sequence) -> DualVector:
    """The dual whose canonical Euclidean vector is vec, anchored at the origin."""
    origin = make_point(space, (0,) * space.dim)
    if all(v == 0 for v in vec):
        return zero_dual()
    return dual_term(1, origin, make_point(space, tuple(vec)))


def grid_duals(space: SpaceHandle, vectors: Sequence[Sequence[int]]) -> List[DualVector]:
    return [vector_dual(space, v) for v in vectors]


def product_universe(points: Sequence[Point], duals: Sequence[DualVector]) -> Tuple[PairedPoint, ...]:
    return tuple(PairedPoint(x, xd) for x in points for xd in duals)


def small_universe(side: int = 3, vec_range: int = 1) -> Tuple[PairedPoint, ...]:
    """Exhaustive grid universe: side^2 points x all small integer duals."""
    space = euclidean(2)
    pts = grid_points(space, range(side))
    vecs = [
        v
        for v in itertools.product(range(-vec_range, vec_range + 1), repeat=2)
    ]
    return product_universe(pts, grid_duals(space, vecs))


def greedy_monotone_subset(
    rng: random.Random, universe: Sequence[PairedPoint], size: int
) -> Tuple[PairedPoint, ...]:
    """A random monotone subset of the universe, grown greedily."""
    from cat0 import monotonically_related

    order = list(universe)
    rng.shuffle(order)
    kept: List[PairedPoint] = []
    for q in order:
        if len(kept) >= size:
            break
        if all(monotonically_related(q, r) for r in kept):
            kept.append(q)
    return tuple(kept)


def polar_complete(
    pairs: Sequence[PairedPoint], universe: Sequence[PairedPoint]
) -> Tuple[PairedPoint, ...]:
    """Extend a monotone set until its polar inside the universe adds nothing.

    Adds one polar element at a time (polar members need not be related
    to each other, so batch insertion could break monotonicity).
    """
    current = list(pairs)
    while True:
        polar = monotone_polar(current, universe)
        extra = next((q for q in polar if not pair_in(q, current)), None)
        if extra is None:
            return tuple(current)
        current.append(extra)


def maximal_relative_graph(
    rng: random.Random,
    universe: Sequence[PairedPoint],
    seed_size: int = 2,
    space: SpaceHandle = None,
) -> OperatorGraph:
    space = space if space is not None else universe[0].x.space
    seed = greedy_monotone_subset(rng, universe, seed_size)
    return OperatorGraph(space, polar_complete(seed, universe))


def transform_table(g: OperatorGraph, p: Point, universe: Sequence[PairedPoint]):
    """The transform of g sampled on the whole universe, as a function table."""
    from cat0 import FunctionTable

    return FunctionTable(p, tuple((q, fitzpatrick_sup(g, p, q)) for q in universe))


def random_proper_table(
    rng: random.Random,
    space: SpaceHandle,
    n_entries: int,
    coord_range: int = 2,
    value_range: int = 4,
):
    """A random finite-valued table over an integer grid, all values finite."""
    from cat0 import FunctionTable, ExtReal

    seen = set()
    entries = []
    guard = 0
    while len(entries) < n_entries and guard < 50 * n_entries:
        guard += 1
        x = make_point(
            space, tuple(rng.randint(-coord_range, coord_range) for _ in range(space.dim))
        )
        vec = tuple(rng.randint(-coord_range, coord_range) for _ in range(space.dim))
        key = (x.payload, vec)
        if key in seen:
            continue
        seen.add(key)
        xd = vector_dual(space, vec)
        value = ExtReal(Fraction(rng.randint(-value_range, value_range), rng.choice((1, 2))))
        entries.append((PairedPoint(x, xd), value))
    return FunctionTable(make_point(space, (0,) * space.dim), tuple(entries))


def random_graph(
    rng: random.Random, space: SpaceHandle, n_pairs: int, sampler
) -> OperatorGraph:
    """Graph with points from sampler() and single-term duals between samples."""
    pairs = []
    for _ in range(n_pairs):
        x = sampler()
        a, b = sampler(), sampler()
        coeff = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
        xd = dual_term(coeff, a, b) if coeff != 0 and a != b else zero_dual()
        pairs.append(PairedPoint(x, xd))
    return OperatorGraph(space, tuple(pairs))


def hilbert_inner(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


def canonical_hilbert_of(xd: DualVector, dim: int = 2):
    from cat0 import canonical_hilbert

    return canonical_hilbert(xd, dim=dim)


def bound_vectors_between(points: Sequence[Point]) -> List[BoundVector]:
    return [BoundVector(a, b) for a, b in itertools.permutations(points, 2) if a != b]


def classical_conjugate_oracle(
    grid: Sequence[Tuple[Tuple[Sequence[Scalar], Sequence[Scalar]], Union[Scalar, ExtReal]]],
    u: Sequence[Scalar],
    x: Sequence[Scalar],
) -> ExtReal:
    """Brute-force flat-space conjugate sup {<<u|y>> + <<v|x>> - h(y, v)}.

    Operates on plain coordinate vectors, independent of the geodesic
    machinery; used as the oracle the basepoint-at-origin pipeline must
    reproduce. grid rows are ((y, v), value); +inf rows drop out, -inf
    raises.
    """

    def dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
        return sum(ai * bi for ai, bi in zip(a, b))

    best: Optional[Scalar] = None
    for (y, v), raw in grid:
        val = ext(raw)
        if val.is_neg_inf:
            raise ImproperTableError("grid takes the value -inf")
        if val.is_pos_inf:
            continue
        term = dot(u, y) + dot(v, x) - val.value
        if best is None or term > best:
            best = term
    return NEG_INF if best is None else ExtReal(best)


def count_calls(monkeypatch, name: str, modules, counts=lambda *args: True, calls=None) -> List[int]:
    """Patch name in each module to count its calls, by counts(*args) each (True is one).

    counts reads the positional arguments the function is called with;
    the counted function passes every argument on, keywords included.
    Returns a one-element list holding the count (calls, when given, is
    added to); assign 0 to reset it.
    """
    calls = [0] if calls is None else calls
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls[0] += counts(*args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def count_potentials(monkeypatch) -> List[int]:
    """Count the potential values of nonzero duals that the pairing kernel yields.

    Every potential comes from cat0.dual._potentials2, the j-th dual at
    the j-th point with a side of one item standing for it at every
    position: one dual at n points yields n values, n duals at one
    point or each at its own point n. Its one-value path, _potential2,
    yields one. Neither calls the other, so each value is counted once.
    The single queries call the kernel with the reads of the graph's
    frame and their own (cat0.dual._reads, OperatorGraph._frame),
    which changes what it reads, not what it is asked for. A zero dual's
    potential is 0 without any work, so it is not counted: one value
    stands where a one-term dual's potential costs two squared
    distances. The count reads the kernel's first two arguments, so it
    is the same with or without a scale (ints on the scale are the same
    potentials).
    """
    import cat0.conjugate
    import cat0.dual
    import cat0.fitzpatrick
    import cat0.monotone

    calls = count_calls(monkeypatch, "_potentials2", (cat0.dual, cat0.fitzpatrick, cat0.monotone),
                        lambda xds, zs, *rest: sum(1 for xd in xds if xd.terms) * (len(zs) if len(xds) == 1 else 1))
    return count_calls(monkeypatch, "_potential2", (cat0.dual, cat0.monotone, cat0.conjugate),
                       lambda xd, z: 1 if xd.terms else 0, calls)


def count_dist_sq(monkeypatch) -> List[int]:
    """Count squared distances, wherever the library imports dist_sq.

    On the hyperboloid each one is counted where it is computed, in
    cat0.spaces._hyperbolic_dists_sq, which dist_sq and the pairing
    kernel call on payloads: len(xs) per call, one per payload it meets,
    whether it meets one shared payload or a partner each.
    """
    import cat0.dual
    import cat0.geometry
    import cat0.spaces

    calls = count_calls(monkeypatch, "dist_sq", (cat0.spaces, cat0.dual, cat0.geometry),
                        lambda x, y: x.space.kind != "hyperbolic")
    return count_calls(monkeypatch, "_hyperbolic_dists_sq", (cat0.spaces, cat0.dual),
                       lambda xs, *rest: len(xs), calls)

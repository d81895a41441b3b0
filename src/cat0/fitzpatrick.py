"""Fitzpatrick-type transforms of operator graphs and their level sets.

For a finite graph g, basepoint p and query pair (x, x_dual) the
transform is computed in three algebraically equal ways:

* sup form:       sup_{(y, y_dual) in g} { <x_dual, py-> - <y_dual, xy-> }
* coupling form:  pi_p(x, x_dual) - inf_{(y, y_dual) in g}
                  <x_dual - y_dual, yx->
* conjugate form: the p-conjugate of (coupling + graph indicator),
                  relative to the graph itself, at the swapped query.

The three forms agree term by term through the chain-split identity;
each keeps its own expression in doubled potentials (see
cat0.dual._potential2), so computing all of them is a cheap self-check
and the agreement is part of the CLI output. A form fills the columns it
reads with one call of the pairing kernel each: the query dual at the
graph's distinct points and the query-side points, the graph's rows
(one per exact action) at q.x and, for the conjugate form, at p. No value is
shared between forms or calls, so the check stays a real one: what the
OperatorGraph keeps after the first call that reads it is its store
(OperatorGraph._store, cat0.dual._Store), its pairs numbered once and
its inputs as the kernel reads them, such as the coordinate columns of
its hyperboloid points and distinct term endpoints, and its pairs'
self-potentials P_y(y.x), which no form computes. The graph's pairs are
member handles carrying them; the conjugate form reads each row's
doubled coupling as P_y(y.x) - P_y(p), with P_y(p) from the column its
term reads. On an empty graph all three give -inf, once p and q are
checked against the graph's space. The sup-form term (_transform2) also
serves roundtrip_check. Across the whole-set sweeps, which start from
the same store, the same exemption holds for a pair's own potential
P_q(q.x), which the store holds for the graph's pairs and the
PairedPoint keeps after the first store or sweep that reads it
(cat0.dual._Potentials.members); every gap, cross potential, sup-form
term and conjugate term is still evaluated by the call that reads it.

On exact inputs a query runs on one integer scale (cat0.dual._scale):
the graph's store keeps its keys and points as int columns, D_V and
D_Z, the lcms of their denominators, and its self-potentials as ints
over D_V D_Z. A query reads q.xd's key and the points q.x and p in the
same shape, once per form, and cat0.dual._fold lcm's their
denominators with D_V and D_Z into its scale (sv, sz) and multiplies
the kept self-potentials onto it.
The kernel fills the columns with ints on that scale through one
formula (cat0.dual._scaled2), the three term expressions run on them
unchanged, and each form divides once at the end, reporting
Fraction(best2, 2 sv sz): the value and type that half_of(best2) gives
on Fractions. On integers, where the scale is (1, 1), the plain kernel
gives those ints and no column is read. On the hyperboloid, with a float, or past the kernel's
cap on the scale's bits, a query runs on floats or on Fractions
reduced at every step, as any pairing does. level_set_report and
roundtrip_check run on one scale per call likewise, through their
potential table (cat0.dual._Potentials), and report the same values.

On a monotone graph the transform meets the coupling exactly on the
graph's own pairs and its level sets against the coupling encode
monotonicity and relative maximality; level_set_report partitions a
candidate universe accordingly and evaluates the expected cross
properties. The basepoint enters the quasilinearization as an affine
shift, <x*, py-> = <x*, pp'-> + <x*, p'y->, so the transform and the
coupling at q move by the same <q.xd, pp'-> and their difference,
minus the least relatedness gap from q to a graph member, does not
depend on p: the report reads its gaps and its polar from those
relatedness gaps alone and evaluates nothing at p. s_map inverts the
representation: it collects the pairs where a function table meets its
coupling, and roundtrip_check verifies that transform-of-s_map
reproduces tables passing the membership check.

worked_examples re-runs the bundled reference configurations (an exact
rational computation on the branch-glued tree, a float computation on
the hyperbolic sheet) and compares them with their known
exact/closed-form values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import getitem
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .conjugate import (
    DEFAULT_LAMBDA_GRID,
    FunctionTable,
    GammaReport,
    PairedPoint,
    _conjugate,
    coupling_pi,
    gamma_p_membership,
)
from .dual import (
    _Potentials,
    _fold,
    _half,
    _potentials2,
    dual_add,
    dual_scale,
    dual_term,
    pair,
)
from .extreal import ExtReal, NEG_INF, Scalar, agree, ext
from .monotone import (
    OperatorGraph,
    PropertyReport,
    _gaps2,
    _monotone_report,
    _swept,
    f_property_check,
    relatedness_gap,
)
from .spaces import (
    BoundVector,
    GeometryError,
    Point,
    SpaceHandle,
    _check_space,
    geodesic_point,
    hyperbolic,
    make_point,
    minkowski_form,
    rtree,
)

__all__ = [
    "SLevelReport",
    "FitzConvexityReport",
    "RepresentationPreconditionError",
    "ExampleRow",
    "fitzpatrick_sup",
    "fitzpatrick_inf",
    "fitzpatrick_via_conjugate",
    "fitzpatrick_forms_agree",
    "level_set_report",
    "s_map",
    "roundtrip_check",
    "classical_fitzpatrick_oracle",
    "convexity_check_fitz",
    "worked_examples",
]


class RepresentationPreconditionError(GeometryError):
    """roundtrip_check was handed a table failing the membership check."""

    def __init__(self, report: GammaReport):
        super().__init__(
            "table fails the representable-class membership check "
            f"(proper={report.proper}, convexity={report.convexity_holds}, "
            f"fixed_point={report.fixed_point_holds})"
        )
        self.report = report


def _transform2(P, zp, ys: Iterable[tuple], q: tuple) -> Scalar:
    """Twice fitzpatrick_sup at the handle q over the graph's member handles ys.

    Handles and the reader P as in cat0.dual._potential2; a member handle
    carries P_y(y.x). A sup-form term at (q, y) is P_q(y.x) - P_q(p) -
    P_y(y.x) + P_y(q.x) in doubled potentials; P_q(p) is read once. ys
    must not be empty.
    """
    zq, dq = q
    at_p = P(dq, zp)
    return max(P(dq, zy) - at_p - own + P(dy, zq) for zy, dy, own in ys)


# A single query reads its potentials from columns the kernel fills in
# one call each, through the reader getitem: P(d, z) = d[z]. A dual's
# handle holds its potentials at the points it is read at, and a point's
# handle is its position there. The query dual's handle is its column:
# its potential at each point of the graph's store, by point number,
# then at the query-side points (_Query.column). A member's handle holds
# its row's entries of the graph duals' columns at the query-side points
# (_Query.members). A query-side point's handle is its position from the
# end, in the column and in each member's entries alike. On exact
# inputs the columns hold ints on the query's scale (sv, sz), and each
# form halves through _Query.half, which divides by 2 sv sz.


class _Query:
    """One query on its graph's store: its scale, read and the store's own potentials on it, and its halving.

    p and q.x are checked against the graph's space here (q.xd lies in
    q.x's), so the kernel calls of the query check nothing again: the
    graph's pairs were checked when it was built. The kernel reads the
    graph's points and rows as its store keeps them (OperatorGraph
    ._store), and q.xd with q.x and p as this query reads them, once per
    form (mine, from cat0.dual._fold, q.x and p a batch each, which also
    gives the scale and puts the store's own potentials on it). They
    are kept nowhere else. Where the query has no read (a graph or a
    query with a float, past the scale's cap, or on integers, where the
    scale is (1, 1)), the kernel reads the pairs themselves.
    """

    __slots__ = ("store", "q", "scale", "mine", "owns", "half")

    def __init__(self, g: OperatorGraph, p: Point, q: PairedPoint):
        for z in (p, q.x):
            _check_space(g.space, z.space)
        self.store, self.q = g._store, q
        self.scale, self.mine, self.owns = _fold(g.space, self.store.read and self.store.scale, self.store.owns, (q.xd,), (q.x,), (p,))
        self.half = partial(_half, scale=self.scale)  # the value that v2 on the query's scale stands for

    def _at(self, a: Point) -> object:
        """The read of the query-side point a, q.x or p: its one-item batch."""
        return self.mine[1][0 if a is self.q.x else 1]

    def column(self, *at: Point) -> List[Scalar]:
        """P_q at each point of the store, by number, then at the points at.

        One kernel call over the points in that order, their reads the
        store's batch, then the query's own.
        """
        read = self.mine and (self.mine[0], [*self.store.read[1], *map(self._at, at)])
        return _potentials2((self.q.xd,), [*self.store.points, *at], self.scale, read)

    def members(self, *at: Point) -> Iterator[tuple]:
        """Member handles (point number, (P_y(a) for a in at), P_y(y.x)) of the graph's pairs y.

        One kernel call per point a over the store's rows, read as the
        store keeps them and a as its one-item batch; a pair reads its
        row's values.
        """
        store = self.store
        rows = zip(*(_potentials2(store.duals, (a,), self.scale, self.mine and (store.read[0], [self._at(a)])) for a in at))
        if len(store.duals) < len(store.rs):  # pairs that share a row
            rows = map(list(rows).__getitem__, store.rs)
        return zip(store.zs, rows, self.owns)


def fitzpatrick_sup(g: OperatorGraph, p: Point, q: PairedPoint) -> ExtReal:
    """Supremum form of the transform at the query pair."""
    run = _Query(g, p, q)
    if not g.pairs:
        return NEG_INF
    return ExtReal(run.half(_transform2(getitem, -1, run.members(q.x), (-1, run.column(p)))))


def fitzpatrick_inf(g: OperatorGraph, p: Point, q: PairedPoint) -> ExtReal:
    """Coupling-minus-infimum form: pi_p(q) - inf of relatedness gaps.

    The query's column ends with P_q(p) and P_q(q.x), so the coupling
    pi_p(q) = (P_q(q.x) - P_q(p)) / 2 reads the values the gaps read (0
    where coupling_pi gives 0: a zero vector or a zero dual).
    """
    run = _Query(g, p, q)
    if not g.pairs:
        return NEG_INF
    column = run.column(p, q.x)
    a = (-1, column, column[-1])
    worst = min(_gaps2(getitem, zip(itertools.repeat(a), run.members(q.x))))
    zero = p == q.x or not q.xd.terms
    coupling = 0 if zero else run.half(column[-1] - column[-2])
    return ExtReal(coupling - run.half(worst))


def fitzpatrick_via_conjugate(g: OperatorGraph, p: Point, q: PairedPoint) -> ExtReal:
    """Conjugate form: (coupling + graph indicator)*_p o swap, relative to g.

    The sup runs over g's pairs valued at their couplings, each doubled
    coupling read as P_y(y.x) - P_y(p) from g's kept self-potentials and
    the column of P_y(p) that the conjugate term reads too; pairs acting
    alike give equal terms, so none is merged first.
    """
    run = _Query(g, p, q)
    rows = ((zy, dy, own - dy[-1]) for zy, dy, own in run.members(q.x, p))
    return _conjugate(getitem, -1, rows, (-2, run.column(p)), run.half)


def fitzpatrick_forms_agree(
    g: OperatorGraph, p: Point, q: PairedPoint, tol: Optional[float] = None
) -> bool:
    """Do the three forms agree within tol (default: the space's default_tol)?"""
    tol = p.space.default_tol if tol is None else tol
    forms = (fitzpatrick_sup, fitzpatrick_inf, fitzpatrick_via_conjugate)
    return agree(tuple(form(g, p, q) for form in forms), tol)


@dataclass(frozen=True)
class SLevelReport:
    """Partition of a universe by transform-vs-coupling comparison.

    below/equal/above hold universe indices classified with the band
    |transform - coupling| <= tol, the tol that also decides relatedness
    and pair matching; gaps holds the signed differences
    (transform minus coupling, -inf possible on an empty graph). A gap
    is minus the least relatedness gap from its pair to a graph member,
    so it does not depend on the basepoint. checks records the expected
    cross properties; entries are None when their premise does not
    apply. On exact inputs all five hold by that identity, since the
    polar is read from the same gaps: they are kept as fields, not as
    independent checks.
    """

    below: Tuple[int, ...]
    equal: Tuple[int, ...]
    above: Tuple[int, ...]
    gaps: Tuple[ExtReal, ...]
    monotone: bool
    maximal_relative: bool
    checks: dict


def level_set_report(
    g: OperatorGraph,
    p: Point,
    universe: Sequence[PairedPoint],
    tol: Optional[float] = None,
) -> SLevelReport:
    """Classify every universe pair and run the level-set cross checks.

    Cross checks: the at-most-coupling region must coincide with the
    monotone polar of g inside the universe; a monotone graph must sit
    inside the equality band; a maximal-relative graph must exhaust the
    equality region and leave the strictly-below region empty; and
    equality region == graph with nothing below forces relative
    maximality.

    The gaps do not depend on p: transform minus coupling at q is
    -min over the members y of relatedness_gap(q, y), as the basepoint
    shifts both by <q.xd, pp'->. So the report reads the doubled
    relatedness gaps of every (universe pair, member) once, on one
    potential table, and takes the polar as the pairs whose doubled gap
    to the coupling is at most the table's bound of 2 tol, which is the
    at-most band; it evaluates no potential at p. On exact inputs the
    checks thus hold by the identity, not by a second computation.
    p gives tol's default, the space's default_tol, and must lie in the
    table's space.
    """
    _check_space(g.space, p.space)
    tol = p.space.default_tol if tol is None else tol
    pot, gms, us = _swept(g, universe, tol)
    us = pot.members(universe, us)
    # fitzpatrick_sup minus coupling_pi, doubled, is minus the least
    # doubled relatedness gap to a member (-inf without members), and is
    # halved once; 0 - v, not -v, keeps a float 0.0 unsigned
    if gms:
        pot.fill([row for _, row, _ in us], [z for z, _, _ in gms])
        pot.fill([row for _, row, _ in gms], [z for z, _, _ in us])
        doubled = [0 - min(_gaps2(getitem, zip(itertools.repeat(u), gms))) for u in us]
    else:
        doubled = [-math.inf] * len(us)
    gaps = [ExtReal(pot.half(g2)) if gms else NEG_INF for g2 in doubled]
    below: List[int] = []
    equal: List[int] = []
    above: List[int] = []
    # |gap| <= tol is decided on the doubled gap against the table's bound
    # of 2 tol, which is exact on ints and Fractions and builds no
    # Fraction; a float gap is compared as reported, since halving a float
    # can round
    tol2 = pot.bound(tol)
    for i, (g2, gap) in enumerate(zip(doubled, gaps)):
        v, band = (gap.raw, tol) if isinstance(g2, float) else (g2, tol2)
        if abs(v) <= band:
            equal.append(i)
        elif v < 0:
            below.append(i)
        else:
            above.append(i)

    graph_idx = {i for i, q in enumerate(universe) if g._listed.find(q, tol) is not None}
    # the polar: related to every member, so the least doubled gap is at
    # least -2 tol on the table's scale (the sweeps' test)
    polar_idx = {i for i, g2 in enumerate(doubled) if g2 <= tol2}

    mono = _monotone_report(pot, g.pairs, gms, tol).holds
    # is_maximal_relative's test, on the sets already in hand
    maxrel = mono and polar_idx <= graph_idx
    at_most = set(below) | set(equal)

    checks = {
        "at_most_coupling_equals_polar": at_most == polar_idx,
        "graph_inside_equality_band": (graph_idx <= set(equal)) if mono else None,
        "equality_band_equals_graph": (set(equal) == graph_idx) if maxrel else None,
        "nothing_below_coupling": (not below) if maxrel else None,
        "equality_criterion_gives_maximality": (
            maxrel if (set(equal) == graph_idx and not below) else None
        ),
    }
    return SLevelReport(
        below=tuple(below),
        equal=tuple(equal),
        above=tuple(above),
        gaps=tuple(gaps),
        monotone=mono,
        maximal_relative=maxrel,
        checks=checks,
    )


def s_map(
    h: FunctionTable, p: Optional[Point] = None, tol: Optional[float] = None
) -> OperatorGraph:
    """The graph of pairs where the table meets its coupling.

    Collects listed pairs with finite value within tol (default: the
    space's default_tol) of pi_p; this is the operator a representable
    table encodes.
    """
    if p is None:
        p = h.p
    tol = p.space.default_tol if tol is None else tol
    selected = tuple(
        q
        for q, v in h.entries
        if v.is_finite and abs(v.value - coupling_pi(p, q)) <= tol
    )
    return OperatorGraph(p.space, selected)


def roundtrip_check(
    h: FunctionTable,
    p: Optional[Point] = None,
    universe: Optional[Sequence[PairedPoint]] = None,
    lambda_grid: Sequence[Scalar] = DEFAULT_LAMBDA_GRID,
    tol: Optional[float] = None,
) -> PropertyReport:
    """Does transform-of-s_map reproduce the table on its own entries?

    Precondition: the table passes the membership check relative to the
    universe (default: its own domain); failures raise
    RepresentationPreconditionError rather than reporting False, so a
    wrong input is never confused with a failed identity. One tol
    (default: the space's default_tol) serves all three steps. The
    membership report is the table's kept one when the caller has just
    checked it with the same arguments (see gamma_p_membership).
    """
    if p is None:
        p = h.p
    tol = p.space.default_tol if tol is None else tol
    if universe is None:
        universe = h.domain
    membership = gamma_p_membership(h, p, universe, lambda_grid=lambda_grid, tol=tol)
    if not membership.holds:
        raise RepresentationPreconditionError(membership)
    g = s_map(h, p, tol)
    # fitzpatrick_sup at every entry, read from one potential table; an
    # entry's values are filled when it is reached
    pot = _Potentials(g._store)
    qs = pot.handles(h.domain)
    zp = pot.point(p)
    gms = pot.start()
    side = [z for z, _, _ in gms] + [zp]
    for (q, v), (zq, rq) in zip(h.entries, qs):
        if gms:
            pot.fill((rq,), side)
            pot.fill_at([row for _, row, _ in gms], zq)
            phi = ExtReal(pot.half(_transform2(getitem, zp, gms, (zq, rq))))
        else:
            phi = NEG_INF
        if not agree((phi, v), tol):
            return PropertyReport(
                holds=False, witness={"pair": q, "table": v, "transform": phi}
            )
    return PropertyReport(holds=True)


def classical_fitzpatrick_oracle(
    graph: Sequence[Tuple[Sequence[Scalar], Sequence[Scalar]]],
    x: Sequence[Scalar],
    u: Sequence[Scalar],
) -> ExtReal:
    """Brute-force flat-space transform <<x|u>> - inf <<x-y | u-w>>.

    Plain coordinate vectors, no geodesic machinery: the oracle the
    basepoint-at-origin pipeline must reproduce. Empty graph: -inf.
    """

    def dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
        return sum(ai * bi for ai, bi in zip(a, b))

    if not graph:
        return NEG_INF
    inner = min(
        dot([xi - yi for xi, yi in zip(x, y)], [ui - wi for ui, wi in zip(u, w)])
        for y, w in graph
    )
    return ExtReal(dot(x, u) - inner)


@dataclass(frozen=True)
class FitzConvexityReport:
    """Sampled convexity of the transform along admissible segments."""

    holds: bool
    witness: Optional[dict]
    checked_pairs: int
    skipped_pairs: int


def convexity_check_fitz(
    g: OperatorGraph,
    p: Point,
    candidate_pairs: Sequence[Tuple[PairedPoint, PairedPoint]],
    lambda_grid: Sequence[Scalar] = DEFAULT_LAMBDA_GRID,
    tol: Optional[float] = None,
) -> FitzConvexityReport:
    """Convexity of the transform along segments satisfying its precondition.

    The transform is geodesically convex along (a, b) only when the set
    {a.x, b.x} x range(g) has the lower coupling-convexity property at
    p; candidate pairs failing that precondition are skipped and
    counted, the rest are checked on the lambda grid with dual-slot
    combinations taken formally. One tol (default: the space's
    default_tol) bounds the precondition and the inequality.
    """
    tol = p.space.default_tol if tol is None else tol
    if not g.pairs:
        return FitzConvexityReport(holds=True, witness=None, checked_pairs=0, skipped_pairs=0)
    checked = 0
    skipped = 0
    witness: Optional[dict] = None
    rng_duals = g.range_duals()
    for qa, qb in candidate_pairs:
        precondition_set = tuple(
            PairedPoint(x, xd) for x in (qa.x, qb.x) for xd in rng_duals
        )
        fl = f_property_check(precondition_set, p, lambda_grid, tol)
        if not fl.lower.holds:
            skipped += 1
            continue
        checked += 1
        va = fitzpatrick_sup(g, p, qa)
        vb = fitzpatrick_sup(g, p, qb)
        for lam in lambda_grid:
            mid = PairedPoint(
                geodesic_point(qa.x, qb.x, lam),
                dual_add(dual_scale(1 - lam, qa.xd), dual_scale(lam, qb.xd)),
            )
            vm = fitzpatrick_sup(g, p, mid)
            bound = (1 - lam) * va.value + lam * vb.value
            if witness is None and not vm.value - bound <= tol:
                witness = {
                    "pair_a": qa,
                    "pair_b": qb,
                    "lam": lam,
                    "value": vm,
                    "bound": ExtReal(bound),
                }
    return FitzConvexityReport(
        holds=witness is None,
        witness=witness,
        checked_pairs=checked,
        skipped_pairs=skipped,
    )


# --------------------------------------------------------------------------
# bundled reference examples


@dataclass(frozen=True)
class ExampleRow:
    """One computed-vs-expected comparison from the reference examples."""

    name: str
    computed: ExtReal
    expected: ExtReal
    tol: Scalar
    passed: bool


def _row(name: str, computed, expected, tol) -> ExampleRow:
    comp = ext(computed)
    expe = ext(expected)
    if tol == 0:
        ok = comp == expe
    else:
        ok = comp.is_finite and expe.is_finite and abs(comp.value - expe.value) <= tol
    return ExampleRow(name=name, computed=comp, expected=expe, tol=tol, passed=ok)


def _tree_example_rows(depth: int) -> List[ExampleRow]:
    space = rtree()
    chain = [make_point(space, (n, Fraction(1, n))) for n in range(1, depth + 2)]
    graph = OperatorGraph(
        space,
        tuple(
            PairedPoint(chain[n - 1], dual_term(1, chain[n - 1], chain[n]))
            for n in range(1, depth + 1)
        ),
    )
    x = make_point(space, (1, 0))  # the gluing point
    xd = dual_term(
        1,
        make_point(space, (2, Fraction(2, 3))),
        make_point(space, (3, 1)),
    )
    query = PairedPoint(x, xd)

    def expected_gap(n: int) -> Fraction:
        if n == 1:
            return Fraction(-7, 6)
        if n == 2:
            return Fraction(5, 12)
        if n == 3:
            return Fraction(-3, 4)
        return Fraction(n * n - 5 * n - 3, 3 * n * n * (n + 1))

    rows = [
        _row(
            f"tree: query-vs-graph gap at chain index {n}",
            relatedness_gap(query, graph.pairs[n - 1]),
            expected_gap(n),
            0,
        )
        for n in range(1, min(5, depth) + 1)
    ]
    inner = min(relatedness_gap(query, gp) for gp in graph.pairs)
    rows.append(_row("tree: inner infimum over the chain graph", inner, Fraction(-7, 6), 0))

    def expected_coupling(n0: int, t0: Scalar) -> Scalar:
        if n0 == 2:
            return Fraction(5, 3) * t0
        if n0 == 3:
            return Fraction(-5, 3) * t0
        return Fraction(1, 3) * t0

    for n0 in (2, 3, 5):
        for t0 in (0, Fraction(1, 4), Fraction(1, 2), 1):
            p = make_point(space, (n0, t0))
            pi = coupling_pi(p, query)
            rows.append(
                _row(
                    f"tree: coupling at basepoint ({n0}, {t0})",
                    pi,
                    expected_coupling(n0, t0),
                    0,
                )
            )
            phi = fitzpatrick_sup(graph, p, query)
            rows.append(
                _row(
                    f"tree: transform at basepoint ({n0}, {t0})",
                    phi,
                    expected_coupling(n0, t0) + Fraction(7, 6),
                    0,
                )
            )
    # exact three-way agreement at one basepoint
    p = make_point(space, (2, 1))
    a = fitzpatrick_sup(graph, p, query)
    b = fitzpatrick_inf(graph, p, query)
    c = fitzpatrick_via_conjugate(graph, p, query)
    spread = max(a.value, b.value, c.value) - min(a.value, b.value, c.value)
    rows.append(_row("tree: transform form spread", spread, 0, 0))
    return rows


def _hyperbolic_curve_point(space: SpaceHandle, t: float) -> Point:
    return make_point(space, (math.sinh(t), 0.0, math.cosh(t)))


def _hyperbolic_example_rows(
    grid_stop: float, grid_step: float, slope_samples: Sequence[float]
) -> List[ExampleRow]:
    space = hyperbolic(2)
    p = make_point(space, (1.0, -1.0, math.sqrt(3.0)))
    x = make_point(space, (0.0, 0.0, 1.0))
    xd = dual_term(
        1.0,
        make_point(space, (1.0, 0.0, math.sqrt(2.0))),
        make_point(space, (0.0, -1.0, math.sqrt(2.0))),
    )
    query = PairedPoint(x, xd)

    rows = [
        _row("hyperbolic: coupling at basepoint", coupling_pi(p, query), 0.0, 1e-9)
    ]
    for t in slope_samples:
        yt = _hyperbolic_curve_point(space, t)
        yd = dual_term(1.0, yt, _hyperbolic_curve_point(space, t + 1.0))
        rows.append(
            _row(
                f"hyperbolic: curve-dual pairing at t={t:g}",
                pair(yd, BoundVector(yt, x)),
                -t,
                1e-9,
            )
        )

    steps = int(round(grid_stop / grid_step))
    pairs = []
    for k in range(steps + 1):
        t = k * grid_step
        yt = _hyperbolic_curve_point(space, t)
        pairs.append(PairedPoint(yt, dual_term(1.0, yt, _hyperbolic_curve_point(space, t + 1.0))))
    graph = OperatorGraph(space, tuple(pairs))
    phi = fitzpatrick_sup(graph, p, query)
    rows.append(_row("hyperbolic: transform over the curve grid", phi, 0.0, 1e-6))

    # midpoint comparison witness: pairing along the geodesic midpoint
    # sits strictly below the chord value, so the upper coupling
    # property fails at this configuration
    aw = make_point(space, (1.0, 0.0, math.sqrt(2.0)))
    bw = make_point(space, (-1.0, 0.0, math.sqrt(2.0)))
    xw = make_point(space, (0.0, 1.0, math.sqrt(2.0)))
    xdw = dual_term(1.0, aw, bw)
    rows.append(
        _row(
            "hyperbolic: witness endpoints form value",
            minkowski_form(xw.payload, bw.payload),
            -2.0,
            1e-9,
        )
    )
    mid = geodesic_point(xw, bw, Fraction(1, 2))
    alpha = math.cosh(0.5 * math.acosh(2.0))
    beta = math.sinh(0.5 * math.acosh(2.0)) / math.sqrt(3.0)
    closed = (-beta, alpha - 2 * beta, math.sqrt(2.0) * (alpha - beta))
    coord_defect = max(abs(a - b) for a, b in zip(mid.payload, closed))
    rows.append(_row("hyperbolic: midpoint coordinate defect", coord_defect, 0.0, 1e-9))
    rows.append(
        _row(
            "hyperbolic: witness pairing, midpoint side",
            pair(xdw, BoundVector(xw, mid)),
            0.6816,
            5e-4,
        )
    )
    rows.append(
        _row(
            "hyperbolic: witness pairing, chord side",
            0.5 * pair(xdw, BoundVector(xw, bw)),
            0.7768,
            5e-4,
        )
    )
    return rows


def worked_examples(
    tree_depth: int = 25,
    curve_grid_stop: float = 10.0,
    curve_grid_step: float = 0.01,
    curve_slope_samples: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 5.0),
) -> Tuple[ExampleRow, ...]:
    """Recompute the bundled reference examples and compare with their targets.

    The tree rows are exact rational identities (tolerance 0); the
    hyperbolic rows carry explicit float tolerances. Deterministic: no
    randomness enters anywhere.
    """
    rows = _tree_example_rows(tree_depth)
    rows += _hyperbolic_example_rows(curve_grid_stop, curve_grid_step, curve_slope_samples)
    return tuple(rows)

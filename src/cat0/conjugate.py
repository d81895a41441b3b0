"""Couplings, Fenchel-type conjugates and the representable-function class.

The analysis lives on pairs (x, x_dual) of a point and a dual vector.
With a fixed basepoint p the coupling is

    pi_p(x, x_dual) = <x_dual, px->,

and the p-conjugate of an extended-real function h, evaluated at a
swapped pair (x_dual, x) and relative to a finite candidate universe U,
is

    h*_p(x_dual, x) = sup_{(y, y_dual) in U} { <x_dual, py-> +
                      <y_dual, px-> - h(y, y_dual) }.

Functions are finite tables: listed pairs carry extended-real values,
unlisted pairs count as +inf (so they drop out of the sup); a -inf value
anywhere in the universe is an improper input and raises. All suprema
follow the conventions of cat0.extreal (sup of nothing is -inf).
Pairs are matched by one rule, _PairSet, with the tol of each lookup: a
frozen table or graph builds its index once (FunctionTable._listed,
OperatorGraph._listed) and every check reads it with its own tol.

The membership check gamma_p_membership is the desk-scale version of
the class of proper convex functions that are fixed points of
h |-> (h + indicator{h <= pi_p})*_p after the swap. Lower
semicontinuity, part of the textbook definition, has no finite-data
content and is deliberately not checked; convexity is sampled along a
lambda grid and only where the combined pair lands on another table
entry (skipped combinations are counted and reported).

Combinations are matched point first, on an exact table with an exact
grid only at listed points and by a key combined from their endpoints'
keys, and a table keeps its last membership report, which
roundtrip_check's precondition reads again (see gamma_p_membership
and _convexity_scan). The conjugate term
is written once, in the potentials of cat0.dual._potential2
(_conjugate), on (point, dual) handles: rows are handles with a doubled
value, for fenchel_conjugate_p, the conjugate form of the transform
and the fixed-point identity; the last reads the rows of one potential
table per call through getitem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import getitem
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from .extreal import ExtReal, NEG_INF, POS_INF, Scalar, ext, scale
from .dual import (
    DualVector,
    _Potentials,
    _combined_key,
    _potential2,
    dual_add,
    dual_scale,
    duals_match,
    is_exact,
    pair,
)
from .geometry import half_of
from .spaces import (
    HYPERBOLIC,
    BoundVector,
    GeometryError,
    Point,
    _check_space,
    _check_unit_interval,
    distance,
    geodesic_point,
)

__all__ = [
    "PairedPoint",
    "FunctionTable",
    "ImproperTableError",
    "GammaReport",
    "function_table",
    "coupling_pi",
    "pair_in",
    "fenchel_conjugate_p",
    "fenchel_young_check",
    "gamma_p_membership",
    "DEFAULT_LAMBDA_GRID",
]

from fractions import Fraction

DEFAULT_LAMBDA_GRID: Tuple[Scalar, ...] = (
    0,
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    1,
)


class ImproperTableError(GeometryError):
    """A function table takes the value -inf inside the universe."""


@dataclass(frozen=True)
class PairedPoint:
    """A point together with a dual vector; the atom of the analysis."""

    x: Point
    xd: DualVector

    def __post_init__(self):
        _check_space(self.x.space, self.xd.space)

    @cached_property
    def _key(self) -> Optional[tuple]:
        """(point, dual key) of an exact pair; None on the hyperboloid or with a float."""
        if self.x.space.kind == HYPERBOLIC or not is_exact(self.x.payload):
            return None
        key = self.xd.key
        return None if key is None else (self.x, key)


class _PairSet:
    """Behavioral membership in a fixed sequence of pairs.

    Exact pairs are found by their key in one dict lookup. A pair
    holding a float, or on the hyperboloid, is compared by a scan:
    points and dual actions within the tol given to find (default: the
    query space's default_tol; see duals_match), so one index serves
    every tol. An exact query scans only the members that have no key.
    Either way find gives the first matching member's position.
    """

    def __init__(self, members: Sequence[PairedPoint]):
        self._members = tuple(members)
        self._keyed: Dict[tuple, int] = {}
        self._unkeyed = []
        for i, m in enumerate(self._members):
            key = m._key
            if key is None:
                self._unkeyed.append(i)
            else:
                self._keyed.setdefault(key, i)

    def find(self, q: PairedPoint, tol: Optional[float] = None) -> Optional[int]:
        """The position of the first member equal to q within tol, or None."""
        n = len(self._members)
        key = q._key
        first = n if key is None else self._keyed.get(key, n)
        tol = q.x.space.default_tol if tol is None else tol
        for i in self._unkeyed if key is not None else range(n):
            if i >= first:
                break
            if _near(self._members[i], q, tol):
                return i
        return first if first < n else None


def _near(m: PairedPoint, q: PairedPoint, tol: float) -> bool:
    """Are m and q the same pair within tol: points within tol, duals acting alike (duals_match)?"""
    return m.x.space == q.x.space and distance(m.x, q.x) <= tol and duals_match(q.xd, m.xd, tol)


@dataclass(frozen=True)
class FunctionTable:
    """An extended-real function given by finitely many listed pairs.

    p is the basepoint the table's couplings and conjugates refer to.
    Pairs not listed take the value +inf. A pair is listed when it
    equals a listed pair as _PairSet compares them: by key on exact
    inputs, within the space's default_tol by point and dual action
    otherwise, so a value never depends on how the dual is written. No
    two listed pairs may be equal, and every one lies in p's space. Their
    index, _listed, is built once with the table; every check reads it
    with its own tol.
    """

    p: Point
    entries: Tuple[Tuple[PairedPoint, ExtReal], ...]

    def __post_init__(self):
        for i, q in enumerate(self.domain):
            _check_space(self.p.space, q.x.space)
            j = self._listed.find(q)
            if j != i:
                raise GeometryError(f"entry {i} repeats entry {j}")

    @cached_property
    def domain(self) -> Tuple[PairedPoint, ...]:
        """The listed pairs, in order."""
        return tuple(q for q, _ in self.entries)

    @cached_property
    def _listed(self) -> _PairSet:
        return _PairSet(self.domain)

    @cached_property
    def _gamma_memo(self) -> list:
        """[arguments, report] of the last gamma_p_membership call; empty before one."""
        return []

    def value(self, q: PairedPoint) -> ExtReal:
        _check_space(self.p.space, q.x.space)
        i = self._listed.find(q)
        return POS_INF if i is None else self.entries[i][1]

    def is_proper(self) -> bool:
        """No -inf anywhere and at least one finite value."""
        vals = [v for _, v in self.entries]
        return all(not v.is_neg_inf for v in vals) and any(v.is_finite for v in vals)


def function_table(
    p: Point, rows: Iterable[Tuple[Point, DualVector, Union[Scalar, ExtReal]]]
) -> FunctionTable:
    """Build a FunctionTable from (point, dual, value) rows."""
    return FunctionTable(p, tuple((PairedPoint(x, xd), ext(v)) for x, xd, v in rows))


def coupling_pi(p: Point, q: PairedPoint) -> Scalar:
    """pi_p(q) = <q.xd, p q.x ->."""
    return pair(q.xd, BoundVector(p, q.x))


def pair_in(q: PairedPoint, pairs: Sequence[PairedPoint], tol: Optional[float] = None) -> bool:
    """Is q one of the pairs? Exact on exact inputs, within tol otherwise.

    The answer of _PairSet(pairs).find(q, tol), by a scan that stops at
    the first match instead of indexing every pair: an exact query
    matches a member with a key by key alone, and every other member
    within tol (default: the query space's default_tol).
    """
    key = q._key
    tol = q.x.space.default_tol if tol is None else tol
    for m in pairs:
        if key is not None and m._key is not None:
            if m._key == key:
                return True
        elif _near(m, q, tol):
            return True
    return False


def fenchel_conjugate_p(
    h: FunctionTable,
    p: Point,
    universe: Sequence[PairedPoint],
    xd: DualVector,
    x: Point,
) -> ExtReal:
    """h*_p at the swapped argument (xd, x), relative to the universe.

    Universe pairs where h is +inf contribute nothing; a -inf value is
    an improper input and raises ImproperTableError. With an empty (or
    entirely +inf) universe the sup is -inf.
    """
    values = _values(h, universe)
    rows = ((q.x, q.xd, 2 * v.value) for q, v in zip(universe, values) if not v.is_pos_inf)
    return _conjugate(_potential2, p, rows, (x, xd))


def _values(h: FunctionTable, pairs: Sequence[PairedPoint], tol: Optional[float] = None) -> list:
    """h at each pair, matched within tol (+inf where none matches); -inf raises.

    A pair from another space than h's basepoint raises: it would match
    no entry and be read as +inf.
    """
    for q in pairs:
        _check_space(h.p.space, q.x.space)
    found = (h._listed.find(q, tol) for q in pairs)
    values = [POS_INF if i is None else h.entries[i][1] for i in found]
    if any(v.is_neg_inf for v in values):
        raise ImproperTableError("table takes the value -inf inside the universe")
    return values


def _conjugate(P, zp, rows: Iterable[tuple], q: tuple, half=half_of) -> ExtReal:
    """The sup of <q.xd, p u.x-> + <u.xd, p q.x-> - value over rows u; -inf over none.

    Handles and the reader P as in cat0.dual._potential2; a row is a
    handle with its value doubled. A term is P_q(u.x) - P_q(p) + P_u(q.x)
    - P_u(p) - 2 value in doubled potentials; P_q(p) is read once. half
    turns the doubled sup into the value (half_of, or the division of
    a single query on an integer scale).
    """
    z, d = q
    at_p = P(d, zp)
    best = max(
        (P(d, zu) - at_p + P(du, z) - P(du, zp) - v2 for zu, du, v2 in rows), default=None
    )
    return NEG_INF if best is None else ExtReal(half(best))


def fenchel_young_check(
    h: FunctionTable,
    p: Point,
    q1: PairedPoint,
    q2: PairedPoint,
    tol: Optional[float] = None,
) -> bool:
    """h(q1) + h*_p(swap q2) >= <q2.xd, p q1.x-> + <q1.xd, p q2.x-> - tol.

    The conjugate is taken relative to the table's own listed pairs; q1
    is matched to them within tol. h must be proper.
    """
    if not h.is_proper():
        raise ImproperTableError("Fenchel-Young check needs a proper table")
    tol = p.space.default_tol if tol is None else tol
    conj = fenchel_conjugate_p(h, p, h.domain, q2.xd, q2.x)
    lhs = _values(h, [q1], tol)[0] + conj
    rhs = pair(q2.xd, BoundVector(p, q1.x)) + pair(q1.xd, BoundVector(p, q2.x))
    return lhs >= rhs - tol


@dataclass(frozen=True)
class GammaReport:
    """Outcome of the representable-class membership check."""

    holds: bool
    worst_defect: float
    convexity_witness: Optional[dict]
    proper: bool
    convexity_holds: bool
    fixed_point_holds: bool
    skipped_combinations: int


def _convexity_scan(
    h: FunctionTable, lambda_grid: Sequence[Scalar], tol: float
) -> Tuple[Optional[dict], int]:
    """(first convexity witness or None, skipped combinations) of h.

    Each landing point (1-lam) x1 (+) lam x2 is computed once per call.
    On an exact table (every listed pair keyed) with an exact grid a
    combination can only match at a listed point, so one landing
    elsewhere is skipped. One landing there is looked up by its point
    and the key of (1-lam) x1* + lam x2*, combined from the endpoints'
    keys (cat0.dual._combined_key) once per call for each two keys and
    lam; no combination dual is built, and a key no pair has is
    skipped. lam = 0 or 1 also matches its own endpoint pair (the
    landing point is that endpoint, keys are linear and the table has no
    two pairs alike), so its value is its bound and, with tol >= 0, it
    passes unevaluated. Elsewhere (the hyperboloid, a float entry or a
    float grid) each combination dual is built and found within tol.
    """
    finite = [(q, v) for q, v in h.entries if v.is_finite]
    if len(finite) < 2:
        return None, 0
    for lam in lambda_grid:
        _check_unit_interval(lam)
    exact = not h._listed._unkeyed and is_exact(lambda_grid)
    endpoints_pass = exact and tol >= 0
    listed_points = {q.x for q in h.domain}
    space = finite[0][0].x.space
    point_ids: Dict[Point, int] = {}
    zs = [point_ids.setdefault(q.x, len(point_ids)) for q, _ in finite]
    landing: Dict[tuple, Optional[Point]] = {}
    key_ids: Dict[tuple, int] = {}
    ks = [key_ids.setdefault(q.xd.key, len(key_ids)) for q, _ in finite] if exact else []
    combined: Dict[tuple, tuple] = {}
    witness: Optional[dict] = None
    skipped = 0
    for i, (q1, v1) in enumerate(finite):
        for j in range(i + 1, len(finite)):
            q2, v2 = finite[j]
            for k, lam in enumerate(lambda_grid):
                if endpoints_pass and (lam == 0 or lam == 1):
                    continue
                at = (zs[i], zs[j], k)
                if at not in landing:
                    cx = geodesic_point(q1.x, q2.x, lam)
                    landing[at] = None if exact and cx not in listed_points else cx
                cx = landing[at]
                if cx is None:
                    skipped += 1
                    continue
                if exact:
                    at = (ks[i], ks[j], k)
                    if at not in combined:
                        combined[at] = _combined_key(space, lam, q1.xd.key, q2.xd.key)
                    match = h._listed._keyed.get((cx, combined[at]))
                else:
                    cd = dual_add(dual_scale(1 - lam, q1.xd), dual_scale(lam, q2.xd))
                    match = h._listed.find(PairedPoint(cx, cd), tol)
                if match is None:
                    skipped += 1
                    continue
                val = h.entries[match][1]
                bound = scale(1 - lam, v1) + scale(lam, v2)
                if witness is None and not val <= bound + tol:
                    witness = {
                        "pair_a": q1,
                        "pair_b": q2,
                        "lam": lam,
                        "value": val,
                        "bound": bound,
                    }
    return witness, skipped


def _fixed_point_defect(
    h: FunctionTable, p: Point, pairs: Sequence[PairedPoint], tol: float
) -> float:
    """max |h - (h + indicator{h <= pi_p})*_p o swap| over the listed pairs.

    Reads every pairing from one potential table: a coupling is two
    reads, a conjugate term four, halved once. Each universe pair's
    capped value is looked up once, matched within tol.
    """
    pot = _Potentials()
    zp = pot.point(p)
    finite = [(u, v) for u, v in zip(pairs, _values(h, pairs, tol)) if v.is_finite]
    us = pot.members([u for u, _ in finite])
    pot.fill([row for _, row, _ in us], [zp])
    # (point, row, doubled value) where h <= pi_p + tol
    capped = [(z, row, 2 * v.value) for (z, row, own), (_, v) in zip(us, finite)
              if v <= half_of(own - row[zp]) + tol]
    qs = pot.handles(h.domain)
    pot.fill([row for _, row in qs], [z for z, _, _ in capped] + [zp])
    pot.fill([row for _, row, _ in capped], [z for z, _ in qs])
    worst = 0.0
    for (q, v), zq in zip(h.entries, qs):
        back = _conjugate(getitem, zp, capped, zq)
        if v.is_finite and back.is_finite:
            defect = abs(float(v.value - back.value))
        elif v == back:
            defect = 0.0
        else:
            defect = float("inf")
        if defect > worst:
            worst = defect
    return worst


def gamma_p_membership(
    h: FunctionTable,
    p: Point,
    universe: Sequence[PairedPoint],
    lambda_grid: Sequence[Scalar] = DEFAULT_LAMBDA_GRID,
    tol: Optional[float] = None,
) -> GammaReport:
    """Desk-scale membership in the representable-function class.

    Checks, in order: properness (no -inf, some finite value);
    convexity of h along geodesics in the first slot and formal convex
    combinations in the dual slot, but only at lambda-grid combinations
    of finite listed pairs that land on another listed pair -
    combinations that land nowhere are skipped and counted; and the
    fixed-point identity h = (h + indicator{h <= pi_p})*_p o swap at
    every listed pair, with the conjugate taken relative to the given
    universe. Lower semicontinuity is not checked (finite data carries
    no information about it).

    Combinations are matched point first. On an exact table (rational
    Euclidean or tree pairs, exact grid) a combination must land on a
    listed point, where its dual is compared by key, and lam = 0 or 1
    matches its own endpoint pair; elsewhere (the hyperboloid, a float
    entry or a float grid) every combination is looked up within tol,
    its dual compared by action (see duals_match); universe pairs are
    matched to the table the same way. The fixed point reads its
    couplings and conjugate terms from one potential table (see
    cat0.dual._Potentials). tol defaults to the space's default_tol.

    The table keeps the report of its last call (one slot,
    FunctionTable._gamma_memo) and returns that same report to a call
    whose p, universe pairs (position by position) and grid values are
    the same objects, and whose tol, after the default, is equal and of
    the same type; any other call computes its report and replaces the
    slot. Equality is not enough: 0 == 0.0 and Fraction(1, 4) == 0.25,
    yet an exact and a float grid take different paths, and a bound
    plus tol = 0 stays exact where plus 0.0 rounds to a float. The
    universe and the grid are read once, so either may be an iterator.
    """
    universe, lambda_grid = tuple(universe), tuple(lambda_grid)
    tol = p.space.default_tol if tol is None else tol
    call = (p, universe, lambda_grid, tol)
    memo = h._gamma_memo
    if memo and _same_call(memo[0], call):
        return memo[1]
    proper = h.is_proper()
    convexity_witness, skipped = _convexity_scan(h, lambda_grid, tol)
    convexity_holds = convexity_witness is None
    if proper:
        worst = _fixed_point_defect(h, p, universe, tol)
        fixed_point_holds = worst <= tol
    else:
        fixed_point_holds = False
        worst = float("inf")

    report = GammaReport(
        holds=proper and convexity_holds and fixed_point_holds,
        worst_defect=worst,
        convexity_witness=convexity_witness,
        proper=proper,
        convexity_holds=convexity_holds,
        fixed_point_holds=fixed_point_holds,
        skipped_combinations=skipped,
    )
    memo[:] = call, report
    return report


def _same_call(a: tuple, b: tuple) -> bool:
    """Same (p, universe, grid, tol): the same objects position by position, tol of one type."""
    (pa, ua, ga, ta), (pb, ub, gb, tb) = a, b
    return pa is pb and type(ta) is type(tb) and ta == tb and all(
        len(x) == len(y) and all(u is v for u, v in zip(x, y)) for x, y in ((ua, ub), (ga, gb))
    )

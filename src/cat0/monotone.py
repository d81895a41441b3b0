"""Monotone graphs, polars, relative maximality and geodesic couplings.

An operator graph is a finite set of (point, dual) pairs. Two pairs are
monotonically related when

    <x_dual - y_dual, yx->  >=  0,

and a graph is monotone when all its pairs are pairwise related. The
polar of a set M inside a finite candidate universe U collects the
members of U related to everything in M; a monotone graph is maximal
*relative to U* when its polar inside U adds nothing. Relative
maximality is the desk-scale stand-in for true maximality - it is
necessary, not sufficient, and every name here says "relative" so the
distinction stays visible.

The two one-sided coupling-convexity properties of a set M with respect
to a basepoint p compare, for every dual in the range of M and every
geodesic between domain points,

    <x_dual, p ((1-lam) x (+) lam y) ->    (value along the geodesic)

against the chord (1-lam) <x_dual, px-> + lam <x_dual, py->. Holding
with <= everywhere is the lower property, >= the upper property; both
at once characterize flat behavior, and each can fail in curved spaces.
Flatness itself is sampled through chord-condition equality on supplied
triples.

The relatedness gap is written once, in doubled potentials (_gaps2,
see cat0.dual._potential2), between handles that carry their own
doubled potential P_a(a.x): relatedness_gap reads it on its two pairs
through _potential2, the whole-set sweeps (is_monotone, monotone_polar,
is_maximal_relative and the level-set report) from the rows of one
potential table per call through getitem, as the single queries of
cat0.fitzpatrick read their columns. A row holds only the values
computed for it, and a sweep computes them where it reads them, so it
evaluates no potential it does not read: the polar goes member by
member and drops a universe pair at the first member it is not related
to (see cat0.dual._Potentials). The members and the universe pairs
alike are handles with their own potentials (_Potentials.members); a
pair outside the graph may share a member's row. An OperatorGraph keeps
its members' self-potentials for the single transform queries of
cat0.fitzpatrick (see OperatorGraph).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import getitem
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .conjugate import (
    DEFAULT_LAMBDA_GRID,
    PairedPoint,
    _PairSet,
)
from .dual import (
    DualVector,
    _Potentials,
    _potential2,
    _potentials2,
    _reads,
)
from .extreal import Scalar
from .geometry import check_cn_inequality, half_of
from .spaces import (
    GeometryError,
    Point,
    SpaceHandle,
    _check_space,
    geodesic_point,
)

__all__ = [
    "OperatorGraph",
    "PropertyReport",
    "FPropertyReport",
    "relatedness_gap",
    "monotonically_related",
    "is_monotone",
    "monotone_polar",
    "is_maximal_relative",
    "f_property_check",
    "flatness_check",
]


class _Frame(NamedTuple):
    """What the single queries of cat0.fitzpatrick read of an OperatorGraph (see OperatorGraph._frame).

    scale: (D_V, D_Z) or None; owns: P_y(y.x) of each pair, aligned
    with the pairs; xs, xds: the pairs' points and duals; read: the
    duals and the points as the pairing kernel reads them, in its one
    read shape (the duals' read, [the points' read]), or None where it
    reads xds and xs themselves (cat0.dual._reads).
    """

    scale: Optional[Tuple[int, int]]
    owns: Tuple[Scalar, ...]
    xs: Tuple[Point, ...]
    xds: Tuple[DualVector, ...]
    read: object


@dataclass(frozen=True)
class OperatorGraph:
    """A finite operator graph over one space.

    Frozen: its frame (_Frame), what every single query
    (fitzpatrick_sup, fitzpatrick_inf, fitzpatrick_via_conjugate) reads
    of it, is computed at the first such query, never when the graph is
    built, and then kept. So is the index of its pairs, _listed, built
    at the first membership test; each test reads it with its own tol.
    """

    space: SpaceHandle
    pairs: Tuple[PairedPoint, ...]

    def __post_init__(self):
        for q in self.pairs:
            _check_space(self.space, q.x.space)

    @cached_property
    def _frame(self) -> "_Frame":
        """What every single query reads of the graph: computed at the first query, then kept.

        The graph's inputs as the pairing kernel reads them, not values
        of a query, so no value is shared between forms or calls. One
        cat0.dual._reads call reads the pairs once:

        * scale: (D_V, D_Z), the lcms of the denominator columns of the
          int reads below (cat0.dual._scale); None on the hyperboloid,
          where a dual has no key or a point holds a float, and past
          the scale's cap;
        * xs, xds: the pairs' points and duals, which every query
          passes to the kernel;
        * read: on the hyperboloid the duals' distinct term endpoints
          kept with their coordinate columns, each term's tail and head
          positions among them, the coefficients in term order and each
          dual's term count (cat0.dual._Ends), so a column of the
          graph's duals computes one squared distance per distinct
          endpoint, and the points' payloads kept so too
          (cat0.spaces._Blocks), for the query dual's column; on a
          scale the keys as ints over each key's own denominator
          (cat0.dual._duals_ints) and the points' coordinates as ints
          over each point's own (cat0.dual._points_ints), both in
          columns, so a query reads no coordinate's numerator and
          denominator again; otherwise None;
        * owns: P_y(y.x) of each pair y, aligned with pairs, from one
          elementwise kernel call on that read (an int over D_V D_Z on
          a scale).
        """
        xds = tuple(q.xd for q in self.pairs)
        xs = tuple(q.x for q in self.pairs)
        scale, read = _reads(self.space, (1, 1), xds, xs)
        return _Frame(scale, tuple(_potentials2(xds, xs, scale, read)), xs, xds, read)

    @cached_property
    def _listed(self) -> _PairSet:
        return _PairSet(self.pairs)

    def range_duals(self) -> Tuple[DualVector, ...]:
        return tuple(dict.fromkeys(q.xd for q in self.pairs))


@dataclass(frozen=True)
class PropertyReport:
    """holds, plus a witness dict exactly when the property fails."""

    holds: bool
    witness: Optional[dict] = None


@dataclass(frozen=True)
class FPropertyReport:
    """The two one-sided coupling-convexity properties, separately."""

    lower: PropertyReport
    upper: PropertyReport


def _gaps2(P, pairs: Iterable[Tuple[tuple, tuple]]) -> Iterator[Scalar]:
    """Twice relatedness_gap(a, b) for each pair (a, b) of handles, in order.

    Handles and the reader P as in cat0.dual._potential2; each handle
    carries its own doubled potential: (point, dual, P_a(a.x)). The
    doubled gap is P_a(a.x) - P_a(b.x) - P_b(a.x) + P_b(b.x).
    """
    for (za, da, own_a), (zb, db, own_b) in pairs:
        yield own_a - P(da, zb) - P(db, za) + own_b


def relatedness_gap(q1: PairedPoint, q2: PairedPoint) -> Scalar:
    """<q1.xd - q2.xd, q2.x q1.x ->; nonnegative when related."""
    a = (q1.x, q1.xd, _potential2(q1.xd, q1.x))
    (gap2,) = _gaps2(_potential2, [(a, (q2.x, q2.xd, _potential2(q2.xd, q2.x)))])
    return half_of(gap2)


def monotonically_related(
    q1: PairedPoint, q2: PairedPoint, tol: Optional[float] = None
) -> bool:
    """Is the relatedness pairing >= -tol? Symmetric in its arguments."""
    tol = q1.x.space.default_tol if tol is None else tol
    return relatedness_gap(q1, q2) >= -tol


# The sweeps compare doubled gaps with -2 tol (_twice), so each verdict
# is the one the halved gap would give, without building a Fraction per
# comparison. A tol of None is the default_tol of the potential table's
# space. They read the table's rows through getitem (see
# cat0.dual._Potentials).


def _twice(tol: float) -> Scalar:
    """2 tol, exactly: 2 * tol, or the Fraction 2 tol where a finite float tol doubles to inf.

    Compared with inf rather than passed to math.isinf, which cannot
    take an int or Fraction beyond the float range.
    """
    tol2 = 2 * tol
    return 2 * Fraction(tol) if abs(tol2) == math.inf and abs(tol) != math.inf else tol2


def _monotone_report(
    pot: _Potentials, pairs: Sequence[PairedPoint], members: List[tuple], tol: Optional[float]
) -> PropertyReport:
    """is_monotone on pairs whose member handles in pot are given.

    Pair by pair, so a failing pair leaves the later ones unevaluated.
    """
    floor = -_twice(pot.tol(tol))
    for i in range(len(members)):
        gaps = _gaps2(getitem, pot.pairs(members[i], members[i + 1:]))
        for j, gap2 in enumerate(gaps, i + 1):
            if gap2 < floor:
                return PropertyReport(
                    holds=False,
                    witness={"pair_a": pairs[i], "pair_b": pairs[j], "gap": half_of(gap2)},
                )
    return PropertyReport(holds=True)


def _polar_indices(
    pot: _Potentials, members: List[tuple], us: List[tuple], tol: Optional[float]
) -> List[int]:
    """Positions in us of the handles related to every member.

    us are handles (point, row, own). Member by member: a handle leaves
    at the first member it is not related to, and only the handles
    still in are filled at the next member, so each is evaluated
    against the members a test in member order reaches.
    """
    floor = -_twice(pot.tol(tol))
    alive = list(range(len(us)))
    for b in members:
        hs = [us[i] for i in alive]
        pot.fill_at([h[1] for h in hs], b[0])
        pot.fill((b[1],), [h[0] for h in hs])
        gaps = _gaps2(getitem, zip(hs, repeat(b)))
        alive = [i for i, gap2 in zip(alive, gaps) if gap2 >= floor]
    return alive


def is_monotone(
    g: Union[OperatorGraph, Sequence[PairedPoint]], tol: Optional[float] = None
) -> PropertyReport:
    """Pairwise relatedness of all graph pairs; witness on first failure."""
    pairs = g.pairs if isinstance(g, OperatorGraph) else tuple(g)
    pot = _Potentials()
    return _monotone_report(pot, pairs, pot.members(pairs), tol)


def monotone_polar(
    m: Union[OperatorGraph, Sequence[PairedPoint]],
    universe: Sequence[PairedPoint],
    tol: Optional[float] = None,
) -> Tuple[PairedPoint, ...]:
    """Members of the universe related to every member of m.

    The polar of the empty set is the whole universe. Antitone in m:
    growing m can only shrink the polar.
    """
    members = m.pairs if isinstance(m, OperatorGraph) else tuple(m)
    pot = _Potentials()
    ms = pot.members(members)
    polar = _polar_indices(pot, ms, pot.members(universe), tol)
    return tuple(universe[i] for i in polar)


def _require_graph_in(
    universe: Sequence[PairedPoint], g: OperatorGraph, tol: Optional[float]
) -> None:
    """Raise GeometryError unless every pair of g matches a universe pair within tol."""
    in_universe = _PairSet(universe)
    if any(in_universe.find(q, tol) is None for q in g.pairs):
        raise GeometryError("universe does not contain the graph")


def is_maximal_relative(
    g: OperatorGraph,
    universe: Sequence[PairedPoint],
    tol: Optional[float] = None,
) -> PropertyReport:
    """Monotone, and no universe pair outside g is related to all of g.

    Requires the universe to contain the graph (membership by action:
    exact on exact inputs, otherwise points and dual actions within
    tol, see duals_match); a strictly monotone extension point in the
    universe is returned as the witness. tol bounds relatedness and
    matching alike. Maximality here is always relative to the given
    finite universe.
    """
    _require_graph_in(universe, g, tol)
    pot = _Potentials()
    gms = pot.members(g.pairs)
    mono = _monotone_report(pot, g.pairs, gms, tol)
    if not mono.holds:
        return mono
    for i in _polar_indices(pot, gms, pot.members(universe), tol):
        if g._listed.find(universe[i], tol) is None:
            return PropertyReport(holds=False, witness={"extension": universe[i]})
    return PropertyReport(holds=True)


def f_property_check(
    m: Union[OperatorGraph, Sequence[PairedPoint]],
    p: Point,
    lambda_grid: Sequence[Scalar] = DEFAULT_LAMBDA_GRID,
    tol: Optional[float] = None,
) -> FPropertyReport:
    """Both one-sided coupling-convexity properties of the set m at basepoint p.

    Quantifies over every dual in the range of m, every ordered pair of
    domain points, and every lambda on the grid. Witnesses carry both
    sides of the first failing comparison. Each landing point is
    computed once, and every pairing is read from one potential table.
    """
    pairs = m.pairs if isinstance(m, OperatorGraph) else tuple(m)
    tol = p.space.default_tol if tol is None else tol
    dom = list(dict.fromkeys(q.x for q in pairs))
    pot = _Potentials()
    zp = pot.point(p)
    # one row per dual; numbering the pairs' points rejects one from
    # another space, even where the grid lands nowhere
    rows = {id(row): row for _, row in pot.handles(pairs)}.values()
    # (x, y, lam) with the table numbers of x, y and their landing point
    segments = [(x, y, lam, pot.point(x), pot.point(y), pot.point(geodesic_point(x, y, lam)))
                for x in dom for y in dom for lam in lambda_grid]
    read = [zp, *(z for segment in segments for z in segment[3:])]
    lower_w: Optional[dict] = None
    upper_w: Optional[dict] = None
    for row in rows:
        xd = row.dual
        pot.fill((row,), read)
        at_p = row[zp]
        for x, y, lam, zx, zy, zm in segments:
            along = half_of(row[zm] - at_p)
            chord = (1 - lam) * half_of(row[zx] - at_p) + lam * half_of(row[zy] - at_p)
            if lower_w is None and along > chord + tol:
                lower_w = dict(xd=xd, x=x, y=y, lam=lam, along=along, chord=chord)
            if upper_w is None and along < chord - tol:
                upper_w = dict(xd=xd, x=x, y=y, lam=lam, along=along, chord=chord)
    return FPropertyReport(
        lower=PropertyReport(holds=lower_w is None, witness=lower_w),
        upper=PropertyReport(holds=upper_w is None, witness=upper_w),
    )


def flatness_check(
    space: SpaceHandle,
    triples: Sequence[Tuple[Point, Point, Point]],
    t_grid: Sequence[Scalar],
    tol: Optional[float] = None,
) -> PropertyReport:
    """Chord-condition equality on every triple and grid parameter.

    Flat (Euclidean-like) behavior means the comparison holds with
    equality everywhere; the witness is the first strict configuration.
    """
    tol = space.default_tol if tol is None else tol
    for x, y, z in triples:
        for t in t_grid:
            rep = check_cn_inequality(x, y, z, t, tol)
            if not rep.is_equality:
                return PropertyReport(
                    holds=False,
                    witness={
                        "x": x, "y": y, "z": z, "t": t,
                        "lhs": rep.lhs, "rhs": rep.rhs,
                    },
                )
    return PropertyReport(holds=True)

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
through _potential2 (or from the pair, which keeps it once a store or a
sweep has read it), the whole-set sweeps (is_monotone, monotone_polar,
is_maximal_relative and the level-set report) from the rows of one
potential table per call through getitem, as the single queries of
cat0.fitzpatrick read their columns. A row holds only the values
computed for it, and a sweep computes them where it reads them, so it
evaluates no potential it does not read: the polar goes member by
member and drops a universe pair at the first member it is not related
to (see cat0.dual._Potentials). Every sweep's table starts from the
store of its members (cat0.dual._Store): an OperatorGraph's, numbered
once and kept for its single queries and sweeps alike, or one built for
a plain sequence of pairs. The members' handles carry the store's own
potentials, and the universe pairs' theirs (_Potentials.members), which
each pair keeps after the first sweep that reads it, so a later sweep
over the same pairs evaluates only the values its gaps read across
pairs. Rows are keyed by the action, so a pair outside the graph may
share a member's row, and on exact inputs a sweep runs on ints over one
scale per call, every gap compared with one exact bound of -2 tol on
it. A sweep over an OperatorGraph takes its space: a universe pair from
another space raises, with members or without.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import getitem
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .conjugate import (
    DEFAULT_LAMBDA_GRID,
    PairedPoint,
    _PairSet,
)
from .dual import (
    DualVector,
    _Potentials,
    _Store,
    _potential2,
    _twice,
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


@dataclass(frozen=True)
class OperatorGraph:
    """A finite operator graph over one space.

    Frozen: its store (cat0.dual._Store), the numbering of its pairs,
    their reads and their own potentials, which every single query
    (fitzpatrick_sup, fitzpatrick_inf, fitzpatrick_via_conjugate) and
    every whole-set sweep over it starts from, is built at the first
    such call, never when the graph is built, and then kept. So is the
    index of its pairs, _listed, built at the first membership test;
    each test reads it with its own tol.
    """

    space: SpaceHandle
    pairs: Tuple[PairedPoint, ...]

    def __post_init__(self):
        for q in self.pairs:
            _check_space(self.space, q.x.space)

    @cached_property
    def _store(self) -> _Store:
        """The graph's pairs numbered once, in its space: built at the first call that reads them, then kept.

        Its inputs as the pairing kernel reads them, and its pairs' own
        potentials P_y(y.x), which no query or sweep computes again;
        never a value of a query or a sweep, so no value is shared
        between forms or calls.
        """
        return _Store(self.space, self.pairs)

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


def _gap2(q1: PairedPoint, q2: PairedPoint) -> Scalar:
    """Twice relatedness_gap(q1, q2), read through _potential2; an own potential a pair keeps (_own) is read."""
    a, b = ((q.x, q.xd, _potential2(q.xd, q.x) if q._own is None else q._own) for q in (q1, q2))
    (gap2,) = _gaps2(_potential2, [(a, b)])
    return gap2


def relatedness_gap(q1: PairedPoint, q2: PairedPoint) -> Scalar:
    """<q1.xd - q2.xd, q2.x q1.x ->; nonnegative when related."""
    return half_of(_gap2(q1, q2))


def monotonically_related(
    q1: PairedPoint, q2: PairedPoint, tol: Optional[float] = None
) -> bool:
    """Is the relatedness pairing >= -tol? Symmetric in its arguments.

    Decided on the doubled gap against -2 tol (_twice), as the sweeps
    decide, so no Fraction is built.
    """
    tol = q1.x.space.default_tol if tol is None else tol
    return _gap2(q1, q2) >= -_twice(tol)


# The sweeps compare doubled gaps with the table's bound, -2 tol on its
# scale (_Potentials.bound), so each verdict is the one the halved gap
# would give, without building a Fraction per comparison. A tol of None
# is the default_tol of the potential table's space. They read the
# table's rows through getitem (see cat0.dual._Potentials).


def _monotone_report(
    pot: _Potentials, pairs: Sequence[PairedPoint], members: List[tuple], tol: Optional[float]
) -> PropertyReport:
    """is_monotone on pairs whose member handles in pot are given.

    Pair by pair, so a failing pair leaves the later ones unevaluated.
    """
    floor = -pot.bound(tol)
    for i in range(len(members)):
        gaps = _gaps2(getitem, pot.pairs(members[i], members[i + 1:]))
        for j, gap2 in enumerate(gaps, i + 1):
            if gap2 < floor:
                return PropertyReport(
                    holds=False,
                    witness={"pair_a": pairs[i], "pair_b": pairs[j], "gap": pot.half(gap2)},
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
    floor = -pot.bound(tol)
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
    """Pairwise relatedness of all graph pairs; witness on first failure.

    A plain sequence of pairs is numbered into a store of its own.
    """
    pot = _Potentials(g._store if isinstance(g, OperatorGraph) else _Store(None, tuple(g)))
    return _monotone_report(pot, pot._store.pairs, pot.start(), tol)


def monotone_polar(
    m: Union[OperatorGraph, Sequence[PairedPoint]],
    universe: Sequence[PairedPoint],
    tol: Optional[float] = None,
) -> Tuple[PairedPoint, ...]:
    """Members of the universe related to every member of m.

    The polar of the empty set is the whole universe. Antitone in m:
    growing m can only shrink the polar. The universe must lie in the
    space of m, where m is an OperatorGraph.
    """
    pot = _Potentials(m._store if isinstance(m, OperatorGraph) else _Store(None, tuple(m)))
    us = pot.handles(universe)
    polar = _polar_indices(pot, pot.start(), pot.members(universe, us), tol)
    return tuple(universe[i] for i in polar)


def _swept(g: OperatorGraph, universe: Sequence[PairedPoint], tol: Optional[float]) -> tuple:
    """(table, member handles, the universe pairs' handles) of a sweep of g over the universe, the table started.

    The table starts from g's store and numbers the universe, whose
    pairs must lie in g's space; then GeometryError is raised unless
    every pair of g matches a universe pair within tol.
    """
    pot = _Potentials(g._store)
    us = pot.handles(universe)
    in_universe = _PairSet(universe)
    if any(in_universe.find(q, tol) is None for q in g.pairs):
        raise GeometryError("universe does not contain the graph")
    return pot, pot.start(), us


def is_maximal_relative(
    g: OperatorGraph,
    universe: Sequence[PairedPoint],
    tol: Optional[float] = None,
) -> PropertyReport:
    """Monotone, and no universe pair outside g is related to all of g.

    Requires the universe to lie in g's space and to contain the graph
    (membership by action: exact on exact inputs, otherwise points and
    dual actions within tol, see duals_match); a strictly monotone
    extension point in the universe is returned as the witness. tol
    bounds relatedness and matching alike. Maximality here is always
    relative to the given finite universe.
    """
    pot, gms, us = _swept(g, universe, tol)
    mono = _monotone_report(pot, g.pairs, gms, tol)
    if not mono.holds:
        return mono
    for i in _polar_indices(pot, gms, pot.members(universe, us), tol):
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
            if lower_w is None and along - chord > tol:
                lower_w = dict(xd=xd, x=x, y=y, lam=lam, along=along, chord=chord)
            if upper_w is None and along - chord < -tol:
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

"""Formal dual vectors acting through the quasilinearization pairing.

A dual vector is a formal linear combination of bound vectors; it acts
on a bound vector ab-> by

    <x_dual, ab->  =  sum_i coeff_i <tail_i head_i, ab->  =  F(b) - F(a),
    F(z)  =  1/2 sum_x w_x d(x, z)^2,

where w_x, the net weight at x, is the sum of the coefficients of the
terms with tail x minus those of the terms with head x. Every action is
computed from 2F as the pairing kernel gives it, in one call,
_potentials2(xds, zs): the j-th dual at the j-th point, a side of one
item standing for it at every position, so one dual at a sequence of
points, a sequence of duals at one point and each dual at its own point
(a graph's self-potentials) are one function; _potential2 is its
one-value path. A call reads its inputs once, in one shape on every
space: (the duals' read, a list of batches of the points' reads), built
by _fold. A graph's pairs are numbered and read once, into its store
(_Store, kept as OperatorGraph._store): its distinct points, its rows
(one per exact action, one per pair otherwise), their reads and the
pairs' own potentials. A single query reads the store and its own
dual, q.x and p; a whole-set sweep's table starts from the store and
numbers only the pairs and points it adds; a call without read (pair,
a sweep's kernel calls off a scale) reads the duals and points
themselves. The kernel checks no space, as its callers have, each
through cat0.spaces._check_space. On the hyperboloid every squared
distance comes from cat0.spaces._hyperbolic_dists_sq, which dist_sq
calls there too; the kernel calls it in batches, which it forms in
blocks of coordinate columns, once per distinct term endpoint of its
duals (_Ends), and assembles the potentials with map() over the terms'
columns, each one sum() over its dual's terms in term order, so no
value depends on the batching. Every formula reads the values it needs
through one reader, getitem on a dual's values: a column of a single
query, by point position, or a row of the potential table of a
whole-set sweep (_Potentials), keyed by point number and holding the
values the kernel computed for the sweep. A table keys an exact dual's
row by its key (below), so duals that act alike share one row.

Every formula reads a dual's potential only as a difference of two of
that dual's own values, so F matters only up to a constant, as the
dual itself does (Theta(x*) = F + const in Ahmadi Kakavandi & Amini
(2010)). On the exact spaces 2F is affine, so a dual with an exact key
(below) is evaluated from the key alone, at every point and without
any distance:

* Euclidean: 2F(z) = 2 <v, z>, with v the canonical vector
  sum_i c_i (h_i - t_i), since the |z|^2 terms cancel;
* tree: 2F(k, s) = 2 slope_k s, with the branch slopes of
  _tree_slopes, since the s^2 terms cancel.

Each drops the constant 2F(origin) or 2F(root), so duals with one key
have one potential. It is exact at exact points and computed in floats
at points with a float coordinate.

A single transform query and a whole-set sweep on exact inputs (all
but f_property_check) run on one integer scale per call (_scale): with
sv the lcm of the denominators of the keys and sz that of the points'
coordinates, 2F sv sz is an int for every dual at every point, since 2F
is bilinear in the key and the point. Keys and points are read in one shape, as ints over
each one's own denominator, in columns (_duals_ints, _points_ints); sv
and sz are the lcms of their denominator columns. One function, _fold,
reads them and fixes the scale: a store's from (1, 1), and a call's
from its store's (D_V, D_Z) and what the call adds, onto which it
multiplies the store's own potentials. Called with the
scale, the kernel gives these ints through one elementwise formula,
_scaled2: the dot product of a key's ints and a point's ints times
2 sv sz / (dv dz), a one-item read of a dual or a point standing for it
at every position, the batches of the points' reads concatenated column
by column. Potentials count only up to a constant and are linear in the
key, so scaling them all by one positive int keeps every formula exact:
a formula sums ints, every tol comparison of the call is against one
exact bound, the floor of 2 tol sv sz, and a value is divided by sv sz
once, when it is reported (_half; see cat0.fitzpatrick and
_Potentials). Past _SCALE_BITS bits of sv sz, where ints that long cost
more than reducing small Fractions, the call runs on Fractions as
above.

The hyperboloid and duals with a float coefficient or coordinate keep
the sum of squared distances, so their values are those of the sum bit
for bit, however the kernel is called. Structurally different
combinations can act identically (flipping a term's
orientation and its sign, or splitting a term at an intermediate point,
never changes the action), so equality of duals is equality of actions,
as in the quotient X* of Ahmadi Kakavandi & Amini (2010). It is decided
by what determines F up to a constant:

* Euclidean: the canonical vector sum_i coeff_i (head_i - tail_i);
* tree: the slopes of F on each branch (see _tree_slopes);
* H^1: the sheet is a line with arc length asinh(x_0), and F is
  affine in it with slope sum_i coeff_i (asinh h_i0 - asinh t_i0);
* H^n, n >= 2: the net weights themselves.

On exact inputs (int/Fraction coefficients and coordinates) in
Euclidean space and on the tree the first two are an exact key of the
action (DualVector.key). The hyperboloid and inputs holding a float are
compared within tol instead: two duals match when their difference acts
as zero within tol, that is every coordinate of its action (canonical
vector, branch slopes, the H^1 slope) or every net weight, with points
within tol of each other merged, is at most tol in size. No verdict
depends on sampled points.

Why the weights decide on H^n, n >= 2. Equal actions mean that
sum_x w_x d(x, .)^2 is constant. Along a ray gamma toward a future null
vector xi, d(x, gamma(s)) = s + log(-<x, xi>) + O(e^(-2s)); the weights
sum to zero, so the s^2 terms cancel and the s terms leave
sum_x w_x log(-<x, xi>) = 0 for every future null xi. Restrict xi to a
3-dimensional Lorentzian slice through the time axis, chosen so that
the projected points stay pairwise non-proportional, and parametrize
its cone by (s, t) -> (s^2 - t^2, 2st, s^2 + t^2). Each -<x, xi> becomes
a positive definite binary quadratic form Q_x(s, t) with its own pair of
conjugate complex roots. Continue sum_x w_x log Q_x(s, 1) to complex s:
it vanishes identically, yet its monodromy around a root of Q_x is
2 pi i w_x, so every w_x = 0. On H^1 the claim fails (there d(x, .)^2
spans only the quadratics in arc length), which is why H^1 is compared
by its slope.

The Lipschitz-seminorm quantities are desk-scale lower bounds: the dual
norm is approximated by maximizing |<x_dual, ab-> - <x_dual, cd->| /
(d(a,b) + d(c,d)) over supplied quadruples, and the pseudometric between
single-term duals by maximizing difference quotients of the associated
real functions over supplied point pairs. Both are monotone in the
candidate set and never exceed the true suprema.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, islice, repeat
from operator import add, floordiv, mul, sub
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .extreal import Scalar
from .geometry import half_of
from .spaces import (
    EUCLIDEAN,
    HYPERBOLIC,
    BoundVector,
    GeometryError,
    Point,
    SpaceHandle,
    _asinh,
    _Blocks,
    _check_space,
    _hyperbolic_dists_sq,
    dist_sq,
    distance,
    make_point,
)

__all__ = [
    "DualVector",
    "dual_vector",
    "dual_term",
    "zero_dual",
    "pair",
    "dual_add",
    "dual_scale",
    "duals_match",
    "canonical_hilbert",
    "j_map",
    "dual_norm_approx",
    "pseudometric_D_approx",
]


@dataclass(frozen=True)
class DualVector:
    """A formal combination of coefficient-weighted bound vectors.

    Terms are kept verbatim (no simplification), so structural equality
    is finer than behavioral equality; use duals_match for the latter.
    An empty combination is the zero dual and is compatible with every
    space.
    """

    terms: Tuple[Tuple[Scalar, BoundVector], ...]

    def __post_init__(self):
        for _, bv in self.terms:  # each term against the first
            _check_space(self.terms[0][1].space, bv.space)
        # the kept hash's place, made first: duals whose __dict__ keys come
        # in one order share one key table, so hashing adds no memory
        object.__setattr__(self, "_hash", None)

    def __hash__(self) -> int:
        """The dataclass hash of the terms, computed once and kept in __dict__ (not a field).

        Tables and pair indexes hash the same duals over and over, and a
        structural hash walks every term down to its points and space.
        """
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.terms,))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> dict:
        """The state without the kept hash: str hashes differ from process to process."""
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    @property
    def space(self) -> Optional[SpaceHandle]:
        """The common space of the terms, or None for the zero dual."""
        return self.terms[0][1].space if self.terms else None

    @property
    def is_zero(self) -> bool:
        """Structurally zero: every term has coefficient 0 or a stalled vector."""
        return all(c == 0 or bv.is_zero for c, bv in self.terms)

    @property
    def points(self) -> Tuple[Point, ...]:
        """All endpoints appearing in the terms, deduplicated in order."""
        seen = []
        for _, bv in self.terms:
            for pt in (bv.tail, bv.head):
                if pt not in seen:
                    seen.append(pt)
        return tuple(seen)

    @cached_property
    def key(self) -> Optional[tuple]:
        """Exact key of the action: two duals share it exactly when they act alike.

        Euclidean: the canonical vector v (see canonical_hilbert). Tree:
        (default slope, ((branch, slope), ...)) of the dual's potential,
        listing the branches whose slope differs from the default (see
        _tree_slopes). The zero action keys as () on every space, so the
        zero dual, which carries no space, shares it. None where no
        exact key exists: on the hyperboloid and for any float
        coefficient or coordinate. The kernel evaluates a keyed dual
        from its key alone (see _potential2), so duals with one key
        have one potential.
        """
        space = self.space
        if space is None:
            return ()
        if space.kind == HYPERBOLIC or not all(
                is_exact((c,) + bv.tail.payload + bv.head.payload) for c, bv in self.terms):
            return None
        key = canonical_hilbert(self) if space.kind == EUCLIDEAN else _tree_slopes(self.terms)
        return key if any(key) else ()


def is_exact(values: Iterable[Scalar]) -> bool:
    """Are all the values ints or Fractions?"""
    for v in values:
        if not isinstance(v, (int, Fraction)):
            return False
    return True


def _tree_slopes(terms) -> tuple:
    """(default slope, ((branch, slope), ...)) of a tree dual's potential.

    The action is <xd, ab-> = F(b) - F(a) with F(z) = 1/2 sum_i c_i
    (d(t_i, z)^2 - d(h_i, z)^2). At z = (k, s), a tail (branch, u)
    gives d^2 = u^2 + s^2 - 2 sigma u s, sigma = +1 on its own branch
    and -1 elsewhere (likewise tau for a head at v). So F is affine in
    s on every branch, takes one value at the root, and has slope
    -sum_i c_i (sigma_k u_i - tau_k v_i) on branch k. Branches no
    endpoint touches share the default slope sum_i c_i (u_i - v_i).
    Equal slopes on every branch are equal actions, and conversely
    (pair both duals with root -> (k, 1)).
    """
    default = sum(c * (bv.tail.payload[1] - bv.head.payload[1]) for c, bv in terms)
    slopes = {}
    for c, bv in terms:
        (kt, u), (kh, v) = bv.tail.payload, bv.head.payload
        slopes[kt] = slopes.get(kt, default) - 2 * c * u
        slopes[kh] = slopes.get(kh, default) + 2 * c * v
    return default, tuple(sorted((k, s) for k, s in slopes.items() if s != default))


def _combined_key(space: SpaceHandle, lam: Scalar, a: tuple, b: tuple) -> tuple:
    """The key of (1 - lam) xd + lam yd, read from the keys a of xd and b of yd.

    Keys are linear in the dual (see DualVector.key). Euclidean: the
    canonical vectors combine. Tree: the default slopes combine, and so
    does each branch slope, a branch a key does not list taking that
    key's default; branches whose slope equals the combined default are
    dropped. A key () stands for the zero vector, or (0, ()) on the
    tree, and a zero result is (), as in DualVector.key.
    """
    mu = 1 - lam
    if space.kind == EUCLIDEAN:
        key = tuple(mu * u + lam * v for u, v in zip(a or (0,) * len(b), b or (0,) * len(a)))
    else:
        (da, sa), (db, sb) = a or (0, ()), b or (0, ())
        default = mu * da + lam * db
        sa, sb = dict(sa), dict(sb)
        slopes = ((k, mu * sa.get(k, da) + lam * sb.get(k, db)) for k in sorted(sa.keys() | sb.keys()))
        key = (default, tuple((k, s) for k, s in slopes if s != default))
    return key if any(key) else ()


def _potential2(xd: DualVector, z: Point) -> Scalar:
    """2F(z) = sum_i c_i (d(t_i, z)^2 - d(h_i, z)^2) of the dual xd = sum_i c_i [t_i h_i->].

    The one-value path of the pairing kernel, _potentials2, which with
    it is the only code that computes a dual's action: the same
    formulas, without the kernel's shapes and reads. That is F up to a
    constant, which every pairing cancels. A dual with an exact key is
    read from it at every point (see _value2): 2 <v, z> in Euclidean
    space, 2 slope_k s on the tree, in exact arithmetic at exact points
    and in floats elsewhere. Other duals take the sum of squared
    distances above, on the hyperboloid from
    cat0.spaces._hyperbolic_dists_sq over the dual's distinct term
    endpoints (_hyperbolic2), one sum() over the terms in term order,
    as in every kernel value. It checks its own pair: a nonzero dual at
    a point from another space raises; a zero dual is 0 at every point.

    Formulas in doubled potentials take (point, dual) handles and a
    reader P(dual, point) = 2F: _potential2 itself on (Point,
    DualVector) handles, and otherwise getitem, P(d, z) = d[z], where a
    dual's handle holds its values by point: a row of a _Potentials
    table for a sweep, keyed by point number, a column that the kernel
    fills in one call for a single transform query, by the number of
    its graph's store, then the query's points (see cat0.fitzpatrick).
    Both number a graph's points as its store does. A member's handle
    also carries its own doubled potential P_y(y.x): a graph's are held
    by its store (_Store) for its single queries and sweeps alike, and a
    pair keeps its own (_own) once a store or a sweep has read it
    (_Potentials.members), which a later store, sweep and
    relatedness_gap read.
    """
    space = xd.space
    if space is None:
        return 0
    _check_space(space, z.space)
    if space.kind == HYPERBOLIC:
        return _hyperbolic2((xd,), (z,), None)[0]
    return _value2(space.kind, xd, z)


def _potentials2(xds: Sequence[DualVector], zs: Sequence[Point], scale: Optional[Tuple[int, int]] = None,
                 read=None) -> List[Scalar]:
    """2F of the j-th dual of xds at the j-th point of zs, in order, a side of one item standing for it at every position (see _potential2).

    So one dual at a sequence of points (1 x n, a query's column), a
    sequence of duals at one point (n x 1, a member column or a table's
    rows at one point), each dual at its own point (n x n, a graph's
    self-potentials) and one dual at one point. read is what the call
    reads of its inputs, in one shape on every space: (the duals' read,
    a list of batches of the points' reads, which concatenate to zs),
    from _fold; with read None the kernel reads xds and zs themselves.

    * On a scale (sv, sz) (see _scale) read is given: the _duals_ints of
      xds and the _points_ints of each batch, whose columns concatenate
      column by column, and _scaled2 gives the ints 2F sv sz once.
    * On the hyperboloid read holds the duals' _Ends and a spaces
      ._Blocks per batch (_hyperbolic2).
    * Otherwise each value is _value2's: from the dual's key, or the
      sum of squared distances.

    The kernel checks no space: its callers have, each through
    cat0.spaces._check_space. _potential2 checks its own pair, a
    _Potentials table rejects a point from another space and every
    row's dual belongs to a pair at one of its points, a graph checked
    its pairs when it was built (a store over a plain sequence checks
    them), and a single query checks p and q.x.
    """
    if not zs or len(xds) == 1 and not xds[0].terms:  # the zero dual is 0 at every point
        return [0] * len(zs)
    kind = zs[0].space.kind
    if scale is not None:
        duals, batches = read
        return _scaled2(kind, duals, list(reduce(partial(map, add), batches)), scale)
    if kind == HYPERBOLIC:
        return _hyperbolic2(xds, zs, read)
    if len(xds) == 1:
        xds = repeat(xds[0])
    elif len(zs) == 1:
        zs = repeat(zs[0])
    return list(map(_value2, repeat(kind), xds, zs))


def _fold(space: SpaceHandle, base: Optional[Tuple[int, int]], owns: Sequence[Scalar], xds: Sequence[DualVector],
          *batches: Sequence[Point], values: Sequence[Scalar] = ()) -> tuple:
    """(scale, read, owns) of a call that reads a store on the scale base and adds the duals xds, batches of points and exact values.

    The one function that reads exact keys and points into int columns
    and fixes a scale: a _Store folds its own rows and points into base
    (1, 1), a single query its dual, q.x and p into its graph's store
    (cat0.fitzpatrick), a _Potentials table the pairs and points it
    numbers beyond its store and the values it puts on its scale.

    * On the hyperboloid: (None, (the _Ends of xds, [a spaces._Blocks
      of each batch's payloads]), owns), so a column of xds computes one
      squared distance per distinct term endpoint, and a column of one
      dual at the batches reads their kept coordinate columns.
    * Where base is a scale, every dual has a key and every point and
      value is exact: the scale (sv, sz) of _scale over base and the
      denominators of the reads and the values (which join sz), (the
      _duals_ints of xds, [the _points_ints of each batch]), and the
      store's own potentials owns, ints on base, multiplied onto it;
      but ((1, 1), None, owns) where base is (1, 1) and every
      denominator is 1, as on integer grids, where the plain kernel
      already gives the ints and no column is read.
    * Otherwise, and past the scale's cap: (None, None, owns as the
      values they stand for), Fractions where base is a scale.
    """
    if space.kind == HYPERBOLIC:
        return None, (_Ends(xds), [_Blocks([z.payload for z in zs]) for zs in batches]), owns
    keys, payloads = [xd.key for xd in xds], [z.payload for zs in batches for z in zs]
    if base is not None and None not in keys and is_exact(chain(values, *payloads)):
        slopes = keys if space.kind == EUCLIDEAN else map(_slopes, filter(None, keys))
        if base == (1, 1) and all(v.denominator == 1 for v in chain(values, *payloads, *slopes)):
            return base, None, owns  # on integers the plain kernel gives the ints: no column is read
        duals, points = _duals_ints(space, xds), [_points_ints(space, zs) for zs in batches]
        scale = _scale((base[0], *duals[0]),
                       (base[1], *chain.from_iterable([read[0] for read in points]), *[v.denominator for v in values]))
        if scale is not None:
            factor = scale[0] // base[0] * (scale[1] // base[1])
            return scale, (duals, points), owns if factor == 1 else [factor * own for own in owns]
    return None, None, owns if base is None else [Fraction(own, base[0] * base[1]) for own in owns]


def _number(ids: Dict[tuple, int], points: List[Point], types: List[tuple], x: Point,
            space: Optional[SpaceHandle]) -> int:
    """x's number among points, numbered by payload in ids: a new point is appended, with its coordinate types.

    The one numbering of points, for a _Store and a _Potentials table
    alike. A point equal to a numbered one but holding coordinates of
    other types (a float for an int) is numbered apart, as _Ends keeps
    such payloads apart, so its values are computed in its own
    arithmetic. The key stays the payload: only a hit whose payload is
    not the numbered point's own object compares the coordinate types,
    against those kept for its number. A point from another space than
    space raises.
    """
    if x.space is not space:
        _check_space(space, x.space)
    key = x.payload
    i = ids.get(key)
    if i is not None and points[i].payload is not key and types[i] != tuple(map(type, key)):
        key = (key, *map(type, key))  # an equal payload of other coordinate types
        i = ids.get(key)
    if i is None:
        i = ids[key] = len(points)
        points.append(x)
        types.append(tuple(map(type, x.payload)))
    return i


def _picked(duals: tuple, points: tuple, ns: Sequence[int], zs: Sequence[int]) -> tuple:
    """The kernel's read of the duals numbered ns and the points numbered zs, from the int columns of all of them."""
    return [list(map(c.__getitem__, ns)) for c in duals], [[list(map(c.__getitem__, zs)) for c in points]]


class _Store:
    """A sequence of pairs numbered once, as every call that reads them starts from.

    An OperatorGraph builds its store at the first call that reads it
    and keeps it (OperatorGraph._store); a sweep over a plain sequence
    builds one and drops it. The pairs are numbered as a _Potentials
    table numbers what it reads, and the store keeps that numbering:

    * pairs: the pairs, in order;
    * points, ids and types: the pairs' distinct points, their numbers
      by payload and their coordinate types (_number);
    * rows, duals and keyless: the numbers of the pairs' exact actions,
      keyed by DualVector.key as a table keys its rows, one dual per
      row, and the rows of the duals without a key (the hyperboloid, a
      float), one for each such pair: a table keys those by the dual
      itself, so that equal ones share a row there, and a single query
      evaluates them pair by pair, hashing no dual;
    * zs and rs: each pair's point and row numbers;
    * scale and read: from _fold over base (1, 1), (D_V, D_Z) and (the
      rows' _duals_ints, [the points' _points_ints]); on integers (1, 1)
      and no read; on the hyperboloid no scale and (the rows' _Ends,
      [the points' _Blocks]); otherwise None and None;
    * owns: each pair's own doubled potential P_y(y.x), on the scale.

    An own potential is read from the pair's _own where the pair keeps
    one (cat0.conjugate.PairedPoint), and the others are evaluated once
    per distinct (row, point), in one elementwise kernel call, and kept
    on their pairs, so a later store or sweep over them evaluates none.
    The store is never changed after it is built: a call keeps its own
    values (a single query's columns, a sweep's rows) and puts the owns
    on its scale through _fold. Every pair must lie in space, which
    defaults to the first pair's; a pair from another raises.
    """

    __slots__ = ("space", "pairs", "points", "ids", "types", "rows", "duals", "keyless", "zs", "rs", "scale", "read", "owns")

    def __init__(self, space: Optional[SpaceHandle], pairs: Sequence):
        self.space = space = pairs[0].x.space if space is None and pairs else space
        self.pairs, self.ids, self.points, self.types, self.rows, self.duals = pairs, {}, [], [], {}, []
        self.zs, self.rs = array('i', [_number(self.ids, self.points, self.types, q.x, space) for q in pairs]), array('i')
        for q in pairs:
            key = None if space.kind == HYPERBOLIC else q.xd.key  # no hyperboloid dual has one
            self.rs.append(len(self.duals) if key is None else self.rows.setdefault(key, len(self.duals)))
            if self.rs[-1] == len(self.duals):
                self.duals.append(q.xd)
        self.keyless = array('i', sorted(set(range(len(self.duals))) - set(self.rows.values())))
        self.scale, self.read = ((1, 1), None) if space is None else _fold(space, (1, 1), (), self.duals, self.points)[:2]
        # one evaluation per (row, point) that no pair keeps, kept on the pairs as a sweep keeps it
        need = dict.fromkeys((r, z) for q, r, z in zip(pairs, self.rs, self.zs) if q._own is None)
        if need:
            ns, ps = zip(*need)
            # on the hyperboloid each row once, in order: the rows' _Ends
            read = (self.read[0], None) if self.read and not self.scale and ns == tuple(range(len(self.duals))) else None
            need.update(zip(need, _potentials2([self.duals[r] for r in ns], [self.points[z] for z in ps], None, read)))
        for q, r, z in zip(pairs, self.rs, self.zs):
            if q._own is None:
                object.__setattr__(q, "_own", need[r, z])
        self.owns = [_on_scale(q._own, self.scale) for q in pairs]


_NO_PAIRS = _Store(None, ())  # the store of a table that numbers all it reads itself


class _Ends:
    """The term endpoints of a sequence of hyperboloid duals, as _hyperbolic2 reads them.

    points: the distinct endpoint payloads, in order of first
    appearance, kept with their coordinate columns as a spaces._Blocks
    (payloads that are equal and hold coordinates of the same types are
    one: their squared distances have the same bits); index: the
    positions among them of each term's tail, then its head, in term
    order, as an array of 4-byte ints (a list would take 8 bytes an
    entry and an int object per position); coeffs: the terms'
    coefficients in term order; counts: each dual's number of terms, or
    None where every dual has one.
    """

    __slots__ = ("points", "index", "coeffs", "counts")

    def __init__(self, xds: Sequence[DualVector]):
        at: Dict[tuple, int] = {}
        index = [at.setdefault((p, *map(type, p)), len(at))
                 for xd in xds for _, bv in xd.terms for p in (bv.tail.payload, bv.head.payload)]
        self.points = _Blocks([key[0] for key in at])
        self.index = array('i', index)
        self.coeffs = [c for xd in xds for c, _ in xd.terms]
        counts = [len(xd.terms) for xd in xds]
        self.counts = None if counts.count(1) == len(counts) else counts


def _hyperbolic2(xds: Sequence[DualVector], zs: Sequence[Point], read) -> List[Scalar]:
    """_potentials2 on the hyperboloid, from read, or from the _Ends of xds and one batch of zs when None.

    Every dual at one point: one _hyperbolic_dists_sq call from the
    distinct endpoints to it, and ends.index gathers each term's tail
    and head from them. Each dual at its own point: one elementwise
    call, from every term's tail, then its head, to its dual's point.
    One dual at several points: one call per distinct endpoint, over
    every batch of the points, and a column c_i (d(t_i)^2 - d(h_i)^2)
    per term. Each value is one sum() over its dual's terms in term
    order: from Python 3.12 on sum() compensates float rounding, so a
    running total could differ from it. Duals of one term each take the
    sum() of a 1-tuple, and one dual the whole column, which spares the
    islice that splits it among several.
    """
    ends, batches = read or (_Ends(xds), None)
    if len(zs) == 1:
        d2 = map(_hyperbolic_dists_sq(ends.points, zs[0].payload).__getitem__, ends.index)
    elif len(xds) > 1:
        partners = [z.payload for n, z in zip(ends.counts or repeat(1), zs) for _ in range(2 * n)]
        d2 = iter(_hyperbolic_dists_sq(list(map(ends.points.payloads.__getitem__, ends.index)), partners, True))
    else:
        batches = batches or [_Blocks([z.payload for z in zs])]
        at = [list(chain.from_iterable(map(_hyperbolic_dists_sq, batches, repeat(y))))
              for y in ends.points.payloads]
        ts = iter(ends.index)  # each term's tail, then its head
        cols = [map(mul, repeat(c), map(sub, at[t], at[h])) for c, t, h in zip(ends.coeffs, ts, ts)]
        return list(map(sum, zip(*cols)))
    products = map(mul, ends.coeffs, map(sub, d2, d2))
    if ends.counts is None:  # one term a dual: the sum() of its one product
        return list(map(sum, zip(products)))
    if len(ends.counts) == 1:
        return [sum(products)]
    return list(map(sum, map(islice, repeat(products), ends.counts)))


def _value2(kind: str, xd: DualVector, z: Point) -> Scalar:
    """2F(z) of a dual off the hyperboloid: from its exact key where it has one, else the sum of squared distances.

    From the key (see DualVector.key): 2 <v, z> in Euclidean space,
    2 slope_k s at z = (k, s) on the tree, exact when z is and in floats
    otherwise; 0 for the zero action.
    """
    key = xd.key
    if key is None:
        return sum(c * (dist_sq(bv.tail, z) - dist_sq(bv.head, z)) for c, bv in xd.terms)
    if not key:
        return 0
    zp = z.payload
    if kind == EUCLIDEAN:
        vs, xs = key, zp
    else:
        default, branches = key
        vs, xs = (next((v for k, v in branches if k == zp[0]), default),), zp[1:]
    if is_exact(zp):
        return _affine2(vs, xs)
    return 2 * sum([float(v) * x for v, x in zip(vs, xs)])


def _duals_ints(space: SpaceHandle, xds: Sequence[DualVector]) -> tuple:
    """The exact keys of the duals xds in ints over each key's own denominator dv, in columns, as the kernel reads them on a scale.

    (dvs, column of the vectors' first ints, ..., column of their last)
    in Euclidean space, v = ints / dv; (dvs, default slopes, {branch:
    slope} dicts) on the tree, every slope an int over dv. The zero
    action reads as dv 1 with zero slopes. Columns of ints take less
    memory than a tuple per dual, and the kernel reads them with map().
    """
    if space.kind == EUCLIDEAN:
        return tuple(zip(*[_over(xd.key or (0,) * space.dim) for xd in xds])) or ((),) * (space.dim + 1)
    forms = []
    for xd in xds:
        default, branches = xd.key or (0, ())
        dv = math.lcm(default.denominator, *[s.denominator for _, s in branches])
        forms.append((dv, default.numerator * (dv // default.denominator),
                      {k: s.numerator * (dv // s.denominator) for k, s in branches}))
    return tuple(zip(*forms)) or ((), (), ())


def _points_ints(space: SpaceHandle, zs: Sequence[Point]) -> tuple:
    """The exact points zs in ints over each point's own denominator dz, in columns.

    (dzs, column of the first coordinates' ints, ..., column of the
    last) in Euclidean space, (dzs, branches, ints) at z = (k, s) on
    the tree, s = int / dz. Two reads concatenate column by column (see
    _potentials2).
    """
    if space.kind == EUCLIDEAN:
        return tuple(zip(*[_over(z.payload) for z in zs])) or ((),) * (space.dim + 1)
    return tuple(zip(*[(s.denominator, k, s.numerator) for k, s in [z.payload for z in zs]])) or ((), (), ())


def _dot(columns: Sequence[Sequence[int]], others) -> Iterator[int]:
    """sum_i columns[i][j] others[i][j] for each j, a map() over each column: dot products in columns."""
    return reduce(partial(map, add), map(map, repeat(mul), columns, others))


def _scaled2(kind: str, duals: tuple, points: tuple, scale: Tuple[int, int]) -> List[int]:
    """2F sv sz of each exact dual at its exact point on the scale (sv, sz), from a _duals_ints and a _points_ints read.

    Elementwise, column by column: the j-th dual at the j-th point, a
    read of one dual or one point standing for it at every position.
    A key is read as ints over its own denominator dv and a point as
    ints over its own dz, so a value is the dot product of the small
    ints times 2 sv sz / (dv dz): per value one division of the scale by
    a small int, the denominator of a one-item side dividing it once.
    Over one common denominator of the points instead, a value on the
    tree chain of 1,000 pairs would be a product of two ints of about
    1,440 bits, three times the cost.
    """
    sv, sz = scale
    t, dvs, dzs = 2 * sv * sz, duals[0], points[0]
    if len(dvs) == 1:  # one dual at every point
        t //= dvs[0]
        duals, dens = list(map(repeat, next(zip(*duals)))), dzs
    elif len(dzs) == 1:  # every dual at one point
        t //= dzs[0]
        points, dens = list(map(repeat, next(zip(*points)))), dvs
    else:
        dens = map(mul, dvs, dzs)
    if kind == EUCLIDEAN:
        dots = _dot(duals[1:], points[1:])
    else:  # each dual's slope on its point's branch, times the point's ints
        dots = map(mul, map(dict.get, duals[2], points[1], duals[1]), points[2])
    return list(map(mul, dots, map(floordiv, repeat(t), dens)))


def _over(values: Sequence[Scalar]) -> Tuple[int, ...]:
    """(den, *ints): exact values as ints over the lcm den of their denominators."""
    dens = [v.denominator for v in values]
    den = math.lcm(*dens)
    if den == 1:
        return (1, *[v.numerator for v in values])
    return (den, *[v.numerator * (den // d) for v, d in zip(values, dens)])


# The bits that a scale's sv sz may have. An exact single transform query
# runs on ints over one denominator up to it and on Fractions past it,
# where ints of that many bits cost more than reducing small Fractions
# (CHANGES.md records the crossover).
_SCALE_BITS = 4096


def _scale(dvs: Iterable[int], dzs: Iterable[int]) -> Optional[Tuple[int, int]]:
    """The scale (sv, sz) on which the kernel gives 2F of exact duals at exact points as ints.

    sv is the lcm of the keys' denominators dvs and sz of the points'
    dzs, the first columns of their _duals_ints and _points_ints reads,
    so 2F sv sz is an int for every dual at every point (2F is bilinear
    in the key and the point). Potentials count only up to a constant
    and are linear in the key (Theta(x*) = F + const), so scaling them
    all by sv sz keeps every formula exact; a value v2 on the scale
    stands for v2 / (sv sz). None where sv sz would have more than
    _SCALE_BITS bits (each lcm stops at the first step past them). The
    callers read only duals with a key and points without a float.
    """
    scale = []
    for ds in (dvs, dzs):
        for lcm in accumulate(ds, math.lcm, initial=1):
            if lcm >> _SCALE_BITS:  # more than _SCALE_BITS bits
                return None
        scale.append(lcm)
    sv, sz = scale
    return None if (sv * sz) >> _SCALE_BITS else (sv, sz)


def _slopes(key: tuple) -> tuple:
    """The default slope and the branch slopes of a tree key."""
    default, branches = key
    return (default, *(s for _, s in branches))


def _affine2(vs: Sequence[Scalar], xs: Sequence[Scalar]) -> Scalar:
    """2 sum_i v_i x_i on ints and Fractions, reduced once.

    The sum is kept as one numerator over the product of the
    denominators, so only the result is reduced to lowest terms (each
    Fraction operation would reduce its own); an int when all inputs
    are ints.
    """
    num, den = 0, 1
    for v, x in zip(vs, xs):
        d = v.denominator * x.denominator
        num, den = num * d + 2 * v.numerator * x.numerator * den, den * d
    return num if den == 1 else Fraction(num, den)


def _twice(tol: float) -> Scalar:
    """2 tol, exactly: 2 * tol, or the Fraction 2 tol where a finite float tol doubles to inf.

    Compared with inf rather than passed to math.isinf, which cannot
    take an int or Fraction beyond the float range.
    """
    tol2 = 2 * tol
    return 2 * Fraction(tol) if abs(tol2) == math.inf and abs(tol) != math.inf else tol2


def _half(v2: Scalar, scale: Optional[Tuple[int, int]]) -> Scalar:
    """half_of(v2), or on a scale (sv, sz) the Fraction v2 / (2 sv sz) that v2 stands for.

    The one division of a call on a scale, when it reports a value: the
    value and type that half_of gives on the Fractions v2 stands for.
    """
    if scale is None:
        return half_of(v2)
    sv, sz = scale
    return Fraction(v2, 2 * sv * sz)


def _on_scale(v: Scalar, scale: Optional[Tuple[int, int]]) -> Scalar:
    """The exact value v on the scale (sv, sz), v sv sz, an int; v itself without a scale."""
    return v if scale is None else scale[0] * scale[1] // v.denominator * v.numerator


class _Row(dict):
    """One dual's doubled potentials, keyed by point number: the values computed so far.

    n: the row's position in its table's key columns (and its number).
    """

    __slots__ = ("dual", "n")

    def __init__(self, dual: DualVector, n: int):
        self.dual, self.n = dual, n


class _Potentials:
    """The doubled potentials 2F_d(z) of one call's duals at its points, as rows.

    A whole-set computation builds one table per call, from a _Store:
    the pairs of its graph (or of a plain sequence) numbered once; a
    table without one numbers all it reads itself. The table starts
    with the store's points and rows, their numbers kept (the store's
    rows of duals without a key are keyed by the dual here, equal ones
    sharing one row); point() numbers the call's other points (by
    payload, _number: a table holds one space) and row() gives each
    other dual one row, a dict keyed by point number: by the exact key
    of its action (DualVector.key) where it has one, since duals with
    one key have one potential, and by structural equality otherwise
    (the hyperboloid, a float); once per pair, never per pairing.
    Sweeps read a row through getitem, row[z], the reader the single
    queries of cat0.fitzpatrick use on their columns; a handle is
    (point number, row), a member handle also carries its own
    potential.

    A call numbers every other pair and point it reads (handles(),
    point()) before it evaluates anything, then fixes the table's scale
    (start), after which a new point or row fails an assertion: the
    scale and the columns cover only what was numbered before. A call
    that never starts (f_property_check) has no scale. start() folds the
    numbered rows and points, and the call's other exact values (a fixed
    point's table values), into the store's scale (_fold):

    * where the store and they are exact, the scale (sv, sz) of
      cat0.dual._scale. Every value in a row is then the int 2F sv sz,
      each kernel call reads the store's columns and theirs, and the
      call divides once, when it reports a value (half). Where sv sz is
      1, as on integer grids, the plain kernel already gives those ints,
      and no column is read;
    * on the hyperboloid, with a float and past _SCALE_BITS: no scale,
      and the rows hold the kernel's floats or Fractions.

    Every tol comparison of the call is against one bound (bound): the
    exact floor of 2 tol sv sz on a scale, 2 tol (_twice) otherwise.

    A value is computed once, by the kernel call that fills it, when the
    step that reads it is reached: fill() fills rows at points, one
    _potentials2 call of one dual at several points per row, and
    fill_at() fills rows at one point with one call of several duals at
    it; each skips what a row already holds. A row holds exactly the
    values computed for it, so the call evaluates exactly the potentials
    it reads. The own potentials P_q(q.x) are the exception: the store
    holds its pairs' (start() puts them in their rows), and any other
    pair keeps its own after its first sweep, which later sweeps read
    (members). The store's space, or else the first point numbered,
    fixes the table's: a point from another space raises
    (cat0.spaces._check_space), as a pairing across spaces would (a
    zero dual alone evaluates nothing, so this check is not left to the
    kernel). Points are numbered as a store numbers them (_number).
    """

    def __init__(self, store: _Store = _NO_PAIRS):
        self._store, self._space, self._point_ids, self._rows = store, store.space, dict(store.ids), dict(store.rows)
        self._points, self._types = list(store.points), list(store.types)
        self._by_n = list(map(_Row, store.duals, range(len(store.duals))))  # the rows, by number
        for n in store.keyless:  # keyed by the dual, as row() keys it: equal duals share one row
            self._by_n[n] = self._by_n[self._rows.setdefault(store.duals[n], n)]
        self.scale: Optional[Tuple[int, int]] = None
        self._read = None  # (key columns, point columns) on a scale past (1, 1)
        self._started = False  # start() was called: nothing more is numbered

    def point(self, x: Point) -> int:
        self._space = self._space or x.space
        n = len(self._points)
        i = _number(self._point_ids, self._points, self._types, x, self._space)
        assert i < n or not self._started, "a point numbered after start()"
        return i

    def row(self, xd: DualVector) -> _Row:
        key = xd.key
        n = self._rows.get(xd if key is None else key)
        if n is None:
            assert not self._started, "a row made after start()"
            n = self._rows[xd if key is None else key] = len(self._by_n)
            self._by_n.append(_Row(xd, n))
        return self._by_n[n]

    def handles(self, pairs: Sequence) -> List[Tuple[int, _Row]]:
        """(point number, row) of each (point, dual) pair."""
        return [(self.point(q.x), self.row(q.xd)) for q in pairs]

    def start(self, values: Sequence[Scalar] = ()) -> List[Tuple[int, _Row, Scalar]]:
        """Fix the table's scale, once every pair and point the call reads is numbered; the store's member handles.

        values: other exact values the call puts on the scale (see
        _on_scale); a float among them leaves the table without one.
        Returns the member handles (point number, row, own doubled
        potential) of the store's pairs, in order, each own potential
        on the table's scale and in its row.
        """
        self._started = True
        store, space, rows, owns = self._store, self._space, self._by_n, self._store.owns
        # a store without columns (on integers, or without pairs) is read with the call's own rows and points
        n, m = (len(store.duals), len(store.points)) if store.read else (0, 0)
        xds, zs = [row.dual for row in rows[n:]], self._points[m:]
        if space is not None and space.kind != HYPERBOLIC:
            self.scale, read, owns = _fold(space, store.scale, owns, xds, zs, values=values)
            if read is not None:
                duals, (points,) = read
                if n:
                    kept, (at,) = store.read
                    duals, points = tuple(map(add, kept, duals)), tuple(map(add, at, points))
                self._read = duals, points
        handles = [(z, rows[r], own) for z, r, own in zip(store.zs, store.rs, owns)]
        for z, row, own in handles:
            row[z] = own
        return handles

    def half(self, v2: Scalar) -> Scalar:
        """The value that the doubled value v2 in a row stands for (_half on the table's scale)."""
        return _half(v2, self.scale)

    def bound(self, tol: Optional[float]) -> Scalar:
        """2 tol on the table's scale, against which the call compares its doubled values.

        A tol of None is the default_tol of the table's space (0.0 for a
        table without points, which compares nothing). On a scale the
        int floor of 2 tol sv sz, from tol's exact ratio n / d and
        without building a Fraction, so an int compares with it as with
        the exact product; otherwise, and for a non-finite tol, 2 tol
        (_twice).
        """
        if tol is None:
            tol = self._space.default_tol if self._space is not None else 0.0
        if self.scale is None or isinstance(tol, float) and not math.isfinite(tol):
            return _twice(tol)
        sv, sz = self.scale
        n, d = tol.as_integer_ratio()
        return 2 * sv * sz * n // d

    def members(self, pairs: Sequence, handles: Sequence[Tuple[int, _Row]]) -> List[Tuple[int, _Row, Scalar]]:
        """Member handles (point number, row, own doubled potential P_u(u.x)) of pairs outside the store, given their handles.

        A pair keeps its own potential after its first sweep (_own, see
        cat0.conjugate.PairedPoint), as the kernel gives it without a
        scale, and a later sweep reads it. A pair that lacks one takes
        it from its row where the row holds it (a store pair's own among
        them), and otherwise from one kernel call per point over the
        rows that lack it (fill_at), so no sweep evaluates a potential
        the table held.
        """
        at: Dict[int, List[_Row]] = {}
        for q, (z, row) in zip(pairs, handles):
            if z not in row:
                if q._own is None:
                    at.setdefault(z, []).append(row)
                else:
                    row[z] = _on_scale(q._own, self.scale)
        for z, rows in at.items():
            self.fill_at(rows, z)
        s = 1 if self.scale is None else self.scale[0] * self.scale[1]
        for q, (z, row) in zip(pairs, handles):
            if q._own is None:  # the value its row's int stands for, an int where it is one
                object.__setattr__(q, "_own", row[z] if s == 1 else Fraction(row[z], s))
        return [(z, row, row[z]) for z, row in handles]

    def _kernel(self, rows: Sequence[_Row], zs: Sequence[int]) -> List[Scalar]:
        """_potentials2 of the rows' duals at the points zs (one row, or one point), on the table's scale."""
        points = [self._points[z] for z in zs]
        if self._read is None:
            return _potentials2([row.dual for row in rows], points)
        return _potentials2([row.dual for row in rows], points, self.scale,
                            _picked(*self._read, [row.n for row in rows], zs))

    def fill(self, rows: Iterable[_Row], zs: Sequence[int]) -> None:
        """Fill each row at the points zs where it holds nothing, one kernel call a row."""
        zs = list(dict.fromkeys(zs))
        for row in {id(row): row for row in rows}.values():
            need = [z for z in zs if z not in row]
            if need:
                row.update(zip(need, self._kernel((row,), need)))

    def fill_at(self, rows: Iterable[_Row], z: int) -> None:
        """Fill each row at the point z if it holds nothing there: one kernel call."""
        need = list({id(row): row for row in rows if z not in row}.values())
        if need:
            for row, v in zip(need, self._kernel(need, (z,))):
                row[z] = v

    def pairs(self, a: tuple, bs: Iterable[tuple]) -> Iterator[Tuple[tuple, tuple]]:
        """(a, b) for each handle b of bs, after filling the two values their gap reads.

        Lazy: a sweep that stops at a pair leaves the later pairs' values
        uncomputed.
        """
        za, ra = a[0], a[1]
        for b in bs:
            zb, rb = b[0], b[1]
            if zb not in ra:
                (ra[zb],) = self._kernel((ra,), (zb,))
            if za not in rb:
                (rb[za],) = self._kernel((rb,), (za,))
            yield a, b


def dual_vector(terms: Iterable[Tuple[Scalar, BoundVector]]) -> DualVector:
    return DualVector(tuple((c, bv) for c, bv in terms))


def dual_term(coeff: Scalar, tail: Point, head: Point) -> DualVector:
    """The single-term dual coeff * [tail head->]."""
    return DualVector(((coeff, BoundVector(tail, head)),))


def zero_dual() -> DualVector:
    return DualVector(())


def pair(xd: DualVector, on: BoundVector) -> Scalar:
    """The action <xd, on> = F(on.head) - F(on.tail) (see _potential2)."""
    _check_space(xd.space, on.space)
    if on.is_zero or not xd.terms:
        return 0
    return half_of(_potential2(xd, on.head) - _potential2(xd, on.tail))


def dual_add(xd: DualVector, yd: DualVector) -> DualVector:
    """Formal sum; the action is the sum of the actions."""
    _check_space(xd.space, yd.space)
    return DualVector(xd.terms + yd.terms)


def dual_scale(alpha: Scalar, xd: DualVector) -> DualVector:
    """Scale every coefficient; the action scales accordingly."""
    return DualVector(tuple((alpha * c, bv) for c, bv in xd.terms))


def canonical_hilbert(xd: DualVector, dim: Optional[int] = None) -> Tuple[Scalar, ...]:
    """The Euclidean vector sum_i coeff_i (head_i - tail_i).

    In R^n the action of a dual is <<canonical | head - tail>> of its
    argument, so this vector classifies duals exactly. Pass dim for the
    zero dual (which carries no space of its own).
    """
    space = xd.space
    if space is not None and space.kind != EUCLIDEAN:
        raise GeometryError(f"canonical vector only exists in euclidean space, not {space.kind}")
    if space is None:
        if dim is None:
            raise GeometryError("zero dual has no intrinsic dimension; pass dim=")
        n = dim
    else:
        n = space.dim
    acc = [0] * n
    for coeff, bv in xd.terms:
        for i in range(n):
            acc[i] += coeff * (bv.head.payload[i] - bv.tail.payload[i])
    return tuple(acc)


def j_map(a: Point, eps: Scalar, u: Sequence[Scalar]) -> DualVector:
    """Embed the Euclidean vector u as the dual (|u|/eps) [a, a + eps u/|u|].

    The canonical vector of the result is u for every eps > 0, and the
    zero vector maps to the zero dual.
    """
    if a.space.kind != EUCLIDEAN:
        raise GeometryError("j_map is defined on euclidean spaces")
    if len(u) != a.space.dim:
        raise GeometryError(f"vector length {len(u)} does not match dim {a.space.dim}")
    if not eps > 0:
        raise GeometryError(f"step size must be positive, got {eps}")
    norm = math.sqrt(sum(ui * ui for ui in u))
    if norm == 0:
        return zero_dual()
    head = tuple(ai + eps * ui / norm for ai, ui in zip(a.payload, u))
    return dual_term(norm / eps, a, make_point(a.space, head))


def dual_norm_approx(
    xd: DualVector, quadruples: Sequence[Tuple[Point, Point, Point, Point]]
) -> Scalar:
    """Lower bound for the dual's Lipschitz-type norm.

    Maximizes |<xd, ab-> - <xd, cd->| / (d(a,b) + d(c,d)) over the
    supplied quadruples (a, b, c, d). A quadruple with a = b and c = d
    is degenerate and rejected. Monotone nondecreasing in the candidate
    set; returns 0 for an empty one.
    """
    best: Scalar = 0
    for a, b, c, d in quadruples:
        denom = distance(a, b) + distance(c, d)
        if denom == 0:
            raise GeometryError("degenerate quadruple: a = b and c = d")
        ratio = abs(pair(xd, BoundVector(a, b)) - pair(xd, BoundVector(c, d))) / denom
        if ratio > best:
            best = ratio
    return best


def pseudometric_D_approx(
    t: Scalar,
    a: Point,
    b: Point,
    s: Scalar,
    c: Point,
    d: Point,
    pairs: Sequence[Tuple[Point, Point]],
) -> Scalar:
    """Lower bound for the Lipschitz pseudometric between two single-term duals.

    The dual t [ab->] induces the real function f(x) = t <ab->, ax->;
    the pseudometric is the Lipschitz seminorm of the difference of the
    two induced functions. This maximizes the signed difference quotient
    (g(u) - g(v)) / d(u, v), g = f1 - f2, over the supplied ordered
    point pairs, so callers wanting the symmetric bound include both
    orientations. Never exceeds the true seminorm.
    """
    if not pairs:
        raise GeometryError("pseudometric_D_approx needs at least one probe pair")
    f1 = dual_term(t, a, b)
    f2 = dual_term(s, c, d)

    def g(x: Point) -> Scalar:
        return pair(f1, BoundVector(a, x)) - pair(f2, BoundVector(c, x))

    best = None
    for u, v in pairs:
        den = distance(u, v)
        if den == 0:
            raise GeometryError("probe pair with coincident points")
        ratio = (g(u) - g(v)) / den
        if best is None or ratio > best:
            best = ratio
    return best


def _action(xd: DualVector, tol: float) -> tuple:
    """Numbers that determine xd's action: it acts as zero when all vanish.

    The canonical vector in Euclidean space, the default and branch
    slopes on the tree, the slope in arc length on H^1, and on H^n,
    n >= 2, the net weights of the endpoints, each point merged into
    the first earlier one within tol (see the module docstring).
    """
    space = xd.space
    if space is None:
        return ()
    if space.kind == EUCLIDEAN:
        return canonical_hilbert(xd)
    if space.kind != HYPERBOLIC:
        return _slopes(_tree_slopes(xd.terms))
    if space.dim == 1:
        return (sum(c * (_asinh(bv.head.payload[0]) - _asinh(bv.tail.payload[0]))
                    for c, bv in xd.terms),)
    points: List[Point] = []
    weights: List[Scalar] = []
    for c, bv in xd.terms:
        for x, w in ((bv.tail, c), (bv.head, -c)):
            i = next((j for j, y in enumerate(points) if distance(x, y) <= tol), None)
            if i is None:
                points.append(x)
                weights.append(w)
            else:
                weights[i] += w
    return tuple(weights)


def duals_match(xd: DualVector, yd: DualVector, tol: Optional[float] = None) -> bool:
    """Do xd and yd act alike? Exact keys decide where both duals have one.

    Otherwise xd - yd must act as zero within tol (default: the space's
    default_tol): every number of its action (canonical vector, branch
    slopes, the H^1 slope, or merged net weights on H^n, n >= 2) is at
    most tol in size.
    """
    if xd.space is not None and yd.space is not None and xd.space != yd.space:
        return False
    if xd.key is not None and yd.key is not None:
        return xd.key == yd.key
    tol = (xd.space or yd.space).default_tol if tol is None else tol
    return all(abs(v) <= tol for v in _action(dual_add(xd, dual_scale(-1, yd)), tol))

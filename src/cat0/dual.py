"""Formal dual vectors acting through the quasilinearization pairing.

A dual vector is a formal linear combination of bound vectors; it acts
on a bound vector ab-> by

    <x_dual, ab->  =  sum_i  coeff_i * <tail_i head_i, ab->.

Two structurally different combinations can act identically (flipping a
term's orientation and its sign, or splitting a term at an intermediate
point, never changes the action), so equality of duals is behavioral.
On exact inputs (int/Fraction coefficients and coordinates) it is
decided by an exact key of the action (DualVector.key): the canonical
vector sum_i coeff_i (head_i - tail_i) in Euclidean space, the
per-branch slopes of the dual's potential on the tree. Only the
hyperboloid and inputs holding a float fall back to tolerances: the
canonical vector within tol in Euclidean space, and elsewhere a
comparison of actions on a finite probe set (the default probe set
pairs the duals' own points with a deterministic seeded sample), so a
probe seed affects only those.

The Lipschitz-seminorm quantities are desk-scale lower bounds: the dual
norm is approximated by maximizing |<x_dual, ab-> - <x_dual, cd->| /
(d(a,b) + d(c,d)) over supplied quadruples, and the pseudometric between
single-term duals by maximizing difference quotients of the associated
real functions over supplied point pairs. Both are monotone in the
candidate set and never exceed the true suprema.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .extreal import Scalar
from .geometry import quasilinearization
from .spaces import (
    EUCLIDEAN,
    HYPERBOLIC,
    PROBE_SEED,
    BoundVector,
    GeometryError,
    Point,
    SpaceHandle,
    SpaceMismatchError,
    dist_sq,
    distance,
    make_point,
    sample_points,
)

__all__ = [
    "DualVector",
    "dual_vector",
    "dual_term",
    "zero_dual",
    "pair",
    "dual_add",
    "dual_scale",
    "chain_split_check",
    "dual_equal_on",
    "duals_match",
    "canonical_hilbert",
    "j_map",
    "dual_norm_approx",
    "pseudometric_D_approx",
    "default_probes",
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
        spaces = {bv.space for _, bv in self.terms}
        if len(spaces) > 1:
            raise SpaceMismatchError("dual vector mixes terms from different spaces")

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

        Euclidean: the canonical vector (see canonical_hilbert). Tree:
        (default slope, ((branch, slope), ...)) of the dual's potential,
        listing the branches whose slope differs from the default (see
        _tree_slopes). The zero action keys as () on every space, so the
        zero dual, which carries no space, shares it. None where no
        exact key exists: on the hyperboloid and for any float
        coefficient or coordinate. Computed on first use, then kept.
        """
        space = self.space
        if space is None:
            return ()
        if space.kind == HYPERBOLIC or not all(
            is_exact((c,) + bv.tail.payload + bv.head.payload) for c, bv in self.terms
        ):
            return None
        key = canonical_hilbert(self) if space.kind == EUCLIDEAN else _tree_slopes(self.terms)
        return key if any(key) else ()


def is_exact(values: Iterable[Scalar]) -> bool:
    """Are all the values ints or Fractions?"""
    return all(isinstance(v, (int, Fraction)) for v in values)


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


class _Potentials:
    """The doubled potentials 2F_d(z) of one call's duals at its points.

    Every pairing is a difference of potentials,

        <x_dual, ab->  =  F(b) - F(a),
        F(z)  =  1/2 sum_i c_i (d(t_i, z)^2 - d(h_i, z)^2),

    for a dual sum_i c_i [t_i h_i->], so a whole-set computation builds
    one table per call and reads its pairings from it: a relatedness
    gap is four reads, a coupling two, a transform or conjugate term
    four, each halved once at the end. The result equals the direct
    pairing exactly on exact inputs, and up to round-off on float ones.

    point() and dual() number the call's points and duals (structural
    equality, so each is hashed once per pair, never per pairing); a
    dual's potential at a point is computed on first use (an int on
    integer inputs) and then kept. The first point numbered fixes the
    space: a point from another space raises, as a pairing across
    spaces would (a zero dual alone never calls dist_sq, so this check
    is not left to it).
    """

    def __init__(self):
        self._space: Optional[SpaceHandle] = None
        self._point_ids: Dict[Point, int] = {}
        self._dual_ids: Dict[DualVector, int] = {}
        self._points: List[Point] = []
        self._terms: List[tuple] = []  # per dual index
        self._values: List[Dict[int, Scalar]] = []  # per dual index: point index -> 2F

    def point(self, x: Point) -> int:
        i = self._point_ids.get(x)
        if i is None:
            if self._space is None:
                self._space = x.space
            elif x.space != self._space:
                raise SpaceMismatchError(
                    f"points live in different spaces: {self._space} vs {x.space}"
                )
            i = self._point_ids[x] = len(self._points)
            self._points.append(x)
        return i

    def dual(self, xd: DualVector) -> int:
        d = self._dual_ids.get(xd)
        if d is None:
            d = self._dual_ids[xd] = len(self._terms)
            self._terms.append(xd.terms)
            self._values.append({})
        return d

    def index(self, pairs: Sequence) -> List[Tuple[int, int]]:
        """(point index, dual index) of each (point, dual) pair."""
        return [(self.point(q.x), self.dual(q.xd)) for q in pairs]

    def __call__(self, d: int, z: int) -> Scalar:
        """2F_d(z) = sum_i c_i (d(t_i, z)^2 - d(h_i, z)^2)."""
        values = self._values[d]
        v = values.get(z)
        if v is None:
            x = self._points[z]
            v = values[z] = sum(
                c * (dist_sq(bv.tail, x) - dist_sq(bv.head, x)) for c, bv in self._terms[d]
            )
        return v

    def gap2(self, a: Tuple[int, int], b: Tuple[int, int]) -> Scalar:
        """Twice relatedness_gap of the indexed pairs a and b."""
        (za, da), (zb, db) = a, b
        return self(da, za) - self(da, zb) - self(db, za) + self(db, zb)


def dual_vector(terms: Iterable[Tuple[Scalar, BoundVector]]) -> DualVector:
    return DualVector(tuple((c, bv) for c, bv in terms))


def dual_term(coeff: Scalar, tail: Point, head: Point) -> DualVector:
    """The single-term dual coeff * [tail head->]."""
    return DualVector(((coeff, BoundVector(tail, head)),))


def zero_dual() -> DualVector:
    return DualVector(())


def _compatible(space_a: Optional[SpaceHandle], space_b: Optional[SpaceHandle]) -> bool:
    return space_a is None or space_b is None or space_a == space_b


def pair(xd: DualVector, on: BoundVector) -> Scalar:
    """The action <xd, on> = sum_i coeff_i <term_i, on>."""
    if not _compatible(xd.space, on.space):
        raise SpaceMismatchError(
            f"dual over {xd.space} cannot act on a bound vector over {on.space}"
        )
    total = 0
    for coeff, bv in xd.terms:
        total += coeff * quasilinearization(bv, on)
    return total


def dual_add(xd: DualVector, yd: DualVector) -> DualVector:
    """Formal sum; the action is the sum of the actions."""
    if not _compatible(xd.space, yd.space):
        raise SpaceMismatchError("cannot add duals over different spaces")
    return DualVector(xd.terms + yd.terms)


def dual_scale(alpha: Scalar, xd: DualVector) -> DualVector:
    """Scale every coefficient; the action scales accordingly."""
    return DualVector(tuple((alpha * c, bv) for c, bv in xd.terms))


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


def dual_equal_on(
    xd: DualVector, yd: DualVector, probes: Sequence[BoundVector], tol: float = 1e-9
) -> bool:
    """Behavioral equality on a finite probe set of bound vectors."""
    if not probes:
        raise GeometryError("dual_equal_on needs at least one probe")
    return all(abs(pair(xd, bv) - pair(yd, bv)) <= tol for bv in probes)


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
    ab = BoundVector(a, b)
    cd = BoundVector(c, d)

    def g(x: Point) -> Scalar:
        return t * quasilinearization(ab, BoundVector(a, x)) - s * quasilinearization(
            cd, BoundVector(c, x)
        )

    best = None
    for u, v in pairs:
        den = distance(u, v)
        if den == 0:
            raise GeometryError("probe pair with coincident points")
        ratio = (g(u) - g(v)) / den
        if best is None or ratio > best:
            best = ratio
    return best


def default_probes(
    space: SpaceHandle,
    anchors: Sequence[Point] = (),
    seed: int = PROBE_SEED,
) -> Tuple[BoundVector, ...]:
    """Probe bound vectors: anchor points plus a deterministic sample.

    Probes are all bound vectors between distinct points of the pool
    (anchors first, then 12 seeded random points), truncated at 64.
    """
    pool = []
    for pt in anchors:
        if pt.space != space:
            raise SpaceMismatchError("anchor point from a different space")
        if pt not in pool:
            pool.append(pt)
    for pt in sample_points(space, 12, seed=seed):
        if pt not in pool:
            pool.append(pt)
    probes = tuple(
        BoundVector(pq[0], pq[1]) for pq in itertools.combinations(pool, 2)
    )[:64]
    if not probes:
        raise GeometryError("probe pool has fewer than two distinct points")
    return probes


def duals_match(
    xd: DualVector,
    yd: DualVector,
    probes: Optional[Sequence[BoundVector]] = None,
    tol: float = 1e-9,
) -> bool:
    """Behavioral equality: exact keys where both duals have one.

    Otherwise canonical vectors within tol in Euclidean space, and
    actions within tol on the probes elsewhere (default_probes anchored
    at both duals' points when none are given).
    """
    if not _compatible(xd.space, yd.space):
        return False
    if xd.key is not None and yd.key is not None:
        return xd.key == yd.key
    space = xd.space or yd.space
    if space.kind == EUCLIDEAN:
        u = canonical_hilbert(xd, dim=space.dim)
        v = canonical_hilbert(yd, dim=space.dim)
        return all(abs(a - b) <= tol for a, b in zip(u, v))
    if probes is None:
        anchors = tuple(xd.points) + tuple(yd.points)
        probes = default_probes(space, anchors)
    return dual_equal_on(xd, yd, probes, tol)

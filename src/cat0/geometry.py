"""Quasilinearization and the comparison checks built on it.

The quasilinearization pairing of two bound vectors,

    <xy, uv> = (d(x,v)^2 + d(y,u)^2 - d(x,u)^2 - d(y,v)^2) / 2,

is the metric-space stand-in for the inner product <<y-x | v-u>> and
reduces to exactly that in Euclidean space. Everything downstream (dual
actions, couplings, conjugates, monotonicity) is a combination of these
pairings, so the pairing is computed from squared distances directly and
stays exact on exact rational inputs.

Also here: the comparison-convexity inequality for geodesics (the
CAT(0) chord condition) and the two-sided bound |<xy,uv>| <= d(x,y)
d(u,v). Equality in the chord condition on every triple is how flatness
is detected at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .extreal import Scalar
from .spaces import (
    BoundVector,
    Point,
    _check_space,
    dist_sq,
    distance,
    geodesic_point,
)

__all__ = [
    "CnReport",
    "CauchySchwarzReport",
    "quasilinearization",
    "check_cn_inequality",
    "check_cauchy_schwarz",
    "half_of",
]


def half_of(v: Scalar) -> Scalar:
    """v / 2 without losing exactness on int/Fraction inputs."""
    if isinstance(v, float):
        return 0.5 * v
    return Fraction(v, 2)


def quasilinearization(xy: BoundVector, uv: BoundVector) -> Scalar:
    """The pairing <xy, uv>; symmetric, antisymmetric under flips."""
    _check_space(xy.space, uv.space)
    if xy.is_zero or uv.is_zero:
        return 0
    x, y = xy.tail, xy.head
    u, v = uv.tail, uv.head
    total = dist_sq(x, v) + dist_sq(y, u) - dist_sq(x, u) - dist_sq(y, v)
    return half_of(total)


@dataclass(frozen=True)
class CnReport:
    """Outcome of one chord-condition comparison.

    lhs is d(z, (1-t)x (+) t y)^2, rhs the Euclidean chord bound
    (1-t) d(z,x)^2 + t d(z,y)^2 - t(1-t) d(x,y)^2. holds means
    lhs <= rhs + tol; is_equality means |lhs - rhs| <= tol, the flat
    case.
    """

    lhs: Scalar
    rhs: Scalar
    holds: bool
    is_equality: bool


def check_cn_inequality(
    x: Point, y: Point, z: Point, t: Scalar, tol: Optional[float] = None
) -> CnReport:
    """Compare d(z, geodesic)^2 with the chord bound at parameter t."""
    tol = x.space.default_tol if tol is None else tol
    g = geodesic_point(x, y, t)
    lhs = dist_sq(z, g)
    rhs = (1 - t) * dist_sq(z, x) + t * dist_sq(z, y) - t * (1 - t) * dist_sq(x, y)
    gap = lhs - rhs
    return CnReport(lhs=lhs, rhs=rhs, holds=gap <= tol, is_equality=abs(gap) <= tol)


@dataclass(frozen=True)
class CauchySchwarzReport:
    """|pairing| <= bound = d(x,y) d(u,v), within tol."""

    pairing: Scalar
    bound: Scalar
    holds: bool


def check_cauchy_schwarz(
    xy: BoundVector, uv: BoundVector, tol: Optional[float] = None
) -> CauchySchwarzReport:
    """Check |<xy,uv>| against the product of the two lengths."""
    tol = xy.space.default_tol if tol is None else tol
    pairing = quasilinearization(xy, uv)
    bound = distance(xy.tail, xy.head) * distance(uv.tail, uv.head)
    return CauchySchwarzReport(pairing=pairing, bound=bound, holds=abs(pairing) <= bound + tol)

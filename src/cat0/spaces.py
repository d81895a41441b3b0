"""The three concrete Hadamard spaces and their primitive operations.

Supported models:

* ``euclidean``: R^n with the usual metric; geodesics are segments.
* ``rtree``: countably many unit segments [0, 1], one per branch index
  n >= 1, glued at 0. Distance is |t - s| on a common branch and t + s
  across branches (every path runs through the gluing point, called the
  root). The root is canonically branch 1 at parameter 0.
* ``hyperbolic``: the hyperboloid sheet {x : <x,x> = -1, x_last > 0} in
  R^(n+1) with the Minkowski bilinear form <x,y> = sum_i x_i y_i -
  x_last y_last and distance d(x,y) = arccosh(-<x,y>).

Points are immutable and tagged with their space. SpaceHandle is the one
validator of a space: its kind, and an integer dim >= 1 off the tree.
_check_space is the one same-space check: every object and function of
the package that takes two spaces calls it, and it alone raises
``SpaceMismatchError``. Coordinates may be exact (``int``/``Fraction``)
or float. Every formula that is rational in its inputs (Euclidean
squared distances, all R-tree arithmetic, affine geodesics) preserves
exactness; downstream sup/inf computations rely on this.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial, reduce
from itertools import compress, count, repeat
from numbers import Real as _NumbersReal
from operator import add, eq, mul, neg, sub
from typing import Iterator, List, Optional, Sequence, Tuple

from .extreal import Scalar

EUCLIDEAN = "euclidean"
RTREE = "rtree"
HYPERBOLIC = "hyperbolic"
_KINDS = (EUCLIDEAN, RTREE, HYPERBOLIC)

# arccosh arguments that fall below 1 by no more than this are snapped
# to exactly 1; anything lower is treated as invalid input.
ACOSH_SLACK = 1e-12

SAMPLE_SEED = 0x5EED


class GeometryError(ValueError):
    """Invalid geometric input."""


class SpaceMismatchError(GeometryError):
    """Operands are tagged with different spaces."""


class PointValidationError(GeometryError):
    """A payload violates its space's point constraints."""


@dataclass(frozen=True)
class SpaceHandle:
    """Identifies one of the supported space models.

    ``dim`` is the geometric dimension for euclidean/hyperbolic handles
    (hyperbolic payloads have dim + 1 coordinates) and is ignored for
    the tree.
    """

    kind: str
    dim: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise GeometryError(f"unknown space kind {self.kind!r}")
        if self.kind != RTREE and (isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 1):
            raise GeometryError(f"{self.kind} space needs an integer dim >= 1, got {self.dim!r}")

    @property
    def coord_len(self) -> int:
        """Number of payload coordinates a point of this space carries."""
        if self.kind == EUCLIDEAN:
            return self.dim
        if self.kind == HYPERBOLIC:
            return self.dim + 1
        return 2  # (branch, parameter)

    @property
    def default_tol(self) -> float:
        """The default of every comparison tolerance: closed forms are tight, arccosh is not."""
        return 1e-7 if self.kind == HYPERBOLIC else 1e-9


def euclidean(dim: int) -> SpaceHandle:
    return SpaceHandle(EUCLIDEAN, dim)


def rtree() -> SpaceHandle:
    return SpaceHandle(RTREE)


def hyperbolic(dim: int) -> SpaceHandle:
    return SpaceHandle(HYPERBOLIC, dim)


@dataclass(frozen=True)
class Point:
    """A validated point; build with make_point rather than directly."""

    space: SpaceHandle
    payload: Tuple[Scalar, ...]


@dataclass(frozen=True)
class BoundVector:
    """An ordered point pair tail->head, the argument of quasilinearization."""

    tail: Point
    head: Point

    def __post_init__(self):
        _check_space(self.tail.space, self.head.space)

    @property
    def space(self) -> SpaceHandle:
        return self.tail.space

    @property
    def is_zero(self) -> bool:
        return self.tail == self.head


def _check_scalar(v, where: str) -> Scalar:
    if isinstance(v, bool) or not isinstance(v, _NumbersReal):
        raise PointValidationError(f"{where}: not a real number: {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise PointValidationError(f"{where}: coordinate must be finite, got {v!r}")
    return v


def make_point(space: SpaceHandle, payload: Sequence, tol: float = 1e-9) -> Point:
    """Validate a raw payload and return a canonical Point.

    euclidean: dim finite coordinates. rtree: (branch, t) with integer
    branch >= 1 and 0 <= t <= 1; t == 0 is canonicalized to branch 1 so
    that all representatives of the root compare equal. hyperbolic:
    dim + 1 coordinates with <x,x> = -1 within tol and positive last
    coordinate.
    """
    if space.kind == RTREE:
        if len(payload) != 2:
            raise PointValidationError(
                f"rtree payload must be (branch, t), got {len(payload)} entries"
            )
        branch, t = payload
        if isinstance(branch, bool) or not isinstance(branch, int):
            try:
                whole = isinstance(branch, _NumbersReal) and not isinstance(branch, bool) and branch == int(branch)
            except (ValueError, OverflowError):  # nan, inf
                whole = False
            if not whole:
                raise PointValidationError(f"rtree branch must be an integer, got {branch!r}")
            branch = int(branch)
        if branch < 1:
            raise PointValidationError(f"rtree branch must be >= 1, got {branch}")
        _check_scalar(t, "rtree parameter")
        if not (0 <= t <= 1):
            raise PointValidationError(f"rtree parameter must lie in [0, 1], got {t}")
        if t == 0:
            branch = 1
        return Point(space, (branch, t))

    coords = tuple(_check_scalar(v, f"{space.kind} coordinate") for v in payload)
    if len(coords) != space.coord_len:
        raise PointValidationError(
            f"{space.kind} payload needs {space.coord_len} coordinates, got {len(coords)}"
        )
    if space.kind == HYPERBOLIC:
        _check_on_sheet(coords, tol)
        if coords[-1] <= 0:
            raise PointValidationError(
                f"hyperboloid sheet requires positive last coordinate, got {coords[-1]}"
            )
    return Point(space, coords)


def _check_on_sheet(coords: Tuple[Scalar, ...], tol: float) -> None:
    """Raise PointValidationError unless <x,x> = -1 within tol (1 + sum x_i^2).

    The float error of the form itself grows with the squared coordinate
    size, so the acceptance band scales the same way. An exact payload
    with <x,x> = -1 exactly is on the sheet at any size. Otherwise a
    payload past float range is rejected: its band or its form overflows
    (to inf, or to nan for inf - inf), or an exact coordinate is too
    large for a float.
    """
    try:
        defect = minkowski_form(coords, coords) + 1
        if defect == 0:
            return
        band = tol * (1 + sum(float(c) * float(c) for c in coords))
        if abs(defect) <= band < math.inf:
            return
        found = f"{float(defect):.3e} (tolerance {band:.3e})"
    except OverflowError:
        found = "a value past float range"
    raise PointValidationError(f"hyperboloid constraint <x,x> = -1 violated by {found}")


def minkowski_form(x: Sequence[Scalar], y: Sequence[Scalar]) -> Scalar:
    """Bilinear form sum_i x_i y_i - x_last y_last on R^(n+1)."""
    if len(x) != len(y):
        raise GeometryError(f"form arguments of different lengths: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise GeometryError("form needs at least 2 coordinates")
    total = 0
    for a, b in zip(x[:-1], y[:-1]):
        total += a * b
    return total - x[-1] * y[-1]


def _check_space(a: Optional[SpaceHandle], b: Optional[SpaceHandle]) -> None:
    """Raise SpaceMismatchError unless a and b are one space; None, the zero dual's space, fits every space.

    The one same-space check of the package, and the only code that
    constructs a SpaceMismatchError. a is b is tested first: it is the
    case of every hot caller.
    """
    if a is not b and a is not None and b is not None and a != b:
        raise SpaceMismatchError(f"points live in different spaces: {a} vs {b}")


def _same_space(x: Point, y: Point) -> SpaceHandle:
    _check_space(x.space, y.space)
    return x.space


def _snapped_to_one(m: Scalar) -> Scalar:
    """An arccosh argument m < 1: 1.0 within ACOSH_SLACK, else invalid input."""
    if m >= 1 - ACOSH_SLACK:
        return 1.0
    raise PointValidationError(
        f"arccosh argument {m!r} below 1 by more than {ACOSH_SLACK:.0e}; "
        "inputs are not valid hyperboloid points"
    )


def _cosh_of_distance(x: Sequence[Scalar], y: Sequence[Scalar]) -> Scalar:
    """-<x,y> for hyperboloid payloads, snapped up to 1 when rounding dips below.

    The loop of minkowski_form, in its order, without its length checks:
    payloads of one space have one length. The one place a single
    pair's -<x,y> is written: distance, hyperbolic_geodesic and the
    short batches of _hyperbolic_dists_sq read it.
    """
    total = 0
    for a, b in zip(x, y[:-1]):  # stops at the end of y[:-1], before the last coordinate
        total += a * b
    m = -(total - x[-1] * y[-1])
    return _snapped_to_one(m) if m < 1 else m


def _acosh(m: Scalar) -> float:
    """acosh(m) for m >= 1; for an exact m too large for a float, ln 2m from its numerator and denominator.

    acosh(m) = ln 2m + ln((1 + sqrt(1 - 1/m^2)) / 2), and past float
    range the second term is below 1e-616 in size.
    """
    try:
        return math.acosh(m)
    except OverflowError:  # an exact m past float range
        return math.log(2 * m.numerator) - math.log(m.denominator)


def _asinh(v: Scalar) -> float:
    """asinh(v); for an exact v too large for a float, sign(v) ln 2|v| from its numerator and denominator.

    asinh(v) = sign(v) (ln 2|v| + ln((1 + sqrt(1 + 1/v^2)) / 2)), and
    past float range the second term is below 1e-616 in size.
    """
    try:
        return math.asinh(v)
    except OverflowError:  # an exact v past float range
        s = math.log(2 * abs(v.numerator)) - math.log(v.denominator)
        return -s if v < 0 else s


def distance(x: Point, y: Point) -> Scalar:
    """Geodesic distance. Exact (int/Fraction preserving) on the rtree."""
    space = _same_space(x, y)
    if x == y:
        return 0
    if space.kind == EUCLIDEAN:
        try:
            return math.sqrt(sum((a - b) ** 2 for a, b in zip(x.payload, y.payload)))
        except OverflowError:  # the square past float range, not always the distance
            return math.hypot(*(a - b for a, b in zip(x.payload, y.payload)))
    if space.kind == RTREE:
        n, t = x.payload
        m, s = y.payload
        return abs(t - s) if n == m else t + s
    return _acosh(_cosh_of_distance(x.payload, y.payload))


# _hyperbolic_dists_sq forms a batch a block of at most _BLOCK payloads at
# a time, so that no temporary grows with the batch, and a batch of fewer
# than _SHORT payloads against one y payload by payload, where setting up
# the columns costs more than they save (on 20,001 H^2 payloads, blocks of
# 256 to 512 cost least; below about 16 payloads the loop is faster).
_BLOCK = 256
_SHORT = 16


def _columns(xs: Sequence[Sequence[Scalar]]) -> Iterator[tuple]:
    """The coordinate columns of the payloads xs, one tuple of columns per block of _BLOCK, in order."""
    return (tuple(zip(*xs[lo:lo + _BLOCK])) for lo in range(0, len(xs), _BLOCK))


class _Blocks:
    """Hyperboloid payloads kept with their coordinate columns, for batches read again and again.

    _hyperbolic_dists_sq takes it in place of the payloads and reads the
    kept columns instead of forming them per call: an OperatorGraph's
    store keeps its points and its distinct term endpoints so (see
    cat0.dual._Store and _Ends). Fewer than _SHORT payloads keep no columns, as the
    loop reads the payloads.
    """

    __slots__ = ("payloads", "columns")

    def __init__(self, payloads: Sequence[Sequence[Scalar]]):
        self.payloads = payloads
        self.columns = list(_columns(payloads)) if len(payloads) >= _SHORT else None

    def __len__(self) -> int:
        return len(self.payloads)


def _hyperbolic_dists_sq(xs, y: Sequence, each: bool = False) -> List[Scalar]:
    """acosh(-<x,y>)^2 of each hyperboloid payload x of xs against y, in order; the int 0 where x == y.

    xs is a sequence of payloads or, without each, a _Blocks that keeps
    their columns. y is one payload that every x meets or, with each, a
    sequence of payloads, one partner per x. The one place the
    hyperboloid's squared distance is written: dist_sq calls it with one
    payload, and the pairing kernel of cat0.dual with every payload of
    one call that meets the same point or term endpoint, or elementwise
    for a graph's self-potentials.

    -<x,y> is ((x_0 y_0 + x_1 y_1) + ...) - x_n y_n, the loop of
    minkowski_form in its order, snapped up to 1 within ACOSH_SLACK
    where it is below 1 (see _cosh_of_distance), and x == y is tested
    before the snap, so no value depends on the batching. A batch of
    _SHORT or more payloads, and any batch with each, is formed a block
    of _BLOCK payloads at a time, coordinate column by coordinate column
    (_dists_sq_block), from the kept columns of a _Blocks; a shorter
    batch against one y payload by payload, each pair read as distance
    reads it, through _cosh_of_distance and _acosh. An exact m too
    large for a float gives acosh(m) = ln 2m (_acosh).
    """
    if isinstance(xs, _Blocks):
        xs, blocks = xs.payloads, xs.columns
    else:
        blocks = _columns(xs) if each or len(xs) >= _SHORT else None
    if blocks is not None:
        out: List[Scalar] = []
        for lo, columns in zip(range(0, len(xs), _BLOCK), blocks):
            out += _dists_sq_block(columns, y[lo:lo + _BLOCK] if each else y, each)
        return out
    ds = [0 if x == y else _acosh(_cosh_of_distance(x, y)) for x in xs]
    return list(map(mul, ds, ds))


def _dists_sq_block(columns: tuple, y: Sequence, each: bool) -> List[Scalar]:
    """_hyperbolic_dists_sq of one block, given as its coordinate columns, with map() over them.

    x == y is decided for the whole block first: on the first
    coordinate column, then on the rest at the positions where it
    agrees. y's coordinates are read once per block (with each, as
    columns too), and m, acosh(m) and the squares are each one map()
    over the block. Only a block where some m at x != y is below 1
    snaps its m one by one, and only one with an m past float range
    takes acosh one by one. The sum starts at x_0 y_0, not at the loop's
    0 + x_0 y_0: the two differ only in the sign of a zero, which
    subtracting x_n y_n > 0 drops.
    """
    ys = tuple(zip(*y)) if each else y
    *heads, last = map(map, repeat(mul), columns, ys if each else map(repeat, y))
    ms = list(map(neg, map(sub, reduce(partial(map, add), heads), last)))
    first = compress(count(), map(eq, columns[0], ys[0] if each else repeat(y[0])))
    if each:
        same = [i for i in first if all(x[i] == v[i] for x, v in zip(columns, ys))]
    else:
        same = [i for i in first if all(x[i] == v for x, v in zip(columns, y))]
    for i in same:
        ms[i] = 1
    if min(ms) < 1:
        ms = [_snapped_to_one(m) if m < 1 else m for m in ms]
    try:
        ds = list(map(math.acosh, ms))
    except OverflowError:  # an exact m past float range
        ds = list(map(_acosh, ms))
    out = list(map(mul, ds, ds))
    for i in same:
        out[i] = 0
    return out


def dist_sq(x: Point, y: Point) -> Scalar:
    """Squared distance; exact on euclidean/rtree rational inputs.

    This is the primitive the quasilinearization formula consumes, so it
    avoids the sqrt round trip wherever the square has a closed form.
    """
    space = _same_space(x, y)
    if space.kind == HYPERBOLIC:
        return _hyperbolic_dists_sq((x.payload,), y.payload)[0]
    if x == y:
        return 0
    if space.kind == EUCLIDEAN:
        return sum((a - b) ** 2 for a, b in zip(x.payload, y.payload))
    d = distance(x, y)
    return d * d


def _check_unit_interval(t: Scalar):
    if isinstance(t, bool) or not isinstance(t, _NumbersReal):
        raise GeometryError(f"geodesic parameter must be a real number, got {t!r}")
    if not (0 <= t <= 1):
        raise GeometryError(f"geodesic parameter must lie in [0, 1], got {t}")


def _clamp01(v: Scalar) -> Scalar:
    # float rounding can push a branch parameter a hair outside [0, 1]
    if isinstance(v, float):
        if -1e-12 < v < 0:
            return 0.0
        if 1 < v < 1 + 1e-12:
            return 1.0
    return v


def _rtree_geodesic(x: Point, y: Point, lam: Scalar) -> Point:
    n, t = x.payload
    m, s = y.payload
    if n == m:
        return make_point(x.space, (n, _clamp01((1 - lam) * t + lam * s)))
    # distinct branches: the geodesic runs through the root, switching
    # branches at lam = t / (t + s)
    if lam * (t + s) <= t:
        return make_point(x.space, (n, _clamp01((1 - lam) * t - lam * s)))
    return make_point(x.space, (m, _clamp01((lam - 1) * t + lam * s)))


def hyperbolic_geodesic(x: Point, y: Point, t: Scalar) -> Point:
    """Point at parameter t on the hyperboloid geodesic from x to y.

    Uses cosh(t d) x + sinh(t d) z where z = (y - cosh(d) x) / sinh(d)
    is the unit tangent at x toward y and d = d(x, y).
    """
    space = _same_space(x, y)
    if space.kind != HYPERBOLIC:
        raise GeometryError(f"hyperbolic_geodesic needs a hyperbolic space, got {space.kind}")
    _check_unit_interval(t)
    if x == y or t == 0:
        return x
    if t == 1:
        return y
    m = _cosh_of_distance(x.payload, y.payload)
    q = m * m - 1
    if q <= 0:
        return x  # numerically coincident endpoints
    d = math.acosh(m)
    root = math.sqrt(q)
    z = tuple((yi - m * xi) / root for xi, yi in zip(x.payload, y.payload))
    c, s = math.cosh(t * d), math.sinh(t * d)
    payload = tuple(c * xi + s * zi for xi, zi in zip(x.payload, z))
    return make_point(space, payload, tol=1e-7)


def geodesic_point(x: Point, y: Point, t: Scalar) -> Point:
    """The point (1-t) x (+) t y on the unique geodesic from x to y."""
    space = _same_space(x, y)
    _check_unit_interval(t)
    if x == y or t == 0:
        return x
    if t == 1:
        return y
    if space.kind == EUCLIDEAN:
        return Point(space, tuple(a + t * (b - a) for a, b in zip(x.payload, y.payload)))
    if space.kind == RTREE:
        return _rtree_geodesic(x, y, t)
    return hyperbolic_geodesic(x, y, t)


def random_point(
    space: SpaceHandle,
    rng: random.Random,
    spread: float = 2.0,
    branches: int = 4,
) -> Point:
    """A random point, used for sampled checks."""
    if space.kind == EUCLIDEAN:
        return Point(space, tuple(rng.uniform(-spread, spread) for _ in range(space.dim)))
    if space.kind == RTREE:
        return make_point(space, (rng.randint(1, branches), rng.random()))
    u = [rng.uniform(-spread, spread) for _ in range(space.dim)]
    last = math.sqrt(1 + sum(v * v for v in u))
    return make_point(space, (*u, last))


def sample_points(
    space: SpaceHandle,
    count: int,
    seed: int = SAMPLE_SEED,
    spread: float = 2.0,
    branches: int = 4,
) -> Tuple[Point, ...]:
    """Deterministic sample of points (fixed default seed)."""
    rng = random.Random(seed)
    return tuple(random_point(space, rng, spread=spread, branches=branches) for _ in range(count))

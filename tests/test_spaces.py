import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cat0 import (
    GeometryError,
    PointValidationError,
    SpaceMismatchError,
    distance,
    dist_sq,
    euclidean,
    geodesic_point,
    hyperbolic,
    make_point,
    minkowski_form,
    random_point,
    rtree,
    sample_points,
)
from cat0.spaces import ACOSH_SLACK, _BLOCK, _SHORT, _Blocks, _hyperbolic_dists_sq
from conftest import rtree_points
from helpers import hyperbolic_dists_sq_loop

N_METRIC_SAMPLES = 1000


def _tol(space):
    return 1e-7 if space.kind == "hyperbolic" else 1e-9


# ---------------------------------------------------------------------------
# construction and validation


def test_euclidean_dim_must_match():
    with pytest.raises(PointValidationError):
        make_point(euclidean(2), (1, 2, 3))
    with pytest.raises(GeometryError):
        euclidean(0)


def test_rtree_payload_validation():
    space = rtree()
    with pytest.raises(PointValidationError):
        make_point(space, (0, Fraction(1, 2)))  # branches start at 1
    with pytest.raises(PointValidationError):
        make_point(space, (1, Fraction(3, 2)))  # t outside [0, 1]
    with pytest.raises(PointValidationError):
        make_point(space, (1, -1))


def test_rtree_root_is_canonical():
    space = rtree()
    for branch in (1, 2, 7):
        p = make_point(space, (branch, 0))
        assert p.payload == (1, 0)
    assert make_point(space, (3, 0)) == make_point(space, (5, 0))


def test_hyperbolic_constraint_enforced():
    space = hyperbolic(2)
    with pytest.raises(PointValidationError):
        make_point(space, (1.0, 1.0, 1.0))  # form is -(-1): off the sheet
    p = make_point(space, (0.6, 0.8, math.sqrt(2.0)))
    assert abs(minkowski_form(p.payload, p.payload) + 1) < 1e-9


def test_hyperbolic_validation_band_scales_with_magnitude():
    # far-out points carry rounding in the constraint proportional to
    # the squared coordinate size; they must still be accepted
    space = hyperbolic(2)
    t = 10.0
    p = make_point(space, (math.sinh(t), 0.0, math.cosh(t)))
    assert distance(p, p) == 0


@pytest.mark.parametrize("payload", [
    (1e200, 0.0, 1.0),  # <x,x> overflows to +inf, as does its band
    (1e160, 0.0, 1e160),  # inf - inf: the form is nan
    (10 ** 400, 0, 1),  # too large for a float
    (Fraction(10 ** 400), 0, 1.0),  # an exact and a float coordinate
])
def test_hyperboloid_payloads_past_float_range_are_rejected(payload):
    with pytest.raises(PointValidationError):
        make_point(hyperbolic(2), payload)


def test_exact_hyperboloid_payloads_on_the_sheet_are_accepted_at_any_size():
    # x = (1/r - r) / 2, y = (1/r + r) / 2 has y^2 - x^2 = 1 exactly
    for r in (Fraction(1, 2), Fraction(1, 10 ** 400)):
        payload = ((1 / r - r) / 2, (1 / r + r) / 2)
        assert make_point(hyperbolic(1), payload).payload == payload


def test_exact_far_hyperboloid_points_have_a_distance():
    # x = (sinh t, cosh t) exactly at t = 400 ln 10, so -<x, apex> =
    # cosh t is too large for a float; acosh of it is ln 2m within 1e-616
    n = 10 ** 400
    space = hyperbolic(1)
    x = make_point(space, (Fraction(n * n - 1, 2 * n), Fraction(n * n + 1, 2 * n)))
    apex = make_point(space, (0, 1))
    t = 400 * math.log(10)
    assert distance(x, apex) == distance(apex, x) == pytest.approx(t, rel=1e-15)
    assert dist_sq(x, apex) == pytest.approx(t * t, rel=1e-15)
    batch = [x.payload, apex.payload] * _BLOCK  # in blocks of columns
    assert _hyperbolic_dists_sq(batch, apex.payload) == [dist_sq(x, apex), 0] * _BLOCK


@pytest.mark.parametrize("x, y, want", [
    ((1e200,), (0,), 1e200),
    ((1e200, 0.0), (0, 0.5), math.hypot(1e200, 0.5)),
    ((10 ** 200, Fraction(1, 3)), (0, 0), 1e200),
])
def test_far_euclidean_points_have_a_distance(x, y, want):
    # the squared distance is past float range, the distance is not
    space = euclidean(len(x))
    a, b = make_point(space, x), make_point(space, y)
    assert distance(a, b) == distance(b, a) == want


def _rational_sheet_point(u):
    """(2u, 1 + |u|^2) / (1 - |u|^2): an exact hyperboloid payload for rational u, |u| < 1."""
    s = sum(v * v for v in u)
    return tuple(2 * v / (1 - s) for v in u) + ((1 + s) / (1 - s),)


# one float payload per dimension, and the same with its last coordinate
# one ulp lower: -<x, y> lies in the ACOSH_SLACK band below 1
_SLACK_POINTS = {
    1: (2.0, 2.23606797749979),
    2: (2.0, 1.0, 2.449489742783178),
    3: (3.0, 2.0, 4.0, 5.477225575051661),
}


def _kernel_pool(dim, rng):
    floats = [random_point(hyperbolic(dim), rng).payload for _ in range(6)]
    exact = [_rational_sheet_point([Fraction(rng.randint(-3, 3), 7) for _ in range(dim)]) for _ in range(3)]
    x = _SLACK_POINTS[dim]
    y = x[:-1] + (math.nextafter(x[-1], 0),)
    assert 1 - ACOSH_SLACK <= -minkowski_form(x, y) < 1
    return floats + exact + [x, y]


def _bits(v):
    return v.hex() if isinstance(v, float) else repr(v)


_KERNEL_SIZES = sorted({0, 1, 2, _SHORT - 1, _SHORT, _SHORT + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1})


@pytest.mark.parametrize("dim", [1, 2, 3])
@given(size=st.sampled_from(_KERNEL_SIZES), seed=st.integers(0, 2 ** 32 - 1), each=st.booleans())
def test_hyperbolic_kernel_keeps_the_bits_of_the_loop(dim, size, seed, each):
    # float and exact payloads, repeats (the int 0), a pair in the snap
    # band, one shared y or a partner per x, the payloads given as such or
    # with their columns kept; batch sizes around the loop's cut and the
    # block size
    rng = random.Random(seed)
    pool = _kernel_pool(dim, rng)
    xs = [rng.choice(pool) for _ in range(size)]
    y = [rng.choice(pool) for _ in range(size)] if each else rng.choice(pool)
    want = list(map(_bits, hyperbolic_dists_sq_loop(xs, y, each)))
    assert list(map(_bits, _hyperbolic_dists_sq(xs, y, each=each))) == want
    if not each:  # the same payloads with their columns kept, as a graph's store keeps them
        assert list(map(_bits, _hyperbolic_dists_sq(_Blocks(xs), y))) == want


@pytest.mark.parametrize("branch", [math.inf, -math.inf, math.nan])
def test_rtree_branch_that_is_not_finite_is_rejected(branch):
    with pytest.raises(PointValidationError):
        make_point(rtree(), (branch, Fraction(1, 2)))


def test_space_mismatch_rejected():
    a = make_point(euclidean(2), (0, 0))
    b = make_point(rtree(), (1, 0))
    with pytest.raises(SpaceMismatchError):
        distance(a, b)


def test_minkowski_form_exact_on_ints():
    assert minkowski_form((1, 2, 3), (4, 5, 6)) == 1 * 4 + 2 * 5 - 3 * 6


# ---------------------------------------------------------------------------
# metric axioms, >= 10^3 sampled pairs / triples per space


def test_metric_axioms_sampled(any_space):
    space = any_space
    pts = sample_points(space, 60, seed=901)
    rng = random.Random(902)
    tol = _tol(space)
    checked = 0
    while checked < N_METRIC_SAMPLES:
        x, y, z = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        dxy = distance(x, y)
        assert dxy >= 0
        assert dxy == distance(y, x)  # symmetry is exact: same expression
        if x == y:
            assert dxy == 0
        else:
            assert dxy > 0
        assert distance(x, z) <= dxy + distance(y, z) + tol
        checked += 1


def test_distance_squared_consistent(any_space):
    space = any_space
    pts = sample_points(space, 25, seed=903)
    for i in range(len(pts) - 1):
        x, y = pts[i], pts[i + 1]
        d = distance(x, y)
        assert abs(dist_sq(x, y) - d * d) <= 1e-9


# ---------------------------------------------------------------------------
# exact rtree arithmetic


def test_rtree_distance_same_branch():
    space = rtree()
    x = make_point(space, (2, Fraction(2, 3)))
    y = make_point(space, (2, Fraction(1, 6)))
    assert distance(x, y) == Fraction(1, 2)
    assert dist_sq(x, y) == Fraction(1, 4)


def test_rtree_distance_across_branches():
    space = rtree()
    x = make_point(space, (2, Fraction(2, 3)))
    y = make_point(space, (3, 1))
    assert distance(x, y) == Fraction(5, 3)
    assert dist_sq(x, y) == Fraction(25, 9)


@given(rtree_points(), rtree_points())
def test_rtree_distance_formula(x, y):
    (n, t), (m, s) = x.payload, y.payload
    expected = abs(t - s) if n == m else t + s
    if x == y:
        expected = 0
    assert distance(x, y) == expected
    assert isinstance(distance(x, y), (int, Fraction))


# ---------------------------------------------------------------------------
# geodesics


def test_geodesic_endpoints(any_space):
    space = any_space
    pts = sample_points(space, 10, seed=904)
    for x, y in zip(pts, pts[1:]):
        assert geodesic_point(x, y, 0) == x
        assert geodesic_point(x, y, 1) == y or distance(geodesic_point(x, y, 1), y) <= 1e-9


def test_geodesic_parameter_range(any_space):
    pts = sample_points(any_space, 2, seed=905)
    with pytest.raises(GeometryError):
        geodesic_point(pts[0], pts[1], Fraction(3, 2))
    with pytest.raises(GeometryError):
        geodesic_point(pts[0], pts[1], -0.25)


def test_geodesic_law(any_space):
    # d(c(a), c(b)) = |a - b| d(x, y) along every geodesic
    space = any_space
    pts = sample_points(space, 12, seed=906)
    params = (0, Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(7, 8), 1)
    for x, y in zip(pts, pts[1:]):
        d = distance(x, y)
        for a in params:
            for b in params:
                ca = geodesic_point(x, y, a)
                cb = geodesic_point(x, y, b)
                assert abs(distance(ca, cb) - abs(a - b) * d) <= 1e-7


def test_rtree_geodesic_same_branch_is_linear():
    space = rtree()
    x = make_point(space, (2, Fraction(1, 4)))
    y = make_point(space, (2, Fraction(3, 4)))
    mid = geodesic_point(x, y, Fraction(1, 2))
    assert mid.payload == (2, Fraction(1, 2))


def test_rtree_geodesic_crosses_root():
    space = rtree()
    x = make_point(space, (2, Fraction(1, 2)))
    y = make_point(space, (3, Fraction(1, 2)))
    # total length 1; the root sits at parameter 1/2
    assert geodesic_point(x, y, Fraction(1, 2)).payload == (1, 0)
    assert geodesic_point(x, y, Fraction(1, 4)).payload == (2, Fraction(1, 4))
    assert geodesic_point(x, y, Fraction(3, 4)).payload == (3, Fraction(1, 4))


def test_rtree_geodesic_exact_fractions():
    space = rtree()
    x = make_point(space, (2, Fraction(2, 3)))
    y = make_point(space, (3, 1))
    p = geodesic_point(x, y, Fraction(1, 5))
    assert p.payload == (2, Fraction(1, 3))


def test_hyperbolic_geodesic_closed_form_midpoint():
    # endpoints (0,1,sqrt2) and (-1,0,sqrt2) are acosh(2) apart; the
    # midpoint has the closed form (-b, a-2b, sqrt2(a-b)) with
    # a = cosh(acosh(2)/2), b = sinh(acosh(2)/2)/sqrt(3)
    space = hyperbolic(2)
    x = make_point(space, (0.0, 1.0, math.sqrt(2.0)))
    y = make_point(space, (-1.0, 0.0, math.sqrt(2.0)))
    assert abs(distance(x, y) - math.acosh(2.0)) <= 1e-12
    a = math.cosh(0.5 * math.acosh(2.0))
    b = math.sinh(0.5 * math.acosh(2.0)) / math.sqrt(3.0)
    mid = geodesic_point(x, y, Fraction(1, 2))
    expected = (-b, a - 2 * b, math.sqrt(2.0) * (a - b))
    assert max(abs(u - v) for u, v in zip(mid.payload, expected)) <= 1e-9


def test_hyperbolic_geodesic_stays_on_sheet():
    space = hyperbolic(3)
    pts = sample_points(space, 8, seed=907)
    for x, y in zip(pts, pts[1:]):
        for t in (0.1, 0.5, 0.9):
            z = geodesic_point(x, y, t)
            assert abs(minkowski_form(z.payload, z.payload) + 1) <= 1e-7


# ---------------------------------------------------------------------------
# sampling helpers


def test_sample_points_deterministic(any_space):
    assert sample_points(any_space, 7, seed=123) == sample_points(any_space, 7, seed=123)
    assert sample_points(any_space, 7, seed=123) != sample_points(any_space, 7, seed=124)


def test_random_point_valid(any_space):
    rng = random.Random(3)
    for _ in range(50):
        p = random_point(any_space, rng)
        assert p.space == any_space

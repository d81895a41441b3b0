import dataclasses
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cat0 import (
    GeometryError,
    OperatorGraph,
    PairedPoint,
    Point,
    PointValidationError,
    SpaceMismatchError,
    canonical_hilbert,
    coupling_pi,
    dual_add,
    dual_norm_approx,
    dual_scale,
    dual_term,
    dual_vector,
    duals_match,
    euclidean,
    fitzpatrick_inf,
    fitzpatrick_sup,
    fitzpatrick_via_conjugate,
    geodesic_point,
    hyperbolic,
    j_map,
    make_point,
    minkowski_form,
    pair,
    pseudometric_D_approx,
    random_point,
    relatedness_gap,
    rtree,
    sample_points,
    zero_dual,
)
from cat0.dual import (
    _duals_ints,
    _points_ints,
    _Potentials,
    _combined_key,
    _potential2,
    _potentials2,
    _reads,
    _scale,
)
from cat0.spaces import ACOSH_SLACK, _BLOCK, BoundVector, dist_sq
from conftest import euclid_points, rtree_points, small_fractions
from helpers import bound_vectors_between, chain_split_check, count_dist_sq, hilbert_inner


def _bv(space, a, b):
    return BoundVector(make_point(space, a), make_point(space, b))


# ---------------------------------------------------------------------------
# the action and its linearity


def test_zero_dual_pairs_to_zero(any_space):
    pts = sample_points(any_space, 3, seed=921)
    assert pair(zero_dual(), BoundVector(pts[0], pts[1])) == 0
    stalled = dual_term(5, pts[2], pts[2])  # tail = head: acts as zero
    assert pair(stalled, BoundVector(pts[0], pts[1])) == 0
    assert stalled.is_zero


@given(euclid_points(), euclid_points(), euclid_points(), euclid_points(),
       small_fractions(), small_fractions())
def test_pairing_linear_in_coefficients(a, b, c, d, alpha, beta):
    xd = dual_term(1, a, b)
    yd = dual_term(1, c, d)
    on = BoundVector(a, d)
    combo = dual_add(dual_scale(alpha, xd), dual_scale(beta, yd))
    assert pair(combo, on) == alpha * pair(xd, on) + beta * pair(yd, on)


@given(euclid_points(), euclid_points(), euclid_points(), euclid_points())
def test_orientation_antisymmetry(a, b, x, y):
    xd = dual_term(Fraction(3, 2), a, b)
    assert pair(xd, BoundVector(x, y)) == -pair(xd, BoundVector(y, x))


def test_chain_split_identity(any_space):
    pts = sample_points(any_space, 12, seed=922)
    xd = dual_term(Fraction(1, 2), pts[0], pts[1])
    for a, b, w in zip(pts, pts[1:], pts[2:]):
        assert chain_split_check(xd, a, b, w)


def test_space_mismatch_in_terms_rejected():
    e = make_point(euclidean(2), (0, 0))
    t = make_point(rtree(), (1, Fraction(1, 2)))
    with pytest.raises(SpaceMismatchError):
        dual_vector([(1, BoundVector(e, make_point(euclidean(2), (1, 1)))),
                     (1, BoundVector(t, t))])


def test_exact_duals_reject_points_from_another_space():
    # an exact potential is read from the dual's form without any
    # distance, so the form checks the space itself, as dist_sq does
    e0, e1 = make_point(euclidean(2), (0, 0)), make_point(euclidean(2), (2, -1))
    root, leaf = make_point(rtree(), (1, 0)), make_point(rtree(), (2, Fraction(1, 2)))
    with pytest.raises(SpaceMismatchError):
        pair(dual_term(1, e0, e1), BoundVector(root, leaf))
    for xd, z in ((dual_term(1, e0, e1), leaf), (dual_term(1, root, leaf), e1)):
        with pytest.raises(SpaceMismatchError):
            _potential2(xd, z)


# ---------------------------------------------------------------------------
# canonical Euclidean form


def test_canonical_hilbert_single_term():
    space = euclidean(3)
    a = make_point(space, (1, 0, 2))
    b = make_point(space, (4, -1, 2))
    xd = dual_term(Fraction(1, 2), a, b)
    assert canonical_hilbert(xd) == (Fraction(3, 2), Fraction(-1, 2), 0)


def test_canonical_hilbert_combines_terms():
    space = euclidean(2)
    xd = dual_add(
        dual_term(2, make_point(space, (0, 0)), make_point(space, (1, 0))),
        dual_term(-1, make_point(space, (0, 0)), make_point(space, (0, 3))),
    )
    assert canonical_hilbert(xd) == (2, -3)
    assert canonical_hilbert(zero_dual(), dim=2) == (0, 0)


@given(euclid_points(), euclid_points(), euclid_points(), euclid_points())
def test_euclidean_action_is_inner_product(a, b, x, y):
    xd = dual_term(Fraction(2, 3), a, b)
    got = pair(xd, BoundVector(x, y))
    vec = canonical_hilbert(xd)
    diff = tuple(v - u for u, v in zip(x.payload, y.payload))
    assert got == hilbert_inner(vec, diff)


# ---------------------------------------------------------------------------
# the j embedding


def test_j_map_zero_vector_is_zero_dual():
    a = make_point(euclidean(2), (1, 1))
    assert j_map(a, Fraction(1, 2), (0, 0)).is_zero


def test_j_map_canonical_vector_independent_of_step():
    a = make_point(euclidean(2), (2, -1))
    u = (3.0, 4.0)
    for eps in (0.25, 1.0, 2.0):
        vec = canonical_hilbert(j_map(a, eps, u))
        assert max(abs(g - w) for g, w in zip(vec, u)) <= 1e-9


def test_j_map_action_matches_inner_product():
    space = euclidean(2)
    a = make_point(space, (0, 0))
    u = (1.0, 2.0)
    xd = j_map(a, 1.0, u)
    x = make_point(space, (3, 1))
    got = pair(xd, BoundVector(a, x))
    assert abs(got - hilbert_inner(u, x.payload)) <= 1e-9


def test_j_map_rejects_bad_inputs():
    a = make_point(euclidean(2), (0, 0))
    with pytest.raises(GeometryError):
        j_map(a, 0, (1, 0))
    with pytest.raises(GeometryError):
        j_map(a, 1, (1, 0, 0))
    with pytest.raises(GeometryError):
        j_map(make_point(rtree(), (1, 0)), 1, (1,))


# ---------------------------------------------------------------------------
# approximation bounds


def test_dual_norm_approx_lower_bound_and_attainment():
    space = euclidean(2)
    a = make_point(space, (0, 0))
    b = make_point(space, (3, 4))
    xd = dual_term(Fraction(1, 2), a, b)  # canonical vector (3/2, 2), norm 5/2
    closed = 2.5
    neg = make_point(space, (-3, -4))
    aligned = [(a, b, a, neg)]
    got = dual_norm_approx(xd, aligned)
    assert abs(got - closed) <= 1e-9
    # growing the candidate set never decreases the bound, never passes closed form
    more = aligned + [(a, make_point(space, (1, 0)), a, make_point(space, (0, 1)))]
    assert dual_norm_approx(xd, more) >= got - 1e-12
    assert dual_norm_approx(xd, more) <= closed + 1e-9


def test_dual_norm_approx_edge_cases():
    space = euclidean(2)
    a = make_point(space, (0, 0))
    xd = dual_term(1, a, make_point(space, (1, 0)))
    assert dual_norm_approx(xd, []) == 0
    with pytest.raises(GeometryError):
        dual_norm_approx(xd, [(a, a, a, a)])


def test_pseudometric_matches_hilbert_difference_norm():
    # D(t[a,b], s[c,d]) in Hilbert space is ||t(b-a) - s(d-c)||; an
    # aligned probe pair attains it, every probe set stays below it
    space = euclidean(2)
    a, b = make_point(space, (0, 0)), make_point(space, (2, 0))
    c, d = make_point(space, (1, 1)), make_point(space, (1, 4))
    t, s = Fraction(3, 2), Fraction(1, 2)
    w = tuple(
        t * (bb - aa) - s * (dd - cc)
        for aa, bb, cc, dd in zip(a.payload, b.payload, c.payload, d.payload)
    )
    closed = math.sqrt(float(hilbert_inner(w, w)))
    head = make_point(space, w)
    got = pseudometric_D_approx(t, a, b, s, c, d, [(head, make_point(space, (0, 0)))])
    assert abs(got - closed) <= 1e-9
    rng = random.Random(923)
    pts = [make_point(space, (rng.randint(-3, 3), rng.randint(-3, 3))) for _ in range(8)]
    pairs = [(p, q) for p in pts for q in pts if p != q]
    assert pseudometric_D_approx(t, a, b, s, c, d, pairs) <= closed + 1e-9


def test_pseudometric_j_embedding_recovers_distance():
    # D(j_a(x), j_a(y)) = ||x - y|| when the probe pair aligns with x - y
    space = euclidean(2)
    a = make_point(space, (0, 0))
    x, y = (6.0, 0.0), (0.0, 8.0)
    jx, jy = j_map(a, 1.0, x), j_map(a, 1.0, y)
    (tx, bvx), = jx.terms
    (ty, bvy), = jy.terms
    w = tuple(xi - yi for xi, yi in zip(x, y))
    probe = (make_point(space, w), a)
    got = pseudometric_D_approx(
        tx, bvx.tail, bvx.head, ty, bvy.tail, bvy.head, [probe]
    )
    assert abs(got - 10.0) <= 1e-9


def test_pseudometric_requires_probes():
    space = euclidean(2)
    a, b = make_point(space, (0, 0)), make_point(space, (1, 0))
    with pytest.raises(GeometryError):
        pseudometric_D_approx(1, a, b, 1, a, b, [])
    with pytest.raises(GeometryError):
        pseudometric_D_approx(1, a, b, 1, a, b, [(a, a)])


# ---------------------------------------------------------------------------
# behavioral equality


def test_split_term_acts_identically(any_space):
    # [1 (a,b)] and [1 (a,w)] + [1 (w,b)] are the same functional
    pts = sample_points(any_space, 8, seed=924)
    a, b, w = pts[0], pts[1], pts[2]
    whole = dual_term(1, a, b)
    split = dual_add(dual_term(1, a, w), dual_term(1, w, b))
    assert duals_match(whole, split, tol=1e-7)
    assert not duals_match(whole, dual_term(1, a, w), tol=1e-7)


def test_duals_match_euclidean_uses_canonical_form():
    space = euclidean(2)
    a = make_point(space, (0, 0))
    one = dual_term(2, a, make_point(space, (1, 1)))
    other = dual_term(1, a, make_point(space, (2, 2)))
    assert duals_match(one, other)
    assert not duals_match(one, dual_term(1, a, make_point(space, (2, 3))))
    assert duals_match(zero_dual(), zero_dual())
    assert duals_match(zero_dual(), dual_term(1, a, a))


def _on_curve(space, s):
    """The point at arc length s on the sheet's curve (sinh s, 0, ..., cosh s)."""
    return make_point(space, (math.sinh(s),) + (0.0,) * (space.dim - 1) + (math.cosh(s),))


def test_hyperbolic_line_duals_match_by_arc_length():
    # on H^1 the action is affine in arc length: equal spans act alike,
    # although the net weights sit on four different points
    h1 = hyperbolic(1)
    ab = dual_term(1.0, _on_curve(h1, 0.0), _on_curve(h1, 1.0))
    cd = dual_term(1.0, _on_curve(h1, 2.0), _on_curve(h1, 3.0))
    assert duals_match(ab, cd, tol=1e-9)
    assert not duals_match(ab, dual_term(1.0, _on_curve(h1, 2.0), _on_curve(h1, 3.5)), tol=1e-9)


def test_exact_far_points_on_the_hyperbolic_line_have_an_action():
    # x = (sinh t, cosh t) exactly at t = 400 ln 10: its arc length
    # asinh(x_0) = t is a float, though x_0 is too large for one
    n = 10 ** 400
    h1 = hyperbolic(1)
    x = make_point(h1, (Fraction(n * n - 1, 2 * n), Fraction(n * n + 1, 2 * n)))
    apex = make_point(h1, (0, 1))
    assert not duals_match(dual_term(1, x, apex), zero_dual())
    far = make_point(h1, (-x.payload[0], x.payload[1]))
    assert duals_match(dual_term(1, far, apex), dual_term(1, apex, x))
    assert not duals_match(dual_term(2, far, x), dual_term(1, apex, x))
    assert duals_match(dual_term(Fraction(1, 2), far, x), dual_term(1, apex, x))


def test_hyperbolic_plane_duals_differ_by_where_they_sit():
    # the same two duals on one geodesic of H^2 act differently
    h2 = hyperbolic(2)
    ab = dual_term(1.0, _on_curve(h2, 0.0), _on_curve(h2, 1.0))
    cd = dual_term(1.0, _on_curve(h2, 2.0), _on_curve(h2, 3.0))
    assert not duals_match(ab, cd, tol=1e-9)
    v = BoundVector(_on_curve(h2, 0.0), make_point(h2, (0.0, 1.0, math.sqrt(2.0))))
    assert abs(pair(ab, v) - pair(cd, v)) > 0.1


def test_near_coincident_hyperbolic_endpoints_merge_within_tol():
    h2 = hyperbolic(2)
    tol = 1e-6
    a, b = _on_curve(h2, 0.5), _on_curve(h2, 1.5)
    assert duals_match(dual_term(3.0, a, _on_curve(h2, 0.5 + tol / 2)), zero_dual(), tol)
    assert not duals_match(dual_term(3.0, a, _on_curve(h2, 0.5 + 10 * tol)), zero_dual(), tol)
    # a tail moved by tol / 2 merges with the original, by 10 tol it does not
    ab = dual_term(1.0, a, b)
    assert duals_match(ab, dual_term(1.0, _on_curve(h2, 0.5 + tol / 2), b), tol)
    assert not duals_match(ab, dual_term(1.0, _on_curve(h2, 0.5 + 10 * tol), b), tol)


def test_float_tree_duals_differing_only_on_far_branches():
    # root -> (7, 1) and root -> (8, 1) agree on every branch but 7 and 8
    tree = rtree()
    root = make_point(tree, (1, 0.0))
    seven = dual_term(1.0, root, make_point(tree, (7, 1.0)))
    eight = dual_term(1.0, root, make_point(tree, (8, 1.0)))
    assert seven.key is None and not duals_match(seven, eight)
    assert duals_match(seven, dual_term(-1.0, make_point(tree, (7, 1.0)), root))


# ---------------------------------------------------------------------------
# exact keys


def _duals(points, max_terms: int = 3):
    term = st.tuples(small_fractions(), points, points)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: dual_vector((c, BoundVector(t, h)) for c, t, h in ts)
    )


TREE_POINTS = rtree_points(branches=6, denom=4)


@st.composite
def _same_action(draw, xd, points=TREE_POINTS):
    """xd rewritten without changing its action: flipped, split, padded."""
    terms = []
    for c, bv in xd.terms:
        how = draw(st.sampled_from(("keep", "flip", "split")))
        if how == "flip":
            terms.append((-c, BoundVector(bv.head, bv.tail)))
        elif how == "split":
            w = draw(points)
            terms += [(c, BoundVector(bv.tail, w)), (c, BoundVector(w, bv.head))]
        else:
            terms.append((c, bv))
    if draw(st.booleans()):
        c, a, b = draw(small_fractions()), draw(points), draw(points)
        terms += [(c, BoundVector(a, b)), (c, BoundVector(b, a))]
    return dual_vector(draw(st.permutations(terms)))


@given(st.data())
def test_tree_key_equal_exactly_when_actions_equal(data):
    # both duals are affine on each branch with one value at the root, so
    # root -> (k, 1) over the touched branches and one untouched branch
    # decides whether they act alike
    a = data.draw(_duals(TREE_POINTS))
    b = data.draw(st.one_of(_duals(TREE_POINTS), _same_action(a)))
    branches = {pt.payload[0] for xd in (a, b) for _, bv in xd.terms for pt in (bv.tail, bv.head)}
    tree = rtree()
    root = make_point(tree, (1, 0))
    vs = [BoundVector(root, make_point(tree, (k, 1))) for k in branches | {max(branches, default=1) + 1}]
    assert (a.key == b.key) == all(pair(a, v) == pair(b, v) for v in vs)


@given(_duals(euclid_points(dim=3)))
def test_euclidean_key_is_the_canonical_vector(xd):
    vec = canonical_hilbert(xd, dim=3)
    assert xd.key == (vec if any(vec) else ())
    if xd.terms:
        assert dual_scale(0.5, xd).key is None


FLOAT_SPACES = {
    "hyperbolic": (
        st.sampled_from(sample_points(hyperbolic(2), 6, seed=926)),
        sample_points(hyperbolic(2), 6, seed=927),
    ),
    "rtree_float": (
        TREE_POINTS.map(lambda pt: make_point(pt.space, (pt.payload[0], float(pt.payload[1])))),
        tuple(make_point(rtree(), (k, 0.75)) for k in range(1, 9)),
    ),
}


def _float_duals(points):
    term = st.tuples(small_fractions().map(float), points, points)
    return st.lists(term, max_size=3).map(
        lambda ts: dual_vector((c, BoundVector(t, h)) for c, t, h in ts)
    )


@pytest.mark.parametrize("kind", list(FLOAT_SPACES))
@given(data=st.data())
def test_float_duals_match_exactly_when_actions_agree(kind, data):
    # reference: the actions agree on every bound vector among both duals'
    # points and a fixed sample (branches past the drawn ones on the tree)
    points, sample = FLOAT_SPACES[kind]
    a = data.draw(_float_duals(points))
    b = data.draw(_same_action(a, points) if data.draw(st.booleans()) else _float_duals(points))
    pts = set(sample)
    for xd in (a, b):
        pts.update(pt for _, bv in xd.terms for pt in (bv.tail, bv.head))
    vs = bound_vectors_between(list(pts))
    agree = all(abs(pair(a, v) - pair(b, v)) <= 1e-7 for v in vs)
    assert duals_match(a, b) == agree


# ---------------------------------------------------------------------------
# potentials read from the exact form


def _direct2(xd, z):
    """2F(z) as the sum of squared distances: the reference for the form."""
    return sum(c * (dist_sq(bv.tail, z) - dist_sq(bv.head, z)) for c, bv in xd.terms)


EXACT_POINTS = {"euclidean": euclid_points(), "rtree": TREE_POINTS}


@st.composite
def _potential_cases(draw, points):
    """A dual of up to four terms, with a stalled term or a zero action added."""
    xd = draw(_duals(points, max_terms=4))
    how = draw(st.sampled_from(("plain", "stalled", "zero_action", "shifted")))
    if how == "stalled":
        a = draw(points)
        xd = dual_add(xd, dual_term(draw(small_fractions()), a, a))
    elif how == "zero_action":
        xd = dual_add(xd, dual_scale(-1, draw(_same_action(xd, points))))
    elif how == "shifted" and xd.space is not None and xd.space.kind == "euclidean":
        # xd minus a translate of itself acts as zero but has a nonzero
        # constant potential
        shift = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
        moved = lambda pt: make_point(pt.space, tuple(a + s for a, s in zip(pt.payload, shift)))
        xd = dual_add(xd, dual_vector((-c, BoundVector(moved(bv.tail), moved(bv.head)))
                                      for c, bv in xd.terms))
    return xd


def _off_grid(pt):
    """pt moved off its exact grid to float coordinates (the tree keeps its branch)."""
    if pt.space.kind == "rtree":
        return make_point(pt.space, (pt.payload[0], float(pt.payload[1]) * 0.9))
    return make_point(pt.space, tuple(float(a) + 0.1 for a in pt.payload))


def _size2(xd, z):
    """The sum of the sizes of the squared distances that _direct2 adds at z."""
    return sum(abs(c) * (dist_sq(bv.tail, z) + dist_sq(bv.head, z)) for c, bv in xd.terms)


@pytest.mark.parametrize("kind", list(EXACT_POINTS))
@given(data=st.data())
def test_exact_potentials_equal_the_squared_distance_sum(kind, data):
    # every formula reads a dual's potentials as differences of its own
    # values, 2F(z) - 2F(w), so the form is checked on those: exactly at
    # exact points, within rounding at float points
    points = EXACT_POINTS[kind]
    xd = data.draw(_potential_cases(points))
    assert xd.key is not None
    w, *zs = [data.draw(points), data.draw(points)]
    if kind == "rtree":
        # the root, and a branch no endpoint touches (TREE_POINTS stop at 6)
        zs += [make_point(rtree(), (1, 0)), make_point(rtree(), (9, Fraction(1, 3)))]
    for z in zs:
        assert _potential2(xd, z) - _potential2(xd, w) == _direct2(xd, z) - _direct2(xd, w)
        zf, wf = _off_grid(z), _off_grid(w)
        size = _size2(xd, zf) + _size2(xd, wf)
        got = _potential2(xd, zf) - _potential2(xd, wf)
        assert abs(got - (_direct2(xd, zf) - _direct2(xd, wf))) <= 1e-12 * (1 + size)


@pytest.mark.parametrize("kind", list(EXACT_POINTS))
@given(data=st.data())
def test_duals_with_one_key_have_one_potential(kind, data):
    # a flipped term with its sign flipped, a term split at a point, a
    # cancelling pair: structurally different, one key, and the same
    # potential bit for bit, at float points too
    points = EXACT_POINTS[kind]
    xd = data.draw(_potential_cases(points))
    yds = [data.draw(_same_action(xd, points))]
    if xd.terms:
        (c, bv), rest = xd.terms[0], xd.terms[1:]
        m = geodesic_point(bv.tail, bv.head, Fraction(1, 2))
        yds.append(dual_vector(((c, BoundVector(bv.tail, m)), (c, BoundVector(m, bv.head))) + rest))
    zs = [data.draw(points) for _ in range(3)]
    zs += [_off_grid(z) for z in zs]
    for yd in yds:
        assert yd.key == xd.key
        for z in zs:
            assert repr(_potential2(yd, z)) == repr(_potential2(xd, z))
        assert list(map(repr, _potentials2((yd,), zs))) == list(map(repr, _potentials2((xd,), zs)))


# An exact dual at points with float coordinates: a graph member sits at a
# float point, the basepoint or the query's point is exact. Values are
# (relatedness_gap(a, b), coupling_pi(p, q), the transform of {a, b} at q),
# each in closed form; reading the form at exact points and a potential
# with another constant at float points gives other numbers.
MIXED = {
    "euclidean": (
        (euclidean(2), ((0, 0), 1, (1, 0), (3, 1)), ((0.5, 0.25), 2, (1, 1), (0, 2)),
         (Fraction(1, 3), 0), ((0.25, 1.5), 1, (2, 2), (1, 0))),
        (Fraction(-7, 4), Fraction(-35, 12), Fraction(7, 3)),
    ),
    "rtree": (
        (rtree(), ((1, Fraction(1, 2)), 1, (2, 1), (3, 1)), ((2, 0.75), 2, (1, 1), (2, Fraction(1, 3))),
         (3, Fraction(1, 4)), ((3, 0.5), 1, (1, 1), (2, Fraction(1, 2)))),
        (Fraction(29, 6), Fraction(1, 8), Fraction(1, 8)),
    ),
}


def _mixed_instance(space, a, b, p, q):
    """(space, a, b, p, q) with the pairs made from (x, coeff, tail, head)."""
    def paired(x, c, tail, head):
        return PairedPoint(make_point(space, x), dual_term(c, make_point(space, tail), make_point(space, head)))
    return space, paired(*a), paired(*b), make_point(space, p), paired(*q)


def _mixed_values(space, a, b, p, q):
    g = OperatorGraph(space, (a, b))
    transforms = [f(g, p, q).value for f in (fitzpatrick_sup, fitzpatrick_inf, fitzpatrick_via_conjugate)]
    return relatedness_gap(a, b), coupling_pi(p, q), transforms


@pytest.mark.parametrize("kind", list(MIXED))
def test_exact_duals_at_float_points_keep_their_values(kind):
    instance, (gap, coupling, transform) = MIXED[kind]
    got_gap, got_coupling, transforms = _mixed_values(*_mixed_instance(*instance))
    assert math.isclose(got_gap, gap, rel_tol=1e-12)
    assert math.isclose(got_coupling, coupling, rel_tol=1e-12)
    for t in transforms:
        assert math.isclose(t, transform, rel_tol=1e-12)


@pytest.mark.parametrize("kind", list(MIXED))
def test_exact_duals_at_float_points_compute_no_squared_distance(kind, monkeypatch):
    instance, _ = MIXED[kind]
    space, a, b, p, q = _mixed_instance(*instance)
    assert all(d.key is not None for d in (a.xd, b.xd, q.xd))
    squares = count_dist_sq(monkeypatch)
    _mixed_values(space, a, b, p, q)
    assert squares[0] == 0


KERNEL_POINTS = {
    "euclidean": euclid_points(),
    "rtree": TREE_POINTS,
    "hyperbolic": FLOAT_SPACES["hyperbolic"][0],
}


def _floated(pt):
    """pt with float coordinates (the tree keeps its branch); the hyperboloid's already are."""
    if pt.space.kind == "rtree":
        return make_point(pt.space, (pt.payload[0], float(pt.payload[1])))
    return make_point(pt.space, tuple(float(a) for a in pt.payload))


@pytest.mark.parametrize("kind", list(KERNEL_POINTS))
@given(data=st.data())
def test_batched_kernel_equals_the_one_point_potential(kind, data):
    # exact, float and zero duals at exact and float points, endpoints
    # among them: each batched value equals _potential2's, type included
    exact = KERNEL_POINTS[kind]
    points = st.one_of(exact, exact.map(_floated))
    duals = data.draw(st.lists(st.one_of(_duals(points), _float_duals(points)), min_size=1, max_size=4))
    zs = data.draw(st.lists(points, min_size=1, max_size=4))
    zs += [bv.tail for xd in duals for _, bv in xd.terms][:2]
    for xd in duals:
        assert list(map(repr, _potentials2((xd,), zs))) == [repr(_potential2(xd, z)) for z in zs]
    for z in zs:
        assert list(map(repr, _potentials2(duals, (z,)))) == [repr(_potential2(xd, z)) for xd in duals]


@pytest.mark.parametrize("kind", list(KERNEL_POINTS))
@given(data=st.data())
def test_every_call_shape_gives_the_one_point_potential(kind, data):
    # one dual at n points, n duals at one point, each dual at its own
    # point and one dual at one point, with exact, float and zero duals
    # at exact and float points; the kernel reads them itself, or their
    # reads with the points in two batches: each value is _potential2's,
    # type included, or on a scale its value times sv sz as an int
    exact = KERNEL_POINTS[kind]
    points = st.one_of(exact, exact.map(_floated))
    n = data.draw(st.integers(2, 4))
    duals = st.one_of(st.just(zero_dual()), _duals(points), _float_duals(points))
    xds = data.draw(st.lists(duals, min_size=n, max_size=n))
    zs = data.draw(st.lists(points, min_size=n, max_size=n))
    cut = data.draw(st.integers(0, n))
    for ds, ps in (((xds[0],), zs), (xds, (zs[0],)), (xds, zs), ((xds[0],), (zs[0],))):
        want = [_potential2(ds[j % len(ds)], ps[j % len(ps)]) for j in range(max(len(ds), len(ps)))]
        assert list(map(repr, _potentials2(ds, ps))) == list(map(repr, want))
        scale, read = _reads(zs[0].space, (1, 1), ds, ps[:cut], ps[cut:])
        got = _potentials2(ds, ps, scale, read)
        if scale is None:
            assert list(map(repr, got)) == list(map(repr, want))
        else:
            assert got == [v * scale[0] * scale[1] for v in want] and all(type(v) is int for v in got)


def _acosh_sq(x, z):
    """acosh(-<x,z>)^2 of two payloads through minkowski_form; 0 at x == z, 1 where it dips below."""
    if x == z:
        return 0
    d = math.acosh(max(-minkowski_form(x, z), 1.0))
    return d * d


def _reference2(xd, z):
    """2F(z) one pair at a time: sum() over the terms, in term order."""
    return sum(c * (_acosh_sq(bv.tail.payload, z.payload) - _acosh_sq(bv.head.payload, z.payload))
               for c, bv in xd.terms)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hyperbolic_potentials_sum_their_terms_in_order(dim):
    # from Python 3.12 sum() compensates float rounding, so on 3 or more
    # terms a running total can differ from it in the last bits
    rng = random.Random(dim)
    space = hyperbolic(dim)
    pool = [random_point(space, rng) for _ in range(6)]
    duals = []
    for k in range(1, 6):
        for _ in range(8):
            terms = []
            for _ in range(k):
                tail = rng.choice(pool)
                head = tail if rng.random() < 0.2 else rng.choice(pool)  # coincident endpoints
                terms.append((rng.uniform(-2, 2), BoundVector(tail, head)))
            duals.append(dual_vector(terms))
    zs = pool + [random_point(space, rng) for _ in range(4)]  # every endpoint among them
    for xd in duals:
        assert [v.hex() for v in _potentials2((xd,), zs)] == [_reference2(xd, z).hex() for z in zs]
    for z in zs:
        assert [v.hex() for v in _potentials2(duals, (z,))] == [_reference2(xd, z).hex() for xd in duals]


def test_hyperbolic_guards_hold_through_the_batch():
    space = hyperbolic(2)
    o = make_point(space, (0.0, 0.0, 1.0))
    x = make_point(space, (3.0, 4.0, math.sqrt(26.0)))
    y = make_point(space, (3.0, 4.0, math.nextafter(x.payload[2], 0)))  # one ulp below x
    m = -minkowski_form(x.payload, y.payload)
    assert x != y and 1 - ACOSH_SLACK <= m < 1
    xd = dual_term(1.0, o, x)
    assert dist_sq(x, y) == dist_sq(y, x) == 0.0
    assert _potentials2((xd,), [y]) == _potentials2([xd], (y,)) == [dist_sq(o, y)]
    assert _potentials2((dual_term(1.0, x, o),), [y] * _BLOCK) == [-dist_sq(o, y)] * _BLOCK  # in a block

    off_sheet = Point(space, (0.0, 0.0, 0.5))  # -<off_sheet, o> = 0.5
    message = re.escape("arccosh argument 0.5 below 1 by more than 1e-12; "
                        "inputs are not valid hyperboloid points")
    with pytest.raises(PointValidationError, match=message):
        dist_sq(off_sheet, o)
    with pytest.raises(PointValidationError, match=message):
        _potentials2((xd,), [o, off_sheet])
    with pytest.raises(PointValidationError, match=message):
        _potentials2((xd,), [o] * _BLOCK + [off_sheet])
    with pytest.raises(PointValidationError, match=message):
        _potentials2([xd, dual_term(1.0, off_sheet, x)], (o,))


# ---------------------------------------------------------------------------
# the kernel on an integer scale


@st.composite
def _scaled_instance(draw, kind):
    """(duals, points), as many of each, exact, the coefficients over larger denominators than the coordinates.

    Coordinates over 1, 2 or 3 and coefficients over 1, 5, 7 or 35, or
    ints alone; zero duals, stalled terms and zero actions among the
    duals, whose endpoints are drawn from the points and a few more.
    """
    ints = draw(st.booleans())

    def number(dens, lo=-6, hi=6):
        d = draw(st.sampled_from((1,) if ints else dens))
        v = Fraction(draw(st.integers(lo * d, hi * d)), d)
        return int(v) if v.denominator == 1 and draw(st.booleans()) else v

    space = euclidean(2) if kind == "euclidean" else rtree()

    def point():
        if kind == "euclidean":
            return make_point(space, (number((1, 2, 3)), number((1, 2, 3))))
        return make_point(space, (draw(st.integers(1, 4)), number((1, 2, 3, 6), 0, 1)))

    zs = [point() for _ in range(draw(st.integers(1, 5)))]
    ends = st.sampled_from(zs + [point() for _ in range(draw(st.integers(0, 2)))])
    duals = []
    for _ in zs:
        terms = [(number((1, 5, 7, 35)), BoundVector(draw(ends), draw(ends)))
                 for _ in range(draw(st.integers(0, 3)))]
        how = draw(st.sampled_from(("plain", "stalled", "zero_action")))
        if how == "stalled":
            a = draw(ends)
            terms.append((number((1, 5, 7, 35)), BoundVector(a, a)))
        elif how == "zero_action":
            terms += [(c, BoundVector(bv.head, bv.tail)) for c, bv in terms]
        duals.append(dual_vector(terms))
    return duals, zs


@pytest.mark.parametrize("kind", ["euclidean", "rtree"])
@given(data=st.data())
def test_the_kernel_on_a_scale_gives_the_potentials_times_the_scale(kind, data):
    # each call shape of the kernel on the scale (sv, sz) of its duals and points,
    # reading them as int columns, one side a one-item read where it
    # holds one: 2F sv sz of each dual at each point, as ints,
    # _potential2's value times sv sz exactly
    xds, zs = data.draw(_scaled_instance(kind))
    duals, points = _duals_ints(zs[0].space, xds), _points_ints(zs[0].space, zs)
    scale = _scale(duals[0], points[0])
    sv, sz = scale
    want = [[_potential2(xd, z) * sv * sz for z in zs] for xd in xds]
    for i, (xd, row) in enumerate(zip(xds, want)):
        got = _potentials2((xd,), zs, scale, ([col[i:i + 1] for col in duals], [points]))
        assert got == row and all(type(v) is int for v in got)
    for j, z in enumerate(zs):
        got = _potentials2(xds, (z,), scale, (duals, [[col[j:j + 1] for col in points]]))
        assert got == [row[j] for row in want] and all(type(v) is int for v in got)
    got = _potentials2(xds, zs, scale, (duals, [points]))
    assert got == [row[j] for j, row in enumerate(want)] and all(type(v) is int for v in got)


# ---------------------------------------------------------------------------
# keys of convex combinations


COMBINATION_SPACES = {"euclidean": euclidean(2), "rtree": rtree()}


@st.composite
def _cancelling(draw, a, lam, points):
    """b with (1 - lam) a + lam b = lam e for a one-term e: a's branch slopes cancel."""
    e = draw(_duals(points, max_terms=1))
    if lam in (0, 1):
        return e
    return dual_add(dual_scale(-(1 - lam) / lam, draw(_same_action(a, points))), e)


@pytest.mark.parametrize("kind", list(COMBINATION_SPACES))
@given(data=st.data())
def test_combined_key_is_the_key_of_the_combination(kind, data):
    # the key of (1 - lam) a + lam b read from the keys of a and b, with
    # zero duals, zero actions and combinations that cancel a branch slope
    points = EXACT_POINTS[kind]
    lam = data.draw(st.sampled_from((0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1)))
    a = data.draw(st.one_of(st.just(zero_dual()), _duals(points)))
    b = data.draw(st.one_of(st.just(zero_dual()), _duals(points), _cancelling(a, lam, points)))
    combo = dual_add(dual_scale(1 - lam, a), dual_scale(lam, b))
    assert _combined_key(COMBINATION_SPACES[kind], lam, a.key, b.key) == combo.key


# ---------------------------------------------------------------------------
# the kept hash


def _two_spellings(space, a, b):
    """The same one-term dual built twice from separately made points."""
    return [dual_term(Fraction(1, 2), make_point(space, a), make_point(space, b)) for _ in range(2)]


@pytest.mark.parametrize("space, a, b", [
    (euclidean(2), (0, 1), (2, 3)),
    (rtree(), (1, Fraction(1, 2)), (2, 1)),
    (hyperbolic(2), (0.0, 0.0, 1.0), (0.75, 0.0, 1.25)),
])
def test_a_dual_keeps_its_hash_outside_its_fields(space, a, b):
    xd, yd = _two_spellings(space, a, b)
    assert xd is not yd and xd == yd
    assert hash(xd) == hash(yd) == hash((xd.terms,))
    assert xd.__dict__["_hash"] == hash(xd)
    object.__setattr__(yd, "_hash", 7)
    assert hash(yd) == 7  # read back, not computed again
    object.__setattr__(yd, "_hash", hash(xd))
    # not a field: fields, repr and equality see the terms alone
    assert [f.name for f in dataclasses.fields(xd)] == ["terms"]
    assert repr(xd) == f"DualVector(terms={xd.terms!r})"
    assert xd != dual_scale(2, yd)
    # equal duals share one row of a potential table
    pot = _Potentials()
    assert pot.row(xd) is pot.row(yd)


def test_a_potential_table_numbers_nothing_after_it_starts():
    # the scale and the columns cover only what was numbered before start
    e2 = euclidean(2)
    a, b, c = (make_point(e2, v) for v in [(0, 1), (Fraction(1, 2), 3), (5, 7)])
    xd = dual_term(1, a, b)
    pot = _Potentials()
    za, row = pot.point(a), pot.row(xd)
    pot.start()
    assert pot.scale == (2, 1)  # the key (1/2, 2) over the point (0, 1)
    assert pot.point(make_point(e2, (0, 1))) == za and pot.row(dual_term(1, a, b)) is row
    with pytest.raises(AssertionError, match="after start"):
        pot.point(c)
    with pytest.raises(AssertionError, match="after start"):
        pot.row(dual_term(1, a, c))


TOLS = st.one_of(
    st.sampled_from([1e-9, 1e-7, 0.0, -0.0, -1e-9, -2.5, 5e-324, 1e300, 0, 3, Fraction(-7, 3)]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10 ** 40, 10 ** 40),
    st.fractions(),
)


@given(tol=TOLS, sv=st.integers(1, 10 ** 30), sz=st.integers(1, 10 ** 30))
def test_a_scaled_bound_is_the_floor_of_the_exact_product(tol, sv, sz):
    # the table's bound on a scale is read from tol's integer ratio; it
    # must be the floor of 2 tol sv sz taken on the exact Fraction
    pot = _Potentials()
    pot.scale = (sv, sz)
    bound = pot.bound(tol)
    assert type(bound) is int
    assert bound == math.floor(2 * sv * sz * Fraction(tol))


def test_a_pickled_dual_hashes_again_on_load():
    # str hashes are salted per process, so a kept hash must not travel
    xd = dual_term(1, make_point(euclidean(2), (0, 1)), make_point(euclidean(2), (2, 3)))
    hash(xd)
    assert "_hash" not in xd.__getstate__()
    back = pickle.loads(pickle.dumps(xd))
    assert "_hash" not in back.__dict__
    assert back == xd and hash(back) == hash(xd)
    assert back.__dict__["_hash"] == hash(xd)

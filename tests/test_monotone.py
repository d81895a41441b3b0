import itertools
import math
import random
from fractions import Fraction

import pytest

from cat0 import (
    DEFAULT_LAMBDA_GRID,
    GeometryError,
    OperatorGraph,
    SpaceMismatchError,
    PairedPoint,
    dist_sq,
    dual_scale,
    dual_term,
    euclidean,
    f_property_check,
    flatness_check,
    geodesic_point,
    hyperbolic,
    is_maximal_relative,
    is_monotone,
    level_set_report,
    make_point,
    monotone_polar,
    monotonically_related,
    pair,
    pair_in,
    relatedness_gap,
    rtree,
    sample_points,
    zero_dual,
)
import cat0.conjugate
import cat0.dual
import cat0.fitzpatrick
import cat0.monotone
from cat0.dual import _potential2
from cat0.spaces import BoundVector
from helpers import (
    ORIGIN2,
    count_calls,
    count_dist_sq,
    count_potentials,
    greedy_monotone_subset,
    grid_points,
    maximal_relative_graph,
    small_universe,
    vector_dual,
)

E2 = euclidean(2)


def _pp(x_coords, vec):
    return PairedPoint(make_point(E2, x_coords), vector_dual(E2, vec))


# ---------------------------------------------------------------------------
# relatedness


def test_relatedness_gap_symmetric(any_space):
    pts = sample_points(any_space, 6, seed=931)
    q1 = PairedPoint(pts[0], dual_term(1, pts[1], pts[2]))
    q2 = PairedPoint(pts[3], dual_term(Fraction(1, 2), pts[4], pts[5]))
    assert abs(relatedness_gap(q1, q2) - relatedness_gap(q2, q1)) <= 1e-9
    assert monotonically_related(q1, q2) == monotonically_related(q2, q1)


def test_relatedness_boundary_counts_as_related():
    # identical duals anywhere have gap exactly 0: the boundary case
    q1 = _pp((0, 0), (1, 0))
    q2 = _pp((3, 3), (1, 0))
    assert relatedness_gap(q1, q2) == 0
    assert monotonically_related(q1, q2)
    # a one-sided dual against the zero dual reads off the step directly
    q3 = _pp((3, 0), (1, 0))
    q4 = PairedPoint(make_point(E2, (0, 0)), zero_dual())
    assert relatedness_gap(q3, q4) == 3


def test_increasing_euclidean_operator_is_monotone():
    # x maps to the dual with canonical vector x: the identity operator
    pairs = tuple(
        PairedPoint(make_point(E2, c), vector_dual(E2, c))
        for c in ((0, 0), (1, 0), (0, 2), (-1, 1))
    )
    rep = is_monotone(OperatorGraph(E2, pairs))
    assert rep.holds and rep.witness is None


def test_decreasing_euclidean_operator_is_not_monotone():
    pairs = (
        PairedPoint(make_point(E2, (0, 0)), vector_dual(E2, (0, 0))),
        PairedPoint(make_point(E2, (1, 0)), vector_dual(E2, (-2, 0))),
    )
    rep = is_monotone(OperatorGraph(E2, pairs))
    assert not rep.holds
    assert rep.witness is not None


# ---------------------------------------------------------------------------
# the distance-scaling operator: x maps to [t0 * (a, x)]


def test_anchored_scaling_operator_identity(any_space):
    # <T(x) - T(y), yx->  =  t0 d(x, y)^2 in every space
    space = any_space
    pts = sample_points(space, 14, seed=932)
    a = pts[0]
    for t0 in (Fraction(1, 2), 1, 2):
        for x, y in zip(pts[1:], pts[2:]):
            qx = PairedPoint(x, dual_term(t0, a, x) if x != a else zero_dual())
            qy = PairedPoint(y, dual_term(t0, a, y) if y != a else zero_dual())
            gap = relatedness_gap(qx, qy)
            assert abs(gap - t0 * dist_sq(x, y)) <= 1e-9


def test_anchored_scaling_operator_monotone(any_space):
    space = any_space
    pts = sample_points(space, 8, seed=933)
    a = pts[0]
    graph = OperatorGraph(
        space,
        tuple(PairedPoint(x, dual_term(1, a, x)) for x in pts[1:] if x != a),
    )
    assert is_monotone(graph, tol=1e-9).holds


# ---------------------------------------------------------------------------
# polar


def test_polar_of_empty_set_is_universe():
    universe = small_universe(side=2, vec_range=1)
    assert monotone_polar([], universe) == tuple(universe)


def test_polar_antitone(rng):
    universe = small_universe(side=2, vec_range=1)
    big = maximal_relative_graph(rng, universe).pairs
    small = big[:2]
    polar_small = monotone_polar(small, universe)
    polar_big = monotone_polar(big, universe)
    assert set(polar_big) <= set(polar_small)


def test_monotone_iff_inside_own_polar(rng):
    universe = small_universe(side=2, vec_range=1)
    g = maximal_relative_graph(rng, universe)
    polar = monotone_polar(g.pairs, g.pairs)
    assert all(pair_in(q, polar) for q in g.pairs)
    bad = (
        PairedPoint(make_point(E2, (0, 0)), vector_dual(E2, (1, 0))),
        PairedPoint(make_point(E2, (1, 0)), vector_dual(E2, (-1, 0))),
    )
    bad_polar = monotone_polar(bad, bad)
    assert not all(pair_in(q, bad_polar) for q in bad)


def test_sweeps_reject_points_from_another_space():
    # zero duals never reach dist_sq, so only the sweep's own check can see this
    a = PairedPoint(make_point(E2, (0, 0)), zero_dual())
    b = PairedPoint(make_point(rtree(), (1, 0)), zero_dual())
    with pytest.raises(SpaceMismatchError):
        monotone_polar([a], [b])
    with pytest.raises(SpaceMismatchError):
        is_monotone([a, b])
    # with an empty grid no segment numbers the pair's point
    c = PairedPoint(make_point(E2, (1, 2)), dual_term(1, a.x, make_point(E2, (1, 2))))
    with pytest.raises(SpaceMismatchError):
        f_property_check([c], b.x, ())


def _grid_point(space):
    """point(a, b) for integers a, b in [-9, 9]: distinct (a, b) give distinct points."""
    if space.kind == "hyperbolic":
        def point(a, b):
            x, y = a / 4, b / 4
            return make_point(space, (x, y, math.sqrt(1 + x * x + y * y)))
    elif space.kind == "rtree":
        def point(a, b):
            return make_point(space, (a + 10, Fraction(b + 10, 20)))
    else:
        def point(a, b):
            return make_point(space, (a, b))
    return point


_GRID = [(a, b) for a in range(-9, 10) for b in range(-9, 10)]


def _scattered_universe(space, rng, n):
    """n pairs with distinct points and distinct one-term duals: no two share a point or a dual."""
    point = _grid_point(space)
    coords = rng.sample(_GRID, 3 * n)
    return tuple(
        PairedPoint(point(*coords[3 * i]), dual_term(1 + i % 3, point(*coords[3 * i + 1]), point(*coords[3 * i + 2])))
        for i in range(n)
    )


def _sweep_counts(monkeypatch, universe, graphs, p, sweeps):
    """Potentials that each sweep evaluates, as a tuple per graph.

    A sweep is called as sweep(members, g, universe, p), g the graph of the members.
    """
    space = universe[0].x.space
    potentials = count_potentials(monkeypatch)
    got = []
    for members in graphs:
        g = OperatorGraph(space, tuple(members))
        row = []
        for sweep in sweeps:
            potentials[0] = 0
            sweep(members, g, universe, p)
            row.append(potentials[0])
        got.append(tuple(row))
    return got


def _polar(members, g, universe, p):
    return monotone_polar(members, universe)


def _monotone(members, g, universe, p):
    return is_monotone(g)


def _maximal(members, g, universe, p):
    return is_maximal_relative(g, universe)


def _level(members, g, universe, p):
    return level_set_report(g, p, universe)


@pytest.mark.parametrize("space", [E2, hyperbolic(2), rtree()])
def test_sweeps_off_a_product_universe_evaluate_only_what_they_read(monkeypatch, space):
    # 40 pairs, no point or dual shared: a table filled at every (dual,
    # point) would evaluate about 40 * 41 potentials per sweep. The polar
    # test of a universe pair stops at the first member it is not related
    # to, and with it the potentials it reads.
    universe = _scattered_universe(space, random.Random(4), 40)
    graphs = [universe[:1], universe[7:8], greedy_monotone_subset(random.Random(2), universe, 2)]
    got = _sweep_counts(monkeypatch, universe, graphs, universe[5].x, (_polar, _maximal, _level))
    # (monotone_polar, is_maximal_relative, level_set_report) per graph.
    # The pairs keep their own potentials: the first sweep evaluates the
    # 40, and the later sweeps over the same universe read them. The
    # report reads no dual at p, since its gaps do not depend on p
    last = (114, 114, 154) if space.kind == "rtree" else (104, 104, 154)
    assert got == [(118, 78, 78), (78, 78, 78), last]


@pytest.mark.parametrize("space", [E2, hyperbolic(2), rtree()])
def test_level_report_evaluates_no_potential_at_its_basepoint(monkeypatch, space):
    # the level-set gaps do not depend on p, so a basepoint that is no
    # point of the universe is never read
    universe = _scattered_universe(space, random.Random(4), 40)
    used = {z for q in universe for _, bv in q.xd.terms for z in (q.x, bv.tail, bv.head)}
    p = next(z for z in map(_grid_point(space), *zip(*_GRID)) if z not in used)
    g = OperatorGraph(space, greedy_monotone_subset(random.Random(2), universe, 2))
    at_p = count_calls(monkeypatch, "_potentials2", (cat0.dual, cat0.fitzpatrick, cat0.monotone),
                       lambda xds, zs, *rest: sum(z == p for z in zs))
    count_calls(monkeypatch, "_potential2", (cat0.dual, cat0.monotone, cat0.conjugate),
                lambda xd, z: z == p, at_p)
    report = level_set_report(g, p, universe)
    assert at_p[0] == 0
    assert report.monotone and len(report.gaps) == 40


def _shared_universe(space, rng):
    """5 one-term duals with 4 pairs each, at distinct points of a pool of 6 that all duals share."""
    point = _grid_point(space)
    coords = rng.sample(_GRID, 16)
    pool = [point(*c) for c in coords[:6]]
    duals = [dual_term(1 + i % 3, point(*coords[6 + 2 * i]), point(*coords[7 + 2 * i])) for i in range(5)]
    return tuple(PairedPoint(x, xd) for xd in duals for x in rng.sample(pool, 4))


@pytest.mark.parametrize("space", [E2, hyperbolic(2), rtree()])
def test_sweeps_on_a_universe_that_shares_duals_and_points(monkeypatch, space):
    # 20 pairs on 6 points and 5 duals. A graph drawn from the universe
    # leaves pairs outside it that share a member's dual, so one row is
    # a member's and a non-member's, and pairs that share a member's point.
    universe = _shared_universe(space, random.Random(5))
    graphs = [universe[:1], universe[::4], greedy_monotone_subset(random.Random(3), universe, 3),
              universe[4:12]]
    got = _sweep_counts(monkeypatch, universe, graphs, universe[2].x, (_polar, _monotone, _maximal, _level))
    # (monotone_polar, is_monotone, is_maximal_relative, level_set_report)
    # per graph; after the first sweep every pair's own potential is kept
    second = (5, 2, 2, 10) if space.kind == "rtree" else (6, 2, 2, 10)
    assert got == [(22, 0, 2, 2), second, (9, 3, 9, 9), (7, 1, 1, 9)]


@pytest.mark.parametrize("space", [E2, hyperbolic(2), rtree()])
def test_a_second_sweep_reads_the_kept_own_potentials(monkeypatch, space):
    # the first report evaluates every pair's own potential P_q(q.x) and
    # keeps it on the pair; the second, over the same pairs, evaluates
    # everything else again and none of the owns
    universe = _shared_universe(space, random.Random(7))
    g = OperatorGraph(space, greedy_monotone_subset(random.Random(8), universe, 3))
    p = universe[3].x
    assert all(q._own is None for q in universe)
    potentials = count_potentials(monkeypatch)
    first = level_set_report(g, p, universe)
    n_first = potentials[0]
    assert all(q._own is not None for q in universe)
    potentials[0] = 0
    second = level_set_report(g, p, universe)
    # one own per (action, point) of a pair with a nonzero dual
    owns = {(q.xd.key if q.xd.key is not None else q.xd, q.x) for q in universe if q.xd.terms}
    assert potentials[0] == n_first - len(owns) > 0
    assert repr(second) == repr(first)
    assert [q._own for q in universe] == [_potential2(q.xd, q.x) for q in universe]


def test_level_report_computes_each_potential_once(monkeypatch):
    universe = small_universe(side=3)  # 9 grid points x 9 duals, 8 of them one-term
    g = OperatorGraph(E2, greedy_monotone_subset(random.Random(1), universe, 4))
    potentials = count_potentials(monkeypatch)
    # exact potentials are read from their form; a four-distance pairing
    # would read dist_sq in cat0.geometry
    squares = count_dist_sq(monkeypatch)
    report = level_set_report(g, ORIGIN2, universe)
    assert report.monotone
    # each one-term dual's potential at each grid point (the basepoint is
    # one of them) is evaluated at most once per report
    assert 0 < potentials[0] <= 8 * 9
    assert squares[0] == 0


# ---------------------------------------------------------------------------
# maximality relative to a universe


def test_maximal_requires_containment():
    universe = small_universe(side=2, vec_range=1)
    outside = PairedPoint(make_point(E2, (9, 9)), vector_dual(E2, (1, 0)))
    with pytest.raises(GeometryError):
        is_maximal_relative(OperatorGraph(E2, (outside,)), universe)


def test_polar_completion_reaches_maximality(rng):
    universe = small_universe(side=2, vec_range=1)
    for _ in range(3):
        g = maximal_relative_graph(rng, universe)
        rep = is_maximal_relative(g, universe)
        assert rep.holds, rep.witness


def test_strict_subgraph_of_maximal_is_not_maximal(rng):
    universe = small_universe(side=2, vec_range=1)
    g = maximal_relative_graph(rng, universe)
    assert len(g.pairs) >= 2
    sub = OperatorGraph(E2, g.pairs[:1])
    rep = is_maximal_relative(sub, universe)
    assert not rep.holds
    assert "extension" in rep.witness


def test_tree_tip_operator_monotone_but_not_maximal():
    # branch tips map to the pull-to-root dual anchored one branch over;
    # the (root, zero) pair extends it monotonically
    tree = rtree()
    root = make_point(tree, (1, 0))

    def tip(n):
        return make_point(tree, (n, 1))

    graph_pairs = tuple(
        PairedPoint(tip(n), dual_term(1, tip(n + 1), root)) for n in range(1, 9)
    )
    g = OperatorGraph(tree, graph_pairs)
    assert is_monotone(g).holds

    extension = PairedPoint(root, zero_dual())
    assert all(monotonically_related(extension, q) for q in graph_pairs)
    universe = graph_pairs + (extension,)
    rep = is_maximal_relative(g, universe)
    assert not rep.holds
    witness = rep.witness["extension"]
    assert witness.x == root and witness.xd.is_zero


# ---------------------------------------------------------------------------
# the two one-sided coupling-convexity properties


def test_euclidean_sets_have_both_properties(rng):
    universe = small_universe(side=2, vec_range=1)
    for _ in range(3):
        g = maximal_relative_graph(rng, universe)
        rep = f_property_check(g, ORIGIN2)
        assert rep.lower.holds and rep.upper.holds


def test_hyperbolic_witness_fails_upper_property():
    import math

    space = hyperbolic(2)
    aw = make_point(space, (1.0, 0.0, math.sqrt(2.0)))
    bw = make_point(space, (-1.0, 0.0, math.sqrt(2.0)))
    xw = make_point(space, (0.0, 1.0, math.sqrt(2.0)))
    xdw = dual_term(1.0, aw, bw)
    members = (PairedPoint(xw, xdw), PairedPoint(bw, xdw))
    rep = f_property_check(members, xw, lambda_grid=(0, Fraction(1, 2), 1))
    assert rep.lower.holds
    assert not rep.upper.holds
    w = rep.upper.witness
    assert w["lam"] == Fraction(1, 2)
    assert abs(w["along"] - 0.6816) <= 5e-4
    assert abs(w["chord"] - 0.7768) <= 5e-4


def test_negated_witness_fails_lower_property():
    import math

    space = hyperbolic(2)
    aw = make_point(space, (1.0, 0.0, math.sqrt(2.0)))
    bw = make_point(space, (-1.0, 0.0, math.sqrt(2.0)))
    xw = make_point(space, (0.0, 1.0, math.sqrt(2.0)))
    neg = dual_scale(-1, dual_term(1.0, aw, bw))
    members = (PairedPoint(xw, neg), PairedPoint(bw, neg))
    rep = f_property_check(members, xw, lambda_grid=(0, Fraction(1, 2), 1))
    assert not rep.lower.holds
    assert rep.upper.holds


def _reference_f_property(members, p, grid, tol):
    """f_property_check spelled out with one pairing per comparison."""
    dom = list(dict.fromkeys(q.x for q in members))
    rng = list(dict.fromkeys(q.xd for q in members))
    found = {"lower": None, "upper": None}
    for xd, x, y, lam in itertools.product(rng, dom, dom, grid):
        along = pair(xd, BoundVector(p, geodesic_point(x, y, lam)))
        chord = (1 - lam) * pair(xd, BoundVector(p, x)) + lam * pair(xd, BoundVector(p, y))
        for side, fails in (("lower", along > chord + tol), ("upper", along < chord - tol)):
            if found[side] is None and fails:
                found[side] = {"xd": xd, "x": x, "y": y, "lam": lam, "along": along, "chord": chord}
    return {side: (w is None, w) for side, w in found.items()}


def _f_property_cases():
    import math

    space = hyperbolic(2)
    aw = make_point(space, (1.0, 0.0, math.sqrt(2.0)))
    bw = make_point(space, (-1.0, 0.0, math.sqrt(2.0)))
    xw = make_point(space, (0.0, 1.0, math.sqrt(2.0)))
    xdw = dual_term(1.0, aw, bw)
    tree = rtree()
    tips = [make_point(tree, (k, Fraction(1, 2))) for k in (1, 2, 3)]
    grid = (0, Fraction(1, 2), 1)
    yield (PairedPoint(xw, xdw), PairedPoint(bw, xdw)), xw, grid
    yield (PairedPoint(xw, dual_scale(-1, xdw)), PairedPoint(bw, dual_scale(-1, xdw))), xw, grid
    yield tuple(PairedPoint(t, dual_term(1, tips[0], tips[2])) for t in tips), tips[1], grid
    yield greedy_monotone_subset(random.Random(1), small_universe(side=3), 4), ORIGIN2, DEFAULT_LAMBDA_GRID


def test_f_property_witnesses_equal_the_single_pairing_reference():
    for members, p, grid in _f_property_cases():
        tol = p.space.default_tol
        rep = f_property_check(members, p, grid)
        want = _reference_f_property(members, p, grid, tol)
        assert (rep.lower.holds, rep.lower.witness) == want["lower"]
        assert (rep.upper.holds, rep.upper.witness) == want["upper"]


def test_f_property_reads_each_potential_once(monkeypatch):
    members = greedy_monotone_subset(random.Random(1), small_universe(side=3), 4)
    potentials = count_potentials(monkeypatch)
    squares = count_dist_sq(monkeypatch)
    rep = f_property_check(members, ORIGIN2)
    assert rep.lower.holds and rep.upper.holds
    # one zero and one one-term dual; the one-term dual's potential at the
    # 12 distinct points (p, 3 domain points, the landing points), each
    # evaluated once from its form
    assert potentials[0] == 12
    assert squares[0] == 0


# ---------------------------------------------------------------------------
# flatness


def test_euclidean_space_is_flat():
    pts = grid_points(E2, range(-1, 2))
    triples = [(pts[0], pts[4], pts[8]), (pts[1], pts[3], pts[7])]
    rep = flatness_check(E2, triples, (0, Fraction(1, 4), Fraction(1, 2), 1))
    assert rep.holds


def test_rtree_is_not_flat():
    tree = rtree()
    x = make_point(tree, (1, Fraction(1, 2)))
    y = make_point(tree, (2, Fraction(1, 2)))
    z = make_point(tree, (3, Fraction(1, 2)))
    rep = flatness_check(tree, [(x, y, z)], (Fraction(1, 2),))
    assert not rep.holds
    assert rep.witness["t"] == Fraction(1, 2)
    assert rep.witness["lhs"] < rep.witness["rhs"]


def test_hyperbolic_is_not_flat():
    import math

    space = hyperbolic(2)
    x = make_point(space, (0.0, 1.0, math.sqrt(2.0)))
    y = make_point(space, (-1.0, 0.0, math.sqrt(2.0)))
    z = make_point(space, (1.0, 0.0, math.sqrt(2.0)))
    rep = flatness_check(space, [(x, y, z)], (Fraction(1, 2),))
    assert not rep.holds


def test_sweeps_keep_a_tol_whose_double_overflows():
    # on E^1 the relatedness gap of q1 and q2 is -2 c b^2 = -1.5e308, past
    # -tol = -1e308 but not past -2 tol, which overflows a float to -inf
    e1 = euclidean(1)
    a, b = make_point(e1, (0,)), make_point(e1, (10 ** 150,))
    c = 75 * 10 ** 6
    q1, q2 = PairedPoint(a, dual_term(c, a, b)), PairedPoint(b, dual_term(c, b, a))
    tol = 1e308
    assert -2 * tol < relatedness_gap(q1, q2) < -tol
    assert not monotonically_related(q1, q2, tol)
    rep = is_monotone([q1, q2], tol)
    assert not rep.holds and rep.witness["gap"] == relatedness_gap(q1, q2)
    assert monotone_polar([q1], [q2], tol) == ()
    g = OperatorGraph(e1, (q1,))
    assert is_maximal_relative(g, [q1, q2], tol).holds
    report = level_set_report(g, a, [q1, q2], tol)
    assert report.checks["at_most_coupling_equals_polar"]
    # an exact tol past the float range doubles as it is
    assert monotone_polar([q1], [q2], 10 ** 400) == (q2,)
    assert level_set_report(g, a, [q1, q2], 10 ** 400).checks["at_most_coupling_equals_polar"]

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cat0 import (
    DEFAULT_LAMBDA_GRID,
    NEG_INF,
    POS_INF,
    ExtReal,
    FunctionTable,
    GammaReport,
    GeometryError,
    ImproperTableError,
    OperatorGraph,
    PairedPoint,
    RepresentationPreconditionError,
    SpaceMismatchError,
    coupling_pi,
    dual_add,
    dual_scale,
    dual_term,
    dual_vector,
    euclidean,
    fenchel_conjugate_p,
    fenchel_young_check,
    fitzpatrick_sup,
    function_table,
    gamma_p_membership,
    geodesic_point,
    hyperbolic,
    make_point,
    pair,
    pair_in,
    roundtrip_check,
    rtree,
    scale,
    zero_dual,
)
from cat0.conjugate import _PairSet
from cat0.spaces import BoundVector
from conftest import rtree_points, small_fractions
from helpers import (
    ORIGIN2,
    avg_lowerbound_check,
    classical_conjugate_oracle,
    count_calls,
    count_dist_sq,
    count_potentials,
    greedy_monotone_subset,
    maximal_relative_graph,
    random_proper_table,
    small_universe,
    transform_table,
    vector_dual,
)

E2 = euclidean(2)


def _pp(x_coords, vec):
    return PairedPoint(make_point(E2, x_coords), vector_dual(E2, vec))


def _table(rows):
    from cat0 import ext

    return FunctionTable(ORIGIN2, tuple((q, ext(v)) for q, v in rows))


# ---------------------------------------------------------------------------
# tables


def test_table_duplicate_entries_rejected():
    q = _pp((0, 0), (1, 0))
    with pytest.raises(GeometryError, match="^entry 1 repeats entry 0$"):
        _table([(q, 1), (q, 2)])


def test_function_table_builder_takes_triples():
    x = make_point(E2, (1, 0))
    xd = vector_dual(E2, (0, 1))
    h = function_table(ORIGIN2, [(x, xd, Fraction(1, 3))])
    assert h.value(PairedPoint(x, xd)) == ExtReal(Fraction(1, 3))


def test_table_default_value_is_plus_infinity():
    q, other = _pp((0, 0), (1, 0)), _pp((1, 1), (0, 1))
    h = _table([(q, Fraction(1, 2))])
    assert h.value(q) == ExtReal(Fraction(1, 2))
    assert h.value(other) == POS_INF


def test_properness():
    q1, q2 = _pp((0, 0), (1, 0)), _pp((1, 1), (0, 1))
    assert _table([(q1, 1), (q2, POS_INF)]).is_proper()
    assert not _table([(q1, POS_INF)]).is_proper()
    assert not _table([(q1, 1), (q2, NEG_INF)]).is_proper()


def test_pairs_from_another_space_are_rejected_not_read_as_plus_infinity():
    # an E^1 table and a universe of one E^2 pair: a pair of another space
    # matches no entry, so it was read as +inf and dropped from every sup
    E1 = euclidean(1)
    p, a, b = (make_point(E1, (c,)) for c in (0, 1, 2))
    h = function_table(p, [(a, dual_term(1, a, b), 0)])
    universe = [_pp((0, 0), (1, 0))]
    with pytest.raises(SpaceMismatchError):
        fenchel_conjugate_p(h, p, universe, dual_term(1, a, b), a)
    with pytest.raises(SpaceMismatchError):
        gamma_p_membership(h, p, universe)
    with pytest.raises(SpaceMismatchError):
        function_table(ORIGIN2, [(a, dual_term(1, a, b), 0)])


# ---------------------------------------------------------------------------
# the coupling


def test_coupling_is_anchored_pairing():
    q = _pp((2, 1), (3, -1))
    assert coupling_pi(ORIGIN2, q) == pair(q.xd, BoundVector(ORIGIN2, q.x))
    assert coupling_pi(ORIGIN2, q) == 3 * 2 + (-1) * 1


# ---------------------------------------------------------------------------
# the conjugate


def test_conjugate_hand_computed():
    q0 = _pp((1, 0), (0, 1))
    h = _table([(q0, 3)])
    got = fenchel_conjugate_p(h, ORIGIN2, [q0], vector_dual(E2, (2, 0)),
                              make_point(E2, (0, 5)))
    assert got == ExtReal(4)  # 2 + 5 - 3


def test_conjugate_empty_universe_is_neg_inf():
    q0 = _pp((1, 0), (0, 1))
    h = _table([(q0, 3)])
    assert fenchel_conjugate_p(h, ORIGIN2, [], q0.xd, q0.x) == NEG_INF


def test_conjugate_skips_plus_inf_rows():
    q0, q1 = _pp((1, 0), (0, 1)), _pp((0, 1), (1, 0))
    h = _table([(q0, 3), (q1, POS_INF)])
    with_inf = fenchel_conjugate_p(h, ORIGIN2, [q0, q1], q0.xd, q0.x)
    without = fenchel_conjugate_p(h, ORIGIN2, [q0], q0.xd, q0.x)
    assert with_inf == without


def test_conjugate_rejects_minus_inf_rows():
    q0 = _pp((1, 0), (0, 1))
    h = _table([(q0, NEG_INF)])
    with pytest.raises(ImproperTableError):
        fenchel_conjugate_p(h, ORIGIN2, [q0], q0.xd, q0.x)


def test_conjugate_monotone_under_universe_growth(rng):
    h = random_proper_table(rng, E2, 6)
    query = _pp((1, 1), (1, -1))
    small = h.domain[:3]
    big = h.domain
    lo = fenchel_conjugate_p(h, ORIGIN2, small, query.xd, query.x)
    hi = fenchel_conjugate_p(h, ORIGIN2, big, query.xd, query.x)
    assert lo <= hi


def test_conjugate_order_reversal(rng):
    # h <= g pointwise implies conjugate(h) >= conjugate(g)
    g = random_proper_table(rng, E2, 6)
    h = FunctionTable(g.p, tuple((q, v + ExtReal(-1)) for q, v in g.entries))
    query = _pp((0, 1), (2, 0))
    ch = fenchel_conjugate_p(h, ORIGIN2, h.domain, query.xd, query.x)
    cg = fenchel_conjugate_p(g, ORIGIN2, g.domain, query.xd, query.x)
    assert ch >= cg


# ---------------------------------------------------------------------------
# inequalities on random proper tables


def test_fenchel_young_every_pair(rng):
    for _ in range(20):
        h = random_proper_table(rng, E2, rng.randint(3, 8))
        for q1 in h.domain:
            for q2 in h.domain:
                assert fenchel_young_check(h, ORIGIN2, q1, q2)


def test_fenchel_young_requires_proper_table():
    q0 = _pp((1, 0), (0, 1))
    h = _table([(q0, POS_INF)])
    with pytest.raises(ImproperTableError):
        fenchel_young_check(h, ORIGIN2, q0, q0)


def test_average_lower_bound(rng):
    for _ in range(20):
        h = random_proper_table(rng, E2, rng.randint(3, 8))
        assert avg_lowerbound_check(h, ORIGIN2, h.domain)


def test_average_lower_bound_rejects_a_table_infinite_on_the_universe():
    # the universe misses the table's domain: h is +inf at every universe
    # pair, its conjugate is -inf, and h + h*_p is +inf + (-inf)
    h = _table([(_pp((1, 0), (0, 1)), 0)])
    with pytest.raises(ImproperTableError, match=r"\+inf on every universe pair"):
        avg_lowerbound_check(h, ORIGIN2, [_pp((2, 0), (0, 1))])


def test_average_lower_bound_reads_each_potential_once(monkeypatch):
    h = random_proper_table(random.Random(3), E2, 8)  # 8 points, 7 one-term duals
    potentials = count_potentials(monkeypatch)
    squares = count_dist_sq(monkeypatch)
    assert avg_lowerbound_check(h, ORIGIN2, h.domain)
    # each dual's potential at each table point and at p, evaluated once
    # from its form
    assert potentials[0] == 7 * 9
    assert squares[0] == 0


# ---------------------------------------------------------------------------
# membership in the representable class


def test_transform_table_passes_membership(rng):
    universe = small_universe(side=2, vec_range=1)
    g = maximal_relative_graph(rng, universe)
    h = transform_table(g, ORIGIN2, universe)
    report = gamma_p_membership(h, ORIGIN2, universe)
    assert report.holds
    assert report.proper and report.convexity_holds and report.fixed_point_holds
    assert report.worst_defect <= 1e-9


def test_certified_tables_dominate_the_coupling(rng):
    # membership forces h >= pi_p across the whole universe
    universe = small_universe(side=2, vec_range=1)
    g = maximal_relative_graph(rng, universe)
    h = transform_table(g, ORIGIN2, universe)
    assert gamma_p_membership(h, ORIGIN2, universe).holds
    for q in universe:
        assert h.value(q) >= ExtReal(coupling_pi(ORIGIN2, q)) + ExtReal(-1e-9)


def test_coupling_minus_one_fails_membership():
    universe = small_universe(side=2, vec_range=1)
    h = FunctionTable(
        ORIGIN2,
        tuple((q, ExtReal(coupling_pi(ORIGIN2, q) - 1)) for q in universe),
    )
    report = gamma_p_membership(h, ORIGIN2, universe)
    assert not report.holds
    assert report.proper
    assert not report.fixed_point_holds


def test_improper_table_fails_membership():
    q0 = _pp((1, 0), (0, 1))
    h = _table([(q0, NEG_INF)])
    report = gamma_p_membership(h, ORIGIN2, [q0])
    assert not report.holds and not report.proper


def test_membership_counts_unrepresentable_combinations(rng):
    # a two-point table rarely contains its own midpoints: they skip
    qa, qb = _pp((0, 0), (1, 0)), _pp((2, 2), (0, 1))
    h = _table([(qa, 0), (qb, 0)])
    report = gamma_p_membership(h, ORIGIN2, [qa, qb])
    assert report.skipped_combinations > 0


def _reference_gamma(h, p, universe, grid, tol=1e-9):
    """gamma_p_membership spelled out with the public single-query functions."""
    proper = h.is_proper()
    finite = [(q, v) for q, v in h.entries if v.is_finite]
    witness, skipped = None, 0
    for i, (q1, v1) in enumerate(finite):
        for q2, v2 in finite[i + 1:]:
            for lam in grid:
                combo = PairedPoint(
                    geodesic_point(q1.x, q2.x, lam),
                    dual_add(dual_scale(1 - lam, q1.xd), dual_scale(lam, q2.xd)),
                )
                match = next((m for m in h.domain if pair_in(combo, [m], tol)), None)
                if match is None:
                    skipped += 1
                    continue
                bound = scale(1 - lam, v1) + scale(lam, v2)
                if witness is None and not h.value(match) <= bound + tol:
                    witness = {
                        "pair_a": q1, "pair_b": q2, "lam": lam,
                        "value": h.value(match), "bound": bound,
                    }
    worst = math.inf
    if proper:
        capped = FunctionTable(
            h.p,
            tuple((q, v if v <= coupling_pi(p, q) + tol else POS_INF) for q, v in h.entries),
        )
        worst = 0.0
        for q, v in h.entries:
            back = fenchel_conjugate_p(capped, p, universe, q.xd, q.x)
            if v.is_finite and back.is_finite:
                worst = max(worst, abs(float(v.value - back.value)))
            elif v != back:
                worst = math.inf
    fixed = proper and worst <= tol
    return GammaReport(
        holds=proper and witness is None and fixed,
        worst_defect=worst,
        convexity_witness=witness,
        proper=proper,
        convexity_holds=witness is None,
        fixed_point_holds=fixed,
        skipped_combinations=skipped,
    )


def _hyperboloid_point(u, v):
    return make_point(hyperbolic(2), (u, v, math.sqrt(1 + u * u + v * v)))


HALVES = st.sampled_from((0, Fraction(1, 2), 1))
# points on a half-step lattice, so that many combinations land on listed points
TABLE_POINTS = {
    "euclidean": st.tuples(HALVES, HALVES).map(lambda c: make_point(euclidean(2), c)),
    "rtree": rtree_points(branches=3, denom=2),
    "rtree_float": rtree_points(branches=3, denom=2),
    "hyperbolic": st.tuples(st.sampled_from((-0.5, 0.0, 0.5)), st.sampled_from((0.0, 0.5))).map(
        lambda c: _hyperboloid_point(*c)
    ),
}
TABLE_COEFFS = {
    "euclidean": small_fractions(2, 2),
    "rtree": small_fractions(2, 2),
    "rtree_float": small_fractions(2, 2),
    "hyperbolic": st.sampled_from((-1.0, 0.5, 1.0)),
}
GRIDS = {
    "default": DEFAULT_LAMBDA_GRID,
    "interior": (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)),
    "float": (0.0, 0.25, 0.5, 1.0),
}


@st.composite
def _gamma_instance(draw, kind):
    """(table, basepoint, universe): a transform table or random values, some +inf.

    Pairs share one or two duals and the points often hold a midpoint of
    two others, so that combinations of pairs with one dual land on
    listed pairs.
    """
    pts = draw(st.lists(TABLE_POINTS[kind], min_size=2, max_size=4, unique=True))
    if kind == "rtree_float":
        # one float coordinate leaves the pairs at that point without an exact key
        pts.append(make_point(rtree(), (2, 0.3)))
    if draw(st.booleans()):
        mid = geodesic_point(pts[0], pts[1], Fraction(1, 2))
        pts += [mid] if mid not in pts else []
    pick = st.sampled_from(pts)
    one_term = st.tuples(TABLE_COEFFS[kind], pick, pick).map(
        lambda t: dual_vector(((t[0], BoundVector(t[1], t[2])),))
    )
    dual_set = draw(st.lists(st.one_of(st.just(zero_dual()), one_term), min_size=1, max_size=2))
    duals = st.sampled_from(dual_set)
    product = []
    for q in (PairedPoint(x, xd) for x in pts for xd in dual_set):
        if not pair_in(q, product):
            product.append(q)
    pairs = draw(st.lists(st.sampled_from(product), min_size=2, max_size=6, unique=True))
    p = draw(pick)
    if draw(st.booleans()):
        g = OperatorGraph(pts[0].space, greedy_monotone_subset(random.Random(0), pairs, len(pairs)))
        values = [fitzpatrick_sup(g, p, q) for q in pairs]
    else:
        finite = TABLE_COEFFS[kind].map(ExtReal)
        value = st.one_of(finite, finite, finite, st.just(POS_INF))
        values = draw(st.lists(value, min_size=len(pairs), max_size=len(pairs)))
    h = FunctionTable(p, tuple(zip(pairs, values)))
    extra = draw(st.lists(st.builds(PairedPoint, pick, duals), max_size=2))
    universe = draw(st.permutations(pairs))[: draw(st.integers(0, len(pairs)))] + extra
    return h, p, universe


def _assert_same_report(got, want, kind):
    # potentials and direct pairings round differently on float inputs
    if kind in ("rtree_float", "hyperbolic") and math.isfinite(want.worst_defect):
        assert abs(got.worst_defect - want.worst_defect) <= 1e-12 * (1 + want.worst_defect)
        got = GammaReport(**{**got.__dict__, "worst_defect": want.worst_defect})
    assert got == want


@pytest.mark.parametrize("grid", list(GRIDS), ids=list(GRIDS))
@pytest.mark.parametrize("kind", ["euclidean", "rtree"])
@given(data=st.data())
def test_membership_equals_the_single_query_reference(kind, grid, data):
    h, p, universe = data.draw(_gamma_instance(kind))
    want = _reference_gamma(h, p, universe, GRIDS[grid])
    _assert_same_report(gamma_p_membership(h, p, universe, lambda_grid=GRIDS[grid]), want, kind)


@pytest.mark.parametrize("grid", list(GRIDS), ids=list(GRIDS))
@pytest.mark.parametrize("kind", ["rtree_float", "hyperbolic"])
@settings(max_examples=15)
@given(data=st.data())
def test_membership_equals_the_reference_on_the_tolerance_path(kind, grid, data):
    # pairs without an exact key: matched within tol, duals compared by action
    h, p, universe = data.draw(_gamma_instance(kind))
    want = _reference_gamma(h, p, universe, GRIDS[grid])
    got = gamma_p_membership(h, p, universe, lambda_grid=GRIDS[grid], tol=1e-9)
    _assert_same_report(got, want, kind)


WITNESS_TABLES = {
    "euclidean": (E2, ((0, 0), (Fraction(1, 2), 0), (1, 0))),
    # the midpoint of 0.1 and 0.7 is 0.39999999999999997: within tol of
    # the listed 0.4, but not equal to it
    "rtree_float": (rtree(), ((2, 0.1), (2, 0.4), (2, 0.7))),
}


def _witness_table(table):
    """h = 0, 5, 0 at three points of one geodesic with the zero dual, based at the first."""
    space, coords = WITNESS_TABLES[table]
    qs = [PairedPoint(make_point(space, c), zero_dual()) for c in coords]
    return FunctionTable(qs[0].x, tuple(zip(qs, (ExtReal(0), ExtReal(5), ExtReal(0))))), qs


@pytest.mark.parametrize("grid", list(GRIDS), ids=list(GRIDS))
@pytest.mark.parametrize("table", list(WITNESS_TABLES))
def test_membership_reports_the_reference_convexity_witness(table, grid):
    # the middle entry sits above the chord, where (1/2, 1/2) combinations land
    h, qs = _witness_table(table)
    p = h.p
    grid = GRIDS[grid] + (Fraction(1, 2),)
    report = gamma_p_membership(h, p, h.domain, lambda_grid=grid)
    assert not report.convexity_holds
    assert report.convexity_witness["pair_a"] == qs[0]
    assert report.convexity_witness["value"] == ExtReal(5)
    for tol in (1e-9, 0, -1e-12):
        got = gamma_p_membership(h, p, h.domain, lambda_grid=grid, tol=tol)
        assert got == _reference_gamma(h, p, h.domain, grid, tol)


@pytest.mark.parametrize("lam", [True, Fraction(3, 2)])
def test_membership_rejects_invalid_grid_values(lam):
    # lambda = 0 and 1 are shortcut on exact tables; a bad grid value still raises
    h = _table([(_pp((0, 0), (1, 0)), 0), (_pp((1, 0), (1, 0)), 1)])
    with pytest.raises(GeometryError):
        gamma_p_membership(h, ORIGIN2, h.domain, lambda_grid=(0, lam, 1))


def _benchmark_shaped_tables():
    """The two table shapes of the round-trip workload.

    A 12-pair Euclidean table (the {0,1}^2 grid at an integer origin
    times the zero dual and two unit duals) and a 6-pair flat tree table
    (the root and two points of branch 1 times the zero dual and one
    term), each the transform of a graph maximal relative to its pairs.
    """
    o = (7, -3)
    grid = [make_point(E2, (o[0] + a, o[1] + b)) for a in range(2) for b in range(2)]
    origin = grid[0]
    duals = [zero_dual()] + [
        dual_term(1, origin, make_point(E2, (o[0] + v0, o[1] + v1))) for v0, v1 in ((1, 0), (1, -1))
    ]
    T = rtree()
    root = make_point(T, (1, 0))
    tree_pts = [root, make_point(T, (1, Fraction(3, 8))), make_point(T, (1, Fraction(5, 8)))]
    tree_duals = [zero_dual(), dual_term(2, make_point(T, (3, Fraction(1, 4))), tree_pts[1])]
    tables = []
    for pts, ds, p in ((grid, duals, origin), (tree_pts, tree_duals, root)):
        universe = tuple(PairedPoint(x, xd) for x in pts for xd in ds)
        g = OperatorGraph(p.space, greedy_monotone_subset(random.Random(5), universe, len(universe)))
        tables.append((transform_table(g, p, universe), p, universe))
    return tables


def test_membership_counts_its_operations(monkeypatch):
    import cat0.conjugate

    potentials = count_potentials(monkeypatch)
    squares = count_dist_sq(monkeypatch)
    landings = count_calls(monkeypatch, "geodesic_point", (cat0.conjugate,))
    adds = count_calls(monkeypatch, "dual_add", (cat0.conjugate,))
    scales = count_calls(monkeypatch, "dual_scale", (cat0.conjugate,))
    (euclid, euclid_p, euclid_u), (tree, tree_p, tree_u) = _benchmark_shaped_tables()
    # per table: each one-term dual's potential at each point, one
    # evaluation each, read from its form (the basepoint is a table
    # point); one landing point per interior lambda and (point, point)
    # pair in table order, the pairs of one point included; the lambda =
    # 0 and 1 combinations match their own endpoints; a combination that
    # lands on a listed point is looked up by the key combined from its
    # endpoints' keys, so no combination dual is built
    for h, p, universe, evaluations, landing, skipped in (
        (euclid, euclid_p, euclid_u, 2 * 4, 10 * 3, 198),
        (tree, tree_p, tree_u, 1 * 3, 6 * 3, 45),
    ):
        for q in universe:  # the transform's queries kept the graph pairs' own potentials
            object.__setattr__(q, "_own", None)
        potentials[0] = squares[0] = landings[0] = adds[0] = scales[0] = 0
        report = gamma_p_membership(h, p, universe)
        assert report.holds and report.skipped_combinations == skipped
        assert 0 < potentials[0] <= evaluations
        assert squares[0] == 0
        assert landings[0] <= landing
        assert adds[0] == scales[0] == 0
    # a float entry leaves the table without exact keys: its combinations
    # are built as duals and compared by action
    h, _ = _witness_table("rtree_float")
    gamma_p_membership(h, h.p, h.domain)
    assert adds[0] > 0 and scales[0] > 0


def test_membership_keeps_one_report_per_table(monkeypatch):
    # a table keeps its last report; only the same p, universe pairs and
    # grid values (as objects) and an equal tol of one type reuse it
    import cat0.conjugate

    scans = count_calls(monkeypatch, "_convexity_scan", (cat0.conjugate,))
    defects = count_calls(monkeypatch, "_fixed_point_defect", (cat0.conjugate,))

    def computed():
        counts = scans[0], defects[0]
        scans[0] = defects[0] = 0
        return counts

    (h, p, universe), _ = _benchmark_shaped_tables()
    report = gamma_p_membership(h, p, universe)
    assert roundtrip_check(h, p, universe).holds
    assert gamma_p_membership(h, p, universe) is report
    assert computed() == (1, 1)

    float_p = make_point(p.space, tuple(float(c) for c in p.payload))
    assert float_p == p
    for kwargs in (
        {"lambda_grid": (0.0, 0.25, 0.5, 0.75, 1.0)},
        {"p": float_p},
        {"tol": 1e-6},
        {"tol": 0},
        {"tol": 0.0},
    ):
        call = {"p": p, "universe": universe, **kwargs}
        gamma_p_membership(h, **call)
        assert computed() == (1, 1), kwargs
        gamma_p_membership(h, **call)
        assert computed() == (0, 0), kwargs

    pairs = list(universe)
    gamma_p_membership(h, p, pairs)
    computed()
    pairs[0] = PairedPoint(pairs[0].x, pairs[0].xd)  # equal, but another object
    pairs.pop()
    got = gamma_p_membership(h, p, pairs)
    assert computed() == (1, 1)
    assert got == gamma_p_membership(FunctionTable(p, h.entries), p, pairs)
    # a universe given as an iterator is read once
    assert gamma_p_membership(FunctionTable(p, h.entries), p, iter(universe)) == report
    computed()

    bad, _ = _witness_table("euclidean")
    for _ in range(2):
        with pytest.raises(RepresentationPreconditionError) as err:
            roundtrip_check(bad)
        assert not err.value.report.convexity_holds
    assert computed() == (1, 1)


def test_keyed_tables_read_values_without_comparing_pairs(monkeypatch):
    # exact pairs are found by their key alone: no pair is compared by
    # distance or by action when a table is built or read
    import cat0.conjugate

    calls = {"distance": 0, "duals_match": 0}

    def counted(name):
        real = getattr(cat0.conjugate, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    tables = _benchmark_shaped_tables()
    for name in calls:
        monkeypatch.setattr(cat0.conjugate, name, counted(name))
    for h, p, universe in tables:
        rebuilt = FunctionTable(p, h.entries)
        assert [rebuilt.value(q) for q in universe] == [v for _, v in h.entries]
    assert calls == {"distance": 0, "duals_match": 0}


# ---------------------------------------------------------------------------
# the flat-space oracle


def test_classical_oracle_matches_pipeline(rng):
    # p at the origin identifies the geodesic conjugate with the plain
    # vector-space conjugate
    for _ in range(10):
        h = random_proper_table(rng, E2, rng.randint(3, 7))
        grid = [
            ((q.x.payload, _canonical(q)), v.raw)
            for q, v in h.entries
        ]
        query = h.domain[rng.randrange(len(h.domain))]
        u = _canonical(query)
        x = query.x.payload
        want = classical_conjugate_oracle(grid, u, x)
        got = fenchel_conjugate_p(h, ORIGIN2, h.domain, query.xd, query.x)
        assert got.is_finite and want.is_finite
        assert abs(got.value - want.value) <= 1e-9


def _canonical(q):
    from cat0 import canonical_hilbert

    return canonical_hilbert(q.xd, dim=2)


def test_classical_oracle_edge_cases():
    assert classical_conjugate_oracle([], (1, 0), (0, 0)) == NEG_INF
    grid = [(((0, 0), (0, 0)), POS_INF)]
    assert classical_conjugate_oracle(grid, (1, 0), (0, 0)) == NEG_INF
    with pytest.raises(ImproperTableError):
        classical_conjugate_oracle([(((0, 0), (0, 0)), NEG_INF)], (1, 0), (0, 0))


# ---------------------------------------------------------------------------
# membership helpers


def test_indicator_and_pair_membership():
    q0, q1, q2 = _pp((1, 0), (0, 1)), _pp((0, 1), (1, 0)), _pp((2, 2), (1, 1))
    members = [q0, q1]
    assert pair_in(q0, members) and pair_in(q1, members)
    assert not pair_in(q2, members)
    assert not pair_in(q0, [])


def test_pair_in_needs_both_slots():
    q0 = _pp((1, 0), (0, 1))
    near = PairedPoint(make_point(E2, (1, 0)), vector_dual(E2, (0, 1)))
    far_point = PairedPoint(make_point(E2, (1, 1)), q0.xd)
    other_dual = PairedPoint(q0.x, vector_dual(E2, (1, 1)))
    assert pair_in(q0, [near])
    assert not pair_in(q0, [far_point])
    assert not pair_in(q0, [other_dual])


def _moved(pt, delta):
    """pt with its first parameter moved by delta: a coordinate in Euclidean space and on the
    hyperboloid (staying on the sheet), the position along the branch on the tree."""
    space, c = pt.space, pt.payload
    if space.kind == "rtree":
        return make_point(space, (c[0], c[1] + delta if c[1] + delta <= 1 else c[1] - delta))
    if space.kind == "hyperbolic":
        return _hyperboloid_point(c[0] + delta, c[1])
    return make_point(space, (c[0] + delta, *c[1:]))


_PAIR_IN_POINTS = {
    "euclidean": st.tuples(small_fractions(), small_fractions()).map(lambda c: make_point(E2, c)),
    "rtree": rtree_points(denom=4),
    "hyperbolic": st.tuples(st.floats(-1, 1), st.floats(-1, 1)).map(lambda c: _hyperboloid_point(*c)),
}


@st.composite
def _pair_in_case(draw, kind):
    """(query, pairs, tol) in one space: exact pairs, pairs holding a float, and the query a
    pair of the pool, a member, or a member moved by half its tol or by twice it: an exact
    query matches keyed members by key alone, so one moved exactly by half its tol does not."""
    pts = draw(st.lists(_PAIR_IN_POINTS[kind], min_size=1, max_size=3))
    if draw(st.booleans()):
        pts.append(_moved(pts[0], 0.25))  # a float point where the space has exact ones
    pick = st.sampled_from(pts)
    coeff = st.one_of(small_fractions(), st.floats(-2, 2, allow_nan=False))
    dual = st.one_of(st.just(zero_dual()), st.builds(dual_term, coeff, pick, pick))
    pool = st.builds(PairedPoint, pick, dual)
    pairs = draw(st.lists(pool, max_size=5))
    tol = draw(st.sampled_from([None, 1e-9, 1e-6, 1e-3]))
    how = draw(st.sampled_from(["pool", "member", "moved"] if pairs else ["pool"]))
    if how == "pool":
        return draw(pool), pairs, tol
    q = draw(st.sampled_from(pairs))
    if how == "moved":  # by a float, or by an exact Fraction that keeps exact pairs keyed
        t = q.x.space.default_tol if tol is None else tol
        exact = draw(st.sampled_from([float, Fraction]))
        x = _moved(q.x, exact(draw(st.sampled_from([0.5, 2.0])) * t))
        xd = q.xd if draw(st.booleans()) else dual_scale(1 + exact(draw(st.sampled_from([0.5, 2.0])) * t), q.xd)
        q = PairedPoint(x, xd)
    return q, pairs, tol


@pytest.mark.parametrize("kind", list(_PAIR_IN_POINTS))
@given(data=st.data())
def test_pair_in_scans_as_the_pair_index_finds(kind, data):
    q, pairs, tol = data.draw(_pair_in_case(kind))
    assert pair_in(q, pairs, tol) == (_PairSet(pairs).find(q, tol) is not None)


# (space, p, x, a, b): a table pair (x, 1 [a->b]) and its basepoint p
SPELLING_CASES = {
    "euclidean": (E2, (0, 0), (1, 1), (1, 0), (2, 1)),
    "rtree": (rtree(), (1, 0), (1, Fraction(1, 2)), (2, Fraction(1, 2)), (3, 1)),
    "rtree_float": (rtree(), (1, 0), (1, 0.5), (2, 0.5), (3, 1.0)),
    "hyperbolic": (hyperbolic(2), *(
        _hyperboloid_point(u, v).payload for u, v in ((0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.0, 1.0))
    )),
}


@pytest.mark.parametrize("case", list(SPELLING_CASES))
def test_conjugate_reads_table_values_behaviorally(case):
    # the universe may spell a table pair differently: 1 [a->b] is -1 [b->a]
    space, *coords = SPELLING_CASES[case]
    o, x, a, b = (make_point(space, c) for c in coords)
    h = FunctionTable(o, ((PairedPoint(x, dual_term(1, a, b)), ExtReal(0)),))
    for spelled in (dual_term(1, a, b), dual_term(-1, b, a)):
        q = PairedPoint(x, spelled)
        assert h.value(q) == ExtReal(0)
        assert fenchel_conjugate_p(h, o, [q], zero_dual(), o) == ExtReal(0)


@pytest.mark.parametrize("rewrite", ["flipped", "split"])
@pytest.mark.parametrize("case", ["rtree_float", "hyperbolic"])
def test_one_pair_written_two_ways_is_a_duplicate_entry(case, rewrite):
    # a table is a function of the pair, not of how its dual is written
    space, *coords = SPELLING_CASES[case]
    o, x, a, b = (make_point(space, c) for c in coords)
    if rewrite == "flipped":
        other = dual_term(-1, b, a)
    else:
        m = geodesic_point(a, b, Fraction(1, 2))
        other = dual_add(dual_term(1, a, m), dual_term(1, m, b))
    rows = ((PairedPoint(x, dual_term(1, a, b)), ExtReal(0)), (PairedPoint(x, other), ExtReal(5)))
    with pytest.raises(GeometryError, match="^entry 1 repeats entry 0$"):
        FunctionTable(o, rows)


def test_zero_dual_entries_are_supported():
    q = PairedPoint(make_point(E2, (1, 2)), zero_dual())
    h = _table([(q, 0)])
    assert coupling_pi(ORIGIN2, q) == 0
    got = fenchel_conjugate_p(h, ORIGIN2, [q], q.xd, q.x)
    assert got == ExtReal(0)

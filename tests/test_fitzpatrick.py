import dataclasses
import functools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cat0.dual
from cat0 import (
    NEG_INF,
    ExtReal,
    FunctionTable,
    OperatorGraph,
    PairedPoint,
    RepresentationPreconditionError,
    SpaceMismatchError,
    classical_fitzpatrick_oracle,
    convexity_check_fitz,
    coupling_pi,
    dual_scale,
    dual_term,
    dual_vector,
    euclidean,
    ext,
    fenchel_conjugate_p,
    fitzpatrick_forms_agree,
    fitzpatrick_inf,
    fitzpatrick_sup,
    fitzpatrick_via_conjugate,
    gamma_p_membership,
    hyperbolic,
    is_maximal_relative,
    is_monotone,
    level_set_report,
    make_point,
    monotone_polar,
    monotonically_related,
    pair,
    pair_in,
    random_point,
    relatedness_gap,
    roundtrip_check,
    rtree,
    s_map,
    sample_points,
    worked_examples,
    zero_dual,
)
from cat0.dual import _duals_ints, _points_ints, _scale
from cat0.geometry import half_of, quasilinearization
from cat0.spaces import _BLOCK, _SHORT, BoundVector
from conftest import rtree_points, small_fractions
from helpers import (
    ORIGIN2,
    basepoint_shift,
    canonical_hilbert_of,
    count_calls,
    count_dist_sq,
    count_potentials,
    greedy_monotone_subset,
    maximal_relative_graph,
    random_graph,
    shifted_table,
    single_queries_per_call,
    small_universe,
    transform_table,
    vector_dual,
)

E2 = euclidean(2)
H2 = hyperbolic(2)


def _pp(x_coords, vec):
    return PairedPoint(make_point(E2, x_coords), vector_dual(E2, vec))


# ---------------------------------------------------------------------------
# the three forms


def test_empty_graph_gives_neg_inf():
    g = OperatorGraph(E2, ())
    q = _pp((1, 1), (1, 0))
    assert fitzpatrick_sup(g, ORIGIN2, q) == NEG_INF
    assert fitzpatrick_inf(g, ORIGIN2, q) == NEG_INF
    assert fitzpatrick_via_conjugate(g, ORIGIN2, q) == NEG_INF
    assert fitzpatrick_forms_agree(g, ORIGIN2, q)


def test_singleton_graph_one_term_identity():
    member = _pp((1, 0), (2, 1))
    q = _pp((0, 2), (1, -1))
    g = OperatorGraph(E2, (member,))
    phi = fitzpatrick_sup(g, ORIGIN2, q)
    want = coupling_pi(ORIGIN2, q) - relatedness_gap(q, member)
    assert phi == ExtReal(want)


def test_nonempty_graph_never_neg_inf(rng):
    universe = small_universe(side=2, vec_range=1)
    for _ in range(5):
        g = OperatorGraph(E2, greedy_monotone_subset(rng, universe, 3))
        q = universe[rng.randrange(len(universe))]
        assert not fitzpatrick_sup(g, ORIGIN2, q).is_neg_inf


def _sampler_for(space, rng):
    pool = sample_points(space, 40, seed=941)
    return lambda: pool[rng.randrange(len(pool))]


def test_three_forms_agree_on_random_graphs(rng, any_space):
    space = any_space
    sampler = _sampler_for(space, rng)
    p = sampler()
    for _ in range(15):
        g = random_graph(rng, space, rng.randint(1, 5), sampler)
        q = PairedPoint(sampler(), dual_term(Fraction(1, 2), sampler(), sampler()))
        a = fitzpatrick_sup(g, p, q)
        b = fitzpatrick_inf(g, p, q)
        c = fitzpatrick_via_conjugate(g, p, q)
        assert a.is_finite and b.is_finite and c.is_finite
        vals = (a.value, b.value, c.value)
        assert max(vals) - min(vals) <= 1e-9
        assert fitzpatrick_forms_agree(g, p, q, tol=1e-9)


def test_forms_agree_exactly_on_rational_tree_instances(rng):
    tree = rtree()
    pool = [
        make_point(tree, (branch, Fraction(k, 8)))
        for branch in (1, 2, 3)
        for k in range(9)
    ]
    sampler = lambda: pool[rng.randrange(len(pool))]
    p = sampler()
    for _ in range(10):
        g = random_graph(rng, tree, rng.randint(1, 4), sampler)
        q = PairedPoint(sampler(), dual_term(Fraction(1, 3), sampler(), sampler()))
        a = fitzpatrick_sup(g, p, q)
        b = fitzpatrick_inf(g, p, q)
        c = fitzpatrick_via_conjugate(g, p, q)
        assert a == b == c  # exact rational agreement


# ---------------------------------------------------------------------------
# the flat-space oracle


def test_classical_oracle_matches_origin_pipeline(rng):
    for _ in range(10):
        universe = small_universe(side=2, vec_range=1)
        g = OperatorGraph(E2, greedy_monotone_subset(rng, universe, 3))
        q = universe[rng.randrange(len(universe))]
        got = fitzpatrick_sup(g, ORIGIN2, q)
        graph_vecs = [
            (member.x.payload, canonical_hilbert_of(member.xd))
            for member in g.pairs
        ]
        want = classical_fitzpatrick_oracle(
            graph_vecs, q.x.payload, canonical_hilbert_of(q.xd)
        )
        assert got.is_finite and want.is_finite
        assert abs(got.value - want.value) <= 1e-9


def test_classical_oracle_empty_graph():
    assert classical_fitzpatrick_oracle([], (1, 0), (0, 1)) == NEG_INF


# ---------------------------------------------------------------------------
# level sets against the coupling


def test_level_report_partition_and_cross_checks(rng):
    universe = small_universe(side=2, vec_range=1)
    g = maximal_relative_graph(rng, universe)
    report = level_set_report(g, ORIGIN2, universe)
    n = len(universe)
    classified = sorted(report.below + report.equal + report.above)
    assert classified == list(range(n))  # exhaustive and disjoint
    assert len(report.gaps) == n
    assert report.monotone and report.maximal_relative
    for name, value in report.checks.items():
        assert value is not False, name
    assert report.checks["nothing_below_coupling"] is True
    assert report.checks["equality_band_equals_graph"] is True
    assert report.checks["equality_criterion_gives_maximality"] is True


def test_level_report_monotone_graph_sits_in_equality_band(rng):
    universe = small_universe(side=2, vec_range=1)
    g = OperatorGraph(E2, greedy_monotone_subset(rng, universe, 4))
    report = level_set_report(g, ORIGIN2, universe)
    assert report.monotone
    assert report.checks["graph_inside_equality_band"] is True
    assert report.checks["at_most_coupling_equals_polar"] is True


def test_level_report_requires_containment():
    universe = small_universe(side=2, vec_range=1)
    outside = PairedPoint(make_point(E2, (7, 7)), vector_dual(E2, (1, 1)))
    with pytest.raises(Exception):
        level_set_report(OperatorGraph(E2, (outside,)), ORIGIN2, universe)


def test_level_report_verdicts_match_the_library_with_one_polar(rng, monkeypatch):
    import cat0.fitzpatrick
    import cat0.monotone

    universe = small_universe(side=2, vec_range=1)
    graphs = []
    for _ in range(4):
        graphs.append(OperatorGraph(E2, greedy_monotone_subset(rng, universe, 4)))
        graphs.append(maximal_relative_graph(rng, universe))
        k = rng.randint(1, 5)
        graphs.append(
            OperatorGraph(E2, tuple(rng.choice(universe) for _ in range(k)))
        )
    expected = [
        (is_monotone(g).holds, is_maximal_relative(g, universe).holds) for g in graphs
    ]
    assert {m for m, _ in expected} == {True, False}
    assert {r for _, r in expected} == {True, False}
    # the polar as monotone_polar's own sweep finds it, member by member
    polars = [{id(q) for q in monotone_polar(g, universe)} for g in graphs]

    # one potential table and one monotonicity sweep per report; the polar
    # is read from the gaps, with no polar sweep
    names = ("_Potentials", "_polar_indices", "_monotone_report")
    calls = {}
    for name in names:
        def counted(*args, _real=getattr(cat0.monotone, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cat0.monotone, name, counted)
        if hasattr(cat0.fitzpatrick, name):
            monkeypatch.setattr(cat0.fitzpatrick, name, counted)
    for g, verdicts, polar in zip(graphs, expected, polars):
        calls.update(dict.fromkeys(names, 0))
        report = level_set_report(g, ORIGIN2, universe)
        assert (report.monotone, report.maximal_relative) == verdicts
        assert calls == {"_Potentials": 1, "_polar_indices": 0, "_monotone_report": 1}
        # the at-most region is the polar
        assert sorted(report.below + report.equal) == [i for i, q in enumerate(universe) if id(q) in polar]


# the set-level sweeps read pairings from a potential table, the
# single-query functions from the same potential function; both are
# checked against references built from the four-distance formula alone


def _hyperboloid_point(u, v):
    return make_point(hyperbolic(2), (u, v, math.sqrt(1 + u * u + v * v)))


POINTS = {
    "euclidean": st.tuples(small_fractions(4, 3), small_fractions(4, 3)).map(
        lambda c: make_point(E2, c)
    ),
    "rtree": rtree_points(branches=4, denom=4),
    "hyperbolic": st.tuples(
        st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False)
    ).map(lambda c: _hyperboloid_point(*c)),
}
COEFFS = {
    "euclidean": small_fractions(),
    "rtree": small_fractions(),
    "hyperbolic": st.floats(-2, 2, allow_nan=False),
}


@st.composite
def _instance(draw, kind):
    """(graph, basepoint, universe) over a few shared points; the graph is drawn from the universe."""
    pts = draw(st.lists(POINTS[kind], min_size=1, max_size=5))
    pick = st.sampled_from(pts)
    duals = st.lists(st.tuples(COEFFS[kind], pick, pick), max_size=2).map(
        lambda ts: dual_vector((c, BoundVector(t, h)) for c, t, h in ts)
    )
    universe = draw(st.lists(st.builds(PairedPoint, pick, duals), min_size=1, max_size=8))
    members = draw(st.lists(st.sampled_from(universe), max_size=4))
    return OperatorGraph(pts[0].space, tuple(members)), draw(pick), universe


def _same(kind, a, b):
    """Equal on exact spaces; within 1e-12 (1 + |b|) on the hyperboloid."""
    a, b = ext(a), ext(b)
    if kind != "hyperbolic" or not (a.is_finite and b.is_finite):
        return a == b
    return abs(a.value - b.value) <= 1e-12 * (1 + abs(b.value))


def _ref_pair(xd, ab):
    return sum(c * quasilinearization(bv, ab) for c, bv in xd.terms)


def _ref_sup(terms):
    return max(terms, default=NEG_INF)


@pytest.mark.parametrize("kind", ["euclidean", "rtree", "hyperbolic"])
@given(data=st.data())
def test_single_queries_equal_the_four_distance_reference(kind, data):
    g, p, universe = data.draw(_instance(kind))
    same = functools.partial(_same, kind)

    def ref_coupling(q):
        return _ref_pair(q.xd, BoundVector(p, q.x))

    def ref_gap(q1, q2):
        step = BoundVector(q2.x, q1.x)
        return _ref_pair(q1.xd, step) - _ref_pair(q2.xd, step)

    def ref_conjugate(rows, q):
        return _ref_sup(
            ExtReal(_ref_pair(q.xd, BoundVector(p, u.x)) + _ref_pair(u.xd, BoundVector(p, q.x)) - v)
            for u, v in rows
        )

    table = []
    for u in universe:
        if not pair_in(u, [w for w, _ in table]):
            table.append((u, data.draw(COEFFS[kind])))
    listed = table[: data.draw(st.integers(0, len(table)))]
    h = FunctionTable(p, tuple((u, ExtReal(v)) for u, v in listed))
    for q in universe:
        for u in universe:
            assert same(pair(q.xd, BoundVector(u.x, p)), _ref_pair(q.xd, BoundVector(u.x, p)))
            assert same(relatedness_gap(q, u), ref_gap(q, u))
        assert same(coupling_pi(p, q), ref_coupling(q))
        sup = _ref_sup(
            ExtReal(_ref_pair(q.xd, BoundVector(p, y.x)) - _ref_pair(y.xd, BoundVector(q.x, y.x)))
            for y in g.pairs
        )
        assert same(fitzpatrick_sup(g, p, q), sup)
        inf = ExtReal(ref_coupling(q) - min(ref_gap(q, y) for y in g.pairs)) if g.pairs else NEG_INF
        assert same(fitzpatrick_inf(g, p, q), inf)
        via = ref_conjugate([(y, ref_coupling(y)) for y in g.pairs], q)
        assert same(fitzpatrick_via_conjugate(g, p, q), via)
        conj = ref_conjugate([(u, h.value(u).value) for u in universe if h.value(u).is_finite], q)
        assert same(fenchel_conjugate_p(h, p, universe, q.xd, q.x), conj)


def _exact_fraction(dens):
    return st.builds(Fraction, st.integers(-6, 6), st.sampled_from(dens))


@st.composite
def _exact_query(draw, kind, past_cap):
    """(pairs, basepoint, query) on exact inputs with mixed denominators.

    The graph's coordinates and coefficients take denominators from one
    set, the query's from another, so the query's scale is often, not
    always, a multiple of the graph's. Duals are zero, one or two terms
    between the instance's points; p is sometimes q.x. Past the cap, one
    coordinate of a graph point, of q.x or of p has a denominator of
    about 6,000 bits.
    """
    space = E2 if kind == "euclidean" else rtree()
    graph_dens, query_dens = (1, 2, 3, 4, 6), (1, 2, 5, 7, 9)

    def point(dens, huge=False):
        d = draw(st.integers(2**6000, 2**6001) if huge else st.sampled_from(dens))
        first = Fraction(draw(st.integers(1 if huge else -6, 6)), d)
        if kind == "euclidean":
            return make_point(space, (first, draw(_exact_fraction(dens))))
        return make_point(space, (draw(st.integers(1, 3)), min(abs(first), 1)))

    huge = draw(st.sampled_from(("graph", "q.x", "p"))) if past_cap else None
    pts = [point(graph_dens, huge == "graph" and i == 0) for i in range(draw(st.integers(1, 4)))]

    def dual(dens, ends):
        terms = draw(st.lists(st.tuples(_exact_fraction(dens), ends, ends), max_size=2))
        return dual_vector((c, BoundVector(t, h)) for c, t, h in terms)

    pick = st.sampled_from(pts)
    pairs = tuple(PairedPoint(draw(pick) if i else pts[0], dual(graph_dens, pick))
                  for i in range(draw(st.integers(1, 5))))
    x = point(query_dens, huge == "q.x")
    q = PairedPoint(x, dual(query_dens, st.sampled_from(pts + [x])))
    p = x if draw(st.booleans()) and huge != "p" else point(query_dens, huge == "p")
    return pairs, p, q


def _scale_of(space, duals, points):
    """The scale of exact duals and points, from their int columns as the kernel reads them."""
    return _scale(_duals_ints(space, duals)[0], _points_ints(space, points)[0])


@pytest.mark.parametrize("past_cap", [False, True], ids=["under-cap", "past-cap"])
@pytest.mark.parametrize("kind", ["euclidean", "rtree"])
@given(data=st.data())
def test_exact_queries_give_the_same_reprs_on_both_paths(kind, past_cap, data):
    # the three forms on the instance's integer scale (or on Fractions,
    # past the cap), and with the cap at 0 bits, where every exact query
    # runs on Fractions: the same values of the same types, equal to the
    # four-distance reference
    pairs, p, q = data.draw(_exact_query(kind, past_cap))
    duals, points = [y.xd for y in pairs] + [q.xd], [y.x for y in pairs] + [q.x, p]
    assert (_scale_of(p.space, duals, points) is None) == past_cap
    forms = (fitzpatrick_sup, fitzpatrick_inf, fitzpatrick_via_conjugate)
    scaled = [repr(form(OperatorGraph(p.space, pairs), p, q)) for form in forms]
    with mock.patch.object(cat0.dual, "_SCALE_BITS", 0):
        fractions = [repr(form(OperatorGraph(p.space, pairs), p, q)) for form in forms]
    assert scaled == fractions
    assert scaled == [repr(v) for v in single_queries_per_call(OperatorGraph(p.space, pairs), p, q)]
    sup = max(_ref_pair(q.xd, BoundVector(p, y.x)) - _ref_pair(y.xd, BoundVector(q.x, y.x)) for y in pairs)
    assert all(r == repr(ExtReal(half_of(2 * sup))) for r in scaled)


@st.composite
def _exact_sweep_spec(draw, kind):
    """Plain data of an exact sweep instance, with denominators up to 12: built twice by _build_sweep_instance.

    A pool of points, duals of zero to two terms between them, a
    universe of (point, dual) picks that may repeat a pair, a graph drawn
    from it, a basepoint from the pool or off it, and a table value per
    universe pair: its transform or a drawn Fraction.
    """
    frac = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
    if kind == "euclidean":
        coords = st.tuples(frac, frac)
    else:
        coords = st.tuples(st.integers(1, 3), st.integers(1, 12).flatmap(
            lambda d: st.builds(Fraction, st.integers(0, d), st.just(d))))
    pool = draw(st.lists(coords, min_size=1, max_size=4))
    ends = st.integers(0, len(pool) - 1)
    duals = draw(st.lists(st.lists(st.tuples(frac, ends, ends), max_size=2), min_size=1, max_size=3))
    universe = draw(st.lists(st.tuples(ends, st.integers(0, len(duals) - 1)), min_size=1, max_size=6))
    graph = draw(st.lists(st.integers(0, len(universe) - 1), max_size=3))
    p = draw(st.one_of(ends, coords))
    values = draw(st.lists(st.one_of(st.none(), frac), min_size=len(universe), max_size=len(universe)))
    return kind, pool, duals, universe, graph, p, values


def _build_sweep_instance(spec):
    """(graph, basepoint, universe, table) of a _exact_sweep_spec, as fresh objects."""
    kind, pool, duals, universe, graph, p, values = spec
    space = E2 if kind == "euclidean" else rtree()
    pts = [make_point(space, c) for c in pool]
    xds = [dual_vector((c, BoundVector(pts[i], pts[j])) for c, i, j in terms) for terms in duals]
    U = tuple(PairedPoint(pts[i], xds[k]) for i, k in universe)
    g = OperatorGraph(space, tuple(U[i] for i in graph))
    p = pts[p] if isinstance(p, int) else make_point(space, p)
    rows, seen = [], set()
    for q, v in zip(U, values):
        if q._key not in seen:
            seen.add(q._key)
            rows.append((q, fitzpatrick_sup(g, p, q) if v is None else ext(v)))
    return g, p, U, FunctionTable(p, tuple(rows))


def _sweep_reprs(g, p, U, h):
    """The repr of every scaled sweep's result on the instance (of the error where one raises)."""
    def run(sweep, *args):
        try:
            return repr(sweep(*args))
        except RepresentationPreconditionError as e:
            return repr(e.report)

    h._gamma_memo.clear()
    return [run(is_monotone, g), run(monotone_polar, g.pairs, U), run(is_maximal_relative, g, U),
            run(level_set_report, g, p, U), run(gamma_p_membership, h, p, U), run(roundtrip_check, h, p, U)]


@pytest.mark.parametrize("kind", ["euclidean", "rtree"])
@given(data=st.data())
def test_exact_sweeps_give_the_same_reprs_on_both_paths(kind, data):
    # the sweeps on their table's integer scale, and with the cap at 0
    # bits, where every exact sweep runs on the kernel's Fractions: the
    # same results, on fresh pairs and on pairs that kept their own
    # potentials from the other path
    spec = data.draw(_exact_sweep_spec(kind))
    scaled = _build_sweep_instance(spec)
    want = _sweep_reprs(*scaled)
    with mock.patch.object(cat0.dual, "_SCALE_BITS", 0):
        assert _sweep_reprs(*_build_sweep_instance(spec)) == want
        assert _sweep_reprs(*scaled) == want
    plain = _build_sweep_instance(spec)
    with mock.patch.object(cat0.dual, "_SCALE_BITS", 0):
        _sweep_reprs(*plain)
    assert _sweep_reprs(*plain) == want


# a float point and the same point with exact coordinates, equal payloads
# of other coordinate types, which the kept endpoints keep apart: from an
# exact point off the float grid, such as the third, their squared
# distances differ in the last bits
_TWINS = ((0.75, 0.0, 1.25), (Fraction(3, 4), 0, Fraction(5, 4)), (Fraction(4, 3), 0, Fraction(5, 3)))


def _kept_path_case(seed, n, pool_size):
    """(graph, basepoint, query) on H^2: n pairs over a pool of points, drawn with random.Random(seed).

    Duals share endpoints with their own points, with other duals and
    within themselves (a term from a point to itself, a point in two
    terms); some are zero, some have three terms. The query dual is
    sometimes zero, and some points are exact (_TWINS).
    """
    rng = random.Random(seed)
    pool = [random_point(H2, rng, spread=1.5) for _ in range(pool_size)]
    pool += [make_point(H2, c) for c in _TWINS]
    pick = lambda: rng.choice(pool)

    def dual(own):
        if rng.random() < 0.15:
            return zero_dual()
        terms = []
        for _ in range(rng.choice((1, 1, 2, 3))):
            tail = own if rng.random() < 0.5 else pick()
            head = tail if rng.random() < 0.1 else (terms[-1][1].tail if terms and rng.random() < 0.3 else pick())
            terms.append((rng.uniform(-2, 2), BoundVector(tail, head)))
        return dual_vector(terms)

    pairs = []
    for _ in range(n):
        x = pick()
        pairs.append(PairedPoint(x, dual(x)))
    x = pick() if rng.random() < 0.5 else random_point(H2, rng)
    q = PairedPoint(x, zero_dual() if rng.random() < 0.2 else dual(x))
    return OperatorGraph(H2, tuple(pairs)), pick(), q


@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.sampled_from([1, 2, _SHORT - 1, _SHORT, _SHORT + 1, _BLOCK - 1, _BLOCK + 1]),
       pool_size=st.sampled_from([1, 4, _SHORT, _BLOCK + 1, 2 * _BLOCK]))
def test_kept_hyperbolic_frames_give_the_bits_of_the_per_call_reference(seed, n, pool_size):
    # graph sizes below _SHORT and across _BLOCK, and distinct endpoints
    # from a handful to more than a block: two queries on one graph, the
    # second on its kept store
    g, p, q = _kept_path_case(seed, n, pool_size)
    forms = (fitzpatrick_sup, fitzpatrick_inf, fitzpatrick_via_conjugate)
    want = list(map(repr, single_queries_per_call(g, p, q)))
    for _ in range(2):
        assert [repr(form(g, p, q)) for form in forms] == want


def _single_query_instances():
    """(graph, basepoint, query, squared distances per potential evaluation, per member column) on each space.

    Every dual has one term. The exact instances read each potential
    from its form; the H^2 one sums two squared distances per potential
    of the query dual and per self-potential, and computes a column of
    the graph duals from one squared distance per distinct term
    endpoint: its duals chain consecutive curve points, so 6 for 5 pairs.
    """
    one_term = [q for q in small_universe(side=3) if len(q.xd.terms) == 1]
    euclid = OperatorGraph(E2, greedy_monotone_subset(random.Random(3), one_term, 9))
    T = rtree()
    chain = [make_point(T, (n, Fraction(1, n))) for n in range(1, 11)]
    tree = OperatorGraph(T, tuple(PairedPoint(a, dual_term(1, a, b)) for a, b in zip(chain, chain[1:])))
    tree_q = PairedPoint(make_point(T, (1, 0)), dual_term(1, make_point(T, (2, Fraction(2, 3))),
                                                         make_point(T, (3, 1))))
    curve = [make_point(H2, (math.sinh(t), 0.0, math.cosh(t))) for t in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)]
    hyp = OperatorGraph(H2, tuple(PairedPoint(a, dual_term(1.0, a, b)) for a, b in zip(curve, curve[1:])))
    hyp_q = PairedPoint(make_point(H2, (0.0, 0.0, 1.0)), dual_term(1.0, curve[1], curve[3]))
    hyp_p = make_point(H2, (1.0, -1.0, math.sqrt(3.0)))
    return [
        (euclid, ORIGIN2, one_term[40], 0, 0),
        (tree, make_point(T, (2, Fraction(1, 4))), tree_q, 0, 0),
        (hyp, hyp_p, hyp_q, 2, len(curve)),
    ]


def _curve_point(t):
    return make_point(H2, (math.sinh(t), 0.0, math.cosh(t)))


def _pinned_curve_queries():
    """(graph, basepoint, query) of 20 seeded H^2 queries against a 200-pair curve graph.

    Every third query point is a graph point and every other query
    dual starts at one, so the coincident-point path of the squared
    distance runs; every fourth dual has a second term. One- and
    two-term sums round alike on every Python version.
    """
    g = OperatorGraph(H2, tuple(
        PairedPoint(_curve_point(t), dual_term(1.0, _curve_point(t), _curve_point(t + 1.0)))
        for t in (k * 0.05 for k in range(200))
    ))
    rng = random.Random(14)
    out = []
    for i in range(20):
        on_curve = g.pairs[rng.randrange(200)].x
        x = on_curve if i % 3 == 0 else random_point(H2, rng, spread=1.5)
        tail = on_curve if i % 2 == 0 else random_point(H2, rng, spread=1.5)
        terms = [(rng.uniform(0.25, 2.0), BoundVector(tail, random_point(H2, rng, spread=1.5)))]
        if i % 4 == 1:
            terms.append((-rng.uniform(0.25, 2.0), BoundVector(x, random_point(H2, rng, spread=1.5))))
        out.append((g, random_point(H2, rng, spread=1.5), PairedPoint(x, dual_vector(terms))))
    return out


# float.hex of (sup, inf, conjugate) on each of _pinned_curve_queries
_PINNED_CURVE_HEX = [
    ('0x1.4f32ae89e87a2p-1', '0x1.4f32ae89e87a0p-1', '0x1.4f32ae89e87a2p-1'),
    ('0x1.da880b186aefbp+0', '0x1.da880b186aefbp+0', '0x1.da880b186aefcp+0'),
    ('-0x1.8cf2526fcb1bfp+3', '-0x1.8cf2526fcb1bep+3', '-0x1.8cf2526fcb1bfp+3'),
    ('-0x1.67b833a3b3fb2p-2', '-0x1.67b833a3b3fb2p-2', '-0x1.67b833a3b3fb2p-2'),
    ('-0x1.44c4082c8a2abp+3', '-0x1.44c4082c8a2abp+3', '-0x1.44c4082c8a2abp+3'),
    ('0x1.cf30aedfc4788p+1', '0x1.cf30aedfc478ap+1', '0x1.cf30aedfc4788p+1'),
    ('0x1.d83c783f52db4p+3', '0x1.d83c783f52db0p+3', '0x1.d83c783f52db4p+3'),
    ('-0x1.1b6e1e8d57a96p-1', '-0x1.1b6e1e8d57a96p-1', '-0x1.1b6e1e8d57a96p-1'),
    ('0x1.4b3038985fc9cp+3', '0x1.4b3038985fc9cp+3', '0x1.4b3038985fc9cp+3'),
    ('0x1.44e08d67da1e6p+2', '0x1.44e08d67da1e6p+2', '0x1.44e08d67da1e6p+2'),
    ('-0x1.6b72c1fa99e6ap+0', '-0x1.6b72c1fa99e6cp+0', '-0x1.6b72c1fa99e6ap+0'),
    ('0x1.6470d6dad1ed3p-1', '0x1.6470d6dad1ed3p-1', '0x1.6470d6dad1ed3p-1'),
    ('0x1.45f4e51933878p+2', '0x1.45f4e51933860p+2', '0x1.45f4e51933878p+2'),
    ('-0x1.28873b3a70e3ap+1', '-0x1.28873b3a70e3ap+1', '-0x1.28873b3a70e3ap+1'),
    ('0x1.0c1711854dbdcp-2', '0x1.0c1711854dbdcp-2', '0x1.0c1711854dbdcp-2'),
    ('0x1.10fdb183a2981p+2', '0x1.10fdb183a2981p+2', '0x1.10fdb183a2981p+2'),
    ('-0x1.da7cd05979fc4p-1', '-0x1.da7cd05979fc0p-1', '-0x1.da7cd05979fc3p-1'),
    ('-0x1.984afbb2c550cp-3', '-0x1.984afbb2c550cp-3', '-0x1.984afbb2c550cp-3'),
    ('0x1.ac9074ae0c69ep+3', '0x1.ac9074ae0c6a0p+3', '0x1.ac9074ae0c69ep+3'),
    ('-0x1.86204978d8840p-6', '-0x1.86204978d8800p-6', '-0x1.86204978d8840p-6'),
]


def test_single_queries_keep_their_bits_on_a_curve_graph():
    forms = (fitzpatrick_sup, fitzpatrick_inf, fitzpatrick_via_conjugate)
    got = [tuple(form(g, p, q).value.hex() for form in forms) for g, p, q in _pinned_curve_queries()]
    assert got == _PINNED_CURVE_HEX


def test_single_queries_count_their_squared_distances(monkeypatch):
    potentials = count_potentials(monkeypatch)
    squares = count_dist_sq(monkeypatch)
    for g, p, q, per_read, per_column in _single_query_instances():
        h = FunctionTable(p, tuple((y, ExtReal(coupling_pi(p, y))) for y in g.pairs))
        n = len(g.pairs)
        # the graph's store numbers its m distinct points and its k rows
        # (distinct actions; every H^2 pair here has a dual of its own,
        # and a row) once, and every form reads them by number
        m, k = len({y.x for y in g.pairs}), len({y.xd.key if y.xd.key is not None else y.xd for y in g.pairs})
        # the query's potential at p is read once per call. The graph's
        # self-potentials P_y(y.x) are read by its first query (n of them,
        # one a pair) and then kept. sup reads P_q at each graph point and
        # each row's P_y(q); inf the same, plus P_q(q) and P_q(p) once,
        # from which it also takes the query's coupling; the conjugate
        # form P_q at each graph point and each row's P_y(q) and P_y(p),
        # which serves both y's coupling (P_y(y.x) is kept) and the
        # conjugate term; fenchel_conjugate_p three a pair. The rows'
        # values at one point (one member column: k of the reads above)
        # cost per_column squared distances together; fenchel_conjugate_p
        # reads each pair apart, per_read squared distances a potential.
        for query, reads, columns in (
            (lambda: fitzpatrick_sup(g, p, q), n + 1 + m + k, 1),
            (lambda: fitzpatrick_sup(g, p, q), 1 + m + k, 1),
            (lambda: fitzpatrick_inf(g, p, q), 2 + m + k, 1),
            (lambda: fitzpatrick_via_conjugate(g, p, q), 1 + m + 2 * k, 2),
            (lambda: fenchel_conjugate_p(h, p, g.pairs, q.xd, q.x), 1 + 3 * n, 0),
        ):
            potentials[0] = squares[0] = 0
            query()
            assert potentials[0] == reads
            assert squares[0] == per_read * (reads - columns * k) + per_column * columns


def test_a_member_column_costs_one_squared_distance_per_distinct_endpoint(monkeypatch):
    # on the 200-pair curve graph each dual 1.0 [c(t) -> c(t + 1)] starts
    # at its own graph point, and t + 1 lands on a grid point or next to
    # one: a column of the graph duals at q.x computes each distinct
    # endpoint's squared distance once, not two per dual
    squares = count_dist_sq(monkeypatch)
    g, p, q = _pinned_curve_queries()[1]
    fitzpatrick_sup(g, p, q)  # builds the store
    ends = {pt.payload for y in g.pairs for _, bv in y.xd.terms for pt in (bv.tail, bv.head)}
    assert len(g.pairs) < len(ends) < 2 * len(g.pairs)
    squares[0] = 0
    fitzpatrick_sup(g, p, q)
    assert squares[0] == len(ends) + 2 * len(q.xd.terms) * (len(g.pairs) + 1)


def test_a_query_past_the_scale_cap_counts_as_on_integers(monkeypatch):
    # the tree instance above on its integer scale, and the same graph
    # queried at a basepoint whose denominator has 5,000 bits, past the
    # cap, so that the query runs on Fractions: both read what the pin
    # above counts
    potentials = count_potentials(monkeypatch)
    _, (g, p, q, _, _), _ = _single_query_instances()
    far = make_point(g.space, (2, Fraction(1, 2**5000 + 1)))
    duals, points = [y.xd for y in g.pairs] + [q.xd], [y.x for y in g.pairs] + [q.x]
    assert _scale_of(g.space, duals, points + [p]) is not None
    assert _scale_of(g.space, duals, points + [far]) is None
    n = len(g.pairs)
    for basepoint in (p, far):
        # pairs that keep no own potential yet, as g's did
        fresh = OperatorGraph(g.space, _single_query_instances()[1][0].pairs)
        counts = []
        for form in (fitzpatrick_sup, fitzpatrick_sup, fitzpatrick_inf, fitzpatrick_via_conjugate):
            potentials[0] = 0
            form(fresh, basepoint, q)
            counts.append(potentials[0])
        assert counts == [n + 1 + 2 * n, 1 + 2 * n, 2 + 2 * n, 1 + 3 * n]


@pytest.mark.parametrize("form", [fitzpatrick_sup, fitzpatrick_inf, fitzpatrick_via_conjugate])
def test_exact_forms_reject_points_from_another_space(form):
    # an exact Euclidean graph with a tree basepoint, a tree query point
    # (zero dual), or a tree query dual; an H^2 graph with the same from
    # E^3, whose payloads have the H^2 length, so only the space check
    # tells them apart
    T = rtree()
    root, leaf = make_point(T, (1, 0)), make_point(T, (2, Fraction(1, 2)))
    g = OperatorGraph(E2, (PairedPoint(make_point(E2, (1, 2)), vector_dual(E2, (2, -1))),))
    euclid_q = PairedPoint(make_point(E2, (0, 1)), dual_term(Fraction(1, 2), ORIGIN2, make_point(E2, (1, 1))))
    E3 = euclidean(3)
    apex, flat = make_point(E3, (0.0, 0.0, 1.0)), make_point(E3, (1.0, 0.0, math.sqrt(2.0)))
    h_apex, h_side = make_point(H2, (0.0, 0.0, 1.0)), make_point(H2, (0.0, 1.0, math.sqrt(2.0)))
    h = OperatorGraph(H2, (PairedPoint(h_side, dual_term(1.0, h_side, h_apex)),))
    hyp_q = PairedPoint(h_apex, dual_term(1.0, h_apex, h_side))
    for g, p, q in (
        (g, root, euclid_q),
        (g, ORIGIN2, PairedPoint(leaf, zero_dual())),
        (g, ORIGIN2, PairedPoint(leaf, dual_term(1, root, leaf))),
        (h, apex, hyp_q),
        (h, h_apex, PairedPoint(flat, zero_dual())),
        (h, h_apex, PairedPoint(flat, dual_term(1.0, apex, flat))),
    ):
        with pytest.raises(SpaceMismatchError):
            form(g, p, q)


def test_building_a_graph_evaluates_no_potential(monkeypatch):
    # the self-potentials are paid at the first query, not when the graph
    # is built (a benchmark's set-up time does not absorb them)
    potentials = count_potentials(monkeypatch)
    for g, p, q, _, _ in _single_query_instances():
        potentials[0] = 0
        g = OperatorGraph(g.space, g.pairs)
        assert potentials[0] == 0
        first = fitzpatrick_sup(g, p, q)
        m, k = len({y.x for y in g.pairs}), len({y.xd.key if y.xd.key is not None else y.xd for y in g.pairs})
        assert potentials[0] == len(g.pairs) + 1 + m + k
        assert fitzpatrick_sup(g, p, q) == first


def test_a_hyperbolic_graph_batches_its_self_potentials(monkeypatch):
    # the first query on an n-pair H^2 graph takes its n self-potentials
    # P_y(y.x) from one elementwise kernel call, 2n squared distances
    # (every dual starts at its own point, so half of them are 0); later
    # queries read them kept, and so does a new graph over the same pairs,
    # which keep them (PairedPoint._own)
    import cat0.spaces

    calls = count_calls(monkeypatch, "_hyperbolic_dists_sq", (cat0.spaces, cat0.dual))
    squares = count_dist_sq(monkeypatch)
    for form in (fitzpatrick_sup, fitzpatrick_inf, fitzpatrick_via_conjugate):
        g, p, q = _pinned_curve_queries()[1]  # pairs that keep no own potential yet
        n = len(g.pairs)
        counts = []
        for graph in (g, g, OperatorGraph(g.space, g.pairs)):
            calls[0] = squares[0] = 0
            form(graph, p, q)
            counts.append((calls[0], squares[0]))
        (first, first_squares), (again, again_squares), kept = counts
        assert first == again + 1
        assert first_squares == again_squares + 2 * n
        assert kept == (again, again_squares)


@pytest.mark.parametrize("kind", ["euclidean", "rtree", "hyperbolic"])
@given(data=st.data())
def test_set_sweeps_equal_the_single_query_functions(kind, data):
    g, p, universe = data.draw(_instance(kind))
    same = functools.partial(_same, kind)
    tol = 1e-9  # below the hyperboloid's default, as every check here was written

    report = level_set_report(g, p, universe, tol)
    direct = [fitzpatrick_sup(g, p, q) - coupling_pi(p, q) for q in universe]
    assert all(same(a, b) for a, b in zip(report.gaps, direct))
    assert report.equal == tuple(
        i for i, gap in enumerate(direct) if gap.is_finite and abs(gap.value) <= tol
    )
    assert report.below == tuple(
        i for i, gap in enumerate(direct) if gap < 0 and i not in report.equal
    )

    pairs = g.pairs
    unrelated = [
        (a, b)
        for i, a in enumerate(pairs)
        for b in pairs[i + 1:]
        if not monotonically_related(a, b, tol)
    ]
    mono = is_monotone(g, tol)
    assert mono.holds == report.monotone == (not unrelated)
    if unrelated:
        a, b = unrelated[0]
        assert (mono.witness["pair_a"], mono.witness["pair_b"]) == (a, b)
        assert same(mono.witness["gap"], relatedness_gap(a, b))

    polar = tuple(u for u in universe if all(monotonically_related(u, q, tol) for q in pairs))
    assert monotone_polar(g, universe, tol) == polar
    maximal = not unrelated and all(pair_in(u, pairs, tol) for u in polar)
    assert report.maximal_relative == is_maximal_relative(g, universe, tol).holds == maximal


# moving the basepoint from p to p2 shifts every p-form at q by
# delta = <q.xd, p p2-> (helpers.basepoint_shift), so the level-set gaps,
# transform minus coupling, do not depend on it


def _shift_instance(data, kind):
    """(graph, p, p2, universe, its pairs with no two alike): p2 any point."""
    g, p, universe = data.draw(_instance(kind))
    distinct = []
    for u in universe:
        if not pair_in(u, distinct):
            distinct.append(u)
    return g, p, data.draw(POINTS[kind]), universe, distinct


@pytest.mark.parametrize("kind", ["euclidean", "rtree", "hyperbolic"])
@given(data=st.data())
def test_level_report_does_not_depend_on_its_basepoint(kind, data):
    g, p, p2, universe, _ = _shift_instance(data, kind)
    at_p, at_p2 = level_set_report(g, p, universe), level_set_report(g, p2, universe)
    if kind != "hyperbolic":
        assert repr(at_p2) == repr(at_p)
    assert all(_same(kind, a, b) for a, b in zip(at_p2.gaps, at_p.gaps))
    assert dataclasses.replace(at_p2, gaps=()) == dataclasses.replace(at_p, gaps=())


@pytest.mark.parametrize("kind", ["euclidean", "rtree", "hyperbolic"])
@given(data=st.data())
def test_forms_and_conjugates_shift_with_the_basepoint(kind, data):
    g, p, p2, universe, distinct = _shift_instance(data, kind)
    listed = distinct[: data.draw(st.integers(0, len(distinct)))]
    h = FunctionTable(p, tuple((u, ExtReal(data.draw(COEFFS[kind]))) for u in listed))
    h2 = shifted_table(h, p2)
    same = functools.partial(_same, kind)
    for q in universe:
        delta = basepoint_shift(q, p, p2)
        assert same(coupling_pi(p2, q), coupling_pi(p, q) - delta)
        for form in (fitzpatrick_sup, fitzpatrick_inf, fitzpatrick_via_conjugate):
            assert same(form(g, p2, q), form(g, p, q) - delta), form.__name__
        # over pairs no two of which match within tol: a pair matched to
        # another's entry reads that entry's value, shifted by its delta
        assert same(fenchel_conjugate_p(h2, p2, distinct, q.xd, q.x),
                    fenchel_conjugate_p(h, p, distinct, q.xd, q.x) - delta)
    at_p, at_p2 = gamma_p_membership(h, p, distinct), gamma_p_membership(h2, p2, distinct)
    assert at_p2.holds == at_p.holds
    assert same(at_p2.worst_defect, at_p.worst_defect)
    # s_map and the round trip read h - pi_p, which the shift leaves as it is
    if kind != "hyperbolic":
        assert s_map(h2, p2).pairs == s_map(h, p).pairs
    ht = transform_table(g, p, distinct)
    assert _roundtrip_holds(shifted_table(ht, p2), p2, distinct) == _roundtrip_holds(ht, p, distinct)


def _roundtrip_holds(h, p, universe):
    """roundtrip_check's verdict, or None where the table fails its precondition."""
    try:
        return roundtrip_check(h, p, universe).holds
    except RepresentationPreconditionError:
        return None


def test_distinct_maximal_graphs_have_distinct_transforms(rng):
    universe = small_universe(side=2, vec_range=1)
    graphs = []
    for seed in range(6):
        local = random.Random(seed)
        g = maximal_relative_graph(local, universe)
        if all(set(g.pairs) != set(h.pairs) for h in graphs):
            graphs.append(g)
    assert len(graphs) >= 2
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            diffs = [
                q
                for q in universe
                if fitzpatrick_sup(graphs[i], ORIGIN2, q)
                != fitzpatrick_sup(graphs[j], ORIGIN2, q)
            ]
            assert diffs, "distinct graphs must differ somewhere on the universe"


def test_conjugate_chain_on_monotone_graphs(rng):
    # transform <= its own conjugate after the swap <= coupling plus
    # the graph indicator, pointwise on the universe, exactly on ints
    universe = small_universe(side=2, vec_range=1)
    g = OperatorGraph(E2, greedy_monotone_subset(rng, universe, 3))
    h = transform_table(g, ORIGIN2, universe)
    graph_set = set(g.pairs)
    for q in universe:
        phi = h.value(q)
        double = fenchel_conjugate_p(h, ORIGIN2, universe, q.xd, q.x)
        assert phi <= double
        if q in graph_set:
            pi = ExtReal(coupling_pi(ORIGIN2, q))
            assert phi == pi == double  # equality on the graph, exact
        # off the graph the indicator is +inf: the upper bound is vacuous


# ---------------------------------------------------------------------------
# representation round trip


def test_s_map_reads_equality_rows():
    q_eq = _pp((1, 0), (1, 0))
    q_off = _pp((0, 1), (1, 0))
    h = FunctionTable(
        ORIGIN2,
        (
            (q_eq, ext(coupling_pi(ORIGIN2, q_eq))),
            (q_off, ext(coupling_pi(ORIGIN2, q_off) + 5)),
        ),
    )
    g = s_map(h)
    assert g.pairs == (q_eq,)


def test_roundtrip_on_transform_tables(rng):
    universe = small_universe(side=2, vec_range=1)
    g = maximal_relative_graph(rng, universe)
    h = transform_table(g, ORIGIN2, universe)
    recovered = s_map(h, ORIGIN2)
    assert set(recovered.pairs) == set(g.pairs)
    rep = roundtrip_check(h, ORIGIN2, universe)
    assert rep.holds, rep.witness


def test_frozen_tables_and_graphs_index_their_pairs_once(rng, monkeypatch):
    # the match tolerance is given per lookup, so a table's index (built
    # with it) and a graph's (built at its first membership test) serve
    # every later check; only the universe check indexes its input per call
    import cat0.conjugate

    built = []
    real_init = cat0.conjugate._PairSet.__init__

    def recording(self, members):
        built.append(tuple(members))
        real_init(self, members)

    universe = tuple(small_universe(side=2, vec_range=1))
    g = maximal_relative_graph(rng, universe)
    monkeypatch.setattr(cat0.conjugate._PairSet, "__init__", recording)
    h = transform_table(g, ORIGIN2, universe)
    assert built == [universe]
    for tol in (None, 1e-6):
        assert gamma_p_membership(h, ORIGIN2, universe, tol=tol).holds
        assert roundtrip_check(h, ORIGIN2, universe, tol=tol).holds
    assert built == [universe]

    recovered = s_map(h, ORIGIN2)
    built.clear()
    for tol in (None, 1e-6):
        assert is_maximal_relative(recovered, universe, tol).holds
        assert level_set_report(recovered, ORIGIN2, universe, tol).maximal_relative
    assert built == [universe, recovered.pairs] + [universe] * 3


def test_roundtrip_rejects_non_member_tables():
    universe = small_universe(side=2, vec_range=1)
    bad = FunctionTable(
        ORIGIN2,
        tuple((q, ExtReal(coupling_pi(ORIGIN2, q) - 1)) for q in universe),
    )
    with pytest.raises(RepresentationPreconditionError) as err:
        roundtrip_check(bad, ORIGIN2, universe)
    assert not err.value.report.holds


def test_roundtrip_reads_each_transform_as_fitzpatrick_sup(rng, monkeypatch):
    import cat0.fitzpatrick

    compared = []
    real_agree = cat0.fitzpatrick.agree

    def recording(values, tol):
        compared.append(tuple(values))
        return real_agree(values, tol)

    monkeypatch.setattr(cat0.fitzpatrick, "agree", recording)
    T = rtree()
    tree_pts = [make_point(T, c) for c in ((1, 0), (1, Fraction(1, 2)), (2, Fraction(1, 3)))]
    tree_duals = [zero_dual(), dual_term(Fraction(3, 2), tree_pts[2], tree_pts[1])]
    tree_universe = tuple(PairedPoint(x, xd) for x in tree_pts for xd in tree_duals)
    euclid_universe = small_universe(side=2, vec_range=1)
    cases = [(maximal_relative_graph(rng, euclid_universe), ORIGIN2, euclid_universe)]
    for p in tree_pts:
        g = OperatorGraph(T, greedy_monotone_subset(rng, tree_universe, len(tree_universe)))
        cases.append((g, p, tree_universe))
    for g, p, universe in cases:
        h = transform_table(g, p, universe)
        compared.clear()
        assert roundtrip_check(h, p, universe).holds
        recovered = s_map(h, p)
        assert compared == [(fitzpatrick_sup(recovered, p, q), v) for q, v in h.entries]


def test_roundtrip_witness_names_the_first_entry_off_the_transform():
    qa = PairedPoint(make_point(E2, (1, 1)), vector_dual(E2, (0, -1)))
    qb = PairedPoint(make_point(E2, (0, 0)), vector_dual(E2, (0, -1)))
    qc = PairedPoint(make_point(E2, (1, 0)), zero_dual())
    h = FunctionTable(ORIGIN2, ((qa, ExtReal(-1)), (qb, ExtReal(0)), (qc, ExtReal(0))))
    # relative to the universe {qb} the table is a member, but the
    # transform of its equality-band graph sits above it at qa
    rep = roundtrip_check(h, ORIGIN2, [qb])
    assert rep.witness == {"pair": qa, "table": ExtReal(-1), "transform": ExtReal(0)}
    assert rep.witness["transform"] == fitzpatrick_sup(s_map(h), ORIGIN2, qa)
    # relative to its own domain it is not a member
    with pytest.raises(RepresentationPreconditionError) as err:
        roundtrip_check(h)
    assert not err.value.report.fixed_point_holds


# ---------------------------------------------------------------------------
# convexity of the transform


def test_convexity_empty_graph_trivially_holds():
    rep = convexity_check_fitz(OperatorGraph(E2, ()), ORIGIN2, [])
    assert rep.holds and rep.checked_pairs == 0 and rep.skipped_pairs == 0


def test_convexity_on_euclidean_candidates(rng):
    universe = small_universe(side=2, vec_range=1)
    g = maximal_relative_graph(rng, universe)
    candidates = [
        (universe[rng.randrange(len(universe))], universe[rng.randrange(len(universe))])
        for _ in range(6)
    ]
    rep = convexity_check_fitz(g, ORIGIN2, candidates)
    assert rep.holds, rep.witness
    assert rep.skipped_pairs == 0  # flat space: the precondition always holds
    assert rep.checked_pairs == len(candidates)


def test_convexity_skips_candidates_without_precondition():
    space = hyperbolic(2)
    aw = make_point(space, (1.0, 0.0, math.sqrt(2.0)))
    bw = make_point(space, (-1.0, 0.0, math.sqrt(2.0)))
    xw = make_point(space, (0.0, 1.0, math.sqrt(2.0)))
    neg = dual_scale(-1, dual_term(1.0, aw, bw))
    g = OperatorGraph(space, (PairedPoint(xw, neg), PairedPoint(bw, neg)))
    candidates = [(PairedPoint(xw, neg), PairedPoint(bw, neg))]
    rep = convexity_check_fitz(g, xw, candidates)
    assert rep.skipped_pairs == 1
    assert rep.checked_pairs == 0


# ---------------------------------------------------------------------------
# the bundled reference rows


def test_worked_examples_all_pass_reduced():
    rows = worked_examples(
        tree_depth=8,
        curve_grid_stop=2.0,
        curve_grid_step=0.05,
        curve_slope_samples=(0.0, 1.0, 2.0),
    )
    assert rows
    names = [r.name for r in rows]
    assert len(names) == len(set(names))
    for r in rows:
        assert r.passed, f"{r.name}: computed {r.computed}, expected {r.expected}"


def test_worked_examples_rows_carry_extended_values():
    rows = worked_examples(
        tree_depth=4, curve_grid_stop=1.0, curve_grid_step=0.25,
        curve_slope_samples=(0.0,),
    )
    for r in rows:
        assert isinstance(r.computed, ExtReal)
        assert isinstance(r.expected, ExtReal)


def test_level_set_gaps_keep_a_float_point_apart_from_an_equal_exact_one():
    # the potential table numbered (1.0, 0.0) as the graph's (1, 0), so its
    # gap was read at the exact point, as Fraction(0, 1)
    x = make_point(E2, (1, 0))
    g = OperatorGraph(E2, (PairedPoint(x, dual_term(1, ORIGIN2, x)),))
    fx = make_point(E2, (1.0, 0.0))
    universe = [g.pairs[0], PairedPoint(fx, dual_term(1, ORIGIN2, fx))]
    report = level_set_report(g, ORIGIN2, universe)
    direct = [fitzpatrick_sup(g, ORIGIN2, q) - coupling_pi(ORIGIN2, q) for q in universe]
    assert [(type(v.raw), v.raw) for v in report.gaps] == [(type(v.raw), v.raw) for v in direct]
    assert type(report.gaps[1].raw) is float

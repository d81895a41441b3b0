import random
from fractions import Fraction

import pytest

from cat0 import (
    NEG_INF,
    POS_INF,
    CandidateUniverse,
    ExtReal,
    FunctionTable,
    ImproperTableError,
    PairedPoint,
    avg_lowerbound_check,
    classical_conjugate_oracle,
    coupling_pi,
    dual_term,
    euclidean,
    fenchel_conjugate_p,
    fenchel_young_check,
    function_table,
    gamma_p_membership,
    make_point,
    pair,
    pair_in,
    rtree,
    universe_of,
    zero_dual,
)
from cat0.spaces import BoundVector
from helpers import (
    ORIGIN2,
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
    with pytest.raises(Exception):
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


def test_universe_container_roundtrip():
    q0, q1 = _pp((1, 0), (0, 1)), _pp((0, 1), (1, 0))
    u = universe_of([q0, q1])
    assert isinstance(u, CandidateUniverse)
    assert u.pairs == (q0, q1)


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


@pytest.mark.parametrize(
    "space, p, x, a, b",
    [
        (E2, (0, 0), (1, 1), (1, 0), (2, 1)),
        (rtree(), (1, 0), (1, Fraction(1, 2)), (2, Fraction(1, 2)), (3, 1)),
    ],
    ids=["euclidean", "rtree"],
)
def test_conjugate_reads_table_values_behaviorally(space, p, x, a, b):
    # the universe may spell a table pair differently: 1 [a->b] is -1 [b->a]
    o, x, a, b = (make_point(space, c) for c in (p, x, a, b))
    h = FunctionTable(o, ((PairedPoint(x, dual_term(1, a, b)), ExtReal(0)),))
    for spelled in (dual_term(1, a, b), dual_term(-1, b, a)):
        got = fenchel_conjugate_p(h, o, [PairedPoint(x, spelled)], zero_dual(), o)
        assert got == ExtReal(0)


def test_zero_dual_entries_are_supported():
    q = PairedPoint(make_point(E2, (1, 2)), zero_dual())
    h = _table([(q, 0)])
    assert coupling_pi(ORIGIN2, q) == 0
    got = fenchel_conjugate_p(h, ORIGIN2, [q], q.xd, q.x)
    assert got == ExtReal(0)

"""Acceptance gate: the twelve release criteria, one test each.

Every test rebuilds its instances from scratch (no reuse of the
package's bundled example constructors) and pins the expected values
independently, so a regression in the library cannot silently
re-derive its own expectations.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

from cat0 import (
    OperatorGraph,
    PairedPoint,
    check_cauchy_schwarz,
    check_cn_inequality,
    coupling_pi,
    dist_sq,
    dual_term,
    euclidean,
    f_property_check,
    fenchel_conjugate_p,
    fenchel_young_check,
    fitzpatrick_inf,
    fitzpatrick_sup,
    fitzpatrick_via_conjugate,
    flatness_check,
    gamma_p_membership,
    geodesic_point,
    hyperbolic,
    is_maximal_relative,
    level_set_report,
    make_point,
    pair,
    quasilinearization,
    relatedness_gap,
    roundtrip_check,
    rtree,
    s_map,
    sample_points,
    zero_dual,
    classical_fitzpatrick_oracle,
)
from cat0.spaces import BoundVector
from helpers import (
    ORIGIN2,
    avg_lowerbound_check,
    canonical_hilbert_of,
    classical_conjugate_oracle,
    greedy_monotone_subset,
    grid_duals,
    grid_points,
    hilbert_inner,
    maximal_relative_graph,
    product_universe,
    random_graph,
    random_proper_table,
    small_universe,
    transform_table,
)

E2 = euclidean(2)
TREE = rtree()
H2 = hyperbolic(2)


def _report(n: int, text: str) -> None:
    print(f"criterion {n:02d} PASS - {text}")


# ---------------------------------------------------------------------------
# criterion 1: exact rational transform values on the tree instance


def _tree_chain(depth: int):
    def xn(n):
        return make_point(TREE, (n, Fraction(1, n)))

    return tuple(
        PairedPoint(xn(n), dual_term(1, xn(n), xn(n + 1))) for n in range(1, depth + 1)
    )


def test_criterion_01_tree_transform_exact():
    chain = _tree_chain(25)
    graph = OperatorGraph(TREE, chain)
    query = PairedPoint(
        make_point(TREE, (1, 0)),
        dual_term(1, make_point(TREE, (2, Fraction(2, 3))), make_point(TREE, (3, 1))),
    )

    gaps = [relatedness_gap(query, member) for member in chain]
    frozen = [
        Fraction(-7, 6),
        Fraction(5, 12),
        Fraction(-3, 4),
        Fraction(-7, 240),
        Fraction(-1, 150),
    ]
    assert gaps[:5] == frozen
    assert all(isinstance(g, (int, Fraction)) for g in gaps)
    assert min(gaps) == Fraction(-7, 6)

    def expected_coupling(n0, t0):
        if n0 == 2:
            return Fraction(5, 3) * t0
        if n0 == 3:
            return -Fraction(5, 3) * t0
        return Fraction(1, 3) * t0

    for n0 in (2, 3, 5):
        for t0 in (0, Fraction(1, 4), Fraction(1, 2), 1):
            p = make_point(TREE, (n0, t0))
            want = expected_coupling(n0, t0) + Fraction(7, 6)
            via_sup = fitzpatrick_sup(graph, p, query)
            via_inf = fitzpatrick_inf(graph, p, query)
            via_conj = fitzpatrick_via_conjugate(graph, p, query)
            assert via_sup.value == want  # exact Fractions, no tolerance
            assert via_inf.value == want
            assert via_conj.value == want
    _report(1, "tree instance: inner inf -7/6 and all transform branches, exact")


# ---------------------------------------------------------------------------
# criterion 2: hyperbolic curve instance


def _curve(t: float):
    return make_point(H2, (math.sinh(t), 0.0, math.cosh(t)))


def _curve_query():
    x = make_point(H2, (0.0, 0.0, 1.0))
    xd = dual_term(
        1.0,
        make_point(H2, (1.0, 0.0, math.sqrt(2.0))),
        make_point(H2, (0.0, -1.0, math.sqrt(2.0))),
    )
    return PairedPoint(x, xd)


def test_criterion_02_hyperbolic_transform():
    p = make_point(H2, (1.0, -1.0, math.sqrt(3.0)))
    query = _curve_query()
    assert abs(coupling_pi(p, query)) <= 1e-9

    for t in (0.0, 0.5, 1.0, 2.0, 5.0):
        yt = _curve(t)
        yd = dual_term(1.0, yt, _curve(t + 1.0))
        slope = pair(yd, BoundVector(yt, query.x))
        assert abs(slope - (-t)) <= 1e-9

    pairs = []
    steps = 1000
    for k in range(steps + 1):
        t = k * 0.01
        yt = _curve(t)
        pairs.append(PairedPoint(yt, dual_term(1.0, yt, _curve(t + 1.0))))
    graph = OperatorGraph(H2, tuple(pairs))
    phi = fitzpatrick_sup(graph, p, query)
    assert phi.is_finite and abs(phi.value) <= 1e-6
    _report(2, "hyperbolic instance: coupling 0, slopes -t, grid transform 0")


# ---------------------------------------------------------------------------
# criterion 3: the non-flatness witness


def _witness():
    aw = make_point(H2, (1.0, 0.0, math.sqrt(2.0)))
    bw = make_point(H2, (-1.0, 0.0, math.sqrt(2.0)))
    xw = make_point(H2, (0.0, 1.0, math.sqrt(2.0)))
    return aw, bw, xw


def test_criterion_03_nonflatness_witness():
    aw, bw, xw = _witness()
    xdw = dual_term(1.0, aw, bw)
    mid = geodesic_point(xw, bw, Fraction(1, 2))
    midpoint_side = pair(xdw, BoundVector(xw, mid))
    chord_side = 0.5 * pair(xdw, BoundVector(xw, bw))
    assert abs(midpoint_side - 0.6816) <= 5e-4
    assert abs(chord_side - 0.7768) <= 5e-4

    # closed-form cross check, independent of the geodesic machinery
    alpha = math.cosh(0.5 * math.acosh(2.0))
    beta = math.sinh(0.5 * math.acosh(2.0)) / math.sqrt(3.0)
    closed_mid = 0.5 * (math.acosh(2 * alpha - beta) ** 2 - math.acosh(2.0) ** 2 / 4)
    closed_chord = math.acosh(3.0) ** 2 / 4
    assert abs(midpoint_side - closed_mid) <= 1e-9
    assert abs(chord_side - closed_chord) <= 1e-9

    flat = flatness_check(H2, [(xw, bw, aw)], (Fraction(1, 2),))
    assert not flat.holds

    members = (PairedPoint(xw, xdw), PairedPoint(bw, xdw))
    fp = f_property_check(members, xw, lambda_grid=(0, Fraction(1, 2), 1))
    assert not fp.upper.holds
    w = fp.upper.witness
    assert w["lam"] == Fraction(1, 2)
    assert abs(w["along"] - 0.6816) <= 5e-4
    assert abs(w["chord"] - 0.7768) <= 5e-4
    _report(3, "witness sides 0.6816 / 0.7768; flatness and upper property fail there")


# ---------------------------------------------------------------------------
# criterion 4: pairing equals the inner product in flat space


def test_criterion_04_quasilinearization_inner_product():
    space = euclidean(3)
    rng = random.Random(1004)
    for _ in range(1000):
        x, y, u, v = (
            make_point(space, tuple(rng.randint(-6, 6) for _ in range(3)))
            for _ in range(4)
        )
        got = quasilinearization(BoundVector(x, y), BoundVector(u, v))
        want = hilbert_inner(
            tuple(b - a for a, b in zip(x.payload, y.payload)),
            tuple(b - a for a, b in zip(u.payload, v.payload)),
        )
        assert abs(got - want) <= 1e-9
    _report(4, "pairing vs inner product: 10^3 integer quadruples agree")


# ---------------------------------------------------------------------------
# criterion 5: comparison inequalities across all three spaces


def test_criterion_05_comparison_inequalities():
    strict_seen = {}
    for space in (E2, TREE, H2):
        pts = sample_points(space, 40, seed=1005)
        rng = random.Random(1006)
        tol = 1e-7 if space.kind == "hyperbolic" else 1e-9
        equalities = 0
        strict = 0
        for _ in range(1000):
            x, y, z, w = (rng.choice(pts) for _ in range(4))
            t = rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))
            cn = check_cn_inequality(x, y, z, t)
            assert cn.holds
            if cn.is_equality:
                equalities += 1
            elif cn.rhs - cn.lhs > 1e-6:
                strict += 1
            cs = check_cauchy_schwarz(BoundVector(x, y), BoundVector(z, w), tol=tol)
            assert cs.holds
        strict_seen[space.kind] = strict
        if space.kind == "euclidean":
            assert equalities == 1000  # flat: always equality within 1e-9
    assert strict_seen["rtree"] >= 1
    assert strict_seen["hyperbolic"] >= 1
    _report(5, "CN and Cauchy-Schwarz on 10^3 samples per space; strictness found")


# ---------------------------------------------------------------------------
# criterion 6: the two conjugate inequalities, exhaustively


def test_criterion_06_fenchel_young_and_average_bound():
    rng = random.Random(1007)
    for _ in range(100):
        h = random_proper_table(rng, E2, rng.randint(3, 8))
        for q1 in h.domain:
            for q2 in h.domain:
                assert fenchel_young_check(h, ORIGIN2, q1, q2)
        assert avg_lowerbound_check(h, ORIGIN2, h.domain)
    _report(6, "Fenchel-Young and average bound: 100 proper tables, every pair")


# ---------------------------------------------------------------------------
# criterion 7: agreement with the flat-space oracles at the origin


def test_criterion_07_classical_oracle_equivalence():
    rng = random.Random(1008)
    for _ in range(100):
        h = random_proper_table(rng, E2, rng.randint(3, 7))
        grid = [((q.x.payload, canonical_hilbert_of(q.xd)), v) for q, v in h.entries]
        query = h.domain[rng.randrange(len(h.domain))]
        want = classical_conjugate_oracle(grid, canonical_hilbert_of(query.xd), query.x.payload)
        got = fenchel_conjugate_p(h, ORIGIN2, h.domain, query.xd, query.x)
        assert abs(got.value - want.value) <= 1e-9

    universe = small_universe(side=2, vec_range=1)
    for _ in range(100):
        g = OperatorGraph(E2, greedy_monotone_subset(rng, universe, rng.randint(1, 4)))
        if not g.pairs:
            continue
        q = universe[rng.randrange(len(universe))]
        got = fitzpatrick_sup(g, ORIGIN2, q)
        want = classical_fitzpatrick_oracle(
            [(m.x.payload, canonical_hilbert_of(m.xd)) for m in g.pairs],
            q.x.payload,
            canonical_hilbert_of(q.xd),
        )
        assert abs(got.value - want.value) <= 1e-9
    _report(7, "conjugate and transform match the vector-space oracles at the origin")


# ---------------------------------------------------------------------------
# criterion 8: the three transform forms agree everywhere


def test_criterion_08_three_form_agreement():
    rng = random.Random(1009)
    for space in (E2, TREE, H2):
        pool = sample_points(space, 40, seed=1010)
        sampler = lambda: pool[rng.randrange(len(pool))]
        for _ in range(100):
            g = random_graph(rng, space, rng.randint(1, 5), sampler)
            q = PairedPoint(sampler(), dual_term(Fraction(1, 2), sampler(), sampler()))
            p = sampler()
            a = fitzpatrick_sup(g, p, q)
            b = fitzpatrick_inf(g, p, q)
            c = fitzpatrick_via_conjugate(g, p, q)
            vals = (a.value, b.value, c.value)
            assert max(vals) - min(vals) <= 1e-9
    _report(8, "sup, inf and conjugate forms agree on 100 graphs per space")


# ---------------------------------------------------------------------------
# criterion 9: level sets versus the polar on exhaustive universes


def test_criterion_09_level_set_suite():
    rng = random.Random(1011)
    compact = small_universe(side=2, vec_range=1)  # 36 pairs
    wide = small_universe(side=3, vec_range=1)  # 81 pairs
    for i in range(50):
        universe = compact if i % 2 == 0 else wide
        assert len(universe) <= 400
        style = i % 3
        if style == 0:
            graph = OperatorGraph(E2, greedy_monotone_subset(rng, universe, 4))
        elif style == 1:
            graph = maximal_relative_graph(rng, universe)
        else:
            # arbitrary subsets exercise the premise-free cross check
            k = rng.randint(1, 5)
            graph = OperatorGraph(
                E2, tuple(universe[rng.randrange(len(universe))] for _ in range(k))
            )
        report = level_set_report(graph, ORIGIN2, universe)
        assert report.checks["at_most_coupling_equals_polar"] is True
        if report.monotone:
            assert report.checks["graph_inside_equality_band"] is True
        if report.maximal_relative:
            assert report.checks["equality_band_equals_graph"] is True
            assert report.checks["nothing_below_coupling"] is True
    _report(9, "level-set partition matches the polar on 50 graphs")


# ---------------------------------------------------------------------------
# criterion 10: representation round trip


def _c10_universes():
    pts = grid_points(E2, range(2))
    narrow = product_universe(pts, grid_duals(E2, ((0, 0), (1, 0), (0, 1), (1, 1))))
    wide = product_universe(
        pts, grid_duals(E2, ((0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)))
    )
    return narrow, wide  # 16 and 24 pairs


def _distinct_maximal_graphs(universe, want: int):
    graphs = []
    for seed in range(200):
        g = maximal_relative_graph(random.Random(seed), universe)
        if all(set(g.pairs) != set(h.pairs) for h in graphs):
            graphs.append(g)
        if len(graphs) == want:
            return graphs
    raise AssertionError(f"only found {len(graphs)} distinct maximal graphs")


def test_criterion_10_representation_roundtrip():
    total = 0
    for universe in _c10_universes():
        graphs = _distinct_maximal_graphs(universe, 10)
        total += len(graphs)

        for g in graphs:
            h = transform_table(g, ORIGIN2, universe)
            membership = gamma_p_membership(h, ORIGIN2, universe)
            assert membership.holds
            recovered = s_map(h, ORIGIN2)
            assert set(recovered.pairs) == set(g.pairs)
            assert is_maximal_relative(recovered, universe).holds
            assert roundtrip_check(h, ORIGIN2, universe, tol=1e-9).holds

        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert any(
                    fitzpatrick_sup(graphs[i], ORIGIN2, q)
                    != fitzpatrick_sup(graphs[j], ORIGIN2, q)
                    for q in universe
                ), "distinct maximal graphs must induce distinct transforms"
    assert total == 20
    _report(10, "20 maximal graphs: membership, recovery, round trip, injectivity")


# ---------------------------------------------------------------------------
# criterion 11: the anchored scaling operator identity


def test_criterion_11_scaling_operator_identity():
    rng = random.Random(1012)
    for space in (E2, TREE, H2):
        pts = sample_points(space, 30, seed=1013)
        a = pts[0]
        for t0 in (Fraction(1, 2), 1, 2):
            for _ in range(30):
                x, y = rng.choice(pts), rng.choice(pts)
                qx = PairedPoint(x, dual_term(t0, a, x) if x != a else zero_dual())
                qy = PairedPoint(y, dual_term(t0, a, y) if y != a else zero_dual())
                gap = relatedness_gap(qx, qy)
                assert abs(gap - t0 * dist_sq(x, y)) <= 1e-9
    _report(11, "anchored operator: pairing equals t0 d(x,y)^2 in all three spaces")


# ---------------------------------------------------------------------------
# criterion 12: CLI determinism


def test_criterion_12_cli_reference_run_deterministic():
    cmd = [sys.executable, "-m", "cat0", "paper-examples"]
    first = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    second = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["all_passed"] is True
    _report(12, "reference-example CLI run: exit 0, byte-identical output")

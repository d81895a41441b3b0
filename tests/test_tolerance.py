"""One tolerance policy: every comparison default is the space's default_tol.

Each H^2 case below sits between 1e-9 and the hyperboloid's 1e-7, so
the two tolerances give different verdicts: the default must be the
verdict at default_tol. The CLI's --tol default must be the library's,
and no other module of src/cat0 may write a tolerance of its own.
"""

import ast
import json
import math
import os
from fractions import Fraction

import pytest

from cat0 import (
    OperatorGraph,
    PairedPoint,
    RepresentationPreconditionError,
    BoundVector,
    cli,
    convexity_check_fitz,
    coupling_pi,
    dual_term,
    duals_match,
    euclidean,
    f_property_check,
    fenchel_young_check,
    fitzpatrick_forms_agree,
    fitzpatrick_inf,
    fitzpatrick_sup,
    fitzpatrick_via_conjugate,
    function_table,
    gamma_p_membership,
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
    roundtrip_check,
    s_map,
    zero_dual,
)
from cat0.extreal import ExtReal
from cat0.jsonio import jsonable

H2 = hyperbolic(2)
TOL = H2.default_tol
TIGHT = 1e-9  # the default these functions had on the hyperboloid
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "cat0")
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _sheet(u, v):
    return make_point(H2, (u, v, math.sqrt(1 + u * u + v * v)))


A, B = _sheet(0.1, 0.7), _sheet(-0.6, -0.3)
X1, X2, P = _sheet(0.3, -0.2), _sheet(-0.4, 0.5), _sheet(0.2, 0.1)
# q1's dual is scaled so that its relatedness gap to (x2, 0) is -5e-8
Q2 = PairedPoint(X2, zero_dual())
Q1 = PairedPoint(X1, dual_term(-5e-8 / pair(dual_term(1.0, A, B), BoundVector(X2, X1)), A, B))
# one pair and a copy whose dual carries 5e-8 more weight on each endpoint
NEAR = PairedPoint(X1, dual_term(1.0, A, B))
NEAR_COPY = PairedPoint(X1, dual_term(1.0 + 5e-8, A, B))


def _same_default(f, *args):
    """f's default result equals its result at default_tol and differs from the 1e-9 one."""
    default = f(*args)
    assert default == f(*args, tol=TOL)
    assert default != f(*args, tol=TIGHT)
    return default


def test_the_cases_sit_between_the_two_tolerances():
    assert -TOL < relatedness_gap(Q1, Q2) < -TIGHT
    gap = fitzpatrick_sup(OperatorGraph(H2, (Q2,)), P, Q1).value - coupling_pi(P, Q1)
    assert TIGHT < gap < TOL


def test_relatedness_defaults_read_the_space():
    assert _same_default(monotonically_related, Q1, Q2) is True
    assert _same_default(is_monotone, [Q1, Q2]).holds
    assert _same_default(monotone_polar, [Q2], [Q1]) == (Q1,)


def test_relative_maximality_default_reads_the_space():
    # q1 is related to the graph within 1e-7 only: there it extends it
    rep = _same_default(is_maximal_relative, OperatorGraph(H2, (Q2,)), [Q2, Q1])
    assert rep.witness == {"extension": Q1}


def test_matching_defaults_read_the_space():
    assert _same_default(duals_match, NEAR.xd, NEAR_COPY.xd) is True
    assert _same_default(pair_in, NEAR_COPY, [NEAR]) is True
    # a table reads its values by the same rule, at the space's tolerance
    h = function_table(P, [(NEAR.x, NEAR.xd, 0.5)])
    assert h.value(NEAR_COPY) == ExtReal(0.5)


def test_fenchel_young_default_matches_at_the_space_tolerance():
    # the copy of the listed pair carries k 5e-8 (about 6e-8) more weight
    # on each endpoint. Matched within 1e-7, that costs 3 * 5e-8 on the
    # right-hand side; at 1e-9 the copy is unlisted, so h is +inf there
    z = _sheet(-3.0, -2.0)
    k = 3.0 / pair(dual_term(1.0, A, B), BoundVector(P, z))
    h = function_table(P, [(X1, dual_term(k, A, B), 0.5)])
    q1 = PairedPoint(X1, dual_term(k * (1 + 5e-8), A, B))
    assert _same_default(fenchel_young_check, h, P, q1, PairedPoint(z, zero_dual())) is False


def test_level_band_default_reads_the_space():
    g = OperatorGraph(H2, (Q2,))
    rep = _same_default(level_set_report, g, P, [Q2, Q1])
    assert rep.equal == (0, 1) and rep.above == ()
    assert rep.checks["at_most_coupling_equals_polar"]


def _near_coupling_table(offset):
    return function_table(P, [(NEAR.x, NEAR.xd, coupling_pi(P, NEAR) + offset)])


def test_s_map_default_reads_the_space():
    assert _same_default(s_map, _near_coupling_table(5e-8), P).pairs == (NEAR,)


def test_membership_default_reads_the_space():
    # one entry 2.5e-8 below its coupling: the fixed-point defect is 5e-8
    h = _near_coupling_table(-2.5e-8)
    rep = _same_default(gamma_p_membership, h, P, h.domain)
    assert rep.holds and TIGHT < rep.worst_defect < TOL


def test_roundtrip_default_reads_the_space():
    h = _near_coupling_table(-2.5e-8)
    assert roundtrip_check(h).holds == roundtrip_check(h, tol=TOL).holds is True
    with pytest.raises(RepresentationPreconditionError):
        roundtrip_check(h, tol=TIGHT)


# a query dual of weight 1e8 makes the three forms round apart by about 2e-8
FORMS_POINTS = [_sheet(*c) for c in ((-1.69, 0.03), (1.98, 1.98), (-0.45, 1.67),
                                     (1.72, -1.7), (-1.64, 0.99), (-0.95, -0.56))]
FORMS_GRAPH = OperatorGraph(H2, (PairedPoint(FORMS_POINTS[0], dual_term(1.0, *FORMS_POINTS[1:3])),))
FORMS_QUERY = PairedPoint(FORMS_POINTS[3], dual_term(1e8, *FORMS_POINTS[4:6]))


def test_form_agreement_default_reads_the_space():
    p = FORMS_POINTS[0]
    forms = [f(FORMS_GRAPH, p, FORMS_QUERY).value
             for f in (fitzpatrick_sup, fitzpatrick_inf, fitzpatrick_via_conjugate)]
    assert TIGHT < max(forms) - min(forms) < TOL
    assert _same_default(fitzpatrick_forms_agree, FORMS_GRAPH, p, FORMS_QUERY) is True


def _convexity_case():
    # F = 1/2 c (d(t, .)^2 - d(h, .)^2) with c < 0 is concave along [a, b]
    # (t is far off the segment, h on it), so the transform of the graph
    # {(y, c [t h->])} and the precondition exceed their chords by the
    # same amount; c scales that excess to 5e-8
    a, b, t, h, y = (_sheet(-0.5, 0.0), _sheet(0.5, 0.0), _sheet(0.0, 2.0),
                     _sheet(0.0, 0.0), _sheet(0.2, -0.3))
    qa, qb = PairedPoint(a, zero_dual()), PairedPoint(b, zero_dual())
    mid = PairedPoint(geodesic_point(a, b, Fraction(1, 2)), zero_dual())

    def graph(c):
        return OperatorGraph(H2, (PairedPoint(y, dual_term(c, t, h)),))

    def excess(c):
        fa, fb, fm = (fitzpatrick_sup(graph(c), h, q).value for q in (qa, qb, mid))
        return fm - (fa + fb) / 2

    return graph(-5e-8 / excess(-1.0)), h, [(qa, qb)]


def test_transform_convexity_default_reads_the_space():
    g, p, candidates = _convexity_case()
    grid = (0, Fraction(1, 2), 1)
    rep = _same_default(convexity_check_fitz, g, p, candidates, grid)
    # one tol for the precondition and the inequality: checked and held
    assert (rep.holds, rep.checked_pairs, rep.skipped_pairs) == (True, 1, 0)
    tight = convexity_check_fitz(g, p, candidates, grid, tol=TIGHT)
    assert (tight.holds, tight.checked_pairs, tight.skipped_pairs) == (True, 0, 1)


# ---------------------------------------------------------------------------
# the CLI's --tol default is the library's


def _h2_instances():
    space = {"kind": "hyperbolic", "dim": 2}
    w = [_sheet(1.0, 0.0), _sheet(-1.0, 0.0), _sheet(0.0, 1.0)]
    table = _near_coupling_table(-2.5e-8)
    return {
        "fitz": {"space": space, "graph": {"pairs": jsonable(FORMS_GRAPH.pairs)},
                 "p": jsonable(FORMS_POINTS[0]), "query": jsonable(FORMS_QUERY)},
        "monotone-check": {"space": space, "pairs": jsonable([Q1, Q2])},
        "polar": {"space": space, "set": jsonable([Q2]), "universe": jsonable([Q1])},
        "maximal-check": {"space": space, "graph": {"pairs": jsonable([Q2])}, "universe": jsonable([Q2, Q1])},
        "flatness": {"space": space, "triples": [jsonable([w[2], w[1], w[0]])]},
        "f-property": {"space": space, "p": jsonable(w[2]),
                       "set": jsonable([PairedPoint(x, dual_term(1.0, w[0], w[1])) for x in w[1:]])},
        "gamma-check": {"space": space, "table": {"p": jsonable(P), "entries": [
            {**jsonable(q), "value": v.value} for q, v in table.entries]}},
    }


with open(os.path.join(DATA, "cli_cases.json"), encoding="utf-8") as _f:
    EXACT = {c["command"]: c for c in json.load(_f) if "id" not in c}  # one per subcommand
H2_INSTANCES = _h2_instances()


def _argv(tmp_path, command, instance, universe=None, flags=()):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    argv = [command, str(path), *flags]
    if universe is not None:
        upath = tmp_path / "universe.json"
        upath.write_text(json.dumps(universe))
        argv += ["--universe", str(upath)]
    return argv


@pytest.mark.parametrize("kind", ["exact", "hyperbolic"])
@pytest.mark.parametrize("command", list(H2_INSTANCES))
def test_cli_tol_default_is_the_library_default(tmp_path, capsys, command, kind):
    if kind == "exact":
        case = EXACT[command]
        argv = _argv(tmp_path, command, case["instance"], case["universe"], case["flags"])
        tol = 1e-9  # every recorded instance is Euclidean or a tree
    else:
        argv = _argv(tmp_path, command, H2_INSTANCES[command])
        tol = TOL
    runs = []
    for extra in ([], ["--tol", repr(tol)]):
        code = cli.main(argv + extra)
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 1)


def test_maximal_check_tol_governs_relatedness(tmp_path, capsys):
    # within 1e-9, q1 is not related to the graph and cannot extend it
    argv = _argv(tmp_path, "maximal-check", H2_INSTANCES["maximal-check"])
    codes = [cli.main(argv + extra) for extra in ([], ["--tol", "1e-9"])]
    capsys.readouterr()
    assert codes == [1, 0]


# ---------------------------------------------------------------------------
# no tolerance written outside the allowed sites

# default_tol itself, the sheet band of make_point and the one
# hyperbolic_geodesic passes to it, and the reference rows' own tolerances
ALLOWED = {
    ("spaces.py", "default_tol"),
    ("spaces.py", "make_point"),
    ("spaces.py", "hyperbolic_geodesic"),
    ("fitzpatrick.py", "_hyperbolic_example_rows"),
}


def _tolerance_literals(tree):
    """(enclosing function, line) of every 1e-7 or 1e-9 float literal."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Constant) and type(node.value) is float and node.value in (1e-7, 1e-9):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_only_the_allowed_sites_write_a_tolerance():
    stray = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as f:
                tree = ast.parse(f.read(), name)
            stray += [(name, where, line) for where, line in _tolerance_literals(tree)
                      if (name, where) not in ALLOWED]
    assert stray == []


def test_the_guard_sees_a_stray_tolerance():
    tree = ast.parse("def f(tol=1e-9):\n    return 0.0000001\n")
    assert _tolerance_literals(tree) == [("f", 1), ("f", 2)]


# ---------------------------------------------------------------------------
# exact verdicts compare the exact difference with tol: a Fraction plus a
# float tol is a float, so an exact value equal to its bound could read as
# past it. float(A_DOWN) < A_DOWN and float(A_UP) > A_UP.

E1 = euclidean(1)
A_DOWN, A_UP = Fraction(10000000001, 3), Fraction(10000000000, 3)


def _e1(c):
    return make_point(E1, (c,))


UNIT = dual_term(1, _e1(0), _e1(1))


@pytest.mark.parametrize("a", [A_DOWN, A_UP])
def test_a_constant_table_is_convex_at_its_own_value(a):
    # h = a at 0, 1/2 and 1 with the zero dual: the combination of the end
    # entries at 1/2 lands on the middle one, whose value equals its bound
    h = function_table(_e1(0), [(_e1(c), zero_dual(), a) for c in (0, Fraction(1, 2), 1)])
    report = gamma_p_membership(h, h.p, h.domain, lambda_grid=(Fraction(1, 2),))
    assert report.convexity_holds and report.convexity_witness is None


@pytest.mark.parametrize("a", [A_DOWN, A_UP])
def test_an_entry_at_its_coupling_is_a_fixed_point(a):
    q = PairedPoint(_e1(a), UNIT)
    assert coupling_pi(_e1(0), q) == a
    h = function_table(_e1(0), [(q.x, q.xd, a)])
    report = gamma_p_membership(h, h.p, h.domain)
    assert (report.fixed_point_holds, report.worst_defect) == (True, 0.0)


@pytest.mark.parametrize("n", [10 ** 10, 10 ** 10 + 1])
def test_flat_coupling_properties_hold_where_along_equals_chord(n):
    pairs = [PairedPoint(_e1(0), UNIT), PairedPoint(_e1(Fraction(2 * n, 3)), UNIT)]
    report = f_property_check(pairs, _e1(0), lambda_grid=(Fraction(1, 2),))
    assert report.lower.holds and report.upper.holds


@pytest.mark.parametrize("a", [A_DOWN, A_UP])
def test_a_transform_linear_along_a_segment_is_convex(a):
    # the transform of {(1, 0)} at basepoint 0 is <q.xd, 0 1->, here a at
    # both ends and at the midpoint
    g = OperatorGraph(E1, (PairedPoint(_e1(1), zero_dual()),))
    qa = PairedPoint(_e1(0), dual_term(a, _e1(0), _e1(1)))
    rep = convexity_check_fitz(g, _e1(0), [(qa, qa)], (Fraction(1, 2),))
    assert (rep.holds, rep.checked_pairs) == (True, 1)


@pytest.mark.parametrize("a", [A_DOWN, A_UP])
def test_fenchel_young_holds_with_equality(a):
    # one entry: h(q1) + h*_p(swap q2) equals the right-hand side, a
    q1, q2 = PairedPoint(_e1(a), zero_dual()), PairedPoint(_e1(0), UNIT)
    h = function_table(_e1(0), [(q1.x, q1.xd, 7)])
    assert fenchel_young_check(h, h.p, q1, q2)

"""One same-space check: spaces._check_space, and one space validator: SpaceHandle.

Every constructor and public function that takes objects of two spaces
raises SpaceMismatchError, and no module of src/cat0 but spaces, in
_check_space, constructs one.
"""

import ast
import os
from fractions import Fraction

import pytest

from cat0 import (
    BoundVector,
    DualVector,
    GeometryError,
    OperatorGraph,
    PairedPoint,
    SpaceHandle,
    SpaceMismatchError,
    coupling_pi,
    dist_sq,
    distance,
    dual_add,
    dual_term,
    duals_match,
    euclidean,
    f_property_check,
    fenchel_conjugate_p,
    fitzpatrick_inf,
    fitzpatrick_sup,
    fitzpatrick_via_conjugate,
    function_table,
    gamma_p_membership,
    geodesic_point,
    is_maximal_relative,
    level_set_report,
    make_point,
    monotone_polar,
    pair,
    quasilinearization,
    relatedness_gap,
    rtree,
)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "cat0")

E2 = euclidean(2)
P, A, B = (make_point(E2, c) for c in ((0, 0), (1, 0), (0, 1)))
T, U = make_point(rtree(), (1, Fraction(1, 2))), make_point(rtree(), (2, 1))
E_BV, T_BV = BoundVector(A, B), BoundVector(T, U)
E_DUAL, T_DUAL = dual_term(1, A, B), dual_term(1, T, U)
E_PAIR, T_PAIR = PairedPoint(A, E_DUAL), PairedPoint(T, T_DUAL)
E_GRAPH = OperatorGraph(E2, (E_PAIR,))
E_TABLE = function_table(P, [(A, E_DUAL, 0)])

MIXED = {
    "BoundVector": lambda: BoundVector(A, T),
    "DualVector": lambda: DualVector(((1, E_BV), (1, T_BV))),
    "PairedPoint": lambda: PairedPoint(A, T_DUAL),
    "OperatorGraph": lambda: OperatorGraph(E2, (T_PAIR,)),
    "function_table": lambda: function_table(P, [(T, T_DUAL, 0)]),
    "FunctionTable.value": lambda: E_TABLE.value(T_PAIR),
    "quasilinearization": lambda: quasilinearization(E_BV, T_BV),
    "distance": lambda: distance(A, T),
    "dist_sq": lambda: dist_sq(A, T),
    "geodesic_point": lambda: geodesic_point(A, T, Fraction(1, 2)),
    "pair": lambda: pair(E_DUAL, T_BV),
    "dual_add": lambda: dual_add(E_DUAL, T_DUAL),
    "relatedness_gap": lambda: relatedness_gap(E_PAIR, T_PAIR),
    "coupling_pi": lambda: coupling_pi(P, T_PAIR),
    "fitzpatrick_sup": lambda: fitzpatrick_sup(E_GRAPH, P, T_PAIR),
    "fitzpatrick_inf": lambda: fitzpatrick_inf(E_GRAPH, P, T_PAIR),
    "fitzpatrick_via_conjugate": lambda: fitzpatrick_via_conjugate(E_GRAPH, P, T_PAIR),
    "monotone_polar": lambda: monotone_polar([E_PAIR], [T_PAIR]),
    "level_set_report": lambda: level_set_report(E_GRAPH, P, [E_PAIR, T_PAIR]),
    "f_property_check": lambda: f_property_check([E_PAIR], T),
    "fenchel_conjugate_p": lambda: fenchel_conjugate_p(E_TABLE, P, [T_PAIR], E_DUAL, A),
    "gamma_p_membership": lambda: gamma_p_membership(E_TABLE, P, [T_PAIR]),
}


@pytest.mark.parametrize("name", list(MIXED))
def test_objects_of_two_spaces_raise_space_mismatch(name):
    with pytest.raises(SpaceMismatchError):
        MIXED[name]()


EMPTY_GRAPH = OperatorGraph(E2, ())

# a graph's calls with a basepoint, a query pair or a universe from the tree
ON_A_GRAPH = {
    "fitzpatrick_sup": lambda g: fitzpatrick_sup(g, T, T_PAIR),
    "fitzpatrick_inf": lambda g: fitzpatrick_inf(g, T, T_PAIR),
    "fitzpatrick_via_conjugate": lambda g: fitzpatrick_via_conjugate(g, T, T_PAIR),
    "level_set_report": lambda g: level_set_report(g, T, [T_PAIR]),
    "level_set_report universe": lambda g: level_set_report(g, P, [T_PAIR]),
    "is_maximal_relative": lambda g: is_maximal_relative(g, [T_PAIR]),
    "monotone_polar": lambda g: monotone_polar(g, [T_PAIR]),
}


@pytest.mark.parametrize("name", list(ON_A_GRAPH))
@pytest.mark.parametrize("graph", [EMPTY_GRAPH, E_GRAPH], ids=["empty", "one-pair"])
def test_a_graph_takes_no_point_or_pair_of_another_space(graph, name):
    # the graph's space decides, with pairs or without
    with pytest.raises(SpaceMismatchError):
        ON_A_GRAPH[name](graph)


def test_duals_of_two_spaces_do_not_match():
    assert duals_match(E_DUAL, T_DUAL) is False


@pytest.mark.parametrize("kind, dim", [("euclidean", 1.5), ("hyperbolic", True), ("euclidean", 0), ("moebius", 2)])
def test_space_handle_rejects_what_is_no_space(kind, dim):
    with pytest.raises(GeometryError):
        SpaceHandle(kind, dim)


# ---------------------------------------------------------------------------
# no SpaceMismatchError constructed outside spaces._check_space


def _mismatch_constructions(tree):
    """(enclosing function, line) of every call of SpaceMismatchError, and of every raise of the class itself."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        made = node.func if isinstance(node, ast.Call) else node.exc if isinstance(node, ast.Raise) else None
        if getattr(made, "id", getattr(made, "attr", None)) == "SpaceMismatchError":
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_only_check_space_constructs_a_space_mismatch():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as f:
                tree = ast.parse(f.read(), name)
            found += [(name, where) for where, _ in _mismatch_constructions(tree)]
    assert found == [("spaces.py", "_check_space")]


def test_the_guard_sees_a_stray_space_mismatch():
    tree = ast.parse("def f(a, b):\n    raise spaces.SpaceMismatchError('a')\n"
                     "raise SpaceMismatchError\nraise SpaceMismatchError()\n")
    assert _mismatch_constructions(tree) == [("f", 2), (None, 3), (None, 4)]

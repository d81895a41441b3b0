import json
from fractions import Fraction

import pytest

from cat0 import (
    NEG_INF,
    POS_INF,
    ExtReal,
    PairedPoint,
    euclidean,
    make_point,
    rtree,
)
from cat0.jsonio import (
    Errors,
    InputError,
    encode_csv,
    encode_json,
    jsonable,
    load_json_text,
    parse_dual,
    parse_extended,
    parse_graph,
    parse_grid,
    parse_point,
    parse_scalar,
    parse_space,
    parse_table,
)
from helpers import vector_dual

E2 = euclidean(2)


def _fresh():
    return Errors()


# ---------------------------------------------------------------------------
# parsing


def test_load_json_reports_line_and_column():
    with pytest.raises(InputError) as err:
        load_json_text('{"a": }', source="inst.json")
    msg = str(err.value)
    assert "inst.json" in msg and "line 1" in msg and "column" in msg


def test_parse_scalar_rational_strings_are_exact():
    errs = _fresh()
    assert parse_scalar("7/6", "v", errs) == Fraction(7, 6)
    assert parse_scalar("-7/6", "v", errs) == Fraction(-7, 6)
    assert parse_scalar(3, "v", errs) == 3
    assert parse_scalar(0.5, "v", errs) == 0.5
    errs.raise_if_any()


def test_parse_scalar_rejects_junk():
    errs = _fresh()
    parse_scalar("seven", "v", errs)
    parse_scalar(None, "w", errs)
    with pytest.raises(InputError):
        errs.raise_if_any()


def test_parse_extended_infinities():
    errs = _fresh()
    assert parse_extended("+inf", "v", errs) == POS_INF
    assert parse_extended("-inf", "v", errs) == NEG_INF
    assert parse_extended("1/2", "v", errs) == ExtReal(Fraction(1, 2))
    errs.raise_if_any()


def test_parse_space_kinds():
    errs = _fresh()
    assert parse_space({"kind": "euclidean", "dim": 3}, "space", errs) == euclidean(3)
    assert parse_space({"kind": "rtree"}, "space", errs) == rtree()
    errs.raise_if_any()
    parse_space({"kind": "moebius"}, "space", errs)
    with pytest.raises(InputError):
        errs.raise_if_any()


def test_parse_point_validates_through_make_point():
    errs = _fresh()
    p = parse_point(rtree(), [2, "2/3"], "x", errs)
    errs.raise_if_any()
    assert p.payload == (2, Fraction(2, 3))
    parse_point(rtree(), [0, 0], "x", errs)  # branch 0 is invalid
    with pytest.raises(InputError):
        errs.raise_if_any()


def test_parse_dual_terms():
    errs = _fresh()
    xd = parse_dual(
        E2,
        {"terms": [{"coeff": "1/2", "a": [0, 0], "b": [2, 0]}]},
        "xd",
        errs,
    )
    errs.raise_if_any()
    assert len(xd.terms) == 1
    coeff, bv = xd.terms[0]
    assert coeff == Fraction(1, 2)
    assert bv.head.payload == (2, 0)


def test_parse_graph_inherits_space():
    errs = _fresh()
    g = parse_graph(
        {"pairs": [{"x": [0, 0], "xd": {"terms": []}}]},
        "graph",
        errs,
        default_space=E2,
    )
    errs.raise_if_any()
    assert g.space == E2 and len(g.pairs) == 1


def test_parse_graph_requires_its_pairs():
    # a misspelt or missing pairs key is an error, not an empty graph
    for obj in ({"pairz": [{"x": [0, 0], "xd": {"terms": []}}]}, {}):
        errs = _fresh()
        assert parse_graph(obj, "graph", errs, default_space=E2) is None
        with pytest.raises(InputError, match="graph.pairs: expected an array of pairs"):
            errs.raise_if_any()
    errs = _fresh()
    assert parse_graph({"pairs": []}, "graph", errs, default_space=E2).pairs == ()
    errs.raise_if_any()


def test_parse_table_rows():
    errs = _fresh()
    h = parse_table(
        E2,
        {
            "p": [0, 0],
            "entries": [
                {"x": [1, 0], "xd": {"terms": []}, "value": "7/6"},
                {"x": [0, 1], "xd": {"terms": []}, "value": "+inf"},
            ],
        },
        "table",
        errs,
    )
    errs.raise_if_any()
    assert h.p.payload == (0, 0)
    assert h.entries[0][1] == ExtReal(Fraction(7, 6))
    assert h.entries[1][1] == POS_INF


def test_parse_table_reports_each_bad_entry_field_in_order():
    errs = _fresh()
    table = {
        "p": [0, 0],
        "entries": [
            {"x": [1, 0], "xd": {"terms": []}, "value": 0},
            {"x": [1, "one"], "xd": {"terms": "none"}, "value": "big"},
            7,
            {"x": 3, "xd": [], "value": "-inf"},
        ],
    }
    assert parse_table(E2, table, "table", errs) is None
    assert errs.messages == [
        "table.entries[1].x[1]: not a rational literal: 'one'",
        "table.entries[1].xd.terms: must be an array",
        "table.entries[1].value: not a rational literal: 'big'",
        "table.entries[2]: entry must be an object",
        "table.entries[3].x: point must be an array, got int",
        'table.entries[3].xd: dual must be an object with a "terms" array',
    ]


def test_parse_grid_comma_separated():
    assert parse_grid("0,1/4,1/2,1") == (
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1),
    )
    with pytest.raises(InputError):
        parse_grid("0,oops")


def test_error_report_caps_at_ten():
    errs = _fresh()
    for i in range(15):
        errs.add(f"field{i}", "broken")
    with pytest.raises(InputError) as err:
        errs.raise_if_any()
    msg = str(err.value)
    assert "and 5 more" in msg
    assert msg.count("broken") == 10


# ---------------------------------------------------------------------------
# emission


def test_encode_json_sorted_keys_and_fractions():
    tree = {"b": Fraction(5, 3), "a": 1, "c": [1, Fraction(1, 2)]}
    text = encode_json(tree)
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert '"5/3"' in text
    parsed = json.loads(text)
    assert parsed["b"] == "5/3" and parsed["c"] == [1, "1/2"]


def test_encode_json_extended_and_float_infinities():
    text = encode_json({"v": POS_INF, "w": NEG_INF, "f": float("inf")})
    parsed = json.loads(text)
    assert parsed["v"] == "+inf" and parsed["w"] == "-inf" and parsed["f"] == "+inf"


def test_encode_json_points_and_pairs():
    q = PairedPoint(make_point(E2, (1, 0)), vector_dual(E2, (0, 1)))
    parsed = json.loads(encode_json(jsonable(q)))
    assert parsed["x"] == [1, 0]
    assert parsed["xd"]["terms"][0]["coeff"] == 1


def test_encode_json_negative_zero_normalized():
    assert json.loads(encode_json({"v": -0.0}))["v"] == 0


def test_encode_csv_rows_table():
    text = encode_csv({"rows": [{"name": "r1", "value": Fraction(1, 2)},
                                {"name": "r2", "value": 3}]})
    lines = text.strip().split("\n")
    assert lines[0] == "name,value"
    assert lines[1] == "r1,1/2"
    assert lines[2] == "r2,3"


def test_encode_csv_flat_fallback():
    text = encode_csv({"value": Fraction(5, 3)})
    assert "value,5/3" in text


def test_jsonable_nested_dataclasses():
    from cat0 import PropertyReport

    rep = PropertyReport(holds=False, witness={"gap": Fraction(-1, 2)})
    parsed = json.loads(encode_json(jsonable(rep)))
    assert parsed["holds"] is False
    assert parsed["witness"]["gap"] == "-1/2"

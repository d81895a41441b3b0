import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from cat0 import cli, gamma_p_membership, geodesic_point, is_maximal_relative, make_point
from cat0.jsonio import Errors, parse_graph, parse_pairs, parse_space, parse_table

CMD = [sys.executable, "-m", "cat0"]
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def run_cli(args, stdin_text=None):
    return subprocess.run(
        CMD + args,
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=120,
    )


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


RTREE_DISTANCE = {
    "space": {"kind": "rtree"},
    "x": [2, "2/3"],
    "y": [3, 1],
}


# ---------------------------------------------------------------------------
# happy paths


def test_distance_exact_rational_output(tmp_path):
    res = run_cli(["distance", write(tmp_path, "d.json", RTREE_DISTANCE)])
    assert res.returncode == 0, res.stderr
    assert res.stdout == '{\n  "value": "5/3"\n}\n'


def test_stdin_dash(tmp_path):
    res = run_cli(["distance", "-"], stdin_text=json.dumps(RTREE_DISTANCE))
    assert res.returncode == 0
    assert json.loads(res.stdout)["value"] == "5/3"


def test_quasi_zero_vector(tmp_path):
    inst = {
        "space": {"kind": "euclidean", "dim": 2},
        "x": [1, 1], "y": [1, 1], "u": [0, 0], "v": [3, 4],
    }
    res = run_cli(["quasi", write(tmp_path, "q.json", inst)])
    assert res.returncode == 0
    assert json.loads(res.stdout)["value"] == 0


def test_geodesic_exact_fractions(tmp_path):
    inst = {
        "space": {"kind": "euclidean", "dim": 2},
        "x": [0, 0], "y": [2, 2], "t": "1/4",
    }
    res = run_cli(["geodesic", write(tmp_path, "g.json", inst)])
    assert res.returncode == 0
    assert json.loads(res.stdout)["point"] == ["1/2", "1/2"]


def test_pair_command(tmp_path):
    inst = {
        "space": {"kind": "euclidean", "dim": 2},
        "xd": {"terms": [{"coeff": 2, "a": [0, 0], "b": [1, 0]}]},
        "x": [0, 0], "y": [3, 5],
    }
    res = run_cli(["pair", write(tmp_path, "p.json", inst)])
    assert res.returncode == 0
    assert json.loads(res.stdout)["value"] == 6


def test_fitz_empty_graph_neg_inf(tmp_path):
    inst = {
        "space": {"kind": "euclidean", "dim": 2},
        "graph": {"pairs": []},
        "p": [0, 0],
        "query": {"x": [1, 0], "xd": {"terms": []}},
    }
    res = run_cli(["fitz", write(tmp_path, "f.json", inst)])
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["value"] == "-inf"
    assert out["form_agreement"] is True


def test_fitz_reports_three_form_agreement(tmp_path):
    inst = {
        "space": {"kind": "euclidean", "dim": 2},
        "graph": {"pairs": [
            {"x": [0, 0], "xd": {"terms": []}},
            {"x": [1, 0], "xd": {"terms": [{"coeff": 1, "a": [0, 0], "b": [1, 0]}]}},
        ]},
        "p": [0, 0],
        "query": {"x": [1, 1], "xd": {"terms": [{"coeff": 1, "a": [0, 0], "b": [0, 1]}]}},
    }
    res = run_cli(["fitz", write(tmp_path, "f2.json", inst)])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["form_agreement"] is True
    assert out["universe_label"] == "graph of 2 pairs"


def test_conjugate_with_universe_file(tmp_path):
    table = {
        "space": {"kind": "euclidean", "dim": 2},
        "table": {
            "p": [0, 0],
            "entries": [
                {"x": [1, 0], "xd": {"terms": [{"coeff": 1, "a": [0, 0], "b": [0, 1]}]},
                 "value": 3},
            ],
        },
        "query": {"xd": {"terms": [{"coeff": 2, "a": [0, 0], "b": [1, 0]}]},
                  "x": [0, 5]},
    }
    upath = write(tmp_path, "u.json", {
        "space": {"kind": "euclidean", "dim": 2},
        "pairs": [
            {"x": [1, 0], "xd": {"terms": [{"coeff": 1, "a": [0, 0], "b": [0, 1]}]}},
        ],
    })
    res = run_cli(["conjugate", write(tmp_path, "c.json", table), "--universe", upath])
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["value"] == 4  # 2 + 5 - 3
    assert out["universe_label"] == "relative universe of 1 pairs"


def test_monotone_check_passing_and_failing(tmp_path):
    good = {
        "space": {"kind": "euclidean", "dim": 2},
        "pairs": [
            {"x": [0, 0], "xd": {"terms": []}},
            {"x": [1, 0], "xd": {"terms": [{"coeff": 1, "a": [0, 0], "b": [1, 0]}]}},
        ],
    }
    res = run_cli(["monotone-check", write(tmp_path, "good.json", good)])
    assert res.returncode == 0
    assert json.loads(res.stdout)["holds"] is True

    bad = {
        "space": {"kind": "euclidean", "dim": 2},
        "pairs": [
            {"x": [0, 0], "xd": {"terms": [{"coeff": 1, "a": [0, 0], "b": [1, 0]}]}},
            {"x": [1, 0], "xd": {"terms": [{"coeff": -1, "a": [0, 0], "b": [1, 0]}]}},
        ],
    }
    res = run_cli(["monotone-check", write(tmp_path, "bad.json", bad)])
    assert res.returncode == 1  # property failure, not usage error
    out = json.loads(res.stdout)
    assert out["holds"] is False and out["witness"] is not None


def test_nan_tol_is_a_usage_error(tmp_path, capsys):
    # not monotone: a nan bound would pass every comparison and report holds
    bad = {
        "space": {"kind": "euclidean", "dim": 1},
        "pairs": [
            {"x": [0], "xd": {"terms": [{"coeff": 1, "a": [0], "b": [1]}]}},
            {"x": [1], "xd": {"terms": [{"coeff": 1, "a": [1], "b": [0]}]}},
        ],
    }
    path = write(tmp_path, "bad.json", bad)
    assert cli.main(["monotone-check", path]) == 1
    for tol in ("nan", "-NaN"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["monotone-check", path, "--tol", tol])
        assert exc.value.code == 2
        assert "argument --tol" in capsys.readouterr().err
    assert cli.main(["monotone-check", path, "--tol", "inf"]) == 0


def test_polar_and_maximal_check(tmp_path):
    universe = {
        "space": {"kind": "euclidean", "dim": 1},
        "pairs": [
            {"x": [0], "xd": {"terms": []}},
            {"x": [1], "xd": {"terms": [{"coeff": 1, "a": [0], "b": [1]}]}},
            {"x": [1], "xd": {"terms": [{"coeff": -1, "a": [0], "b": [1]}]}},
        ],
    }
    upath = write(tmp_path, "u1.json", universe)
    inst = {
        "space": {"kind": "euclidean", "dim": 1},
        "set": [{"x": [0], "xd": {"terms": []}}],
    }
    res = run_cli(["polar", write(tmp_path, "s.json", inst), "--universe", upath])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["count"] == 2  # the decreasing pair is unrelated to the seed

    ginst = {
        "space": {"kind": "euclidean", "dim": 1},
        "graph": {"pairs": [
            {"x": [0], "xd": {"terms": []}},
            {"x": [1], "xd": {"terms": [{"coeff": 1, "a": [0], "b": [1]}]}},
        ]},
    }
    res = run_cli(["maximal-check", write(tmp_path, "g.json", ginst), "--universe", upath])
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["holds"] is True


def test_maximal_check_tree_duals_on_unsampled_branches(tmp_path):
    # the two duals differ only on branches 7 and 8; the library sees the
    # second pair as an extension, and the CLI must agree
    def member(branch):
        return {"x": [1, "1/2"], "xd": {"terms": [{"coeff": 1, "a": [1, 0], "b": [branch, 1]}]}}

    inst = {
        "space": {"kind": "rtree"},
        "graph": {"pairs": [member(7)]},
        "universe": [member(7), member(8)],
    }
    res = run_cli(["maximal-check", write(tmp_path, "wide.json", inst)])
    assert res.returncode == 1, res.stderr
    assert json.loads(res.stdout)["holds"] is False


def _sheet(x, y):
    return [x, y, math.sqrt(1 + x * x + y * y)]


H2_A, H2_B, H2_C = _sheet(0.0, 0.0), _sheet(1.0, 0.0), _sheet(0.0, 1.0)


def _dual(coeff, a, b):
    return {"terms": [{"coeff": coeff, "a": a, "b": b}]}


@pytest.mark.parametrize("extension, holds", [
    (_dual(3.0, H2_A, H2_B), True),
    (_dual(1.0, H2_A, H2_C), False),
])
def test_maximal_check_hyperbolic_agrees_with_the_library(tmp_path, extension, holds):
    # the universe writes the graph's pair as a flipped term; it must
    # still be found in the graph, as the library finds it
    space = {"kind": "hyperbolic", "dim": 2}
    graph = {"space": space, "pairs": [{"x": H2_B, "xd": _dual(1.0, H2_A, H2_B)}]}
    universe = [{"x": H2_B, "xd": _dual(-1.0, H2_B, H2_A)}, {"x": H2_A, "xd": extension}]
    errs = Errors()
    g = parse_graph(graph, "graph", errs)
    rep = is_maximal_relative(g, parse_pairs(g.space, universe, "universe", errs))
    errs.raise_if_any()
    assert rep.holds is holds
    inst = {"space": space, "graph": graph, "universe": universe}
    res = run_cli(["maximal-check", write(tmp_path, "hyp.json", inst)])
    assert res.returncode == (0 if rep.holds else 1), res.stderr
    assert json.loads(res.stdout)["holds"] is rep.holds


def test_gamma_check_hyperbolic_agrees_with_the_library(tmp_path):
    # the midpoint entry writes its dual flipped: the lam = 1/2 combination
    # of the end entries lands on it by action; the universe flips every term
    space = {"kind": "hyperbolic", "dim": 2}
    h2 = parse_space(space, "space", Errors())
    mid = list(geodesic_point(make_point(h2, H2_A), make_point(h2, H2_B), Fraction(1, 2)).payload)
    ab, ba = _dual(1.0, H2_A, H2_B), _dual(-1.0, H2_B, H2_A)
    table = {"p": H2_A, "entries": [
        {"x": H2_A, "xd": ab, "value": 0},
        {"x": mid, "xd": ba, "value": -0.5},
        {"x": H2_B, "xd": ab, "value": 0},
    ]}
    universe = [{"x": H2_A, "xd": ba}, {"x": mid, "xd": ab}, {"x": H2_B, "xd": ba}]
    errs = Errors()
    h = parse_table(h2, table, "table", errs)
    rep = gamma_p_membership(h, h.p, parse_pairs(h2, universe, "universe", errs),
                             lambda_grid=(0, Fraction(1, 2), 1))
    errs.raise_if_any()
    assert rep.convexity_holds and rep.skipped_combinations == 2
    inst = {"space": space, "table": table, "universe": universe}
    res = run_cli(["gamma-check", write(tmp_path, "hyp.json", inst), "--lambda-grid", "0,1/2,1"])
    assert res.returncode == (0 if rep.holds else 1), res.stderr
    out = json.loads(res.stdout)
    assert out["holds"] is rep.holds and out["convexity_holds"] is rep.convexity_holds
    assert out["skipped_combinations"] == rep.skipped_combinations


@pytest.mark.parametrize("command", ["conjugate", "gamma-check"])
def test_h2_table_reads_the_same_however_the_universe_writes_it(tmp_path, command):
    # the universe writes every table pair as listed, then flipped; a
    # table value is read by the pair's action, so the output is the same
    space = {"kind": "hyperbolic", "dim": 2}
    ab, ba = _dual(1.0, H2_A, H2_B), _dual(-1.0, H2_B, H2_A)
    mid = _sheet(0.5, 0.0)
    table = {"p": H2_A, "entries": [
        {"x": H2_A, "xd": ab, "value": 0},
        {"x": mid, "xd": ab, "value": -0.5},
        {"x": H2_B, "xd": ab, "value": 0},
    ]}
    # the query sits at the basepoint, so no term pairs the universe's duals
    query = {"x": H2_A, "xd": _dual(1.0, H2_A, H2_C)}
    outputs = []
    for xd in (ab, ba):
        universe = [{"x": e["x"], "xd": xd} for e in table["entries"]]
        inst = {"space": space, "table": table, "query": query, "universe": universe}
        res = run_cli([command, write(tmp_path, "h2.json", inst)])
        assert res.returncode in (0, 1), res.stderr
        outputs.append((res.returncode, res.stdout))
    assert outputs[0] == outputs[1]
    assert "inf" not in outputs[0][1]


@pytest.mark.parametrize("space, first, second", [
    # one pair written twice alike, and an H^2 pair written flipped
    ({"kind": "euclidean", "dim": 2},
     {"x": [1, 0], "xd": _dual(1, [0, 0], [0, 1])}, {"x": [1, 0], "xd": _dual(1, [0, 0], [0, 1])}),
    ({"kind": "hyperbolic", "dim": 2},
     {"x": H2_A, "xd": _dual(1.0, H2_A, H2_B)}, {"x": H2_A, "xd": _dual(-1.0, H2_B, H2_A)}),
], ids=["euclidean", "hyperbolic"])
def test_duplicate_table_entry_is_an_input_error(tmp_path, space, first, second):
    table = {"p": first["x"], "entries": [{**first, "value": 0}, {**second, "value": 5}]}
    inst = {"space": space, "table": table, "query": first}
    res = run_cli(["conjugate", write(tmp_path, "dup.json", inst)])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: table: entry 1 repeats entry 0\n"


def test_flatness_exit_codes(tmp_path):
    flat = {
        "space": {"kind": "euclidean", "dim": 2},
        "triples": [[[0, 0], [2, 0], [1, 3]]],
    }
    res = run_cli(["flatness", write(tmp_path, "flat.json", flat)])
    assert res.returncode == 0
    curved = {
        "space": {"kind": "rtree"},
        "triples": [[[1, "1/2"], [2, "1/2"], [3, "1/2"]]],
    }
    res = run_cli(["flatness", write(tmp_path, "curv.json", curved)])
    assert res.returncode == 1
    assert json.loads(res.stdout)["holds"] is False


def test_f_property_with_lambda_grid(tmp_path):
    inst = {
        "space": {"kind": "euclidean", "dim": 2},
        "p": [0, 0],
        "set": [
            {"x": [0, 0], "xd": {"terms": []}},
            {"x": [2, 0], "xd": {"terms": [{"coeff": 1, "a": [0, 0], "b": [1, 0]}]}},
        ],
    }
    res = run_cli([
        "f-property", write(tmp_path, "fp.json", inst), "--lambda-grid", "0,1/2,1",
    ])
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["lower"]["holds"] is True and out["upper"]["holds"] is True


@pytest.mark.parametrize("command", ["f-property", "gamma-check"])
def test_empty_lambda_grid_is_an_input_error(tmp_path, command):
    case = next(c for c in RECORDED if c["command"] == command)
    res = run_cli(_recorded_argv(tmp_path, case) + ["--lambda-grid", ""])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: grid: empty\n"


def test_gamma_check_reports_fields(tmp_path):
    inst = {
        "space": {"kind": "euclidean", "dim": 1},
        "table": {
            "p": [0],
            "entries": [
                {"x": [0], "xd": {"terms": []}, "value": 0},
                {"x": [1], "xd": {"terms": [{"coeff": 1, "a": [0], "b": [1]}]},
                 "value": 1},
            ],
        },
    }
    res = run_cli(["gamma-check", write(tmp_path, "gc.json", inst)])
    assert res.returncode in (0, 1)
    out = json.loads(res.stdout)
    for key in ("holds", "proper", "convexity_holds", "fixed_point_holds",
                "worst_defect", "skipped_combinations"):
        assert key in out


# ---------------------------------------------------------------------------
# formats and determinism


def test_csv_format(tmp_path):
    res = run_cli(["distance", write(tmp_path, "d.json", RTREE_DISTANCE),
                   "--format", "csv"])
    assert res.returncode == 0
    assert "value,5/3" in res.stdout


def test_reference_examples_deterministic_and_green():
    first = run_cli(["paper-examples"])
    second = run_cli(["paper-examples"])
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout  # byte identical
    out = json.loads(first.stdout)
    assert out["all_passed"] is True
    assert all(r["status"] == "pass" for r in out["rows"])


with open(os.path.join(DATA, "cli_cases.json"), encoding="utf-8") as _f:
    RECORDED = json.load(_f)


def _recorded_argv(tmp_path, case):
    argv = [case["command"], write(tmp_path, "instance.json", case["instance"])] + case["flags"]
    if case["universe"] is not None:
        argv += ["--universe", write(tmp_path, "universe.json", case["universe"])]
    return argv


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", RECORDED, ids=[c.get("id", c["command"]) for c in RECORDED])
def test_subcommand_prints_the_recorded_bytes(tmp_path, capsys, case, fmt):
    # one valid instance per subcommand, and extra cases under their own
    # id; exit code and stdout are pinned
    code = cli.main(_recorded_argv(tmp_path, case) + ["--format", fmt])
    assert [code, capsys.readouterr().out] == case[fmt]


def test_reference_examples_csv():
    res = run_cli(["paper-examples", "--format", "csv"])
    assert res.returncode == 0
    header = res.stdout.splitlines()[0]
    assert header == "name,computed,expected,tolerance,status"


@pytest.mark.parametrize(
    "args, golden",
    [([], "paper_examples.json"), (["--format", "csv"], "paper_examples.csv")],
)
def test_reference_examples_match_the_recorded_bytes(args, golden):
    res = subprocess.run(CMD + ["paper-examples"] + args, capture_output=True, timeout=120)
    assert res.returncode == 0, res.stderr
    with open(os.path.join(DATA, golden), "rb") as f:
        assert res.stdout == f.read()


# ---------------------------------------------------------------------------
# error handling: exit 2 for usage and input problems


def test_malformed_json_line_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"space": }')
    res = run_cli(["distance", str(path)])
    assert res.returncode == 2
    assert res.stdout == ""
    assert "line 1" in res.stderr and "column" in res.stderr


def test_unknown_command_usage_error():
    res = run_cli(["transmogrify"])
    assert res.returncode == 2


def test_missing_file_is_input_error():
    res = run_cli(["distance", "/nonexistent/instance.json"])
    assert res.returncode == 2
    assert "error" in res.stderr.lower()


def test_off_sheet_hyperbolic_point_reports_defect(tmp_path):
    inst = {
        "space": {"kind": "hyperbolic", "dim": 2},
        "x": [0, 0, 1], "y": [1, 1, 1],
    }
    res = run_cli(["distance", write(tmp_path, "h.json", inst)])
    assert res.returncode == 2
    assert "hyperboloid" in res.stderr


@pytest.mark.parametrize("x", [[1e200, 0.0, 1.0], [10 ** 400, 0, 1]])
def test_hyperbolic_point_past_float_range_is_an_input_error(tmp_path, x):
    inst = {"space": {"kind": "hyperbolic", "dim": 2}, "x": x, "y": [0, 0, 1]}
    res = run_cli(["distance", write(tmp_path, "h.json", inst)])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: x: hyperboloid constraint")


def test_exact_far_hyperbolic_point_has_a_distance(tmp_path):
    # x = (sinh t, cosh t) exactly at t = 400 ln 10: -<x, y> is too large
    # for a float, and the distance is t
    n = 10 ** 400
    inst = {"space": {"kind": "hyperbolic", "dim": 1},
            "x": [f"{n * n - 1}/{2 * n}", f"{n * n + 1}/{2 * n}"], "y": ["0", "1"]}
    res = run_cli(["distance", write(tmp_path, "h.json", inst)])
    assert res.returncode == 0, res.stderr
    assert res.stdout == '{\n  "value": 921.034037198\n}\n'


_E1 = {"kind": "euclidean", "dim": 1}
_FAR_DUAL = {"terms": [{"coeff": "1e400", "a": [0], "b": [1]}]}  # exact, past float range


@pytest.mark.parametrize("command, inst", [
    ("distance", {"space": _E1, "x": ["1e400"], "y": [0]}),
    ("pair", {"space": _E1, "xd": _FAR_DUAL, "x": [0.0], "y": [1.0]}),
    ("fitz", {"space": _E1, "graph": {"pairs": [{"x": [0.5], "xd": _FAR_DUAL}]},
              "p": [0], "query": {"x": [1], "xd": {"terms": []}}}),
    ("monotone-check", {"space": _E1, "pairs": [{"x": [0.5], "xd": _FAR_DUAL},
                                                {"x": [0], "xd": {"terms": []}}]}),
], ids=["distance", "pair", "fitz", "monotone-check"])
def test_a_value_past_float_range_is_an_input_error(tmp_path, capsys, command, inst):
    # a float formed from an exact input too large for one
    assert cli.main([command, write(tmp_path, "far.json", inst)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_space_mismatch_between_universe_and_instance(tmp_path):
    upath = write(tmp_path, "u.json", {
        "space": {"kind": "rtree"},
        "pairs": [{"x": [1, 0], "xd": {"terms": []}}],
    })
    inst = {
        "space": {"kind": "euclidean", "dim": 1},
        "set": [{"x": [0], "xd": {"terms": []}}],
    }
    res = run_cli(["polar", write(tmp_path, "s.json", inst), "--universe", upath])
    assert res.returncode == 2


def test_schema_errors_capped(tmp_path):
    # fifteen bad points: the report lists ten and summarizes the rest
    inst = {
        "space": {"kind": "euclidean", "dim": 2},
        "pairs": [{"x": [0], "xd": {"terms": []}} for _ in range(15)],
    }
    res = run_cli(["monotone-check", write(tmp_path, "m.json", inst)])
    assert res.returncode == 2
    assert "and 5 more" in res.stderr


def test_maximal_check_without_any_space_is_an_input_error(tmp_path):
    # no top-level space and none in the graph: the universe cannot be read
    inst = {"graph": {"pairs": []}, "universe": [{"x": [0, 0], "xd": {"terms": []}}]}
    res = run_cli(["maximal-check", write(tmp_path, "nospace.json", inst)])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: graph: graph needs a space (inline or inherited)\n"


@pytest.mark.parametrize("command, inst", [
    # the whole instance is the graph, with pairs misspelt
    ("monotone-check", {"space": {"kind": "euclidean", "dim": 1},
                        "pairz": [{"x": [0], "xd": {"terms": []}}]}),
    ("fitz", {"space": {"kind": "euclidean", "dim": 1}, "graph": {},
              "p": [0], "query": {"x": [1], "xd": {"terms": []}}}),
])
def test_graph_without_pairs_is_an_input_error(tmp_path, command, inst):
    res = run_cli([command, write(tmp_path, "nopairs.json", inst)])
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: graph.pairs: expected an array of pairs\n"


@pytest.mark.parametrize(
    "command", ["quasi", "distance", "geodesic", "pair", "conjugate", "paper-examples"]
)
def test_tol_is_a_usage_error_where_it_is_not_read(tmp_path, capsys, command):
    cases = [c for c in RECORDED if c["command"] == command]
    argv = _recorded_argv(tmp_path, cases[0]) if cases else [command]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_missing_required_instance_argument():
    res = run_cli(["distance"])
    assert res.returncode == 2

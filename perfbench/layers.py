"""Per-layer measurements for the traced run.

* ns_metrics: direct timings of the L1-L3 primitives on every space,
  on points and duals drawn from the workload's own inputs (a seeded
  sample stands in for a space the workload does not use).
* layer_pass: one small instance through every spanned L4 function, so
  that a function the workload never calls still has a measured time.
* span_metrics: per-call self time, call counts and ratios from spans.
* cli_split: the L5 split of a CLI run into start, parse, compute and
  encode, on generated instance files, with the CLI's verdicts checked
  against the library's.
* defect counters: inputs that hit the known defects, measured here so
  that they stay visible while the measured workloads avoid them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from cat0 import (
    ExtReal,
    FunctionTable,
    OperatorGraph,
    coupling_pi,
    dist_sq,
    dual_vector,
    duals_match,
    fitzpatrick_forms_agree,
    fitzpatrick_sup,
    gamma_p_membership,
    geodesic_point,
    is_maximal_relative,
    pair,
    quasilinearization,
    relatedness_gap,
    worked_examples,
)
from cat0 import cli
from cat0.jsonio import (
    Errors,
    encode_json,
    load_json_text,
    parse_graph,
    parse_paired,
    parse_pairs,
    parse_point,
    parse_space,
    parse_table,
)
from cat0.spaces import BoundVector, PointValidationError

import spans
from inputs import (
    E2,
    H2,
    ROOT,
    TREE,
    build_graph,
    build_pair,
    build_pairs,
    build_point,
    build_space,
    curve_graph,
    grid_universe,
    hyp_universe,
    num,
    q,
    rand_hyp_point,
    rand_tree_point,
    rational_graph,
    rng_for,
    term,
    tree_universe,
)
from workloads import (
    CheckFailed,
    PolarGrid,
    RoundtripTable,
    TableCase,
    TransformSweep,
    Universe,
    basepoint,
    euclid_query,
    euclid_table_universe,
    euclid_vecs,
    greedy,
    hyp_query,
    polar_complete,
)

SPACES = ("euclidean", "rtree", "hyperbolic")
LAYER_ITEM = "layer-pass"
SPANNED = (
    "monotone.monotone_polar",
    "monotone.is_maximal_relative",
    "conjugate.gamma_p_membership",
    "fitzpatrick.fitzpatrick_sup",
    "fitzpatrick.fitzpatrick_inf",
    "fitzpatrick.fitzpatrick_via_conjugate",
    "fitzpatrick.level_set_report",
    "fitzpatrick.s_map",
    "fitzpatrick.roundtrip_check",
)
MODULES = ("bench", "monotone", "conjugate", "fitzpatrick")


# --------------------------------------------------------------------------
# L1-L3 primitives


def fallback_pool(kind: str, rng) -> tuple:
    if kind == "euclidean":
        return build_pairs(build_space(E2), rational_graph(rng, 16))
    if kind == "rtree":
        return build_pairs(build_space(TREE), tree_universe(rng, 4, 4))
    return build_pairs(build_space(H2), hyp_universe(rng, 4, 4))


def flipped(xd):
    """The same action written the other way round: -c [b -> a] for c [a -> b]."""
    return dual_vector((-c, BoundVector(bv.head, bv.tail)) for c, bv in xd.terms)


def arg_sets(pairs, rng, k: int = 32) -> dict:
    """Argument tuples for each primitive, drawn from the paired points."""
    pts = []
    for pp in pairs:
        for pt in (pp.x, *pp.xd.points):
            if pt not in pts:
                pts.append(pt)
    duals = [pp.xd for pp in pairs if pp.xd.terms]

    def two():
        a, b = rng.sample(pts, 2)
        return a, b

    def bv():
        return BoundVector(*two())

    out = {
        "spaces.dist_sq": [two() for _ in range(k)],
        "spaces.geodesic_point": [(*two(), Fraction(1, 3)) for _ in range(k)],
        "geometry.quasilinearization": [(bv(), bv()) for _ in range(k)],
        "dual.pair": [(rng.choice(duals), bv()) for _ in range(k)],
        "monotone.relatedness_gap": [tuple(rng.sample(pairs, 2)) for _ in range(k)],
        "conjugate.coupling_pi": [(rng.choice(pts), rng.choice(pairs)) for _ in range(k)],
    }
    # half equal (a flipped rewrite), half unequal, both through default probes
    match = []
    for i in range(k):
        xd = rng.choice(duals)
        match.append((xd, flipped(xd) if i % 2 == 0 else rng.choice(duals)))
    out["dual.duals_match"] = match
    return out


FUNCS = {
    "spaces.dist_sq": dist_sq,
    "spaces.geodesic_point": geodesic_point,
    "geometry.quasilinearization": quasilinearization,
    "dual.pair": pair,
    "dual.duals_match": duals_match,
    "monotone.relatedness_gap": relatedness_gap,
    "conjugate.coupling_pi": coupling_pi,
}


def ns_per_call(fn, args, min_ns: int = 10_000_000, repeats: int = 3) -> float:
    """Median over repeats of the mean time per call, each repeat at least min_ns long."""

    def one(n):
        t0 = time.perf_counter_ns()
        for _ in range(n):
            for a in args:
                fn(*a)
        return time.perf_counter_ns() - t0

    n = 1
    while one(n) < min_ns:
        n *= 2
    return statistics.median(one(n) / (n * len(args)) for _ in range(repeats))


def ns_metrics(pools: dict, seed: int) -> dict:
    rng = rng_for("layer-ns", seed)
    out = {}
    for kind in SPACES:
        pairs = pools.get(kind) or fallback_pool(kind, rng)
        for name, args in arg_sets(pairs, rng).items():
            out[f"{name}.ns.{kind}"] = ns_per_call(FUNCS[name], args)
    return out


# --------------------------------------------------------------------------
# L4 spans


def layer_pass(tr, seed: int):
    """One small Euclidean instance through every spanned L4 function."""
    tr.item = LAYER_ITEM
    rng = rng_for(LAYER_ITEM, seed)
    space = build_space(E2)
    wire = euclid_table_universe(rng)
    U = build_pairs(space, wire)
    g = OperatorGraph(space, polar_complete(tr, greedy(rng, U, 2), U))
    RoundtripTable.run_item(TableCase(space, U, basepoint(space), g), tr)
    index = {pp: i for i, pp in reversed(list(enumerate(U)))}
    uni = Universe(space, U, basepoint(space), index, euclid_vecs(wire))
    PolarGrid.run_item(uni, {"kind": "polar", "seed": rng.getrandbits(32)}, tr)
    TransformSweep.run_item(build_graph(space, rational_graph(rng, 20)), euclid_query(rng), tr)


def span_metrics(tr) -> dict:
    """Per-call self time of each spanned function, with counts and ratios.

    The workload's own spans (its traced items) are used where the
    function occurs in them; otherwise the layer pass supplies the time.
    Counts (.calls) are the workload's own only.
    """
    own = spans.group(tr.spans, lambda item: item != LAYER_ITEM)
    layer = spans.group(tr.spans, lambda item: item == LAYER_ITEM)

    def pick(name):
        return own.get(name) or layer[name]

    out = {}
    for name in SPANNED:
        out[f"{name}.s"] = statistics.fmean(ns for ns, _ in pick(name)) / 1e9
    out["monotone.monotone_polar.calls"] = len(own.get("monotone.monotone_polar", ()))
    out["conjugate.pair_in.calls"] = len(own.get("conjugate.pair_in", ()))
    hits = pick("conjugate.pair_in")
    out["conjugate.pair_in.hit_ratio"] = sum(a["hit"] for _, a in hits) / len(hits)
    gamma = pick("conjugate.gamma_p_membership")
    out["conjugate.gamma.skipped_frac"] = (
        sum(a["skipped"] for _, a in gamma) / sum(a["combinations"] for _, a in gamma))
    sup = pick("fitzpatrick.fitzpatrick_sup")
    out["fitzpatrick.graph_pairs_per_s"] = sum(a["graph_pairs"] for _, a in sup) / (
        sum(ns for ns, _ in sup) / 1e9)
    return out


def self_fractions(tr) -> dict:
    """Share of the traced items' wall time spent in each module's own spans."""
    per = dict.fromkeys(MODULES, 0)
    for s, own in zip(tr.spans, spans.self_times(tr.spans)):
        if isinstance(s[4], str) and s[4].startswith("item-"):
            per["bench" if s[0] == "item" else s[0].split(".")[0]] += own
    total = sum(per.values())
    return {f"trace.self_frac.{m}": per[m] / total for m in MODULES}


# --------------------------------------------------------------------------
# L5


def generate_cli_instances(rng) -> dict:
    """Instance documents for the CLI commands, keyed by instance name."""
    inst = {"paper-examples": {"cmd": "paper-examples", "doc": None}}
    for k in range(2):
        U = tree_universe(rng, 3, 4)
        inst[f"maximal-tree-{k}"] = {"cmd": "maximal-check", "doc": {
            "space": TREE, "graph": {"pairs": rng.sample(U, rng.randint(1, 3))}, "universe": U}}
        U = hyp_universe(rng, 3, 3)
        inst[f"maximal-hyp-{k}"] = {"cmd": "maximal-check", "doc": {
            "space": H2, "graph": {"pairs": rng.sample(U, rng.randint(1, 2))}, "universe": U}}
        U = tree_universe(rng, 2, 3)
        inst[f"gamma-tree-{k}"] = {"cmd": "gamma-check", "doc": {"space": TREE, "table": {
            "p": list(ROOT), "entries": [{**pp, "value": q(Fraction(rng.randint(-4, 4), 2))} for pp in U]}}}
        U = grid_universe(3)
        inst[f"polar-{k}"] = {"cmd": "polar", "doc": {
            "space": E2, "set": rng.sample(U, rng.randint(2, 4)), "universe": U}}
    U = hyp_universe(rng, 3, 3)
    inst["gamma-hyp-0"] = {"cmd": "gamma-check", "doc": {"space": H2, "table": {
        "p": rand_hyp_point(rng), "entries": [{**pp, "value": rng.uniform(-2, 2)} for pp in U]}}}
    query = euclid_query(rng)
    inst["fitz-0"] = {"cmd": "fitz", "doc": {
        "space": E2, "graph": {"pairs": rational_graph(rng, 1000)}, "p": query.pop("p"), "query": query}}
    return inst


def write_cli_instances(instances: dict, out_dir: str) -> dict:
    """Write each instance document to a file; name -> argv for cli.main."""
    os.makedirs(out_dir, exist_ok=True)
    argvs = {}
    for name, inst in instances.items():
        argv = [inst["cmd"]]
        if inst["doc"] is not None:
            path = os.path.join(out_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(inst["doc"], fh, sort_keys=True)
            argv.append(os.path.relpath(path))
        argvs[name] = argv
    return argvs


def library_verdict(inst: dict) -> bool:
    """The verdict the CLI's exit code should report, computed in-process by the library."""
    cmd, doc = inst["cmd"], inst["doc"]
    if cmd == "paper-examples":
        return all(r.passed for r in worked_examples())
    if cmd == "polar":
        return True
    space = build_space(doc["space"])
    if cmd == "maximal-check":
        return is_maximal_relative(build_graph(space, doc["graph"]["pairs"]),
                                   build_pairs(space, doc["universe"])).holds
    if cmd == "gamma-check":
        t = doc["table"]
        h = FunctionTable(build_point(space, t["p"]), tuple(
            (build_pair(space, e), ExtReal(num(e["value"]))) for e in t["entries"]))
        return gamma_p_membership(h, h.p, h.domain).holds
    return fitzpatrick_forms_agree(build_graph(space, doc["graph"]["pairs"]), build_point(space, doc["p"]),
                                   build_pair(space, doc["query"]))


def cli_env() -> dict:
    """The environment for a CLI process: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    return env


def parse_like_cli(cmd: str, text: str):
    """The jsonio calls the command makes on this instance text."""
    obj = load_json_text(text)
    errs = Errors()
    space = parse_space(obj.get("space"), "space", errs)
    if cmd == "maximal-check":
        parse_graph(obj.get("graph"), "graph", errs, default_space=space)
        parse_pairs(space, obj.get("universe"), "universe", errs)
    elif cmd == "gamma-check":
        parse_table(space, obj.get("table"), "table", errs)
    elif cmd == "polar":
        parse_pairs(space, obj.get("set"), "set", errs)
        parse_pairs(space, obj.get("universe"), "universe", errs)
    elif cmd == "fitz":
        parse_graph(obj.get("graph"), "graph", errs, default_space=space)
        parse_point(space, obj.get("p"), "p", errs)
        parse_paired(space, obj.get("query"), "query", errs)
    errs.raise_if_any()


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def cli_split(instances: dict, out_dir: str, reps: int = 3) -> dict:
    """Means over the instances of the parse, compute and encode times and output size.

    Each instance runs reps times in-process; their outputs must be
    byte-identical, and the verdict behind the exit code must be the
    library's own.
    """
    argvs = write_cli_instances(instances, out_dir)
    parse_s, compute_s, encode_s, size = [], [], [], []
    for name, argv in argvs.items():
        cmd = argv[0]
        rows = []
        for _ in range(reps):
            parse = 0.0
            if len(argv) > 1:
                with open(argv[1], encoding="utf-8") as fh:
                    text = fh.read()
                parse, _ = _timed(parse_like_cli, cmd, text)
            args = cli.build_parser().parse_args(argv)
            run, (tree, ok) = _timed(args.func, args)
            encode, text_out = _timed(encode_json, tree)
            rows.append((parse, run - parse, encode, text_out))
        if len({r[3] for r in rows}) != 1:
            raise CheckFailed(f"{' '.join(argv)}: repeated runs print different bytes")
        if ok != library_verdict(instances[name]):
            raise CheckFailed(f"{' '.join(argv)}: CLI verdict {ok} differs from the library's")
        parse_s.append(statistics.median(r[0] for r in rows))
        compute_s.append(statistics.median(r[1] for r in rows))
        encode_s.append(statistics.median(r[2] for r in rows))
        size.append(len(text_out.encode()))
    starts = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cat0"], check=True, env=cli_env(), timeout=120)
        starts.append(time.perf_counter() - t0)
    return {
        "cli.process_start_s": statistics.median(starts),
        "jsonio.parse_s": statistics.fmean(parse_s),
        "cli.compute_s": statistics.fmean(compute_s),
        "jsonio.encode_s": statistics.fmean(encode_s),
        "cli.stdout_bytes": statistics.fmean(size),
    }


# --------------------------------------------------------------------------
# known defects


def run_cli_inprocess(argv) -> tuple:
    """cli.main(argv) with stdout captured: (exit code, stdout bytes)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue().encode()


def far_curve_raise_frac(seed: int, n: int = 8) -> float:
    """Share of curve grids over [0, stop], stop in [10, 30], whose transform raises.

    Past t of about 18 the Minkowski form of neighbouring curve points
    cancels catastrophically and the arccosh argument check fires.
    """
    rng = rng_for("far-curve", seed)
    space = build_space(H2)
    raised = 0
    for _ in range(n):
        g = build_graph(space, curve_graph(rng.uniform(10.0, 30.0), 0.05))
        query = hyp_query(rng)
        try:
            fitzpatrick_sup(g, build_point(space, query["p"]), build_pair(space, query))
        except PointValidationError:
            raised += 1
    return raised / n


def cli_tree_wide_mismatch_frac(seed: int, out_dir: str, n: int = 6) -> float:
    """Share of wide-branch tree maximal-check instances where CLI and library disagree.

    Two duals that differ only on branches past 4 look equal to the CLI's
    probes, which sample branches 1-4 and anchor at universe points only.
    """
    rng = rng_for("cli-tree-wide", seed)
    os.makedirs(out_dir, exist_ok=True)
    space = build_space(TREE)
    mismatched = 0
    for k in range(n):
        b1, b2 = rng.sample(range(5, 10), 2)
        c = rng.randint(1, 2)
        x = rand_tree_point(rng, (1, 4))
        members = [{"x": x, "xd": term(c, list(ROOT), [b, "1"])} for b in (b1, b2)]
        doc = {"space": TREE, "graph": {"pairs": members[:1]}, "universe": members}
        path = os.path.join(out_dir, f"wide-{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        _, stdout = run_cli_inprocess(["maximal-check", os.path.relpath(path)])
        lib = is_maximal_relative(build_graph(space, members[:1]), build_pairs(space, members)).holds
        mismatched += json.loads(stdout)["holds"] != lib
    return mismatched / n

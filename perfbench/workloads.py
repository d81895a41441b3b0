"""The three benchmark workloads: seeded inputs, set-up, items and their gates.

Each workload turns a seed into a JSON input tree (generate), builds the
shared library objects from it (setup), and hands out a fixed, cyclic
list of items. setup is a generator: it yields None after each step of
its work and the built state last, so that a caller can time the steps
one by one (`*_, state = wl.setup(spec)` just builds it). An item is one
unit of work; it calls the library's public functions inside spans and
raises CheckFailed when an output is wrong. Item kinds follow a fixed cycle so that the share of each kind,
and so the run's percentiles, do not depend on the seed; the seed picks
the contents.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import NamedTuple, Optional

from cat0 import (
    DEFAULT_LAMBDA_GRID,
    FunctionTable,
    OperatorGraph,
    classical_fitzpatrick_oracle,
    fitzpatrick_inf,
    fitzpatrick_sup,
    fitzpatrick_via_conjugate,
    gamma_p_membership,
    is_maximal_relative,
    level_set_report,
    monotone_polar,
    monotonically_related,
    pair_in,
    roundtrip_check,
    s_map,
    worked_examples,
)
from inputs import (
    E2,
    H2,
    ROOT,
    TREE,
    ZERO,
    build_pair,
    build_pairs,
    build_point,
    build_space,
    chain_graph,
    curve_graph,
    grid_universe,
    q,
    rand_hyp_point,
    rand_rational_point,
    rand_term,
    rand_tree_point,
    rational_graph,
    rng_for,
    term,
    tree_universe,
)

# tolerance of the worked example's hyperbolic transform row
HYP_FORM_TOL = 1e-6


class CheckFailed(Exception):
    """An item's output disagrees with its reference."""


def check(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def greedy(rng: random.Random, universe, size: int) -> list:
    """A random monotone subset of the universe, grown greedily."""
    order = list(universe)
    rng.shuffle(order)
    kept = []
    for cand in order:
        if len(kept) >= size:
            break
        if all(monotonically_related(cand, r) for r in kept):
            kept.append(cand)
    return kept


def polar_complete(tr, pairs, universe) -> tuple:
    """Add one polar member at a time until the polar adds nothing."""
    current = list(pairs)
    while True:
        with tr.span("monotone.monotone_polar"):
            polar = monotone_polar(current, universe)
        extra = None
        for cand in polar:
            with tr.span("conjugate.pair_in") as a:
                a["hit"] = hit = pair_in(cand, current)
            if not hit:
                extra = cand
                break
        if extra is None:
            return tuple(current)
        current.append(extra)


def basepoint(space):
    return build_point(space, ROOT if space.kind == "rtree" else [0] * space.dim)


class Workload:
    name = ""
    n_trace = 0  # items in each pass of a traced run

    def generate(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, spec: dict):
        """Yield None after each step of building the state, then the state."""
        raise NotImplementedError

    def items(self, state) -> list:
        raise NotImplementedError

    def pools(self, state) -> dict:
        """Space kind -> paired points drawn from this workload's inputs."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# polar-grid


class Universe(NamedTuple):
    space: object
    pairs: tuple
    p: object
    index: dict  # pair -> position in pairs
    vecs: Optional[list]  # (point, canonical vector) per pair, Euclidean only


def euclid_vecs(wire_pairs) -> list:
    """Plain coordinate vectors of origin-anchored grid pairs, for the oracle."""
    out = []
    for w in wire_pairs:
        terms = w["xd"]["terms"]
        out.append((tuple(w["x"]), tuple(terms[0]["b"]) if terms else (0, 0)))
    return out


class PolarGrid(Workload):
    name = "polar-grid"
    n_trace = 28
    # Polar completion runs on the 36-pair grid and the trees; on the 81-pair
    # grid it alone would take most of the run. The shares put the 90th
    # percentile in the middle of the 36-pair completions, with the costlier
    # tree completions above it and the cheap kinds below.
    CYCLE = 4 * (
        ("compact", "greedy"), ("wide", "greedy"), ("compact", "arbitrary"), ("wide", "arbitrary"),
        ("compact", "polar"), ("tree", "greedy"),
    ) + (("compact", "greedy"), ("wide", "greedy"), ("wide", "arbitrary"), ("tree", "polar"))
    TREES = 24

    def generate(self, seed):
        rng = rng_for(self.name, seed)
        universes = {"compact": grid_universe(2), "wide": grid_universe(3)}
        for k in range(self.TREES):
            universes[f"tree{k}"] = tree_universe(rng, 3, 4)
        items = []
        for i in range(2800):
            uni, kind = self.CYCLE[i % len(self.CYCLE)]
            if uni == "tree":
                uni = f"tree{rng.randrange(self.TREES)}"
            items.append({"universe": uni, "kind": kind, "seed": rng.getrandbits(32)})
        return {"universes": universes, "items": items}

    def setup(self, spec):
        unis = {}
        for name, wire in spec["universes"].items():
            space = build_space(TREE if name.startswith("tree") else E2)
            pairs = build_pairs(space, wire)
            index = {}
            for i, pp in enumerate(pairs):
                index.setdefault(pp, i)
            vecs = None if space.kind == "rtree" else euclid_vecs(wire)
            unis[name] = Universe(space, pairs, basepoint(space), index, vecs)
            yield
        yield {"universes": unis, "items": spec["items"]}

    def items(self, state):
        return [functools.partial(self.run_item, state["universes"][it["universe"]], it)
                for it in state["items"]]

    def pools(self, state):
        unis = state["universes"]
        return {
            "euclidean": unis["wide"].pairs,
            "rtree": sum((u.pairs for n, u in unis.items() if n.startswith("tree")), ()),
        }

    @staticmethod
    def run_item(uni: Universe, it: dict, tr):
        rng = random.Random(it["seed"])
        U = uni.pairs
        if it["kind"] == "greedy":
            pairs = greedy(rng, U, 4)
        elif it["kind"] == "polar":
            pairs = polar_complete(tr, greedy(rng, U, 2), U)
        else:
            pairs = [U[rng.randrange(len(U))] for _ in range(rng.randint(1, 5))]
        g = OperatorGraph(uni.space, tuple(pairs))
        with tr.span("fitzpatrick.level_set_report"):
            rep = level_set_report(g, uni.p, U)
        bad = sorted(k for k, v in rep.checks.items() if v is False)
        check(not bad, f"level-set cross checks failed: {bad}")
        if it["kind"] == "polar":
            with tr.span("monotone.is_maximal_relative"):
                maxrel = is_maximal_relative(g, U)
            check(maxrel.holds, "polar-completed graph is not maximal relative to its universe")
        if uni.vecs is not None:
            gv = [uni.vecs[uni.index[gp]] for gp in g.pairs]
            for i, (x, u) in enumerate(uni.vecs):
                want = classical_fitzpatrick_oracle(gv, x, u).value - sum(a * b for a, b in zip(x, u))
                check(rep.gaps[i].value == want, f"transform gap at universe pair {i} differs from the oracle")


# --------------------------------------------------------------------------
# roundtrip-table

NONZERO_VECS = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (1, -1), (-1, 1), (-1, -1)]


def euclid_table_universe(rng, origin=(0, 0)) -> list:
    """The criterion-10 point grid {0,1}^2 times the zero dual and two seeded unit duals.

    Grid and duals are moved to start at origin; with the basepoint moved
    along, every value the round trip computes stays the same.
    """
    o0, o1 = origin
    duals = [ZERO] + [term(1, list(origin), [o0 + v0, o1 + v1]) for v0, v1 in rng.sample(NONZERO_VECS, 2)]
    return [{"x": [o0 + a, o1 + b], "xd": d} for a in range(2) for b in range(2) for d in duals]


def flat_tree_universe(rng) -> list:
    """Root and two points of branch 1, times the zero dual and one term.

    The points span one segment, so the instance is flat, but the dual
    may reach into other branches and is compared through probes.
    Coordinates are eighths, so that a run's cases are all distinct.
    """
    den = 8
    ks = sorted(rng.sample(range(1, den + 1), 2))
    pts = [list(ROOT)] + [[1, q(Fraction(k, den))] for k in ks]
    a = rand_tree_point(rng, (1, 3), den)
    b = a
    while b == a:
        k = rng.randint(0, den)
        b = [1, q(Fraction(k, den))] if k else list(ROOT)
    duals = [ZERO, term(rng.randint(1, 2), a, b)]
    return [{"x": x, "xd": d} for x in pts for d in duals]


class TableCase(NamedTuple):
    space: object
    universe: tuple
    p: object
    graph: OperatorGraph


class RoundtripTable(Workload):
    name = "roundtrip-table"
    n_trace = 15
    # the median falls in the middle of the 12-pair Euclidean tables, the 90th
    # percentile in the middle of the costlier tree tables (the probe path)
    CYCLE = ("euclid", "euclid", "euclid", "euclid", "tree")
    # Distinct cases, each with its own library objects: a 35 s run reaches
    # about 250, so no case repeats unless items get three times faster.
    # A repeated case would credit a per-instance memo with reuse that
    # criterion-10 traffic, which handles each instance once, does not have.
    POOL = 800
    STEP = 8  # cases built per timed set-up step

    def generate(self, seed):
        rng = rng_for(self.name, seed)
        pool = []
        for i in range(self.POOL):
            if self.CYCLE[i % len(self.CYCLE)] == "tree":
                entry = {"space": TREE, "p": list(ROOT), "universe": flat_tree_universe(rng)}
            else:
                origin = [rng.randint(-99, 99), rng.randint(-99, 99)]
                entry = {"space": E2, "p": origin, "universe": euclid_table_universe(rng, origin)}
            pool.append({**entry, "seed": rng.getrandbits(32)})
        return {"pool": pool}

    def setup(self, spec):
        cases = []
        for entry in spec["pool"]:
            space = build_space(entry["space"])
            U = build_pairs(space, entry["universe"])
            # a greedy pass over the whole universe is maximal relative to it
            g = OperatorGraph(space, tuple(greedy(random.Random(entry["seed"]), U, len(U))))
            cases.append(TableCase(space, U, build_point(space, entry["p"]), g))
            if len(cases) % self.STEP == 0:
                yield
        yield cases

    def items(self, state):
        return [functools.partial(self.run_item, case) for case in state]

    def pools(self, state):
        out = {}
        for case in state[:20]:  # a sample: every case has one of two shapes
            out[case.space.kind] = out.get(case.space.kind, ()) + case.universe
        return out

    @staticmethod
    def run_item(case: TableCase, tr):
        g, p, U = case.graph, case.p, case.universe
        rows = []
        for cand in U:
            with tr.span("fitzpatrick.fitzpatrick_sup") as a:
                rows.append((cand, fitzpatrick_sup(g, p, cand)))
                a["graph_pairs"] = len(g.pairs)
        h = FunctionTable(p, tuple(rows))
        with tr.span("conjugate.gamma_p_membership") as a:
            m = gamma_p_membership(h, p, U)
            a["skipped"] = m.skipped_combinations
            n = sum(1 for _, v in rows if v.is_finite)
            a["combinations"] = n * (n - 1) // 2 * len(DEFAULT_LAMBDA_GRID)
        check(m.holds, "transform table fails the membership check")
        with tr.span("fitzpatrick.s_map"):
            recovered = s_map(h, p)
        check(set(recovered.pairs) == set(g.pairs), "s_map does not recover the graph")
        with tr.span("monotone.is_maximal_relative"):
            maxrel = is_maximal_relative(recovered, U)
        check(maxrel.holds, "recovered graph is not maximal relative to the universe")
        with tr.span("fitzpatrick.roundtrip_check"):
            rt = roundtrip_check(h, p, U)
        check(rt.holds, "round trip does not reproduce the table")


# --------------------------------------------------------------------------
# transform-sweep


def tree_query(rng):
    draw = lambda r: rand_tree_point(r, (1, 6), den=6)
    return {"x": draw(rng), "xd": rand_term(rng, draw, rng.randint(1, 3)), "p": draw(rng)}


def hyp_query(rng):
    return {"x": rand_hyp_point(rng), "xd": rand_term(rng, rand_hyp_point, 1.0), "p": rand_hyp_point(rng)}


def euclid_query(rng):
    return {"x": rand_rational_point(rng), "xd": rand_term(rng, rand_rational_point, rng.randint(1, 3)),
            "p": rand_rational_point(rng)}


class TransformSweep(Workload):
    name = "transform-sweep"
    n_trace = 31
    # Per cycle of 30 items: 29 on the small graphs, then one on a large graph
    # (which large one rotates). The shares put the median in the middle of
    # the euc-150 items and the 90th percentile in the middle of the tree-500
    # items: both exact-arithmetic clusters, never a boundary between two.
    SMALL_CYCLE = 4 * ("tree-100", "euc-150", "hyp-1e3", "tree-100", "euc-150", "tree-500") + (
        "tree-100", "euc-150", "hyp-1e3", "hyp-1e3", "tree-500")
    LARGE = ("tree-1000", "hyp-1e4", "euc-1000")
    POOLS = ("tree-100", "hyp-1e3", "euc-150")
    QUERY = {"rtree": tree_query, "hyperbolic": hyp_query, "euclidean": euclid_query}
    STEP = 200  # graph pairs built per timed set-up step

    def generate(self, seed):
        rng = rng_for(self.name, seed)
        graphs = {
            "tree-100": {"space": TREE, "pairs": chain_graph(100)},
            "tree-500": {"space": TREE, "pairs": chain_graph(500)},
            "tree-1000": {"space": TREE, "pairs": chain_graph(1000)},
            "hyp-1e3": {"space": H2, "pairs": curve_graph(10.0, 0.01)},
            "hyp-1e4": {"space": H2, "pairs": curve_graph(10.0, 0.001)},
            "euc-150": {"space": E2, "pairs": rational_graph(rng, 150)},
            "euc-1000": {"space": E2, "pairs": rational_graph(rng, 1000)},
        }
        items = [{"worked": {"tree_depth": 1000, "curve_grid_step": 0.001}}]
        for i in range(1200):
            cycle, pos = divmod(i, 30)
            gname = self.LARGE[cycle % 3] if pos == 29 else self.SMALL_CYCLE[pos]
            kind = graphs[gname]["space"]["kind"]
            items.append({"graph": gname, **self.QUERY[kind](rng)})
        return {"graphs": graphs, "items": items}

    def setup(self, spec):
        graphs = {}
        for name, g in spec["graphs"].items():
            space = build_space(g["space"])
            wire = g["pairs"]
            pairs = []
            for i in range(0, len(wire), self.STEP):
                pairs.extend(build_pairs(space, wire[i:i + self.STEP]))
                yield
            graphs[name] = OperatorGraph(space, tuple(pairs))
        yield {"graphs": graphs, "items": spec["items"]}

    def items(self, state):
        out = []
        for it in state["items"]:
            if "worked" in it:
                out.append(functools.partial(self.run_worked, it["worked"]))
            else:
                out.append(functools.partial(self.run_item, state["graphs"][it["graph"]], it))
        return out

    def pools(self, state):
        return {state["graphs"][name].space.kind: state["graphs"][name].pairs for name in self.POOLS}

    @staticmethod
    def run_worked(params, tr):
        with tr.span("fitzpatrick.worked_examples"):
            rows = worked_examples(**params)
        failed = [r.name for r in rows if not r.passed]
        check(not failed, f"worked-example rows failed: {failed[:3]}")

    @staticmethod
    def run_item(g: OperatorGraph, it: dict, tr):
        query = build_pair(g.space, it)
        p = build_point(g.space, it["p"])
        with tr.span("fitzpatrick.fitzpatrick_sup") as a:
            a["graph_pairs"] = len(g.pairs)
            v_sup = fitzpatrick_sup(g, p, query)
        with tr.span("fitzpatrick.fitzpatrick_inf"):
            v_inf = fitzpatrick_inf(g, p, query)
        with tr.span("fitzpatrick.fitzpatrick_via_conjugate"):
            v_conj = fitzpatrick_via_conjugate(g, p, query)
        if g.space.kind == "hyperbolic":
            vals = (v_sup.value, v_inf.value, v_conj.value)
            check(max(vals) - min(vals) <= HYP_FORM_TOL, f"transform forms spread {max(vals) - min(vals):.3g}")
        else:
            check(v_sup == v_inf == v_conj, "transform forms differ on an exact space")


WORKLOADS = {w.name: w for w in (PolarGrid(), RoundtripTable(), TransformSweep())}

"""cat0 benchmark: one seeded workload per run, closed loop, one client.

Run from the root of a checkout (the directory holding src/cat0):

    python3 perfbench/run.py --workload polar-grid --seed 1 --seconds 20 --trace 0

Workloads: polar-grid, roundtrip-table and transform-sweep (BENCHMARK.json
says why each exists). The run generates its inputs from the seed, sets
up at least three times and for at least a second (setup_s is the
median), then runs items one after another for --seconds, checking every
item's output. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, measured with tracing off, in
units of a reference computation timed after every item (see
end_to_end). --trace 1 reports the per-layer metrics instead: it runs a
fixed prefix of the items once to warm up, then each item untraced and
traced back to back (the median ratio of such pairs, less one, is
trace.overhead_frac), records the spans of one traced pass in memory,
and writes them to
perfbench/out/trace-<workload>-<seed>.json when the run ends; its
length is set by that prefix, not by --seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUPS = 3  # set-ups per run: at least this many, and for at least SETUP_BUDGET_S
SETUP_BUDGET_S = 1.0
MAX_REPORTED = 5
REF_WINDOW = 15  # reference samples in the rolling median that scales an item
REF_S = 1e-3  # setup_s is in seconds of a machine on which reference() takes this long
OVERHEAD_REPS = 3  # passes of untraced/traced item pairs behind trace.overhead_frac


def host_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ItemRunner:
    """Runs items, counting failures; the first few are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, item, tr, label) -> float:
        from workloads import CheckFailed

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            item(tr)
        except CheckFailed as exc:
            self._fail(label, f"check failed: {exc}")
        except Exception:  # an item that raises counts as failed; the run goes on
            self._fail(label, traceback.format_exc())
        return time.perf_counter() - t0

    def _fail(self, label, what: str):
        self.failed += 1
        if self.failed <= MAX_REPORTED:
            print(f"item {label} failed: {what}", file=sys.stderr)


def reproducible(wl, seed: int) -> bool:
    """Same seed, byte-identical inputs; another seed, different inputs (by digest)."""
    from inputs import digest

    first = digest(wl.generate(seed))
    return first == digest(wl.generate(seed)) and first != digest(wl.generate(seed + 1))


def reference() -> float:
    """Duration of a fixed pure-Python computation that uses no cat0 code.

    Exact fraction sums, a tuple-keyed dict and a sort: the interpreter
    work the library does, about 1 ms. Timed after every item and every
    set-up step, it tracks the speed of the machine at that moment.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i) * Fraction(i + 1, 3)
    table = {(i, str(i), Fraction(i, 7)): (i, i + 1) for i in range(200)}
    sorted(table, key=lambda k: k[2])
    return time.perf_counter() - t0


def rolling_median(values: list, window: int = REF_WINDOW) -> list:
    half = window // 2
    return [statistics.median(values[max(0, i - half):i + half + 1]) for i in range(len(values))]


def in_ref(times: list, refs: list) -> float:
    """Total of the durations, each divided by the reference timings around it."""
    return sum(t / r for t, r in zip(times, rolling_median(refs)))


def timed_setup(wl, spec) -> tuple:
    """One set-up, timed step by step: (state, seconds at reference speed, wall seconds).

    A set-up lasts up to a second, long enough for the machine's speed to
    change halfway through it; a reference timing after each step of a
    few milliseconds scales that step by the speed it ran at.
    """
    times, refs = [], []
    t0 = time.perf_counter()
    for state in wl.setup(spec):
        times.append(time.perf_counter() - t0)
        refs.append(reference())
        t0 = time.perf_counter()
    return state, REF_S * in_ref(times, refs), sum(times)


def end_to_end(wl, seed: int, seconds: float) -> tuple:
    """Time items for the given seconds; report them in reference units.

    Wall and CPU time on a shared machine drift by a fifth within
    seconds. Each item's time is divided by the median of the reference
    durations measured around it, which removes most of that drift; the
    raw figures go to the result file. Set-up time is scaled the same
    way, step by step, and given in seconds at reference speed.
    """
    from spans import NullTracer

    null = NullTracer()
    spec = wl.generate(seed)
    setup_s, setup_raw = [], []
    # a cheap set-up is repeated more often, so that its median is not a
    # handful of millisecond readings
    while len(setup_s) < SETUPS or sum(setup_raw) < SETUP_BUDGET_S:
        state = None  # drop the previous set-up before building the next
        gc.collect()
        state, scaled, raw = timed_setup(wl, spec)
        setup_s.append(scaled)
        setup_raw.append(raw)

    items = wl.items(state)
    runner = ItemRunner()
    times, cpus, refs = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        i = len(times)
        cpu0 = time.process_time()
        times.append(runner.run(items[i % len(items)], null, i))
        cpus.append(time.process_time() - cpu0)
        refs.append(reference())

    n = len(times)
    scale = rolling_median(refs)
    norm = [t / r for t, r in zip(times, scale)]
    metrics = {
        "items_per_kref": (1000 * n / sum(norm), "1/kref"),
        "item_p50_ref": (statistics.median(norm), "ref"),
        "item_p90_ref": (deciles(norm)[8], "ref"),
        "cpu_per_item_ref": (in_ref(cpus, refs) / n, "ref"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    raw = raw_figures(times, cpus, refs)
    raw["raw.setup_s"] = (statistics.median(setup_raw), "s")
    return runner, metrics, raw


def deciles(values: list) -> list:
    return statistics.quantiles(values, n=10) if len(values) > 1 else [values[0]] * 9


def raw_figures(times: list, cpus: list, refs: list) -> dict:
    """Wall-clock figures, for reading next to the reference-unit metrics."""
    return {
        "raw.items_per_s": (len(times) / sum(times), "1/s"),
        "raw.item_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "raw.item_p90_ms": (deciles(times)[8] * 1e3, "ms"),
        "raw.cpu_ms_per_item": (statistics.fmean(cpus) * 1e3, "ms"),
        "raw.ref_ms": (statistics.median(refs) * 1e3, "ms"),
    }


def per_layer(wl, seed: int, label: str) -> tuple:
    import layers
    from inputs import rng_for
    from spans import NullTracer, Tracer

    tr = Tracer()
    null = NullTracer()
    *_, state = wl.setup(wl.generate(seed))
    items = wl.items(state)
    runner = ItemRunner()
    times, cpus, refs = [], [], []  # every item run in order, each followed by a reference timing
    traced_at = set()

    def run_item(i, tracer):
        if tracer is not null:
            traced_at.add(len(times))
        tracer.item = f"item-{i}"
        cpu0 = time.process_time()
        with tracer.span("item"):
            times.append(runner.run(items[i], tracer, i))
        cpus.append(time.process_time() - cpu0)
        refs.append(reference())

    # A warm-up pass over the item prefix, then OVERHEAD_REPS passes that
    # run each item twice in a row, untraced and traced, which goes first
    # alternating. Each such pair gives one ratio of reference-scaled
    # times. Only the first traced pass keeps its spans, so that counts are
    # those of one pass over the prefix.
    for i in range(wl.n_trace):
        run_item(i, null)
    for rep in range(OVERHEAD_REPS):
        traced = tr if rep == 0 else Tracer()
        for i in range(wl.n_trace):
            for tracer in ((null, traced) if (i + rep) % 2 == 0 else (traced, null)):
                run_item(i, tracer)
    norm = [t / r for t, r in zip(times, rolling_median(refs))]
    ratios = [norm[k + 1] / norm[k] if k + 1 in traced_at else norm[k] / norm[k + 1]
              for k in range(wl.n_trace, len(times), 2)]
    plain = [k for k in range(len(times)) if k not in traced_at]
    metrics = raw_figures([times[k] for k in plain], [cpus[k] for k in plain], refs)

    # the layer pass and the CLI split (which also checks that repeated runs
    # print identical bytes and the library's verdicts) count as two more
    # items of the traced run
    runner.run(lambda t: layers.layer_pass(t, seed), tr, layers.LAYER_ITEM)
    split = {}
    instances = layers.generate_cli_instances(rng_for("cli-split", seed))
    runner.run(lambda t: split.update(layers.cli_split(instances, os.path.join(OUT, "cli-split"))), tr, "cli-split")

    metrics.update((name, (v, "ns")) for name, v in layers.ns_metrics(wl.pools(state), seed).items())
    units = {".s": "s", ".calls": "count", "_frac": "frac", "_ratio": "frac", "_per_s": "1/s"}
    for name, v in layers.span_metrics(tr).items():
        metrics[name] = (v, next(u for suffix, u in units.items() if name.endswith(suffix)))
    for name, v in layers.self_fractions(tr).items():
        metrics[name] = (v, "frac")
    for name, v in split.items():
        metrics[name] = (v, "bytes" if name.endswith("bytes") else "s")
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1, "frac")
    metrics["defects.far_curve.raise_frac"] = (layers.far_curve_raise_frac(seed), "frac")
    metrics["defects.cli_tree_wide.mismatch_frac"] = (
        layers.cli_tree_wide_mismatch_frac(seed, os.path.join(OUT, "cli-wide")), "frac")

    tr.write(os.path.join(OUT, f"trace-{label}.json"), {"workload": wl.name, "seed": seed})
    return runner, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "cat0", "__init__.py")):
        print("error: src/cat0 not found; run from the root of a cat0 checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    repro = reproducible(wl, args.seed)
    if not repro:
        print("error: generated inputs are not reproducible from the seed", file=sys.stderr)
    label = f"{wl.name}-{args.seed}"
    if args.trace:
        runner, metrics, raw = per_layer(wl, args.seed, label)
    else:
        runner, metrics, raw = end_to_end(wl, args.seed, args.seconds)

    result = {
        "correct": repro and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    host = host_context()
    with open(os.path.join(OUT, f"result-{label}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "host": host, "raw": {k: v for k, (v, _) in raw.items()}, **result},
                  fh, indent=1, sort_keys=True)
    if raw:
        print("raw " + json.dumps({k: round(v, 4) for k, (v, _) in raw.items()}, sort_keys=True))
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

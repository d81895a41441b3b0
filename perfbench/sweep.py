"""Run the benchmark over several seeds and report the spread of each metric.

From the root of a checkout:

    python3 perfbench/sweep.py --workloads polar-grid roundtrip-table --seeds 1-10 --out sweep.json

For each workload and metric it prints the median and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to a third of the metric's bound from
BENCHMARK.json. Runs are sequential, one process at a time. The JSON
summary keeps every run's result and host context.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    spec = json.load(open("BENCHMARK.json", encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write every run and the summary here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs, summary = [], {}
    for wl in args.workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            host = json.loads(lines[-2].split(" ", 1)[1]) if len(lines) > 1 else {}
            runs.append({"workload": wl, "seed": seed, "wall_s": wall, "host": host, **result})
            print(f"{wl} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} wall={wall:.1f}s load={host.get('loadavg')}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[wl] = {}
        for name, vals in values.items():
            med, sp = spread(vals)
            bound = bounds.get(name)
            summary[wl][name] = {"median": med, "iqr_frac": sp, "values": vals}
            flag = "" if bound is None or sp < bound / 3 else "  <-- above bound/3"
            print(f"  {name:40s} median {med:14.6g}  spread {sp:7.3f}"
                  + (f"  bound/3 {bound / 3:.3f}" if bound is not None else "") + flag)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "trace": args.trace, "summary": summary, "runs": runs},
                      fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

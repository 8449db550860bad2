#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs the benchmark command from BENCHMARK.json repeatedly, alternating
workloads run by run (seed 1..N for each), and prints for every
end-to-end metric of every workload its median, quartiles and quartile
spread as a share of the median, next to the metric's bound. With
--sets 2 it makes two such sets and also prints how far the second
median moved from the first. Run from the repository root:

    python3 vnsbench/steady.py --runs 10
    python3 vnsbench/steady.py --runs 5 --workloads failover --sets 2
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return res, wall


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1, help="sets of runs to compare")
    ap.add_argument("--workloads", nargs="*", help="workloads (default: all)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    # sets[s][workload][metric] -> list of values; fails[s][workload] -> shares
    sets = []
    walls = {}
    for s in range(args.sets):
        vals = {w: {m["name"]: [] for m in metrics} for w in workloads}
        fails = {w: [] for w in workloads}
        for i in range(args.runs):
            seed = s * args.runs + i + 1
            for w in workloads:
                res, wall = run_once(bench["command"], w, seed, bench["run_seconds"])
                walls.setdefault(w, []).append(wall)
                fails[w].append(res["failed"] / res["attempted"])
                for m in metrics:
                    vals[w][m["name"]].append(res["metrics"][m["name"]]["value"])
                print(f"set {s + 1} run {i + 1} {w} ({wall:.1f}s): attempted={res['attempted']} failed={res['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
                      file=sys.stderr, flush=True)
        sets.append((vals, fails))

    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':18} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6} {'drift':>8}")
        for m in metrics:
            first = None
            for s, (vals, _) in enumerate(sets):
                med, q1, q3, sp = spread(vals[w][m["name"]])
                drift = ""
                if first is not None:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    drift = f"{worse:+.3f}"
                first = med if first is None else first
                flag = "" if m["name"] == "setup_s" or sp <= m["bound"] / 3 else "  <- above a third of the bound"
                print(f"  {m['name']:18} {s + 1:>3} {med:14.6g} {q1:14.6g} {q3:14.6g} {sp:8.4f} {m['bound']:6.2f} {drift:>8}{flag}")
        for s, (_, fails) in enumerate(sets):
            print(f"  failed share, set {s + 1}: {sorted(set(fails[w]))}")
        print(f"  wall seconds per run: median {statistics.median(walls[w]):.1f}, max {max(walls[w]):.1f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs one workload on several seeds
and prints, per metric, the median, the quartiles and the spread (the
distance between the first and third quartile as a share of the median),
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload onboard --seeds 1-10 [--trace 0] [--out runs.jsonl]

Run from the root of the checkout. Each run's JSON result is appended to
--out when given, with the workload, seed and wall time.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values, walls = {}, []
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        t0 = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.time() - t0
        walls.append(wall)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: {res}\n{proc.stderr}")
        print(f"seed {seed}: {wall:.1f} s wall, attempted {res['attempted']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, "wall_s": round(wall, 1),
                                    "result": res}) + "\n")

    print(f"\n{args.workload}: {len(walls)} runs, wall median {statistics.median(walls):.1f} s")
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} {bound if bound is not None else '':>6}")


if __name__ == "__main__":
    main()

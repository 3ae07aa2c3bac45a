#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--seconds 20] [--first-seed 1] \
        [--out FILE] WORKLOAD...

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) on
each workload, untraced, and prints for every end-to-end metric its median
and its spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json.  --out appends every
result line, as JSON, to FILE.  Exits 1 if any run fails or prints
"correct": false.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    ok = True
    for wl in args.workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print("%s seed %d: run failed (exit %d)" % (wl, seed, p.returncode))
                print(p.stdout)
                ok = False
                continue
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": wl, "seed": seed, "result": result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d runs)" % (wl, args.runs))
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            print("  %-16s median %-12.6g spread %6.3f  (bound/3 %.3f)"
                  % (name, med, spread, bounds.get(name, float("nan")) / 3))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

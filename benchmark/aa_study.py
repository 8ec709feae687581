#!/usr/bin/env python3
"""A/A study: run the benchmark ten times per workload on one commit, the
way the driver of BENCHMARK.json does, and print per end-to-end metric
min / median / max and the driver's spread (interquartile range over
median, `statistics.quantiles(n=4)`).

    python3 benchmark/aa_study.py [--same-seed] [--logs DIR]

Run it from the repository root. Seeds are 1..10; with `--same-seed` every
run uses seed 1, which leaves host noise alone. Run it twice and compare the
medians: a bound of BENCHMARK.json must hold both the spread and the shift
of the median. `--logs` keeps each run's full output (passes, calibration).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUNS = 10

ap = argparse.ArgumentParser()
ap.add_argument("--same-seed", action="store_true", help="repeat seed 1: host noise alone")
ap.add_argument("--logs", default="", help="directory to keep each run's full output in")
args = ap.parse_args()

bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

for workload in [w["name"] for w in bench["workloads"]]:
    values = {}
    t0 = time.time()
    for run in range(RUNS):
        seed = 1 if args.same_seed else 1 + run
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr[-2000:]}")
        if args.logs:
            os.makedirs(args.logs, exist_ok=True)
            with open(os.path.join(args.logs, f"{workload}_{run}_seed{seed}.txt"), "w") as f:
                f.write(out.stdout)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"\n{workload}: {RUNS} runs in {time.time() - t0:.0f} s")
    print(f"  {'metric':<20} {'min':>14} {'median':>14} {'max':>14} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med
        flag = "" if spread <= bounds[name] / 3 else "  <-- above bound/3"
        print(f"  {name:<20} {min(v):>14.4f} {med:>14.4f} {max(v):>14.4f} {spread:>8.4f} "
              f"{bounds[name]:>6}{flag}")

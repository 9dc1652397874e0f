#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [workload ...]

Run from the repository root.  Runs perfbench/run.py with seeds 1 to 10 for
each workload (all of BENCHMARK.json's workloads by default) with --trace 0
and prints, per metric, the median, the interquartile range as a share of
the median (statistics.quantiles, n=4), and that spread against a third of
the metric's bound -- the steadiness target.  Exits 1 if a run fails or is
not correct.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: not correct "
                      f"({result['failed']} of {result['attempted']} failed)")
                ok = False
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"== {workload}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:16s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  target {m['bound'] / 3:6.4f}  {flag}"
                  f"  [{' '.join(f'{x:.4g}' for x in v)}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

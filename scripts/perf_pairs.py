#!/usr/bin/env python3
"""Alternating parent/change perfbench pairs for one workload.

    python3 scripts/perf_pairs.py --parent <checkout> --change <checkout> \\
        --workload <name> --seeds <a>-<b>

Each checkout is a full tree of one commit (a `git clone` or `git archive`,
not a worktree of the other).  For every seed the script runs
`python3 perfbench/run.py --workload <name> --seed <seed> --seconds <s>
--trace 0` once in each checkout, with <s> the change's BENCHMARK.json
`run_seconds`: the parent first on odd seeds, the change first on even
ones, so a drift in host load lands on both sides.  Each checkout builds
into its own CARGO_TARGET_DIR (<checkout>/.bench_build), so the two builds
cannot collide.

The end_to_end metrics (name, `better`, `bound`) also come from the
change's BENCHMARK.json.  Every run's metrics go to stderr as they arrive.
The summary prints, per metric: the parent's median [q1, q3] and the
change's (statistics.quantiles, n=4), the pairs the change won and the
ties, and whether the change's median is worse than the parent's by more
than the bound.  Exits 1 as soon as a run fails or reports an incorrect
answer.  Nothing under perfbench/ is changed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    first, _, last = text.partition("-")
    first, last = int(first), int(last or first)
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text}")
    return range(first, last + 1)


def run_once(checkout, workload, seed, seconds):
    """One perfbench run in `checkout`; its end_to_end metrics, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(checkout / ".bench_build"))
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"{checkout} seed {seed}: exit {proc.returncode}",
              file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{checkout} seed {seed}: not correct ({result['failed']} of "
              f"{result['attempted']} failed)", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    args = parser.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    runs = {"parent": [], "change": []}
    for seed in args.seeds:
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], args.workload, seed, seconds)
            if result is None:
                return 1
            runs[side].append(result)
            print(f"seed {seed} {side}: " + " ".join(
                f"{m['name']}={result[m['name']]:.6g}" for m in metrics),
                file=sys.stderr, flush=True)

    print(f"== {args.workload}: {len(runs['parent'])} pairs, seeds "
          f"{args.seeds.start}-{args.seeds.stop - 1}, {seconds:g} s runs")
    for m in metrics:
        name = m["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        sign = -1.0 if m["better"] == "lower" else 1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        p_med, p_q1, p_q3 = quartiles(parent)
        c_med, c_q1, c_q3 = quartiles(change)
        worse = sign * (p_med - c_med)
        past = worse > m["bound"] * abs(p_med)
        print(f"  {name:16s} parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]"
              f"  change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]"
              f"  won {won}/{len(parent)} ties {ties}"
              f"  {'PAST BOUND' if past else 'within bound'}"
              f" ({m['bound']:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

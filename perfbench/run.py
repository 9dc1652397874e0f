#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The harness (perfbench/CMakeLists.txt) is
configured and built into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use; later runs only check that the build
is up to date.  The workload runs in its own process; its last stdout line
is a JSON object whose metrics are narrowed to the ones BENCHMARK.json lists
for the mode: the end_to_end metrics with --trace 0, the per_layer metrics
with --trace 1.  Every metric the harness reports must be one BENCHMARK.json
lists, with the same unit.  A traced workload reports only the layers it
exercises; the other per_layer metrics read 0.  That narrowed object is the
last line this script prints.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the harness; returns the binary path."""
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "hslb_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(target / "perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"perfbench: build failed: {err}")
        return 1

    # One OpenMP thread: the campaign loops stay on the harness thread, so
    # the service's workers plus the generator never exceed the cores.
    env = dict(os.environ, OMP_NUM_THREADS="1")
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"perfbench: {args.workload} exited with {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: the harness printed no result")
        return 1
    result = json.loads(lines[-1])

    spec = json.loads(Path("BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, metric in result["metrics"].items():
        if units.get(name) != metric["unit"]:
            log(f"perfbench: {name} [{metric['unit']}] is not a metric of "
                "BENCHMARK.json with that unit")
            return 1
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] in result["metrics"]:
            metrics[m["name"]] = result["metrics"][m["name"]]
        elif args.trace:
            # A layer this workload does not exercise.
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            log(f"perfbench: the harness did not report {m['name']}")
            return 1
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

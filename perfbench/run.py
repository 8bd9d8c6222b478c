#!/usr/bin/env python3
"""Build and run the HitSched wall-clock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout.  The first call configures and builds the
perfbench package (perfbench/CMakeLists.txt, which compiles the checkout's
src/ tree) into .bench_build/; later calls only rebuild what changed.  One
workload's run prints a "name value unit" table and, as the last line of
standard output, the result JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  `--workload all` runs every workload in both modes and
prints only the tables.  Exits non-zero, without a result line, when the
build fails or the program's output is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["batch-large", "online-1k", "workflow-coflow", "chaos"]
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build perfbench; exit 1 with the log on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)


def declared_metrics(trace):
    """{name: unit} BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace):
    """Run perfbench once; return (stdout lines, parsed result) or exit 1."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: %s did not finish in %d s\n"
                         % (workload, RUN_TIMEOUT_S))
        sys.exit(1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("run.py: perfbench exited with %d\n" % proc.returncode)
        sys.exit(1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write("run.py: last line is not JSON\n")
        sys.exit(1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("run.py: result has keys %s\n" % sorted(result))
        sys.exit(1)
    expected = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if expected is not None and got != expected:
        sys.stderr.write("run.py: metrics differ from BENCHMARK.json: %s\n"
                         % sorted(set(got.items()) ^ set(expected.items())))
        sys.exit(1)
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds

    build()
    if args.workload != "all":
        lines, _ = run_one(args.workload, args.seed, seconds, args.trace)
        print("\n".join(lines))
        return 0

    all_correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run_one(workload, args.seed, seconds, trace)
            print("\n".join(lines[:-1]))
            print("# correct=%s attempted=%d failed=%d\n" % (
                result["correct"], result["attempted"], result["failed"]))
            all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

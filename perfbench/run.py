#!/usr/bin/env python3
"""Build and run the CacheScope benchmark.

Run from the root of a source tree:

    python3 perfbench/run.py --workload sweep_gap --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (the simulator libraries from src/ plus
the perfbench program) as a Release build in .bench_build/, runs its
self-tests, then runs one measurement. The program's stdout is passed
through; its last line is the result JSON. Scratch files (traces, span
logs) go to .bench_work/; traces are deleted when the run ends.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# perfbench runs the timed region once (twice with --trace 1), each
# overrunning by up to one pass, plus repeated set-up, a warm-up pass and
# the layer ladder; the allowance covers those.
TIMEOUT_ALLOWANCE_S = 80


def run_quiet(cmd, timeout):
    """Run cmd with its output on our stderr; return its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out: " + " ".join(cmd), file=sys.stderr)
        return 1


def build(jobs):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code = run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"], 300)
        if code != 0:
            return code
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(jobs),
                      "--target", "perfbench", "perfbench_selftest"], 840)


def expected_metric_names(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = "BENCHMARK.json"
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def clean_traces():
    if not os.path.isdir(WORK_DIR):
        return
    for name in os.listdir(WORK_DIR):
        if name.endswith(".trace"):
            os.remove(os.path.join(WORK_DIR, name))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    jobs = max(1, min(os.cpu_count() or 1, 4))
    if build(jobs) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if run_quiet([os.path.join(BUILD_DIR, "perfbench_selftest"),
                  "--gtest_brief=1"], 120) != 0:
        print("perfbench: self-tests failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(BENCH_DIR, "digests.txt"),
           "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=3 * args.seconds +
                              TIMEOUT_ALLOWANCE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        return 1
    finally:
        clean_traces()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("perfbench: program exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1

    result = json.loads(lines[-1])
    expected = expected_metric_names(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if expected is not None and got != expected:
        print("\n".join(lines[:-1]))
        print("perfbench: metrics %s do not match BENCHMARK.json %s"
              % (sorted(got.items()), sorted(expected.items())),
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

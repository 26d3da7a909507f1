#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

Builds the driver (perfbench/driver.cpp plus the library in src/) from
source, runs it, checks the shape of its result, and prints the result as
one JSON object on the last line of standard output.

Usage, from the repository root:

    python3 perfbench/run.py --workload soak|fleet|storm --seed N \\
        --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/),
relative to the repository root. With --trace 1 the span file is written
next to it, under spans/. Exits non-zero and prints no result when the
build fails (for example when src/ is missing), when a correctness check
fails, or when the driver overruns its time limit. perfbench/METRICS.md
explains every metric.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("soak", "fleet", "storm")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit status."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout}s: {' '.join(cmd)}")
        return 1


def build(build_dir):
    """Configures once, then builds incrementally. Returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("src/CMakeLists.txt not found: run from a full checkout")
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", build_dir, "--target",
                   "perfbench_driver", "-j", jobs], BUILD_TIMEOUT_S) != 0:
        return None
    return os.path.join(build_dir, "perfbench_driver")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"driver overran {RUN_TIMEOUT_S}s")
        return 1
    if proc.returncode != 0:
        log(f"driver failed with status {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("driver printed no JSON result")
        return 1

    ok = (set(result) == {"correct", "attempted", "failed", "metrics"}
          and result["correct"] is True and result["attempted"] >= 1
          and 0 <= result["failed"] <= result["attempted"])
    want = expected_metrics(bool(args.trace))
    if ok and want is not None and set(result["metrics"]) != want:
        log("metric names differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ want)}")
        ok = False
    if not ok:
        log("malformed result")
        return 1
    if args.trace:
        log(f"spans written to {spans}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

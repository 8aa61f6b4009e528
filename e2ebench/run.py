#!/usr/bin/env python3
"""Builds and runs the GulfStream end-to-end life-cycle benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload steady --seed 7 --seconds 20 --trace 0

The first call configures and builds the benchmark (and the GulfStream
libraries it links) into .bench_build/e2ebench; later calls rebuild only what
changed. The benchmark's output is passed through unchanged: its last stdout
line is one JSON object {correct, attempted, failed, metrics}. With --trace 1
the spans and counter snapshots go to .bench_out/e2e_<workload>_<seed>.json.
Exit status is 0 only when the run completed and every correctness check
passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("boot", "steady", "churn", "sharded_steady")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    # Build chatter goes to stderr so stdout carries only the benchmark.
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"GulfStream sources not found at {os.path.join(ROOT, 'src')}")
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if run_quiet(configure, 300) != 0:
        # A cache left by a checkout at another path: start over once.
        shutil.rmtree(BUILD, ignore_errors=True)
        if run_quiet(configure, 300) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_quiet(["cmake", "--build", BUILD, "--target", "gs_e2e",
                  "-j", jobs], 800) != 0:
        fail("build failed")
    return os.path.join(BUILD, "gs_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace_out",
                os.path.join(OUT, f"e2e_{args.workload}_{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no result line (exit {proc.returncode})")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail(f"malformed result: {lines[-1]}")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        want = {m["name"] for m in spec["per_layer" if args.trace
                                        else "end_to_end"]}
        if set(result["metrics"]) != want:
            fail("metrics differ from BENCHMARK.json: "
                 f"{sorted(want ^ set(result['metrics']))}")
    sys.stdout.write(proc.stdout)
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the ATUM repository benchmark (see README.md here).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload capture_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (CMake, into .bench_build/) against the
sources in src/, runs one workload and prints its result as the last line
of stdout. --smoke runs every workload once at scale 1 in both trace
modes and checks each result against BENCHMARK.json; it is the
benchmark's own test and takes seconds once the build is done.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "atum_perfbench")
WORKLOADS = ("capture_mix", "capture_adversarial", "replay_pipeline")

# A run must end within 180 s; the build before it is not counted.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no ATUM sources at {ROOT}/src; run from a full checkout")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "atum_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run(workload, seed, seconds, trace, smoke=False):
    """Runs the binary; returns (exit code, its stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", OUT_DIR]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def check_result(line, wanted):
    """Returns the problems with one result line against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except (TypeError, ValueError):
        return ["last line is not JSON"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"metric names {sorted(metrics)}")
        return problems
    for m in wanted:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: value {got.get('value')}")
    return problems


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines = run(workload, 1, 0, trace, smoke=True)
            problems = check_result(lines[-1] if lines else None, wanted)
            if code != 0:
                problems.append(f"exit code {code}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}")
            failures += bool(problems)
    print(f"smoke: {failures} failing")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if not build():
        return 2
    if args.smoke:
        return smoke()
    code, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

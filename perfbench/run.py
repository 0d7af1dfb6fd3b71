#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tpcc_wb_seq --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The first form builds perfbench/ (and with it the simulator libraries
under src/) into .bench_build/, then runs one workload; the last line of
stdout is the JSON result. --self-check runs every workload of
BENCHMARK.json at a tiny length, untraced and traced, and checks that
each prints exactly the metric names and units BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# One run measures for --seconds plus a reference run; this bounds a hang.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", "4"]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def git_commit():
    # The benchmark may run from a plain copy of the tree; never let git
    # look above it for some other repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def bench_args(workload, seed, seconds, trace, tiny=False):
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", OUT_DIR, "--commit", git_commit()]
    return args + ["--tiny"] if tiny else args


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            proc = subprocess.run(bench_args(name, 1, 1, trace, tiny=True),
                                  capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            where = f"{name} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for k in sorted(want.keys() - got.keys()):
                problems.append(f"{where}: listed metric {k} not printed")
            for k in sorted(got.keys() - want.keys()):
                problems.append(f"{where}: unlisted metric {k} printed")
            for k in sorted(want.keys() & got.keys()):
                if want[k] != got[k]:
                    problems.append(f"{where}: {k} unit {got[k]} != {want[k]}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: output checks failed\n{proc.stderr}")
            print(f"self-check {where}: attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(got)}")
    for p in problems:
        print("FAIL", p)
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")

    build()
    if args.self_check:
        return self_check()
    sys.stdout.flush()
    try:
        proc = subprocess.run(bench_args(args.workload, args.seed,
                                         args.seconds, args.trace),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

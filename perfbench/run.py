#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ (CMake, Release) into
.bench_build/perfbench on first use, runs one workload, checks that the
reported metric names are exactly BENCHMARK.json's (end_to_end on an
untraced run, per_layer on a traced one) and relays the program's output;
the last line is the result object.  Exits non-zero without a result when
the build or the run fails.  See perfbench/README.md.
"""
import argparse
import json
import multiprocessing
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mcmm_perfbench")
WORKLOADS = ("gemm-large", "lu-2048", "serve-mixed", "sim-sweep")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, multiprocessing.cpu_count())))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD, "--target", "mcmm_perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_names(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("measuring program exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result object has the wrong keys")
    names = expected_names(args.trace)
    if names is not None and sorted(result["metrics"]) != sorted(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()

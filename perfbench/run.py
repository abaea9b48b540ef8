#!/usr/bin/env python3
"""Build the engine and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest        # build and run the oracle's tests

Run from the repository root. The build lands in .bench_build/perfbench,
per-run result files in .bench_out/results and the traced run's
Chrome-trace file in .bench_out/traces. The last line of standard output
is the run's result object; everything else goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: engine sources (src/) not found next to perfbench/")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return os.environ.get("PERFBENCH_COMMIT", "unknown")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_tests"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 1

    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + "-%d" % os.getpid()
    name = "%s-seed%d-trace%d-%s" % (args.workload, args.seed, args.trace, stamp)
    result_file = os.path.join(results, name + ".json")
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--result", result_file]
    if args.trace:
        traces = os.path.join(OUT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--chrome-trace", os.path.join(traces, name + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: run failed with code %d" % proc.returncode)
        return proc.returncode or 1

    with open(result_file) as f:
        record = json.load(f)
    record["commit"] = commit()
    with open(result_file, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    log("result file: " + os.path.relpath(result_file, ROOT))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

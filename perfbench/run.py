#!/usr/bin/env python3
"""Builds and runs the Polaris end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds the
Polaris libraries plus the harness into .bench_build/perfbench (about a
minute on 4 cores); later calls only check that the build is current.
The harness prints one JSON result object as the last line of stdout.
A traced run (--trace 1) also writes its spans as Chrome trace-event JSON
to .bench_build/traces/<workload>-seed<N>.json.

--self-test corrupts one committed expected output line and checks that
suite-exec then reports a failed op, and that a clean run reports none.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("compile-suite", "suite-exec", "speculative-pdtest")
# The harness stops after --seconds plus set-up and the last block of ops;
# a run that takes this much longer than --seconds is hung.
RUN_MARGIN_S = 140


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: Polaris sources not found at %s" %
                 os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def run(binary, args, seconds):
    """Runs the harness for `seconds`; returns (exit code, stdout text)."""
    cmd = [binary] + args + ["--seconds", repr(seconds), "--data-dir", HERE]
    timeout = seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %g s" % timeout)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    base = ["--workload", "suite-exec", "--seed", "1", "--trace", "0"]
    code, out = run(binary, base + ["--corrupt-expected"], 1.0)
    bad = result_of(out) if code == 0 else None
    code, out = run(binary, base, 1.0)
    good = result_of(out) if code == 0 else None
    ok = (bad is not None and bad["failed"] > 0 and not bad["correct"] and
          good is not None and good["failed"] == 0 and good["correct"])
    print("self-test: corrupted expected line -> failed=%s; clean -> "
          "failed=%s: %s" % (bad and bad["failed"], good and good["failed"],
                             "PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if args.self_test:
        return self_test(binary)

    harness_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        harness_args += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    code, out = run(binary, harness_args, args.seconds)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())

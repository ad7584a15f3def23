#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload churn|sweep|reroute --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the library sources it compiles) into .bench_build/; later
calls rebuild incrementally. Build output goes to stderr, so the last line
of standard output is the benchmark program's JSON result. A traced run
also writes its spans to .bench_build/traces/<workload>-<seed>.tsv.

Exits non-zero, without printing a result, when the build or the
benchmark program fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cronets_perfbench")
WORKLOADS = ("churn", "sweep", "reroute")
# The first run of a checkout builds: both build steps together stay under
# 840 s, leaving room for the run itself within 900 s.
BUILD_DEADLINE_S = 840
RUN_TIMEOUT_S = 170


def call(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group and wait for it. On timeout the
    whole group (cmake's make and compiler children too) is killed and
    reaped. Returns the CompletedProcess, or None on timeout."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
        return subprocess.CompletedProcess(cmd, proc.returncode, out)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_DEADLINE_S
    for cmd in steps:
        done = call(cmd, deadline - time.monotonic(), stdout=sys.stderr,
                    stderr=sys.stderr)
        if done is None or done.returncode != 0:
            return False
    return os.path.isfile(BINARY)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1

    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--spans", os.path.join(
                traces, "%s-%d.tsv" % (args.workload, args.seed))]
    done = call(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE,
                text=True)
    if done is None:
        print("benchmark program timed out", file=sys.stderr)
        return 1
    out = done.stdout
    if not args.selftest:
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if not isinstance(result, dict) or "metrics" not in result:
            sys.stderr.write(out)
            print("benchmark program exited with %d and printed no result"
                  % done.returncode, file=sys.stderr)
            return done.returncode or 1
    sys.stdout.write(out)
    # A run whose correctness checks failed prints its result and fails.
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the PerfSight diagnosis benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pull_fleet --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which builds the libraries
from src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
runs only check that the build is current.  The binary runs inside the build
directory, so the unix socket it creates stays there.  Its standard output is
passed through; the last line is the result object.  Exits non-zero, without
a result, when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pull_fleet", "push_stream", "dataplane_int")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, cwd=None):
    """Runs cmd in its own process group and returns (exit code, stdout).
    Without cwd (the build steps) stderr is folded into stdout.  On timeout
    the whole group, compiler processes included, is killed and reaped."""
    p = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT if cwd is None else None,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    return p.returncode, out.decode(errors="replace")


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append((["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 120))
    steps.append((["cmake", "--build", build_dir, "-j", jobs,
                   "--target", "perfbench"], 600))
    for cmd, timeout in steps:
        code, out = run(cmd, timeout)
        if code != 0:
            sys.stderr.write(out)
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds from 1 to 60")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Set-up, warm-up and checks take a few seconds beyond the measured loop.
    code, out = run(cmd, min(170, args.seconds * 2 + 60), cwd=build_dir)
    if code != 0:
        sys.stderr.write(out)
        fail("benchmark exited with code %d" % code)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

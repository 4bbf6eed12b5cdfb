#!/usr/bin/env python3
"""Build and run the repeatable MNM simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <func-hit|func-miss|timing|sweep> \\
        --seed <n> --seconds <s> --trace <0|1> [--inject-slowdown <frac>]
    python3 perfbench/run.py --build-only

The first call configures and builds perfbench/ (which pulls in the
simulator from src/) as a Release build under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.
Build output goes to stderr. The benchmark's fingerprint, report and,
as the last line, its JSON result go to stdout. The exit code is the
benchmark's: 0 when every correctness check passed, non-zero otherwise
(a failed build or a missing simulator source tree included).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("func-hit", "func-miss", "timing", "sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def run_build_step(cmd):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build step timed out: " + " ".join(cmd))
    return done.returncode == 0


def build(bdir):
    """Configure once, then build; returns the benchmark executable."""
    if shutil.which("cmake") is None:
        die("cmake not found")
    cache = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.exists(cache):
        ok = run_build_step(["cmake", "-S", HERE, "-B", bdir,
                             "-DCMAKE_BUILD_TYPE=Release"])
        if not ok:
            if os.path.exists(cache):
                os.remove(cache)
            die("configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not run_build_step(["cmake", "--build", bdir, "-j", jobs]):
        die("build failed")
    exe = os.path.join(bdir, "mnm_perfbench")
    if not os.access(exe, os.X_OK):
        die("build produced no executable")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--inject-slowdown", type=float, default=0.0,
                    help="busy-wait this share of every timed window "
                         "(sensitivity self-check)")
    ap.add_argument("--build-only", action="store_true",
                    help="build, print the benchmark executable's path, "
                         "and exit")
    args = ap.parse_args()

    bdir = build_dir()
    if args.build_only:
        print(build(bdir))
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        die("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        die("--seed must be >= 0 and --seconds in 1..60")
    exe = build(bdir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(bdir, "spans")]
    if args.inject_slowdown:
        cmd += ["--inject-slowdown", repr(args.inject_slowdown)]
    # Own process group, so a timeout takes the profiler-overhead
    # children down with the benchmark.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("benchmark timed out after %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out.decode("utf-8", "replace"))
    sys.stdout.flush()
    return proc.returncode if proc.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())

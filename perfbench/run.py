#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload table1_y --seed 0 --seconds 50 --trace 0

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt) from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build); later calls only re-check the
configuration and the build. With --trace 1 the benchmark also writes its spans to
<build dir>/perfbench-traces/<workload>-seed<n>.jsonl. --jitter 1 makes
held-out inputs (perfbench/README.md, "Seeds").
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Thresher sources next to perfbench/ (src/ is missing)")
    build_dir = os.path.join(build_root, "perfbench")
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--jitter", type=int, choices=[0, 1], default=0,
                    help="held-out inputs: jitter app pattern counts by seed")
    args = ap.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--jitter", str(args.jitter),
           "--corpus", os.path.join(ROOT, "tests", "corpus"),
           "--scratch", build_root]
    if args.trace:
        trace_dir = os.path.join(build_root, "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with %d" % proc.returncode)
    print(lines[-1])


if __name__ == "__main__":
    main()

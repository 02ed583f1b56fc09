#!/usr/bin/env python3
"""Builds and runs the end-to-end diffcd benchmark.

Run from the root of a source checkout:

    python3 diffcbench/run.py --workload adhoc --seed 1 --seconds 10 --trace 0

The first run configures and builds the benchmark, together with the diffc
library from src/, in Release mode with CMake under $CARGO_TARGET_DIR
(default: .bench_build) and later runs reuse that build. Build output goes
to stderr. The benchmark's own output goes to stdout; its last line is the
JSON result. With --trace 1 the spans are written to
<build>/traces/<workload>-seed<seed>.jsonl. See diffcbench/README.md.
"""

import argparse
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("adhoc", "revalidate", "churn")
# The benchmark must exit within 180 s; leave room for process teardown.
RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "diffcbench", "-j", "4"])
    for cmd in steps:
        # Keep stdout for the result line: the build logs to stderr.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("diffcbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    bench_dir = pathlib.Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("diffcbench: no diffc sources at " + str(root / "src"), file=sys.stderr)
        return 2
    out_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out_dir.is_absolute():
        out_dir = root / out_dir
    build_dir = out_dir / "diffcbench"
    if not build(bench_dir, build_dir):
        return 1

    cmd = [str(build_dir / "diffcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = out_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        # On timeout, run() kills the benchmark and waits for it.
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"diffcbench: no result within {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the wattdb benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv-hotspot --seed 1 --seconds 30 --trace 0

The engine (src/) and the benchmark (perfbench/src/) are compiled
with CMake into $CARGO_TARGET_DIR (default .bench_build). Build output goes
to stderr; stdout is the benchmark's report, whose last line is one JSON
object. With --trace 1 the spans are written to
.bench_out/trace-<workload>-seed<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# perfbench itself bounds a run near --seconds; this only stops a hung one.
RUN_TIMEOUT_S = 170


def build(build_dir):
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(".bench_out", exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(".bench_out", f"trace-{args.workload}-seed{args.seed}.jsonl")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

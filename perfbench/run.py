#!/usr/bin/env python3
"""Table 2 product-path benchmark entry point (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload proven-serial --seed 1 \
        --seconds 30 --trace 0

Builds the advbist library and the perfbench binary from source into
$CARGO_TARGET_DIR (default .bench_build) under the repository root, then
runs the binary. Build output goes to standard error; the binary's last
line of standard output is the JSON result. Exits non-zero, without a
result, when the source tree is missing or the build fails, and non-zero
with a result when a correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("proven-serial", "root-heavy", "parallel-4t")
# The binary stops itself at 165 s; this is the backstop.
RUN_TIMEOUT_S = 178
BUILD_JOBS = "4"


def build(root, build_dir):
    """Configures (once) and builds the perfbench target; returns the binary."""
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", BUILD_JOBS], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "core", "synthesizer.cpp")):
        print("perfbench: no advbist source tree next to perfbench/",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", build_dir]
    sys.stdout.flush()
    with subprocess.Popen(command, cwd=root) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run exceeded its time limit", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())

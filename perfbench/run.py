#!/usr/bin/env python3
"""Build and run the sdpm end-to-end benchmark.

    python3 perfbench/run.py --workload paper_cold|service_mixed|analyze_fix \
        --seed N --seconds S --trace 0|1

Run from the root of an sdpm checkout.  The first run configures and builds
the sdpm libraries and the benchmark driver (Release) in .bench_build/;
later runs rebuild incrementally.  Build output goes to stderr; the
driver's stdout is passed through, and its last line is the JSON result.
The exit code is the driver's, or 1 when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sdpm_perfbench")
REFERENCE = os.path.join("perfbench", "reference", "paper_cold_default.json")
RUN_TIMEOUT_S = 175


def build():
    """Configure once, then build the driver; False when either step fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "--target", "sdpm_perfbench",
            "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_cold", "service_mixed",
                                 "analyze_fix"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", ".bench_build",
               "--reference", REFERENCE]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

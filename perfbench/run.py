#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/; later calls only re-check the
build. Build output goes to stderr, so the benchmark's result line stays
the last line of stdout. Exits non-zero, without a result line, when the
build fails or the benchmark reports a failure.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "sag_perfbench")
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configure until it succeeds once, then build incrementally."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "sag_perfbench", "-j", JOBS])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 3
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

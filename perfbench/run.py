#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark is built with dune in the
release profile into .bench_build/ (inside the checkout, apart from the
development _build/), then run with the same arguments.  Its standard
output passes through unchanged; the last line is the JSON result.  Exits
non-zero, without a result, when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    if r.returncode != 0:
        print(f"run.py: build failed (dune exit {r.returncode})",
              file=sys.stderr)
        return False
    return True


def main(argv):
    if not build():
        return 1
    try:
        r = subprocess.run([os.path.join(ROOT, EXE)] + argv, cwd=ROOT,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

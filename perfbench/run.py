#!/usr/bin/env python3
"""Build the served-workload benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reach3-serve --seed 1 --seconds 10 --trace 0

The arguments go to the benchmark binary unchanged; its last line of
standard output is the JSON result.  Exits non-zero without a result
when the checkout does not hold the sources the benchmark builds on.
"""

import os
import subprocess
import sys

TARGET = "perfbench/bench.exe"
RUN_TIMEOUT_S = 170


def main():
    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} missing; run from the root of a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    # keep every build artifact inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./" + TARGET],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join("_build", "default", TARGET)
    proc = subprocess.Popen([binary] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

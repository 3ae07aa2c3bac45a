#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload sim-sweep|fi-mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds perfbench/main.exe (and the
libraries it links) from source with dune into a build directory of its own
-- $CARGO_TARGET_DIR if set, else .bench_build -- with the shared dune cache
off, then runs it.  The executable's output passes through unchanged: notes
prefixed with "# ", then the one-line JSON result.  The exit status is the
executable's (1: correctness gate failed); a failed build or a checkout
without the sources exits 2 without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            print("perfbench: %s not found: run from the root of a source checkout" % needed,
                  file=sys.stderr)
            return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    scratch = os.path.join(build_dir, "perfbench-scratch")
    sys.stdout.flush()
    run = subprocess.run([exe] + sys.argv[1:] + ["--scratch", scratch])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

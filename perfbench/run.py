#!/usr/bin/env python3
"""Builds the perfbench harness and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload pgo_cycle --seed 1 --seconds 10 --trace 0

The harness is built with cargo into $CARGO_TARGET_DIR (default
`.bench_build` in the current directory). Build output goes to standard
error; the harness's report goes to standard output, and its last line is
the JSON result. A traced run (`--trace 1`) also writes its Chrome trace to
`perfbench/out/trace-<workload>-<seed>.json`.
Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def main(argv):
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([exe] + argv, env=env, check=False, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded {} s".format(RUN_TIMEOUT_S), file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

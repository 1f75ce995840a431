#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sweep|wide|lab-hot|lab-cold \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark package
(`perfbench/Cargo.toml`) and the shipped `pdc_lab` binary in release
mode into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs the
benchmark, whose last line of output is the JSON result. Exits non-zero,
without a result, when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "pdc-lab", "--bin", "pdc_lab"],
    ]
    for cmd in builds:
        # Build output goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--lab-bin", os.path.join(release, "pdc_lab"),
           "--baseline", "BENCH_scale.json",
           "--out-dir", os.path.join(target, "perfbench")]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

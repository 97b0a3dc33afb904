#!/usr/bin/env python3
"""Build the timestep benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <sp-w-p2|bt-24-p2|sp-w-p1> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. This script builds it in release
mode into $CARGO_TARGET_DIR (default: .bench_build under the current
directory), then runs it with every MP_* variable removed from the
environment, so the solver runs with its default options. The last line the
benchmark prints is the JSON result; build output goes to standard error.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("MP_")}
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())

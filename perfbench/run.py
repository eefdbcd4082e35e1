#!/usr/bin/env python3
"""Builds the workspace's release `repro` and `serve` plus the benchmark
harness, then runs the harness with the given arguments.

    python3 perfbench/run.py --workload fig12_suite --seed 42 --seconds 30 --trace 0

Run it from the root of a checkout. Build output goes to
$CARGO_TARGET_DIR (default `.bench_build`). The harness prints a report
whose last line is the JSON result; see perfbench/README.md.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(args, env):
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "-q"] + args,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"cargo build {' '.join(args)}: {error}")
    if done.returncode != 0:
        fail(f"cargo build {' '.join(args)} exited {done.returncode}")


def main():
    for needed in ("Cargo.toml", "crates/bench/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from the root of a nemfpga checkout")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(["-p", "nemfpga-bench", "--bin", "repro", "--bin", "serve"], env)
    build(["--manifest-path", "perfbench/Cargo.toml"], env)
    release = os.path.join(target, "release")
    harness = os.path.join(release, "nemfpga-perfbench")
    code = subprocess.call([harness, "--bin-dir", release] + sys.argv[1:], env=env)
    sys.exit(code)


if __name__ == "__main__":
    main()

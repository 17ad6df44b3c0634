#!/usr/bin/env python3
"""Builds the benchmark and the vhdl1d daemon from source, then runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`); daemon cache directories go to `.bench_tmp`.
The last line of standard output is the result JSON object.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(args, env):
    """Runs one cargo build; its output goes to stderr."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(done.returncode)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")], env)
    build(["-p", "vhdl1-daemon", "--bin", "vhdl1d"], env)
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--daemon",
        os.path.join(release, "vhdl1d"),
        "--tmp",
        os.path.join(ROOT, ".bench_tmp"),
    ]
    sys.exit(subprocess.run(command, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the smart-ndr daemon and the benchmark from source, then run one
benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <optimize|analyze|serve> \
        --seed <n> --seconds <s> --trace <0|1>

Build output goes to stderr; the benchmark's result object is the last
line of stdout. Build artifacts land in $CARGO_TARGET_DIR, or in
.bench_build when it is unset. Generated inputs, stores and traces go to
.bench_work.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "serve"))):
        print("perfbench: run from the root of a smart-ndr checkout", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "smart-ndr"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--root", root,
           "--daemon", os.path.join(release, "smart-ndr"),
           "--commit", commit or "unknown"]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

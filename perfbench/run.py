#!/usr/bin/env python3
"""Builds ccs-netd and the benchmark harness from source, then runs one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are listed in BENCHMARK.json (names, units, bounds);
perfbench/metrics.json says why each exists and holds the default and
held-out seeds.  The
last line of standard output is the result JSON; the exit code is non-zero
when the build or any output check fails.  Build output goes to
$CARGO_TARGET_DIR, default .bench_build.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    builds = [
        [os.path.join(root, "Cargo.toml"), "-p", "ccs-engine", "--bin", "ccs-netd"],
        [os.path.join(bench, "Cargo.toml")],
    ]
    for manifest, *extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        done = subprocess.run(cmd + extra, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode)
    release = os.path.join(target, "release")
    harness = [os.path.join(release, "ccs-perfbench"), "--netd", os.path.join(release, "ccs-netd")]
    sys.exit(subprocess.run(harness + sys.argv[1:], env=env).returncode)


if __name__ == "__main__":
    main()

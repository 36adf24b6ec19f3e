#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

Every argument is passed to the perfbench binary (see perfbench/README.md).
The binary, the Go build cache and all scratch state live under
.bench_build/ in the repository root, so the run reads and writes nothing
outside the checkout apart from the Go toolchain it compiles with. The exit
code is the benchmark's, or non-zero without a result line when the build
fails (for example when the module it benchmarks is missing).
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840  # a cold build compiles the standard library too
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    for sub in ("gocache", "gopath", "tmp", "home"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "home"),
        XDG_CACHE_HOME=os.path.join(build, "home"),
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench-bin")
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                       check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    try:
        done = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

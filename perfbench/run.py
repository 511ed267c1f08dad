#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Go module of its own (perfbench/go.mod) that builds the
repository's packages from source through a replace directive. This script
builds it into .bench_build/ under the current directory, keeping the Go
build cache there too, then runs it with the given arguments and exits
with its exit code. The last line the benchmark prints is its JSON result.
"""

import os
import signal
import subprocess
import sys


def main() -> int:
    # Turn SIGTERM into an exception so the benchmark process is stopped
    # and waited for below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
    )
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())

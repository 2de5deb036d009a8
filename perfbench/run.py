#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload charmm-md --seed 1 --seconds 20 --trace 0

Every file the build and the run write stays under .bench_build/ in the
repository root: the Go build cache, the binary and the traced runs' spans.
The program's last line of standard output is the JSON result; a failed
build prints nothing on standard output and exits non-zero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOPATH=os.path.join(OUT, "gopath"),
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(OUT, "perfbench", "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

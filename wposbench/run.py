#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 wposbench/run.py --workload file-rw --seed 1 --seconds 20 --trace 0

The Go build cache, module cache, temporary files and binary go under the
build directory ($CARGO_TARGET_DIR, else .bench_build at the root), so
building reads and writes nothing outside the checkout and fetches
nothing.  Every argument
is passed on to the benchmark binary, which replaces this process.  A
failed build exits with the compiler's status and prints no result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "wposbench")
    proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                          stdout=sys.stderr)
    if proc.returncode != 0:
        print("wposbench: build failed", file=sys.stderr)
        sys.exit(proc.returncode)
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 20 --trace 0

Builds the perfbench Go module (which uses the repository one directory up
as its `redshift` module) into .bench_build/, with the Go build cache
there too, then runs it with the same arguments. The last line of output
is the benchmark's JSON result; see perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
BUILD = os.path.join(ROOT, BUILD)


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        # Go keeps telemetry counters under the user config directory;
        # keep them inside the build directory too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # The benchmark writes its span files under .bench_build relative to
    # the working directory, so it runs from the repository root.
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

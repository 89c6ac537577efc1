#!/usr/bin/env python3
"""Builds the benchmark program and runs one workload of it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The build (CMake, into .bench_build/ at the repository root) is not timed;
its output goes to stderr. The program's own stdout follows, whose last line
is the JSON result. Exits non-zero, printing no result, when the build or
the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_JOBS = "3"


def build():
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", BUILD, "--target", "perfbench",
                "-j", BUILD_JOBS]
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    program = os.path.join(BUILD, "perfbench")
    result = subprocess.run([program] + sys.argv[1:], cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()

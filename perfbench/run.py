#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload list-read --seed 1 --seconds 10 --trace 0

Every argument goes to the perfbench binary (README.md lists them).  The
build lives in .bench_build/perfbench and its output goes to standard
error, so the binary's JSON result stays the last line of standard output.
A traced run (--trace 1) also writes its spans there as Chrome trace JSON.
Exits 2 without a result when the library sources are missing or the
build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(why):
    print(f"perfbench: {why}", file=sys.stderr)
    return 2


def build():
    """Configures (once) and builds the binary; returns an error or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "scot.hpp")):
        return "library sources not found (src/scot.hpp is missing)"
    if shutil.which("cmake") is None:
        return "cmake not found"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return "build failed: " + " ".join(cmd)
    if not os.path.isfile(BINARY):
        return "build produced no binary"
    return None


def flag(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main():
    args = sys.argv[1:]
    error = build()
    if error:
        return fail(error)
    if flag(args, "--trace", "0") == "1" and "--trace-out" not in args:
        name = "trace-{}-seed{}.json".format(flag(args, "--workload", "none"),
                                            flag(args, "--seed", "1"))
        args += ["--trace-out", os.path.join(BUILD, name)]
    try:
        return subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")


if __name__ == "__main__":
    sys.exit(main())

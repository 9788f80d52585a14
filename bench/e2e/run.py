#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources and runs one workload.

    python3 bench/e2e/run.py --workload table1 --seed 2015 --seconds 20 --trace 0

Run from the root of a checkout.  The first call configures and builds the
flowsynth libraries plus bench_e2e (Release) under $CARGO_TARGET_DIR/e2e,
default .bench_build/e2e; later calls only re-check the build.  Build output
goes to stderr, so the benchmark's result stays the last line of stdout.
Every argument is passed on to bench_e2e (see README.md).
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170


def main() -> int:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: no flowsynth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    build = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")) / "e2e"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "-j", jobs, "--target", "bench_e2e"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return 2
    try:
        return subprocess.run([str(build / "bench_e2e"), *sys.argv[1:]],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_e2e did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

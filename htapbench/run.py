#!/usr/bin/env python3
"""Builds and runs the end-to-end HTAP benchmark.

    python3 htapbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the engine
library and the htap_bench binary into .bench_build (Release); later runs
only re-check the build. The binary's stdout is passed through: its last line
is the result object, the line before it the run's detail record. Detail
records and traced spans are also written to .bench_results/.

The engine is measured with its default knobs, so the run refuses to start
when any HYTAP_* environment variable is set.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
RESULTS_DIR = ROOT / ".bench_results"
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def build() -> None:
    """Configures (once) and builds htap_bench; raises on failure."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "htapbench"), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS,
         "--target", "htap_bench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("HYTAP_"))
    if knobs:
        print(f"refusing to run with engine knobs set: {', '.join(knobs)}",
              file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 3
    command = [str(BUILD_DIR / "htap_bench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--out-dir", str(RESULTS_DIR)]
    try:
        done = subprocess.run(command, stdout=sys.stdout, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

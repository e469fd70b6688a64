#!/usr/bin/env python3
"""Build and run one workload of the d3l discovery benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a d3l source tree. The first call configures and
builds perfbench/ in Release under .bench_build/perfbench (the library is
compiled from the tree's own sources; its build files are not touched);
later calls only rebuild what changed. The benchmark's own output is relayed
unchanged: its last stdout line is the JSON result, all progress goes to
stderr. A traced run (--trace 1) leaves its spans, one JSON object per
line, in .bench_build/spans/<workload>.jsonl. The exit code is the
benchmark's: non-zero when an output check fails or the tree cannot be
built.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("search_cold", "join_real")
# A run spends 20-40 s outside its timed loops (lake generation, set-up
# repetitions, output checks), and a loop that has to reach its minimum
# query count may take longer than --seconds: the benchmark is stopped
# after this allowance plus a multiple of --seconds.
TIMEOUT_BASE_S = 120
TIMEOUT_PER_SECOND = 4


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "core", "query.h"))):
        sys.exit("perfbench: no d3l source tree around perfbench/ to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j4",
                    "--target", "d3l_perfbench"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    work = os.path.join(ROOT, ".bench_build", "work",
                        f"{args.workload}-{os.getpid()}")
    spans = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(work, exist_ok=True)
    os.makedirs(spans, exist_ok=True)
    timeout = TIMEOUT_BASE_S + TIMEOUT_PER_SECOND * args.seconds
    try:
        proc = subprocess.run(
            [os.path.join(BUILD, "d3l_perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", work,
             "--spans", os.path.join(spans, f"{args.workload}.jsonl")],
            stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} ran over {timeout:g}s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

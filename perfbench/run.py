#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Each call configures and builds
perfbench/ (and the repository's src/ tree it compiles) in Release mode
under $CARGO_TARGET_DIR, or .bench_build when that is unset; only the
first call compiles everything. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Scratch output
(spans, the churn-durable journal) goes under .bench_out/.

Exits nonzero without a result when the build fails, for instance in a
directory that holds the benchmark but not the repository's sources.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", target, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    selftest = argv == ["--selftest"]
    target = "ef_perfbench_selftest" if selftest else "ef_perfbench"
    if not build(build_dir, target):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(build_dir, target)] +
                          ([] if selftest else argv)).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
library targets of the repository (pokeemu, pokeemu_compiled) and the
benchmark package in this directory, under .bench_build/ (or
$CARGO_TARGET_DIR when set); later calls rebuild only what changed.
Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Any build or run failure exits
non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    lib_dir = os.path.join(build_dir, "pokeemu")
    bench_dir = os.path.join(build_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    # Configure once; `cmake --build` re-configures by itself when a
    # CMakeLists.txt changes.
    if not os.path.exists(os.path.join(lib_dir, "CMakeCache.txt")):
        run(["cmake", "-S", ROOT, "-B", lib_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run(["cmake", "--build", lib_dir, "-j", jobs,
         "--target", "pokeemu", "pokeemu_compiled"])
    if not os.path.exists(os.path.join(bench_dir, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", bench_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
             "-DPOKEEMU_BUILD_DIR=" + lib_dir])
    run(["cmake", "--build", bench_dir, "-j", jobs])
    return os.path.join(bench_dir, "perfbench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    out = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                         stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True)
    if out.returncode != 0:
        print("perfbench: exited with %d" % out.returncode, file=sys.stderr)
        return out.returncode
    sys.stdout.write(out.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

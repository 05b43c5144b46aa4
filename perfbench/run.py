#!/usr/bin/env python3
"""Builds and runs the Carousel store benchmark.

    python3 perfbench/run.py --workload bulk_rw --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark binary is built from
perfbench/CMakeLists.txt (which compiles ../src) into .bench_build/perfbench,
incrementally on every call; its build output goes to stderr so the last
stdout line stays the binary's JSON result.  Scratch data (durable fleets'
directories, span dumps) lives under .perfbench/; durable directories are
removed when the run ends, even when the binary dies.
"""

import glob
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "carousel_perfbench")
WORKDIR = os.path.join(ROOT, ".perfbench")
# A run must end within 180 s; the binary's own work is ~3 set-ups plus the
# window, so anything past this is a hang.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ tree beside perfbench/; run from a "
                 "checkout of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4",
                  "--target", "carousel_perfbench"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    # A SIGTERM unwinds like Ctrl-C, so the child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    os.makedirs(WORKDIR, exist_ok=True)
    proc = subprocess.Popen([BINARY] + sys.argv[1:] + ["--workdir", WORKDIR],
                            cwd=ROOT)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s, killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        rc = 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        for d in glob.glob(os.path.join(WORKDIR, "run-%d-*" % proc.pid)):
            shutil.rmtree(d, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())

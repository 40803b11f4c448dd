#!/usr/bin/env python3
"""Builds the tick-anatomy harness from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload battle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest     # checksums vs the scalar oracle

The build goes to .bench_build/ (CMake + Ninja, Release). Build output goes
to stderr; the harness's stdout is passed through, and its last line is the
result JSON. Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "tick_anatomy")
WORKLOADS = ("battle", "battle_recorded", "market", "armies_sharded")


def build():
    """Configures once, then brings the harness up to date (a no-op when
    nothing changed). A lock keeps concurrent runs from racing the build."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: engine sources not found next to perfbench/",
              file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=sys.stderr) != 0:
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        return subprocess.call(
            ["cmake", "--build", BUILD, "--target", "tick_anatomy",
             "-j", jobs], stdout=sys.stderr) == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args, extra = p.parse_known_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        cmd = [BINARY, "--selftest", "--seed", str(args.seed)]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd + extra, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.rstrip("\n")
    if proc.returncode != 0:
        print(out, file=sys.stderr)
        return proc.returncode or 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

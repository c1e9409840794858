#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload suite|dlopen|storm --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of the repository.  The benchmark executable is built
with dune into .bench_build/ (no shared dune cache), then run with the
same arguments; its last line of standard output is the JSON result.
`--workload all` runs every workload untraced and traced, one row each.
The exit code is not 0, and no result is printed, if the build or the
run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"
WORKLOADS = ["suite", "dlopen", "storm"]


def build():
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return None
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "--display=quiet", TARGET]
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, timeout=850)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return None
    if res.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    return exe if os.path.isfile(exe) else None


def run_one(exe, workload, seed, seconds, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=170)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return None
    if res.returncode != 0:
        print("run.py: benchmark exited with %d" % res.returncode,
              file=sys.stderr)
        return None
    return res.stdout


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    exe = build()
    if exe is None:
        return 1
    if args.workload != "all":
        out = run_one(exe, args.workload, args.seed, args.seconds, args.trace)
        if out is None:
            return 1
        sys.stdout.write(out)
        return 0
    for trace in (0, 1):
        for w in WORKLOADS:
            out = run_one(exe, w, args.seed, args.seconds, trace)
            if out is None:
                return 1
            # the table only: the JSON line is the per-workload contract
            sys.stdout.write("".join(out.splitlines(True)[:-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

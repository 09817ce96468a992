#!/usr/bin/env python3
"""Builds and runs the ssagg benchmark (see perfbench/README.md).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

<name> is groupby_inmem, groupby_spill_table, join_spill, or all (the three
in turn). The benchmark is compiled from the repository's src/ into
.bench_build/perfbench; run records and spans go to .perfbench_out/. The
last line of standard output is the result of the (last) workload as one
JSON object; the exit code is 0 only if every result was correct.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ["groupby_inmem", "groupby_spill_table", "join_spill"]
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at src/; run from a full checkout")
        return False
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", "4"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def source_id():
    """Content hash of the sources the benchmark is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def run(workload, args, sid):
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source-id", sid]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return False
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    if done.returncode != 0:
        log(f"{workload}: exit code {done.returncode}")
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    sid = source_id()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    ok = True
    for workload in workloads:
        ok = run(workload, args, sid) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the CLASH node benchmark.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

`--workload all` runs ingest, resolve and failover one after another.

Run from the root of a checkout. Builds perfbench_node from the
checkout's sources (CMake, Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload on a fresh
3-node cluster whose data directories live under the build directory.
The program's report goes to standard output; its last line is the
JSON result. Exits nonzero, without a result, when the build fails, and
nonzero when any correctness check fails. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "resolve", "failover")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure and build; the log stays in the build directory."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench_node"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(out, "perfbench_node")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_one(binary, out, w, args) for w in workloads)


def run_one(binary, out, workload, args):
    work = os.path.join(out, "work-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", work]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        rc = 1
    shutil.rmtree(work, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())

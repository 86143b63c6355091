#!/usr/bin/env python3
"""Job-level benchmark of the ckp-local simulation service.

Usage (from the repository root):

    python3 perfbench/run.py --workload seed_sweep --seed 1 --seconds 25 --trace 0

Builds the repository's libraries and the benchmark program from source into
.bench_build/perfbench (CMake, RelWithDebInfo, incremental), then runs one
workload. Human-readable report lines go to stdout first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. Build output goes to stderr. Exits non-zero, without a result
line, when the build or the run fails.

    python3 perfbench/run.py --selftest    # build and run the job-list tests
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("seed_sweep", "det_rounds", "mixed_serve")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd with its stdout sent to stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout,
                              **kwargs).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def build(root, build_dir, targets):
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        code = run_checked(["cmake", "-S", source, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           BUILD_TIMEOUT_S)
        if code != 0:
            return code
    return run_checked(["cmake", "--build", build_dir, "-j4", "--target"]
                       + targets, BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if args.selftest:
        code = build(root, build_dir, ["ckp_perfbench_tests"])
        if code == 0:
            code = run_checked([os.path.join(build_dir, "ckp_perfbench_tests")],
                               RUN_TIMEOUT_S)
        return code

    code = build(root, build_dir, ["ckp_perfbench"])
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "ckp_perfbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}",
           f"--work_dir={work_dir}"]
    if args.trace:
        cmd.append(f"--trace_out={os.path.join(trace_dir, f'{args.workload}-seed{args.seed}.trace.json')}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(line for line in lines
                                   if not line.startswith("{")) + "\n")
        print(f"perfbench: run failed ({proc.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

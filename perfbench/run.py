#!/usr/bin/env python3
"""Builds perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload ssd-offload --seed 1 --seconds 30 --trace 0

--trace 0 runs the untraced binary and prints the end-to-end metrics.
--trace 1 first runs the untraced binary for a third of the budget (the
baseline for the tracing overhead), then the traced binary for the rest,
and prints the per-layer metrics. The last stdout line is the JSON result;
the build, its cache, work directories and span traces live under
.bench_build/perfbench in the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("ssd-offload", "keep-replay", "pp4-ckpt")
BUILD_TIMEOUT_S = 850
# Wall-time cap on everything after the build, both binaries of a traced run
# together.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            fail(f"build failed: {' '.join(cmd)}")
    return BUILD / target


def run(binary, args, work_dir, deadline):
    cmd = [str(binary), *args, "--work-dir", str(work_dir),
           "--digest-dir", str(BUILD / "digests")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"no output from {' '.join(cmd)} (exit {done.returncode})")
    return done.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if opts.seconds <= 0:
        fail("--seconds must be positive", 2)

    plain = build("perfbench")
    traced = build("perfbench_traced") if opts.trace else None
    reference = HERE / "reference" / f"{opts.workload}.ref"
    common = ["--workload", opts.workload, "--seed", str(opts.seed),
              "--reference", str(reference)]

    BUILD.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=BUILD))
    try:
        if not opts.trace:
            code, lines = run(plain, common + ["--seconds", str(opts.seconds)],
                              work_dir, deadline)
        else:
            baseline_s = opts.seconds / 3
            code, lines = run(plain, common + ["--seconds", str(baseline_s)],
                              work_dir, deadline)
            if code != 0:
                print("\n".join(lines))
                sys.exit(code)
            baseline = json.loads(lines[-1])["metrics"]["steps_per_s"]["value"]
            trace_out = BUILD / f"trace-{opts.workload}-{opts.seed}.json"
            code, lines = run(traced, common + [
                "--seconds", str(opts.seconds - baseline_s),
                "--baseline-sps", repr(baseline),
                "--trace-out", str(trace_out)], work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("\n".join(lines))
    sys.exit(code)


if __name__ == "__main__":
    main()

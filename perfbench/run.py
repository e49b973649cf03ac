#!/usr/bin/env python3
"""Builds and runs the host-time benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The harness is built from this directory's
CMakeLists.txt into $CARGO_TARGET_DIR (default .bench_build), then run once
under a host timeout. The last line printed is the JSON result. A harness
that hangs or crashes is reported as a failed run with every operation it
attempted counted as failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline-pipeline", "cluster-bursty", "guard-sdc", "serve-deadline")
# Host timeout of the harness itself, after the build: a run (reps, checks,
# probes) takes --seconds plus well under a minute.
HARNESS_LIMIT_S = 150.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found next to perfbench/")
        sys.exit(2)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build_dir = os.path.abspath(build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            sys.exit(2)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    cmd = ["cmake", "--build", build_dir, "--target", "wsim_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return os.path.join(build_dir, "wsim_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_LIMIT_S)
        hung = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        hung = True

    lines = [ln for ln in out.splitlines() if ln.strip()]
    for ln in lines[:-1]:
        print(ln)
    result = None
    if not hung and proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None and set(result) == {"correct", "attempted", "failed", "metrics"}:
        print(json.dumps(result))
        return 0

    # Hang or crash: every operation of every rep it reported, plus the rep
    # in progress (sized like the last one), counts as failed.
    ops = [json.loads(ln)["ops"] for ln in lines if ln.startswith('{"rep"')]
    attempted = sum(ops) + (ops[-1] if ops else 1)
    if hung:
        log(f"perfbench: harness hung; killed after {HARNESS_LIMIT_S:.0f} s "
            "(a stalled ThreadPool completion is a known hazard)")
    else:
        log(f"perfbench: harness exited with code {proc.returncode}")
    print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted,
                      "metrics": {}}))
    return 1


if __name__ == "__main__":
    sys.exit(main())

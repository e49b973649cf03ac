#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that
  * the span self-time arithmetic holds on a synthetic span tree
    (harness --selftest);
  * the metric names and units the harness prints equal those in
    BENCHMARK.json, for the end-to-end and the per-layer set;
  * a short smoke run of every workload, timed and traced, passes its
    correctness checks and prints exactly the declared metrics, all finite.
Exits non-zero on the first class of failure it finds.
"""

import json
import math
import os
import subprocess
import sys

import run

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def main():
    failures = []
    exe = run.build()

    proc = subprocess.run([exe, "--selftest"], capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        failures.append("span self-time arithmetic (harness --selftest)")
    printed = json.loads(proc.stdout.strip().splitlines()[-1])
    for kind in ("end_to_end", "per_layer"):
        have = dict(printed[kind])
        if have != declared(kind):
            failures.append(f"{kind}: harness prints {sorted(have.items())}, "
                            f"BENCHMARK.json declares {sorted(declared(kind).items())}")

    workloads = [w["name"] for w in SPEC["workloads"]]
    if sorted(workloads) != sorted(run.WORKLOADS):
        failures.append(f"workloads: BENCHMARK.json {workloads} vs run.py {run.WORKLOADS}")
    for workload in workloads:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                   "--seed", "42", "--seconds", "1", "--trace", str(trace), "--smoke"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            label = f"{workload} --trace {trace}"
            before = len(failures)
            try:
                result = json.loads(out.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{label}: no result line (exit {out.returncode})")
                continue
            metrics = result["metrics"]
            if out.returncode != 0 or not result["correct"] or result["failed"] != 0:
                failures.append(f"{label}: run failed its checks: {out.stderr[-400:]}")
            if {k: v["unit"] for k, v in metrics.items()} != declared(kind):
                failures.append(f"{label}: metric names/units differ from BENCHMARK.json")
            bad = [k for k, v in metrics.items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if kind == "end_to_end":
                bad += [k for k, v in metrics.items() if not v["value"] > 0]
            if bad:
                failures.append(f"{label}: bad values for {bad}")
            print(("ok   " if len(failures) == before else "FAIL ") + label, flush=True)

    for f in failures:
        print("FAIL", f)
    print("selftest:", "passed" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

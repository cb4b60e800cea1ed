"""Fast self-check of the benchmark: a few ops per workload, both modes.

    python3 perfbench/smoke.py

Checks that every run exits 0 with a correct result line and that the
line carries exactly the metrics BENCHMARK.json names for its mode, each
with its unit and also printed by name and unit above it.  A traced run
compares its replayed op outputs with its untraced ones itself, and a
mismatch clears ``correct``.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import bench_env

SEED = 7
SECONDS = 1
RUN = os.path.join(bench_env.ROOT, "perfbench", "run.py")


def fail(message: str) -> None:
    print(f"smoke: FAILED: {message}")
    sys.exit(1)


def run(workload: str, trace: int):
    argv = [sys.executable, RUN, "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    return subprocess.run(argv, cwd=bench_env.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180, check=False)


def check_result(workload: str, trace: int, declared) -> dict:
    done = run(workload, trace)
    tag = f"{workload} --trace {trace}"
    if done.returncode != 0:
        fail(f"{tag} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{tag} result keys are {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{tag} result is not a clean pass: {lines[-1][:300]}")
    names = [name for name, _ in declared]
    if sorted(result["metrics"]) != sorted(names):
        fail(f"{tag} reports {sorted(result['metrics'])}, BENCHMARK.json names {sorted(names)}")
    for name, unit in declared:
        metric = result["metrics"][name]
        if metric["unit"] != unit or not math.isfinite(metric["value"]):
            fail(f"{tag} metric {name} is {metric}, declared unit {unit}")
        if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines):
            fail(f"{tag} prints no '{name} = ... {unit}' line")
    path = os.path.join(bench_env.RESULTS, f"{workload}-seed{SEED}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    with open(os.path.join(bench_env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    modes = {trace: [(m["name"], m["unit"]) for m in spec[key]]
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = check_result(workload, 0, modes[0])
        traced = check_result(workload, 1, modes[1])
        print(f"smoke: {workload} ok ({plain['ops']} untraced ops, "
              f"{traced['ops']} replayed traced)")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

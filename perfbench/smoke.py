#!/usr/bin/env python3
"""Smoke check of the benchmark itself: every workload, tiny inputs, both modes.

    python3 perfbench/smoke.py

Runs ``run.py --size tiny`` for each workload with ``--trace 0`` and
``--trace 1`` (the correctness checks included) and asserts the shape of the
result line: exactly the keys the contract names, every metric BENCHMARK.json
lists with its unit, whole-number counts, and failures only where the known
crash faults are.  It also asserts that the benchmark refuses to run, without
a result, in a copy holding only BENCHMARK.json and perfbench/.  It never
looks at how long anything took.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# at most the three known crash faults of every shell-queries round of 25 calls
KNOWN_FAILED_SHARE = {"shell-queries": 3 / 25}


def require(ok, message):
    if not ok:
        raise SystemExit(f"smoke check failed: {message}")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def check(workload, trace):
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"])
    where = f"{workload} --trace {trace}"
    require(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}")
    require(result["correct"] is True, f"{where}: not correct\n{proc.stderr[-3000:]}")
    require(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")
    require(isinstance(result["failed"], int), f"{where}: failed")
    share = result["failed"] / result["attempted"]
    require(share <= KNOWN_FAILED_SHARE.get(workload, 0), f"{where}: {result['failed']} of {result['attempted']} failed")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    require(set(result["metrics"]) == {m["name"] for m in wanted}, f"{where}: metric names differ")
    for m in wanted:
        got = result["metrics"][m["name"]]
        require(got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}")
        require(isinstance(got["value"], (int, float)), f"{where}: {m['name']} value {got['value']!r}")
        if not trace:
            require(got["value"] > 0, f"{where}: {m['name']} reads {got['value']}")
    print(f"ok  {where}: attempted {result['attempted']}, failed {result['failed']}")


def check_refuses_without_program():
    bare = ROOT / ".perfbench_smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "kernel-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        require(proc.returncode != 0 and not proc.stdout.strip(), "ran without a program to measure")
        print("ok  refuses to run without src/modpairs")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check(workload, trace)
    check_refuses_without_program()


if __name__ == "__main__":
    main()

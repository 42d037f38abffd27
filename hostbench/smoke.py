#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at minimal length.

Usage, from the root of a checkout::

    python3 hostbench/smoke.py                 # all workloads, both modes
    python3 hostbench/smoke.py --workload churn-pk

Runs ``run.py`` with ``--seconds 1`` under ``--trace 0`` and ``--trace 1``
and checks the result line: the exact keys, ``correct`` with zero failed
ops, and every metric of ``BENCHMARK.json`` present with its unit.
Exits non-zero if any run has a problem.  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload: str, trace: int, spec: dict) -> list:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"checks failed: {proc.stdout.strip().splitlines()[-2]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted = {result.get('attempted')!r}")
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not math.isfinite(entry.get("value", math.nan)):
            problems.append(f"{name}: {entry!r}, expected a number in {unit}")
        elif not trace and entry["value"] <= 0:
            problems.append(f"{name} is {entry['value']}, expected > 0")
    return problems


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    failures = 0
    for name in names:
        for trace in (0, 1):
            problems = check(name, trace, spec)
            print(f"{name} --trace {trace}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

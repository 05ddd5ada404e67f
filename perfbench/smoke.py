"""Smoke run of the benchmark itself at minimal size.

Runs every workload of ``BENCHMARK.json``, untraced and traced, with
``--quick --seconds 1`` and asserts that the last line is the result
object, that every named metric is printed with its declared unit, and
that the run was correct.  Usage, from the repository root::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(spec: dict, workload: str, trace: int) -> list[str]:
    command = [*spec["command"], "--workload", workload, "--seed", "0",
               "--seconds", "1", "--trace", str(trace), "--quick"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    label = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: incorrect run:\n{done.stdout[-2000:]}")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {metric["name"] for metric in declared}:
        problems.append(f"{label}: printed metrics differ from "
                        f"BENCHMARK.json: {sorted(metrics)}")
    for metric in declared:
        printed = metrics.get(metric["name"], {})
        if printed.get("unit") != metric["unit"] or not isinstance(
                printed.get("value"), (int, float)):
            problems.append(f"{label}: {metric['name']} printed as "
                            f"{printed}, declared unit {metric['unit']}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check(spec, workload["name"], trace)
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

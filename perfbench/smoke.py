"""Smoke test of the benchmark itself.

Runs every workload at the reduced ``--size smoke``, untraced and
traced, and requires each run to exit 0 with every output check passed
(``failed`` = 0) and to print exactly the metric names and units
``BENCHMARK.json`` lists.  Then runs the driver from a directory that
holds only ``BENCHMARK.json`` and the benchmark's own files, where it
must fail without printing a result::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_driver(root: str, config: dict, workload: str, trace: int,
               ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*config["command"], "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def check_run(config: dict, workload: str, trace: int) -> list[str]:
    completed = run_driver(run.ROOT, config, workload, trace)
    where = f"{workload} --trace {trace}"
    if completed.returncode != 0:
        return [f"{where}: exit {completed.returncode}\n{completed.stderr}"]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}")
    listed = config["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in listed}
    printed = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    if printed != expected:
        problems.append(f"{where}: printed metrics {printed} != "
                        f"BENCHMARK.json {expected}")
    return problems


def check_without_program(config: dict) -> list[str]:
    """The driver must refuse to report when the program is absent."""
    os.makedirs(run.OUT_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT_DIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for path in config["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        completed = run_driver(bare, config, "paper-figures", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode == 0 or (lines and lines[-1].startswith("{")):
        return ["driver reported a result without the program under test"]
    return []


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        config = json.load(handle)
    problems = check_without_program(config)
    for workload in config["workloads"]:
        for trace in (0, 1):
            problems += check_run(config, workload["name"], trace)
            print(f"checked {workload['name']} --trace {trace}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("smoke test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself, on shrunken workloads.

    python3 bench/smoke.py

For every workload in BENCHMARK.json it runs bench/run.py once untraced and
once traced and checks that the printed metric names and units equal the
ones BENCHMARK.json declares, that no job failed, and that in the traced
run every span nests inside its job and the summed self times do not
exceed cli.job_s. Last, it checks that the benchmark refuses to run in a
directory that holds only BENCHMARK.json and bench/. Exits 0 when every
check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = os.path.join(ROOT, ".bench_runs")
RUN_TIMEOUT_S = 180
SELF_TIME_SLACK_S = 1e-9


def _run(cwd: str, workload: str, trace: int):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)


def _check_run(spec: dict, workload: str, trace: int) -> list:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: error_rate {result['failed']}/{result['attempted']}"
                        f"\n{proc.stderr}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        problems.append(f"{where}: printed metrics {printed} differ from "
                        f"BENCHMARK.json {declared}")
    for name in declared:
        if f"\n{name} " not in "\n" + proc.stdout:
            problems.append(f"{where}: no readable line for {name}")
    if trace:
        with open(os.path.join(RUNS, f"trace-{workload}-seed0-smoke.json")) as fh:
            doc = json.load(fh)
        if doc["self_time_excess_s"] > SELF_TIME_SLACK_S:
            problems.append(f"{where}: self times exceed cli.job_s by "
                            f"{doc['self_time_excess_s']} s")
        if not doc["nested"]:
            problems.append(f"{where}: a span lies outside its parent")
        if doc["missing_hooks"]:
            problems.append(f"{where}: missing hook points {doc['missing_hooks']}")
    return problems


def _check_bare() -> list:
    """Without the program's sources the benchmark must fail, quietly."""
    os.makedirs(RUNS, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=RUNS)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "plan-dense", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["bare directory: the benchmark ran without the program"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} differ from {sorted(WORKLOADS)}")
    for workload in names:
        for trace in (0, 1):
            found = _check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    found = _check_bare()
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

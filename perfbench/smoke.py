"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs each workload of run.py for one second, untraced and traced: the two of
BENCHMARK.json and the optional frame_fit_gains.  It checks that the result
line has exactly the agreed keys, that the correctness gate passed, and that
every metric named in BENCHMARK.json is present with its unit.  Then runs
the benchmark from a copy that holds only BENCHMARK.json and perfbench/, where
it must fail without printing a result.  Exits 1 on the first problem.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, trace):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


def check_result(proc, expected):
    """Problems with one run's last output line, as strings."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correctness gate failed")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')!r}")
    if result.get("failed") != 0:
        problems.append(f"failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def bare_copy_fails(spec):
    """The benchmark must refuse to run without the package source."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*"):
        if path.is_file():
            shutil.copy2(path, bare / "perfbench")
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    return proc.returncode != 0 and not last[0].startswith("{")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, trace), expected[trace])
            print(f"{workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
            failures += bool(problems)
    bare_ok = bare_copy_fails(spec)
    print(f"copy without package source fails cleanly: {'ok' if bare_ok else 'NO'}")
    failures += not bare_ok
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark entry point: one workload, one result line.

    python3 perfbench/run.py --workload frame_ref --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The measurement runs in a fresh process
(worker.py) so the workload is warmed only by its own operations.  With
``--trace 0`` the last line of standard output holds the end-to-end metrics;
set-up time is the median over five fresh processes, the measuring one
included.  With ``--trace 1`` it holds the per-layer metrics of a traced
run.  The line before it is the run's record: environment, sample counts,
accuracy and gate details; the record is also written to perfbench/out/.

Exits 1 when a correctness gate fails, 2 when the package source is missing.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("frame_ref", "frame_fit_gains", "ber_sweep")
# Set-up-only processes started before and after the measuring one.  The
# median of all five spans the run, so one slow or fast moment of the host
# moves it less.
SETUP_SAMPLES_EACH_SIDE = 2
# Each worker process must end well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 170.0


def spawn(args, setup_only):
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(
        argv + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker exited {proc.returncode}: {proc.stdout[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="tmadfrc benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")

    if not (ROOT / "src" / "tmadfrc" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    extra = 0 if args.trace else SETUP_SAMPLES_EACH_SIDE
    setup = [spawn(args, True)["setup_s"] for _ in range(extra)]
    result = spawn(args, False)
    setup.append(result["setup_s"])
    setup += [spawn(args, True)["setup_s"] for _ in range(extra)]

    metrics = result["metrics"]
    record = result["record"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}, **metrics}
        record["samples"]["setup_s"] = len(setup)
    record["setup_s_samples"] = setup
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

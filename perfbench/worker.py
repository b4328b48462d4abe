"""One benchmark process: set up one workload, time it in a closed loop, check it.

run.py starts this script in a fresh interpreter for every measurement, so a
workload is warmed only by its own operations and runs in the allocator state
a user of that workload sees.  The last line of standard output is a JSON
object with the set-up time, the metrics, the correctness verdict and the
record of the run; run.py turns it into the benchmark's result line.

    python3 perfbench/worker.py --workload frame_ref --seed 0 --seconds 10 \
        --trace 0 --spawned-at <time.monotonic() of the parent>
"""

import os
import sys
import time

# BLAS threads are pinned before NumPy is imported: on two cores one thread
# beats the default for the covariance and Gram products this package runs.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import importlib.resources  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tmadfrc  # noqa: E402
from tmadfrc import cli, coarse, comms, model, refine, scene, tma, transforms  # noqa: E402

from tracing import Tracer  # noqa: E402

WORKLOADS = ("frame_ref", "frame_fit_gains", "ber_sweep")

# Frame inputs: the fixed payload of the acceptance protocol, and noise seed
# seed * NOISE_STRIDE + k for timed operation k, so seed 0 starts with that
# protocol's noise seeds 0..19.  The payload stays fixed because the gains
# path's in-band rate depends on it more than on the noise.
PAYLOAD_SEED = 7
NOISE_STRIDE = 1_000_000
ACCEPTANCE_FRAMES = 20
# Acceptance band centers (angle deg, range m, velocity m/s) of the reference
# scene, as in tests/test_acceptance.py; the bands are +-0.1 deg, +-0.2 m and
# +-one velocity refinement step.
BANDS = ((-30.0, 120.12, 19.92), (20.0, 50.00, -10.08), (22.0, 60.16, 10.08))
FRAME_WARMUP_OPS = 1

# BER sweep: QPSK at 30 dB, one frame per probe, one-degree probes.
SWEEP_SNR_DB = 30.0
SWEEP_ANGLES = np.arange(-90.0, 91.0, 1.0)
SWEEP_WARMUP_OPS = 5
OFF_STEER_DEG = 20.0
OFF_STEER_BAND = (0.45, 0.55)
STEER_BER_LIMIT = 1e-3

EDGE_WARNING = "edge of its search window"
# Noise-free syntheses timed after a traced frame run, for scene.signal_ms.
SIGNAL_CALLS = 20

# End-to-end metrics: name -> unit.  setup_s is filled in by run.py, which
# takes the median over several fresh processes.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "in_band_frac": "frac",
}

def _fit_note(fit):
    """(combinations searched, refined over coarse residual) of one fit."""
    return (math.prod(len(g) for g in fit.grids), fit.residual / fit.coarse_residual)


# Functions wrapped in a traced run: (span name, function, note).  Notes keep
# a small value from the result for the useful-work ratios.
TRACED = (
    ("model.derived_resolutions", model.derived_resolutions, None),
    ("transforms.dft", transforms.dft, None),
    ("transforms.idft", transforms.idft, None),
    ("tma.harmonic_coefficients", tma.harmonic_coefficients, None),
    ("tma.scramble_symbols", tma.scramble_symbols, None),
    ("scene.radar_returns", scene.radar_returns, None),
    ("coarse.coarse_pipeline", coarse.coarse_pipeline, None),
    ("coarse.angle_spectrum", coarse.angle_spectrum, None),
    ("coarse.descramble", coarse.descramble, lambda result: float(result.masked.mean())),
    ("refine.estimate_targets", refine.estimate_targets, None),
    ("refine.sample_covariance", refine.sample_covariance, None),
    ("refine.music_pseudospectrum", refine.music_pseudospectrum, None),
    ("refine.refine_ranges", refine.refine_ranges, _fit_note),
    ("refine.refine_velocities", refine.refine_velocities, _fit_note),
    ("refine.matched_velocity_bins", refine.matched_velocity_bins, None),
    ("comms.modulate", comms.modulate, None),
    ("comms.awgn", comms.awgn, None),
    ("comms.demodulate", comms.demodulate, None),
    ("comms.link_ber", comms.link_ber, None),
    ("comms.ber_vs_angle", comms.ber_vs_angle, None),
    ("cli.main", cli.main, None),
)

# Per-layer self times per traced operation: metric -> span name.
LAYER_MS = {
    "scene.radar_returns_ms": "scene.radar_returns",
    "transforms.dft_ms": "transforms.dft",
    "transforms.idft_ms": "transforms.idft",
    "coarse.coarse_pipeline_ms": "coarse.coarse_pipeline",
    "coarse.angle_spectrum_ms": "coarse.angle_spectrum",
    "coarse.descramble_ms": "coarse.descramble",
    "refine.estimate_targets_self_ms": "refine.estimate_targets",
    "refine.refine_ranges_ms": "refine.refine_ranges",
    "refine.refine_velocities_ms": "refine.refine_velocities",
    "refine.matched_velocity_bins_ms": "refine.matched_velocity_bins",
    "refine.sample_covariance_ms": "refine.sample_covariance",
    "refine.music_pseudospectrum_ms": "refine.music_pseudospectrum",
    "tma.scramble_symbols_ms": "tma.scramble_symbols",
    "tma.harmonic_coefficients_ms": "tma.harmonic_coefficients",
    "model.derived_resolutions_ms": "model.derived_resolutions",
    "comms.link_ber_self_ms": "comms.link_ber",
    "comms.modulate_ms": "comms.modulate",
    "comms.awgn_ms": "comms.awgn",
    "comms.demodulate_ms": "comms.demodulate",
}

# Per-layer calls per traced operation: metric -> span names counted.
LAYER_CALLS = {
    "transforms.calls_per_op": ("transforms.dft", "transforms.idft"),
    "coarse.descramble_calls_per_op": ("coarse.descramble",),
    "tma.scramble_symbols_calls_per_op": ("tma.scramble_symbols",),
    "model.derived_resolutions_calls_per_op": ("model.derived_resolutions",),
}

PER_LAYER = {
    **{name: "ms/op" for name in LAYER_MS},
    "scene.signal_ms": "ms/op",
    **{name: "calls/op" for name in LAYER_CALLS},
    "coarse.masked_fraction": "frac",
    "refine.combinations_per_op": "count/op",
    "refine.edge_hits_per_op": "count/op",
    "refine.residual_ratio": "ratio",
    "proc.minflt_per_op": "faults/op",
    "cli.reproduce_self_ms": "ms",
    "cli.ber_sweep_self_ms": "ms",
    "trace.op_ms_p50": "ms",
    "trace.op_ms_mean": "ms",
    "trace.overhead_frac": "frac",
    "trace.accounted_frac": "frac",
    "trace.ops_traced": "count",
}


def _fixture(name):
    return json.loads(
        importlib.resources.files("tmadfrc").joinpath("fixtures").joinpath(name).read_text()
    )


def _reference():
    cfg = model.config_from_dict(_fixture("reference_config.json"))
    return cfg, tma.design_pattern(cfg, cfg.cu_angle_deg)


class FrameWorkload:
    """One op: synthesize a noisy reference frame and estimate its targets."""

    warmup_ops = FRAME_WARMUP_OPS
    synthesizes = True

    def __init__(self, seed, fit_gains):
        self.cfg, self.pattern = _reference()
        self.scene = scene.scene_from_dict(_fixture("reference_scene.json"))
        rng = np.random.default_rng(PAYLOAD_SEED)
        bits = rng.integers(0, 2, size=2 * self.cfg.num_subcarriers * self.cfg.num_ofdm_symbols)
        self.data = comms.modulate(bits, comms.qpsk()).reshape(self.cfg.grid_shape)
        self.options = refine.RefineOptions(fit_gains=fit_gains)
        self.noise_base = seed * NOISE_STRIDE
        self.truth = sorted(
            ((t.angle_deg, t.range_m, t.velocity_mps) for t in self.scene.targets)
        )
        _, velocity_res, _ = model.derived_resolutions(self.cfg)
        self.velocity_step = velocity_res / (self.options.velocity_points - 1)

    def op(self, k):
        frame = dataclasses.replace(self.scene, seed=self.noise_base + k)
        received = scene.radar_returns(self.data, self.pattern, self.cfg, frame)
        return refine.estimate_targets(
            received, self.data, self.pattern, self.cfg, options=self.options
        ).refined

    def signal_only(self, k):
        """The op's synthesis without the noise draw (for scene.signal_ms)."""
        frame = dataclasses.replace(self.scene, seed=self.noise_base + k, snr_db=math.inf)
        scene.radar_returns(self.data, self.pattern, self.cfg, frame)

    def summarize(self, results):
        """(summary, gate failures) from the refined rows of each timed op
        (None for an op that raised)."""
        in_band = 0
        errors = []
        first = []
        for rows in results:
            rows = sorted((r.angle_deg, r.range_m, r.velocity_mps) for r in rows or ())
            ok = len(rows) == len(BANDS) and all(
                abs(a - ca) <= 0.1 + 1e-9
                and abs(r - cr) <= 0.2
                and abs(v - cv) <= self.velocity_step + 1e-9
                for (a, r, v), (ca, cr, cv) in zip(rows, BANDS)
            )
            in_band += ok
            if len(first) < ACCEPTANCE_FRAMES:
                first.append(ok)
            if len(rows) == len(self.truth):
                errors.extend(
                    (a - ta, r - tr, v - tv)
                    for (a, r, v), (ta, tr, tv) in zip(rows, self.truth)
                )
        err = np.asarray(errors, dtype=float).reshape(-1, 3)
        rmse = np.sqrt(np.mean(err**2, axis=0)) if err.size else np.full(3, math.nan)
        summary = {
            "in_band_frac": in_band / len(results),
            "in_band_count": in_band,
            "frames": len(results),
            "in_band_first_20": f"{sum(first)}/{len(first)}",
            "rmse_angle_deg": float(rmse[0]),
            "rmse_range_m": float(rmse[1]),
            "rmse_velocity_mps": float(rmse[2]),
            "rmse_targets": len(errors),
        }
        return summary, []

    def check(self, result):
        return len(result) == len(self.scene.targets)


class BerSweepWorkload:
    """One op: one ``comms.link_ber`` probe of a 181-direction sweep, its RNG
    stream spawned exactly as ``comms.ber_vs_angle`` spawns them."""

    warmup_ops = SWEEP_WARMUP_OPS
    synthesizes = False

    def __init__(self, seed):
        self.cfg, self.pattern = _reference()
        self.constellation = comms.qpsk()
        self.seed = seed
        self.children = np.random.SeedSequence(seed).spawn(SWEEP_ANGLES.size)

    def op(self, k):
        i = k % SWEEP_ANGLES.size
        return comms.link_ber(
            self.cfg,
            self.pattern,
            self.constellation,
            float(SWEEP_ANGLES[i]),
            snr_db=SWEEP_SNR_DB,
            rng=np.random.default_rng(self.children[i]),
        )

    def summarize(self, results):
        """Every timed probe must equal ``comms.ber_vs_angle`` on the same
        seed bit for bit, and the steered direction must be clean."""
        reference = comms.ber_vs_angle(
            self.cfg,
            self.pattern,
            self.constellation,
            SWEEP_ANGLES,
            snr_db=SWEEP_SNR_DB,
            seed=self.seed,
        )
        problems = []
        mismatches = sum(
            1
            for k, rate in enumerate(results)
            if rate is not None and rate != reference[k % SWEEP_ANGLES.size]
        )
        if mismatches:
            problems.append(f"{mismatches} probes differ from comms.ber_vs_angle")
        steer = self.cfg.cu_angle_deg
        ber_steer = float(reference[np.argmin(np.abs(SWEEP_ANGLES - steer))])
        if not ber_steer <= STEER_BER_LIMIT:
            problems.append(f"BER {ber_steer} at the steer exceeds {STEER_BER_LIMIT}")
        off = reference[np.abs(SWEEP_ANGLES - steer) >= OFF_STEER_DEG]
        lo, hi = OFF_STEER_BAND
        band = float(np.mean((off >= lo) & (off <= hi)))
        summary = {
            "in_band_frac": band,
            "ber_offsteer_band_frac": band,
            "offsteer_probes": int(off.size),
            "ber_steer": ber_steer,
            "sweeps": len(results) / SWEEP_ANGLES.size,
        }
        return summary, problems

    def check(self, result):
        return 0.0 <= result <= 1.0


def make_workload(name, seed):
    if name == "frame_ref":
        return FrameWorkload(seed, fit_gains=False)
    if name == "frame_fit_gains":
        return FrameWorkload(seed, fit_gains=True)
    return BerSweepWorkload(seed)


def _minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_cli(argv):
    """``cli.main(argv)`` with its report kept off our standard output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def timed_loop(workload, seconds, tracer=None):
    """Closed loop, one client: the next op starts when the previous returns.

    In a traced run every other op is traced, so traced and untraced op times
    come from the same stretch of the run.
    """
    times, traced_times, results, faults = [], [], [], []
    failed = 0
    edge_hits = 0
    k = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        traced = tracer is not None and k % 2 == 1
        faults_before = _minflt()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.active(), tracer.root("op", op=k):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always", RuntimeWarning)
                        result = workload.op(k)
                edge_hits += sum(EDGE_WARNING in str(w.message) for w in caught)
            else:
                result = workload.op(k)
        except Exception as exc:  # a failed op is counted, reported and the loop goes on
            print(f"op {k} failed: {exc!r}", file=sys.stderr)
            result = None
        t1 = time.perf_counter()
        (traced_times if traced else times).append(t1 - t0)
        if not traced:
            faults.append(_minflt() - faults_before)
        if result is None or not workload.check(result):
            failed += 1
        results.append(result)
        k += 1
        if time.perf_counter() >= deadline:
            break
    return {
        "elapsed": time.perf_counter() - start,
        "times": times,
        "traced_times": traced_times,
        "results": results,
        "failed": failed,
        "faults": faults,
        "edge_hits": edge_hits,
    }


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "tmadfrc": tmadfrc.__version__,
        "seed": seed,
        "load": "closed loop, 1 client, 1 process",
    }


def end_to_end_metrics(loop, summary):
    times_ms = np.asarray(loop["times"]) * 1e3
    p90 = float(np.percentile(times_ms, 90))
    n = len(times_ms)
    values = {
        "op_ms_p50": float(np.median(times_ms)),
        "op_ms_p90": p90,
        "ops_per_s": n / loop["elapsed"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "in_band_frac": summary["in_band_frac"],
    }
    samples = {
        "op_ms_p50": n,
        "op_ms_p90": n,
        "op_ms_p90_beyond": int(np.count_nonzero(times_ms > p90)),
        "ops_per_s": n,
        "peak_rss_mb": 1,
        "in_band_frac": summary.get("frames", summary.get("offsteer_probes")),
    }
    return values, samples


def per_layer_metrics(tracer, loop, cli_self):
    summary = tracer.self_times()
    op_roots, layers = summary.get("op", ([], {}))
    n = max(len(op_roots), 1)

    def per_op(names, field):
        return sum(layers[name][field] for name in names if name in layers) / n

    values = {metric: per_op([span], "self_s") * 1e3 for metric, span in LAYER_MS.items()}
    for metric, spans in LAYER_CALLS.items():
        values[metric] = per_op(spans, "calls")
    signal_roots, signal_layers = summary.get("signal", ([], {}))
    signal = signal_layers.get("scene.radar_returns")
    values["scene.signal_ms"] = signal["self_s"] * 1e3 / len(signal_roots) if signal else 0.0

    masked = layers.get("coarse.descramble", {}).get("notes", [])
    values["coarse.masked_fraction"] = float(np.mean(masked)) if masked else 0.0
    fits = [
        note
        for span in ("refine.refine_ranges", "refine.refine_velocities")
        for note in layers.get(span, {}).get("notes", [])
    ]
    values["refine.combinations_per_op"] = sum(combos for combos, _ in fits) / n
    values["refine.residual_ratio"] = float(np.mean([r for _, r in fits])) if fits else 0.0
    values["refine.edge_hits_per_op"] = loop["edge_hits"] / n
    values["proc.minflt_per_op"] = float(np.mean(loop["faults"])) if loop["faults"] else 0.0
    values.update(cli_self)

    # Layer figures are per-op means, so they add up to the mean traced op
    # (the root spans); the overhead compares medians of interleaved ops.
    traced_p50 = float(np.median(loop["traced_times"])) * 1e3 if loop["traced_times"] else 0.0
    traced_mean = float(np.mean(op_roots)) * 1e3 if op_roots else 0.0
    values["trace.op_ms_p50"] = traced_p50
    values["trace.op_ms_mean"] = traced_mean
    values["trace.overhead_frac"] = (
        traced_p50 / (float(np.median(loop["times"])) * 1e3) - 1.0 if traced_p50 else 0.0
    )
    layer_sum = sum(values[m] for m in LAYER_MS)
    values["trace.accounted_frac"] = layer_sum / traced_mean if traced_mean else 0.0
    values["trace.ops_traced"] = float(len(op_roots))
    samples = {"ops_traced": len(op_roots), "signal_calls": len(signal_roots), "fits": len(fits)}
    return values, samples


def traced_signal_calls(tracer, workload, ops):
    """The synthesis of the first traced ops again without the noise draw,
    after the timed loop so that it cannot disturb the op timings."""
    with tracer.active():
        for k in ops:
            with tracer.root("signal", op=k):
                workload.signal_only(k)


def traced_cli_calls(tracer, seed):
    """One traced ``reproduce-table2`` and one ``ber-sweep`` through cli.main;
    returns (cli self times, gate failures)."""
    calls = {
        "cli.reproduce_self_ms": ["reproduce-table2"],
        "cli.ber_sweep_self_ms": [
            "ber-sweep", "--angles=-90:90:1", "--snr", str(SWEEP_SNR_DB), "--seed", str(seed),
        ],
    }
    codes = {}
    with tracer.active():
        for metric, argv in calls.items():
            with tracer.root(metric):
                codes[metric] = run_cli(argv)
    summary = tracer.self_times()
    cli_self = {}
    for metric in calls:
        _, layers = summary[metric]
        cli_self[metric] = layers["cli.main"]["self_s"] * 1e3
    failures = [f"cli {calls[m][0]} exited {code}" for m, code in codes.items() if code != 0]
    return cli_self, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, dest="spawned_at")
    parser.add_argument("--setup-only", action="store_true", dest="setup_only")
    args = parser.parse_args(argv)

    if not Path(tmadfrc.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"tmadfrc was imported from {tmadfrc.__file__}, not this checkout")
    warnings.filterwarnings("ignore", message=f".*{EDGE_WARNING}", category=RuntimeWarning)

    workload = make_workload(args.workload, args.seed)
    for k in range(workload.warmup_ops):
        workload.op(k)
    tracer = None
    if args.trace:
        modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "tmadfrc"]
        tracer = Tracer(modules, TRACED)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    loop = timed_loop(workload, args.seconds, tracer)
    summary, problems = workload.summarize(loop["results"])
    if not args.trace:
        values, samples = end_to_end_metrics(loop, summary)
        code = run_cli(["reproduce-table2"])
        if code != 0:
            problems.append(f"cli reproduce-table2 exited {code}")
    else:
        if workload.synthesizes:
            traced_signal_calls(tracer, workload, range(1, len(loop["results"]), 2)[:SIGNAL_CALLS])
        cli_self, cli_failures = traced_cli_calls(tracer, args.seed)
        problems.extend(cli_failures)
        values, samples = per_layer_metrics(tracer, loop, cli_self)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    attempted = len(loop["results"])
    if loop["failed"]:
        problems.append(f"{loop['failed']} of {attempted} ops failed")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "samples": samples,
        "failed_frac": loop["failed"] / attempted,
        "minflt_per_op": float(np.mean(loop["faults"])) if loop["faults"] else 0.0,
        "problems": problems,
        **summary,
    }
    units = PER_LAYER if args.trace else END_TO_END
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "correct": not problems,
                "attempted": attempted,
                "failed": loop["failed"],
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
                "record": record,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

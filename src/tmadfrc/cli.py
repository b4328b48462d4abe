"""Command-line front end.

Subcommands:
    dm-check          verify the direction-dependent scrambling condition
    simulate          synthesize a frame and write the receive grid
    estimate          run the estimation chain on stored grids
    ber-sweep         bit error rate versus receiver direction
    reproduce-table2  end-to-end run of the packaged reference setup

Primary outputs (grids, JSON results, CSV tables) are deterministic for a
given config and seed; wall-clock metadata goes only to ``*.meta.json``
sidecars so reruns can be diffed byte for byte.

Exit codes: 0 success, 1 negative analysis outcome (condition violated, no
detections, reproduction mismatch), 2 bad usage or unreadable input.
"""

import argparse
import csv
import dataclasses
import datetime
import importlib.resources
import json
import sys

import numpy as np

from . import __version__
from .coarse import DegenerateBinError, NoPeaksError
from .comms import ber_vs_angle, modulate, qpsk
from .model import (
    ConfigError,
    bin_to_angle_deg,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    range_resolution_m,
    signed_bin_index,
    velocity_resolution_mps,
    wrap_velocity_mps,
    write_document,
)
from .refine import (
    MUSIC_STEP_DEG,
    RANGE_POINTS,
    VELOCITY_POINTS,
    RefineOptions,
    SubspaceError,
    candidate_range_grid,
    candidate_velocity_grid,
    estimate_targets,
)
from .scene import (
    GridFormatError,
    load_scene,
    radar_returns,
    read_grid,
    scene_to_dict,
    write_grid,
)
from .tma import check_dm_condition, design_pattern


def _load_cfg(args):
    data = config_to_dict(load_config(args.config))
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        try:
            data[key] = json.loads(value)
        except json.JSONDecodeError:
            data[key] = value
    return config_from_dict(data)


def _seed(text: str) -> int:
    """The argparse type of every ``--seed``: a non-negative integer, the
    seeds ``np.random.default_rng`` takes."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def _stamped(cfg, fields: dict) -> dict:
    return {"version": __version__, "config_hash": config_hash(cfg), **fields}


def _write_meta(path, cfg, **extra) -> None:
    """Write the ``.meta.json`` sidecar of an output file: the only place
    wall-clock time goes."""
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    write_document(_stamped(cfg, {"created_at": now, **extra}), f"{path}.meta.json")


def _write_report(path, cfg, report: dict, **meta) -> None:
    """Write a JSON report (version, config hash, ``report``) and its sidecar."""
    write_document(_stamped(cfg, report), path)
    _write_meta(path, cfg, **meta)


def _write_csv(path, header, rows) -> None:
    """Write a CSV table: the ``header`` row, then ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _qpsk_payload(cfg, seed) -> np.ndarray:
    """A frame of QPSK symbols, shape ``cfg.grid_shape``, bits drawn from ``seed``."""
    constellation = qpsk()
    count = cfg.num_subcarriers * cfg.num_ofdm_symbols * constellation.bits_per_symbol
    bits = np.random.default_rng(seed).integers(0, 2, size=count)
    return modulate(bits, constellation).reshape(cfg.grid_shape)


def _print_estimates(estimates, refined_heading="refined targets:") -> None:
    print(f"coarse detections: {len(estimates.coarse)}")
    for row in estimates.coarse:
        print(
            f"  bin ({row.angle_bin:3d},{row.range_bin:3d},{row.velocity_bin:4d})"
            f" -> {row.angle_deg:8.3f} deg {row.range_m:10.3f} m {row.velocity_mps:9.3f} m/s"
        )
    print(f"{refined_heading} {len(estimates.refined)}")
    for row in estimates.refined:
        print(
            f"  from bin {row.angle_bin:3d}"
            f" -> {row.angle_deg:8.3f} deg {row.range_m:10.4f} m {row.velocity_mps:9.4f} m/s"
        )


def _triple(row) -> dict:
    """The angle, range and velocity of a target or an estimate, for a report."""
    return {"angle_deg": row.angle_deg, "range_m": row.range_m, "velocity_mps": row.velocity_mps}


_MAX_PROBES = 100_000  # per ber-sweep range (~1.3 ms each) or dm-check run
_MAX_SYMBOLS = 2**20  # per ber-sweep direction: 64 reference frames


def _parse_angles(spec: str) -> np.ndarray:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"angle range must be START:STOP:STEP, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("angle step must be positive")
        if stop < start:
            raise ValueError(f"angle range {spec!r} is empty: STOP lies below START")
        count = (stop - start) / step + 1.0
        if count > _MAX_PROBES:
            raise ValueError(f"angle range {spec!r} asks for {count:.3g} probes, over {_MAX_PROBES}")
        # NaN passes every test above, and so does an infinite STEP
        if not np.isfinite([start, stop, step]).all():
            raise ValueError(f"angle range {spec!r} needs a finite START, STOP and STEP")
        # arange accumulates rounding (-90:90:0.2 ends at 90.0000000000026),
        # which must not push the last probe past STOP and out of [-90, 90]
        return np.minimum(np.arange(start, stop + step * 1e-9, step), stop)
    return np.array([float(p) for p in spec.split(",")])


# --- subcommands -----------------------------------------------------------


def _cmd_dm_check(args) -> int:
    if not 1 <= args.probes <= _MAX_PROBES:
        raise ValueError(f"--probes must lie in [1, {_MAX_PROBES}], got {args.probes}")
    # Below 1 the accepted sine interval is at least 2 - 2 * offset long, so
    # the rejection sampler below always terminates.
    if not 0.0 <= args.min_sin_offset < 1.0:
        raise ValueError(f"--min-sin-offset must lie in [0, 1), got {args.min_sin_offset}")
    cfg = _load_cfg(args)
    steer = cfg.cu_angle_deg if args.angle is None else args.angle
    pattern = design_pattern(cfg, steer)
    if args.duty is not None:
        pattern = dataclasses.replace(
            pattern, duty=np.full(pattern.num_elements, args.duty)
        )
    rng = np.random.default_rng(args.seed)
    sin0 = np.sin(np.radians(steer))
    probes = []
    while len(probes) < args.probes:
        sin_probe = rng.uniform(-1.0, 1.0)
        if abs(sin_probe - sin0) >= args.min_sin_offset:
            probes.append(float(np.degrees(np.arcsin(sin_probe))))
    report = check_dm_condition(
        pattern, cfg, steer, probes, rel_tol=args.rel_tol, off_steer_floor=args.floor
    )
    print(f"steered direction        : {steer:.4f} deg")
    print(f"fundamental gain there   : {report.fundamental_at_steer:.6f}")
    print(f"largest harmonic there   : {report.max_harmonic_at_steer:.3e}")
    print(f"weakest off-steer leakage: {report.min_off_steer_harmonic:.6f} over {args.probes} probes")
    if args.out:
        fields = {
            "seed": args.seed,
            "steer_angle_deg": steer,
            "probe_angles_deg": probes,
            "report": dataclasses.asdict(report),
        }
        _write_report(args.out, cfg, fields, seed=args.seed, role="dm-check")
    if report.ok:
        print("condition: satisfied")
        return 0
    print(f"condition: VIOLATED (clauses {', '.join(map(str, report.failed_clauses))})")
    return 1


def _cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    scene = load_scene(args.scene)
    pattern = design_pattern(cfg, cfg.cu_angle_deg)
    data = _qpsk_payload(cfg, args.seed)
    received = radar_returns(data, pattern, cfg, scene)
    write_grid(args.out, received)
    _write_meta(args.out, cfg, scene=scene_to_dict(scene), payload_seed=args.seed, role="received")
    print(f"wrote receive grid {received.shape} to {args.out}")
    if args.data:
        write_grid(args.data, data)
        _write_meta(args.data, cfg, payload_seed=args.seed, role="transmitted")
        print(f"wrote transmit grid {data.shape} to {args.data}")
    return 0


def _export_spectra(prefix, result, cfg) -> None:
    if result is None:
        raise NoPeaksError("no angle bin rises above the detection threshold")
    angle_grid = bin_to_angle_deg(np.arange(cfg.num_rx_antennas), cfg)
    rows = ((k, f"{angle_grid[k]:.6f}", f"{v:.9e}") for k, v in enumerate(result.spectrum))
    _write_csv(f"{prefix}.angle.csv", ["bin", "angle_deg", "power"], rows)
    signed = signed_bin_index(np.arange(cfg.num_ofdm_symbols), cfg.num_ofdm_symbols)
    for bin_result in result.bins:
        tag = f"{prefix}.bin{bin_result.angle_bin}"
        rows = enumerate(f"{v:.9e}" for v in bin_result.range_profile)
        _write_csv(f"{tag}.range.csv", ["bin", "magnitude"], rows)
        for range_bin, spectrum in zip(bin_result.range_bins, bin_result.velocity_spectra):
            rows = zip(signed, (f"{v:.9e}" for v in spectrum))
            _write_csv(f"{tag}.l{int(range_bin)}.velocity.csv", ["signed_bin", "magnitude"], rows)


def _cmd_estimate(args) -> int:
    cfg = _load_cfg(args)
    received = read_grid(args.grid)
    if received.shape != cfg.returns_shape:
        raise GridFormatError(
            f"receive grid shape {received.shape} does not match the "
            f"configured {cfg.returns_shape}"
        )
    data = read_grid(args.data)
    if data.shape != (1, *cfg.grid_shape):
        raise GridFormatError(
            f"transmit grid shape {data.shape} does not match the "
            f"configured {(1, *cfg.grid_shape)}"
        )
    data = data[0]
    pattern = design_pattern(cfg, cfg.cu_angle_deg)
    options = RefineOptions(fit_gains=args.fit_gains, num_sources=args.sources)
    estimates = estimate_targets(received, data, pattern, cfg, options)

    _print_estimates(estimates)
    if args.out:
        _write_report(args.out, cfg, {"estimates": estimates.to_dict()}, role="estimates")
    if args.export_spectra:
        _export_spectra(args.export_spectra, estimates.coarse_result, cfg)
    return 0 if estimates.refined else 1


def _cmd_ber_sweep(args) -> int:
    if args.symbols is not None and args.symbols > _MAX_SYMBOLS:
        raise ValueError(f"--symbols must be at most {_MAX_SYMBOLS}, got {args.symbols}")
    cfg = _load_cfg(args)
    pattern = design_pattern(cfg, cfg.cu_angle_deg)
    angles = _parse_angles(args.angles)
    rates = ber_vs_angle(
        cfg,
        pattern,
        qpsk(),
        angles,
        snr_db=args.snr,
        num_symbols=args.symbols,
        seed=args.seed,
    )
    for angle, rate in zip(angles, rates):
        print(f"{angle:9.3f} deg  BER {rate:.6f}")
    if args.out:
        rows = ((f"{a:.6f}", f"{r:.9f}") for a, r in zip(angles, rates))
        _write_csv(args.out, ["angle_deg", "ber"], rows)
        _write_meta(args.out, cfg, seed=args.seed, role="ber-sweep")
    return 0


def _velocity_error(estimate: float, truth: float, cfg) -> float:
    """|estimate - truth| in m/s, read modulo the 2w of the velocity window,
    which the slow-time phase cannot tell apart."""
    return abs(wrap_velocity_mps(estimate - truth, cfg))


def _pair_rows(targets, rows, cfg) -> list:
    """The refined row paired with each target, in target order (None for a
    target left without one).  Pairs are taken in ascending score over every
    (target, row) pair, so the order of the targets only breaks ties.  The
    score adds the angle error in degrees to the range and velocity errors in
    resolution cells."""
    range_res, velocity_res = range_resolution_m(cfg), velocity_resolution_mps(cfg)
    scores = sorted(
        (
            abs(row.angle_deg - target.angle_deg)
            + abs(row.range_m - target.range_m) / range_res
            + _velocity_error(row.velocity_mps, target.velocity_mps, cfg) / velocity_res,
            t,
            r,
        )
        for t, target in enumerate(targets)
        for r, row in enumerate(rows)
    )
    paired, taken = [None] * len(targets), set()
    for _, t, r in scores:
        if paired[t] is None and r not in taken:
            paired[t] = rows[r]
            taken.add(r)
    return paired


def _cmd_reproduce(args) -> int:
    cfg = _load_cfg(args)
    scene = load_scene(args.scene)
    if args.seed is not None:
        scene = dataclasses.replace(scene, seed=args.seed)
    pattern = design_pattern(cfg, cfg.cu_angle_deg)
    data = _qpsk_payload(cfg, scene.seed)
    received = radar_returns(data, pattern, cfg, scene)
    estimates = estimate_targets(received, data, pattern, cfg)

    range_res = range_resolution_m(cfg)
    velocity_res = velocity_resolution_mps(cfg)
    range_step = range_res / (RANGE_POINTS - 1)
    velocity_step = velocity_res / (VELOCITY_POINTS - 1)

    print(f"configuration hash {config_hash(cfg)[:16]}, noise/payload seed {scene.seed}")
    _print_estimates(estimates, refined_heading="refined targets:  ")
    print()

    ok = len(estimates.refined) == len(scene.targets)
    if not ok:
        print(
            f"expected {len(scene.targets)} refined targets, got {len(estimates.refined)}"
        )
    report_rows = []
    paired = _pair_rows(scene.targets, estimates.refined, cfg)
    for target, row in zip(scene.targets, paired):
        expected_angle = round(target.angle_deg / MUSIC_STEP_DEG) * MUSIC_STEP_DEG
        range_bin = int(np.rint(target.range_m / range_res))
        velocity_bin = int(np.rint(target.velocity_mps / velocity_res))
        range_grid = candidate_range_grid([range_bin], cfg)
        velocity_grid = candidate_velocity_grid(velocity_bin, cfg)
        expected_range = float(range_grid[np.argmin(np.abs(range_grid - target.range_m))])
        expected_velocity = wrap_velocity_mps(
            float(velocity_grid[np.argmin(np.abs(velocity_grid - target.velocity_mps))]), cfg
        )
        good = row is not None and (
            abs(row.angle_deg - expected_angle) <= 0.1 + 1e-9
            and abs(row.range_m - expected_range) <= 0.2
            and _velocity_error(row.velocity_mps, expected_velocity, cfg) <= velocity_step + 1e-9
        )
        ok = ok and good
        status = "PASS" if good else "FAIL"
        got = (
            f"{row.angle_deg:8.3f} deg {row.range_m:9.4f} m {row.velocity_mps:9.4f} m/s"
            if row
            else " -- no refined row --"
        )
        print(
            f"truth {target.angle_deg:8.3f} deg {target.range_m:9.3f} m "
            f"{target.velocity_mps:8.3f} m/s | expected "
            f"{expected_angle:8.3f} deg {expected_range:9.4f} m "
            f"{expected_velocity:9.4f} m/s | got {got} | {status}"
        )
        report_rows.append(
            {
                "truth": _triple(target),
                "expected": {
                    "angle_deg": expected_angle,
                    "range_m": expected_range,
                    "velocity_mps": expected_velocity,
                },
                "refined": None if row is None else _triple(row),
                "status": status,
            }
        )
    print()
    print(
        f"tolerances: angle 0.100 deg, range 0.200 m, "
        f"velocity {velocity_step:.6f} m/s (one refinement step); "
        f"range grid step {range_step:.6f} m"
    )
    print("reproduction:", "PASS" if ok else "FAIL")
    if args.out:
        fields = {
            "seed": scene.seed,
            "estimates": estimates.to_dict(),
            "targets": report_rows,
            "ok": ok,
        }
        _write_report(args.out, cfg, fields, role="reproduction")
    return 0 if ok else 1


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmadfrc",
        description="Switched-array OFDM radar-communication simulation and estimation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    fixtures = importlib.resources.files("tmadfrc").joinpath("fixtures")
    reference_scene = fixtures.joinpath("reference_scene.json")

    def add_config(p):
        p.add_argument(
            "--config",
            default=fixtures.joinpath("reference_config.json"),
            help="config JSON (default: packaged reference)",
        )
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config field (repeatable)",
        )

    p = sub.add_parser("dm-check", help="verify the scrambling condition")
    add_config(p)
    p.add_argument("--angle", type=float, help="steered direction (default: config)")
    p.add_argument("--probes", type=int, default=50, help="random probe directions")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--rel-tol", type=float, default=1e-10, dest="rel_tol")
    p.add_argument("--floor", type=float, default=1e-3)
    p.add_argument(
        "--min-sin-offset",
        type=float,
        default=5e-3,
        dest="min_sin_offset",
        help="reject probes closer than this to the steer (sine domain)",
    )
    p.add_argument(
        "--duty",
        type=float,
        help="override every element's on-fraction (1.0 = always on, a control "
        "case that defeats the scrambling)",
    )
    p.add_argument("--out", help="write the check report JSON here")
    p.set_defaults(handler=_cmd_dm_check)

    p = sub.add_parser("simulate", help="synthesize a frame and write grids")
    add_config(p)
    p.add_argument("--scene", default=reference_scene, help="scene JSON (default: packaged reference)")
    p.add_argument("--out", required=True, help="receive grid output path")
    p.add_argument("--data", help="also store the transmitted symbol grid here")
    p.add_argument("--seed", type=_seed, default=0, help="payload bit seed")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate targets from stored grids")
    add_config(p)
    p.add_argument("--grid", required=True, help="receive grid from simulate --out")
    p.add_argument("--data", required=True, help="transmit grid from simulate --data")
    p.add_argument("--out", help="write estimates JSON here")
    p.add_argument("--export-spectra", metavar="PREFIX", help="write coarse profiles as CSV")
    p.add_argument("--fit-gains", action="store_true", help="fit complex gains during refinement")
    p.add_argument("--sources", type=int, help="force the per-bin source count")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("ber-sweep", help="bit error rate versus direction")
    add_config(p)
    p.add_argument(
        "--angles",
        default="-90:90:2",
        help="probe directions: START:STOP:STEP or comma list (degrees)",
    )
    p.add_argument("--snr", type=float, help="per-direction SNR in dB (default: config)")
    p.add_argument("--symbols", type=int, help="symbols per direction (default: one frame)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", help="write CSV here")
    p.set_defaults(handler=_cmd_ber_sweep)

    p = sub.add_parser(
        "reproduce-table2",
        help="run the packaged reference scenario and check the recovered targets",
    )
    add_config(p)
    p.add_argument("--scene", default=reference_scene, help="scene JSON (default: packaged reference)")
    p.add_argument("--seed", type=_seed, help="override the reference noise/payload seed")
    p.add_argument("--out", help="write the reproduction report JSON here")
    p.set_defaults(handler=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (DegenerateBinError, SubspaceError, NoPeaksError) as exc:
        print(f"analysis failed: {exc}", file=sys.stderr)
        return 1
    # ConfigError, SceneError, PatternError, GridFormatError and a malformed
    # JSON document are all ValueErrors.
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

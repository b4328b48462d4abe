"""Top-level acceptance gate: one test per shipped guarantee.

Each test prints a `[acceptance] <name>: PASS/FAIL (...)` line with the
measured quantities next to the bound it must meet, and asserts the stated
tolerance and runtime budget.

Two clauses are known to be unattainable for this waveform/array and their
tests fail honestly with the measured numbers rather than loosening the
bound:

* scrambled-magnitude tail: the empirical |d'| distribution is smooth near
  zero, so a 7e-5 mass below 0.01 forces ~10 of 16.4M symbols below 0.001 --
  a literal zero count at this sample size is statistically impossible.
* off-steer BER band [0.45, 0.55] at every angle 20+ degrees away: the
  always-on fundamental re-coheres inside the transmit main lobe (which
  reaches sin(theta) ~ 0.62..1) and its phase rotation flips bits
  systematically elsewhere, so 86 of the 142 one-degree probes sit outside
  the band, from 0.13 up to 0.73.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import qpsk_frame
from oracles import time_domain_demod
from tmadfrc import (
    Frame,
    Scene,
    Target,
    coarse_pipeline,
    design_pattern,
    estimate_targets,
    link_ber,
    modulate,
    qpsk,
    radar_returns,
    scramble_symbols,
)
from tmadfrc import refine
from tmadfrc.comms import ber_vs_angle
from tmadfrc.model import derived_resolutions
from tmadfrc.refine import (
    candidate_range_grid,
    music_pseudospectrum,
    music_search_grid,
    refine_ranges,
    sample_covariance,
    steering_vector,
)
from tmadfrc.tma import check_dm_condition
from tmadfrc.transforms import dft, idft

EAVESDROP_ANGLE = math.degrees(math.asin(1.0 / 3.0))  # 19.47 deg, bin 20


def report_line(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_scrambling_condition_across_array_sizes(ref_cfg):
    """Steered direction keeps only the fundamental; everywhere else at least
    one harmonic stays above the floor."""
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    steer = ref_cfg.cu_angle_deg
    sin0 = math.sin(math.radians(steer))
    probes = []
    while len(probes) < 50:
        sin_theta = rng.uniform(-1.0, 1.0)
        if abs(sin_theta - sin0) >= 5e-3:
            probes.append(math.degrees(math.asin(sin_theta)))

    for nt in (2, 4, 8, 16):
        cfg = dataclasses.replace(ref_cfg, num_tx_antennas=nt)
        pattern = design_pattern(cfg, steer)
        report = check_dm_condition(
            pattern, cfg, steer, probes, rel_tol=1e-10, off_steer_floor=1e-3
        )
        detail = (
            f"N_t={nt}: fundamental {report.fundamental_at_steer:.3f}, "
            f"max harmonic at steer {report.max_harmonic_at_steer:.2e}, "
            f"weakest off-steer {report.min_off_steer_harmonic:.4f}"
        )
        report_line("scrambling condition", report.ok, detail)
        assert report.ok, detail
        assert report.fundamental_at_steer == pytest.approx(nt - 1, rel=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s, budget 1 s"


def test_frequency_route_matches_time_domain_route(ref_cfg):
    """scramble_symbols against an independent switched-waveform demodulation."""
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    angles = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, size=20)))
    worst = 0.0
    for ns in (4, 8, 64):
        cfg = dataclasses.replace(ref_cfg, num_subcarriers=ns, num_ofdm_symbols=8)
        pattern = design_pattern(cfg, cfg.cu_angle_deg)
        data = qpsk_frame(cfg, seed=ns)
        for angle in angles:
            fast = scramble_symbols(data, pattern, cfg, float(angle))
            slow = time_domain_demod(data, pattern, cfg, float(angle))
            worst = max(worst, float(np.max(np.abs(fast - slow))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9
    report_line("time/frequency equivalence", ok, f"max abs error {worst:.2e}, {elapsed:.1f} s")
    assert ok, f"routes disagree by {worst:.2e} (bound 1e-9)"
    assert elapsed < 30.0, f"took {elapsed:.1f} s, budget 30 s"


def test_coarse_estimates_reproduce_reference_scene(ref_cfg, ref_pattern, ref_frame):
    """Bin-exact coarse stage on the packaged scene."""
    start = time.perf_counter()
    data, received = ref_frame
    result = coarse_pipeline(Frame(received, data, ref_pattern, ref_cfg))
    rows = {(e.angle_bin, e.range_bin, e.velocity_bin) for e in result.estimates}
    expected = {(20, 3, -4), (20, 3, 4), (6, 6, 9)}
    ok = rows == expected
    report_line("coarse reproduction", ok, f"bins {sorted(rows)}")
    assert ok, f"detected {sorted(rows)}, expected {sorted(expected)}"

    for est in result.estimates:
        sin_hat = math.sin(math.radians(est.angle_deg))
        target_sin = 1.0 / 3.0 if est.angle_bin == 20 else -0.5
        assert sin_hat == pytest.approx(target_sin, abs=1e-12)
    ranges = sorted({e.range_m for e in result.estimates})
    assert ranges[0] == pytest.approx(58.59375, abs=1e-9)
    assert ranges[1] == pytest.approx(117.1875, abs=1e-9)
    velocities = sorted(e.velocity_mps for e in result.estimates)
    for measured, printed in zip(velocities, (-9.38, 9.38, 21.09)):
        assert measured == pytest.approx(printed, abs=5e-3 + 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s, budget 10 s"


@pytest.mark.filterwarnings("ignore:refined \\w+ hit the edge:RuntimeWarning")
def test_refined_estimates_within_tolerance_across_seeds(ref_cfg, ref_scene, ref_pattern):
    """Refined angle/range/velocity inside the published bands on >= 18 of 20
    independent noise realizations (fixed payload)."""
    start = time.perf_counter()
    _, velocity_res, _ = derived_resolutions(ref_cfg)
    velocity_step = velocity_res / 10.0
    bands = [  # (angle, range, velocity) centers; +-0.1 deg, +-0.2 m, +-one step
        (-30.0, 120.12, 19.92),
        (20.0, 50.00, -10.08),
        (22.0, 60.16, 10.08),
    ]
    data = qpsk_frame(ref_cfg, seed=7)
    failures = []
    for noise_seed in range(20):
        scene = dataclasses.replace(ref_scene, seed=noise_seed)
        received = radar_returns(data, ref_pattern, ref_cfg, scene)
        rows = sorted(
            estimate_targets(received, data, ref_pattern, ref_cfg).refined,
            key=lambda r: r.angle_deg,
        )
        if len(rows) != len(bands):
            failures.append((noise_seed, f"{len(rows)} refined rows"))
            continue
        problems = []
        for row, (angle, range_m, velocity) in zip(rows, bands):
            if abs(row.angle_deg - angle) > 0.1 + 1e-9:
                problems.append(f"angle {row.angle_deg:.3f} vs {angle}")
            if abs(row.range_m - range_m) > 0.2:
                problems.append(f"range {row.range_m:.4f} vs {range_m}")
            if abs(row.velocity_mps - velocity) > velocity_step + 1e-9:
                problems.append(f"velocity {row.velocity_mps:.4f} vs {velocity}")
        if problems:
            failures.append((noise_seed, "; ".join(problems)))
    passes = 20 - len(failures)
    elapsed = time.perf_counter() - start
    ok = passes >= 18
    report_line(
        "refined reproduction", ok, f"{passes}/20 seeds in band, {elapsed:.1f} s"
        + (f"; misses: {failures}" if failures else "")
    )
    assert ok, f"only {passes}/20 runs inside tolerance: {failures}"
    assert elapsed < 300.0, f"took {elapsed:.1f} s, budget 5 min"


def test_scrambled_symbol_magnitude_statistics(ref_cfg, ref_pattern):
    """Tail of |d'| toward zero, which bounds the descrambling noise
    amplification an eavesdropper-direction bin can suffer.

    Second clause (literally zero symbols below 0.001 in 16.4M draws) is
    inconsistent with the measured smooth density near zero: it fails with
    a stable count of about 10 and is preserved here as a failing assert.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    frames = 1000
    per_frame = ref_cfg.num_subcarriers * ref_cfg.num_ofdm_symbols
    below_01 = 0
    below_001 = 0
    for _ in range(frames):
        bits = rng.integers(0, 2, size=2 * per_frame)
        grid = modulate(bits, qpsk()).reshape(ref_cfg.grid_shape)
        magnitude = np.abs(scramble_symbols(grid, ref_pattern, ref_cfg, EAVESDROP_ANGLE))
        below_01 += int(np.count_nonzero(magnitude < 0.01))
        below_001 += int(np.count_nonzero(magnitude < 0.001))
    total = frames * per_frame
    fraction = below_01 / total
    elapsed = time.perf_counter() - start

    ok1 = fraction < 5e-4
    report_line(
        "near-zero scrambled symbols, |d'| < 0.01",
        ok1,
        f"{fraction * 100:.4f}% of {total} (bound 0.05%), {elapsed:.1f} s",
    )
    assert ok1, f"fraction {fraction:.2e} exceeds 5e-4"
    assert elapsed < 60.0, f"took {elapsed:.1f} s, budget 1 min"

    ok2 = below_001 == 0
    report_line(
        "near-zero scrambled symbols, |d'| < 0.001",
        ok2,
        f"count {below_001} of {total} (bound: exactly 0)",
    )
    assert ok2, (
        f"{below_001} of {total} scrambled symbols fall below 0.001 "
        f"({below_001 / total:.2e}); a smooth magnitude density with "
        f"{fraction:.2e} mass below 0.01 implies ~{fraction / 100 * total:.0f} "
        f"such symbols, so a zero count is unattainable at this sample size"
    )


def test_numerical_property_suite(monkeypatch, ref_cfg, ref_pattern, ref_frame, small_cfg):
    """Bundle of exact structural properties with no tuned constants."""
    rng = np.random.default_rng(3)

    # transform round trip
    for n in (24, 64):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert float(np.max(np.abs(idft(dft(x)) - x))) < 1e-12
        assert float(np.max(np.abs(dft(idft(x)) - x))) < 1e-12
    report_line("property: transform round trip", True, "max error < 1e-12")

    # scrambling is linear in the symbol grid
    a = rng.standard_normal(ref_cfg.grid_shape) + 1j * rng.standard_normal(ref_cfg.grid_shape)
    b = rng.standard_normal(ref_cfg.grid_shape) + 1j * rng.standard_normal(ref_cfg.grid_shape)
    lhs = scramble_symbols(2.0 * a - 1.5j * b, ref_pattern, ref_cfg, 25.0)
    rhs = 2.0 * scramble_symbols(a, ref_pattern, ref_cfg, 25.0) - 1.5j * scramble_symbols(
        b, ref_pattern, ref_cfg, 25.0
    )
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    report_line("property: scrambling linearity", True, "exact")

    # common complex gain leaves every detected bin unchanged
    data, received = ref_frame
    base = coarse_pipeline(Frame(received, data, ref_pattern, ref_cfg))
    scaled = coarse_pipeline(Frame(2.7 * np.exp(0.6j) * received, data, ref_pattern, ref_cfg))
    base_rows = {(e.angle_bin, e.range_bin, e.velocity_bin) for e in base.estimates}
    scaled_rows = {(e.angle_bin, e.range_bin, e.velocity_bin) for e in scaled.estimates}
    assert base_rows == scaled_rows
    report_line("property: gain-invariant detection", True, f"bins {sorted(base_rows)}")

    # target returns superpose
    targets = (
        Target(20.0, 50.0, -10.0, reflectivity=1.0),
        Target(22.0, 60.0, 10.0, reflectivity=1.0),
        Target(-30.0, 120.0, 20.0, reflectivity=1.0),
    )
    both = radar_returns(data, ref_pattern, ref_cfg, Scene(targets, snr_db=np.inf))
    parts = sum(
        radar_returns(data, ref_pattern, ref_cfg, Scene((t,), snr_db=np.inf))
        for t in targets
    )
    assert np.allclose(both, parts, rtol=1e-12, atol=1e-9)
    report_line("property: superposition of returns", True, "exact")

    # MUSIC peak position ignores covariance scale
    cov = sample_covariance(received)
    grid = music_search_grid(20, ref_cfg)
    noise = ref_cfg.num_rx_antennas - 3  # three sources
    spec = music_pseudospectrum(np.linalg.eigh(cov)[1][:, :noise], ref_cfg, grid)
    spec_scaled = music_pseudospectrum(np.linalg.eigh(9.1 * cov)[1][:, :noise], ref_cfg, grid)
    assert int(np.argmax(spec)) == int(np.argmax(spec_scaled))
    report_line("property: MUSIC scale invariance", True, f"argmax {np.argmax(spec)}")

    # least-squares residual vanishes at the noiseless truth
    res, _, _ = derived_resolutions(small_cfg)
    truth = 2 * res + 10 * (res / 100)
    target = Target(math.degrees(math.asin(0.25)), truth, 40.0, reflectivity=1.0)
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    payload = qpsk_frame(small_cfg, seed=30)
    frame = radar_returns(payload, pattern, small_cfg, Scene((target,), snr_db=np.inf))
    fit = refine_ranges(Frame(frame, payload, pattern, small_cfg), [target.angle_deg], [2])
    energy = float(np.sum(np.abs(frame[:, :, 0]) ** 2))
    assert fit.residual < 1e-9 * energy
    assert fit.values[0] == pytest.approx(truth, abs=1e-9)
    report_line(
        "property: zero residual at truth", True, f"residual/energy {fit.residual / energy:.1e}"
    )

    # factorized grid search equals direct enumeration on an 11x11 instance
    monkeypatch.setattr(refine, "RANGE_POINTS", 11)
    angles = [math.degrees(math.asin(-0.5)), math.degrees(math.asin(0.25))]
    truths = [2.33 * res, 4.77 * res]
    scene = Scene(
        tuple(Target(a, r, v, reflectivity=1.0) for a, r, v in zip(angles, truths, (40.0, -90.0))),
        snr_db=np.inf,
    )
    payload = qpsk_frame(small_cfg, seed=31)
    frame = radar_returns(payload, pattern, small_cfg, scene)
    fit = refine_ranges(Frame(frame, payload, pattern, small_cfg), angles, [2, 5])
    candidates = candidate_range_grid([2, 5], small_cfg)
    snapshot = frame[:, :, 0]
    s = np.arange(small_cfg.num_subcarriers)
    steer = steering_vector(small_cfg, angles)
    scrambled = [
        scramble_symbols(payload[:, 0], pattern, small_cfg, angle) for angle in angles
    ]
    best = (np.inf, None, None)
    for r0 in candidates:
        ramp0 = np.exp(-2j * np.pi * s * small_cfg.subcarrier_spacing_hz * 2.0 * r0 / small_cfg.c)
        atom0 = steer[0][:, None] * (scrambled[0] * ramp0)[None, :]
        for r1 in candidates:
            ramp1 = np.exp(
                -2j * np.pi * s * small_cfg.subcarrier_spacing_hz * 2.0 * r1 / small_cfg.c
            )
            recon = atom0 + steer[1][:, None] * (scrambled[1] * ramp1)[None, :]
            residual = float(np.sum(np.abs(snapshot - recon) ** 2))
            if residual < best[0]:
                best = (residual, r0, r1)
    assert fit.values[0] == pytest.approx(best[1], abs=1e-12)
    assert fit.values[1] == pytest.approx(best[2], abs=1e-12)
    assert fit.residual == pytest.approx(best[0], rel=1e-8)
    report_line("property: grid search vs enumeration", True, "argmin and residual agree")


def test_directional_ber_security(ref_cfg, ref_pattern):
    """BER clean at the steered direction, scrambled elsewhere, at 30 dB with
    1e5 bits per probe.

    The steer clause holds with BER 0.  The off-steer band [0.45, 0.55] at
    every angle 20+ degrees out does not hold for this array: the always-on
    fundamental keeps the payload recoverable inside the wide endfire main
    lobe and systematically rotated outside it, so most probes land outside
    the band.  The assert records the measured violations.
    """
    start = time.perf_counter()
    num_symbols = 782 * ref_cfg.num_subcarriers  # 100 096 bits per direction
    steer = ref_cfg.cu_angle_deg
    steer_ber = link_ber(
        ref_cfg, ref_pattern, qpsk(), steer, snr_db=30.0, num_symbols=num_symbols,
        rng=np.random.default_rng(100),
    )
    ok1 = steer_ber <= 1e-3
    report_line(
        "directional link, steered direction", ok1, f"BER {steer_ber:.2e} at 30 dB"
    )
    assert ok1, f"BER at the steered direction is {steer_ber:.2e} (bound 1e-3)"

    probes = np.array(
        [angle for angle in range(-90, 91) if abs(angle - steer) >= 20.0], dtype=float
    )
    rates = ber_vs_angle(
        ref_cfg, ref_pattern, qpsk(), probes, snr_db=30.0, num_symbols=num_symbols, seed=101
    )
    violations = [
        (float(angle), float(rate))
        for angle, rate in zip(probes, rates)
        if not 0.45 <= rate <= 0.55
    ]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f} s, budget 2 min"
    ok2 = not violations
    detail = (
        f"{len(probes) - len(violations)}/{len(probes)} probes inside [0.45, 0.55], "
        f"sweep min {rates.min():.4f} max {rates.max():.4f}, {elapsed:.1f} s"
    )
    report_line("directional link, off-steer band", ok2, detail)
    assert ok2, (
        f"{len(violations)} of {len(probes)} one-degree probes with "
        f"|theta - {steer:.0f}| >= 20 deg fall outside [0.45, 0.55]; "
        f"measured BER spans {rates.min():.4f}..{rates.max():.4f}. "
        f"the fundamental's array factor keeps the link partly coherent far "
        f"from the steer (worst cases: "
        + ", ".join(f"{a:.0f} deg -> {r:.3f}" for a, r in violations[:6])
        + ", ...)"
    )

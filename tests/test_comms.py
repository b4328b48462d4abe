"""Constellations, the AWGN reference channel, and the directional link.

The Monte-Carlo checks compare measured bit error rates against the closed
form Q(sqrt(SNR)) for Gray QPSK with a +-4 sigma binomial band, so they are
deterministic for the pinned seeds but would keep passing under reseeding.
"""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from tmadfrc import (
    comms,
    design_pattern,
    harmonic_coefficients,
    link_ber,
    modulate,
    qpsk,
    scramble_symbols,
)
from tmadfrc.comms import (
    Constellation,
    add_noise,
    awgn,
    ber,
    ber_vs_angle,
    demodulate,
    qpsk_awgn_ber,
    square_qam,
)


def binomial_band(p, n, sigmas=4.0):
    half = sigmas * math.sqrt(p * (1.0 - p) / n)
    return p - half, p + half


def argmin_demodulate(symbols, constellation):
    """Oracle: nearest point over the whole alphabet, first (lowest) label on
    a tie, expanded to bits MSB first."""
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    labels = np.argmin(np.abs(symbols[:, None] - constellation.points[None, :]), axis=1)
    shifts = np.arange(constellation.bits_per_symbol - 1, -1, -1)
    return ((labels[:, None] >> shifts) & 1).ravel().astype(np.uint8)


def integer_qam(order):
    """``square_qam(order)`` scaled to odd-integer rails, so every midpoint
    between neighbouring rail positions is an exact float tie."""
    c = square_qam(order)
    norm = math.sqrt(2.0 * (order - 1) / 3.0)
    return Constellation(f"integer {c.name}", np.round(c.points * norm), c.bits_per_symbol)


# ---------------------------------------------------------------------------
# constellations


def test_qpsk_shape_and_power():
    c = qpsk()
    assert c.name == "QPSK"
    assert c.bits_per_symbol == 2
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, rel=1e-12)
    # the four points are the unit-power corners
    np.testing.assert_allclose(np.abs(c.points), 1.0, rtol=1e-12)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_square_qam_unit_average_power(order):
    c = square_qam(order)
    assert c.points.size == order
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("order", [2, 3, 8, 32])
def test_square_qam_rejects_non_square_orders(order):
    with pytest.raises(ValueError, match="order"):
        square_qam(order)


def test_square_qam_gray_labels_adjacent_points():
    c = square_qam(16)
    step = 2.0 / math.sqrt(10.0)  # rail spacing after unit-power scaling
    pairs = 0
    for l1 in range(16):
        for l2 in range(l1 + 1, 16):
            delta = c.points[l1] - c.points[l2]
            horizontal = math.isclose(abs(delta.real), step) and abs(delta.imag) < 1e-12
            vertical = math.isclose(abs(delta.imag), step) and abs(delta.real) < 1e-12
            if horizontal or vertical:
                assert bin(l1 ^ l2).count("1") == 1, (l1, l2)
                pairs += 1
    assert pairs == 24  # 12 horizontal + 12 vertical neighbour pairs


def test_modulate_demodulate_roundtrip():
    rng = np.random.default_rng(0)
    for c in (qpsk(), square_qam(16)):
        bits = rng.integers(0, 2, size=600 * c.bits_per_symbol)
        symbols = modulate(bits, c)
        assert symbols.shape == (600,)
        np.testing.assert_array_equal(demodulate(symbols, c), bits)


def test_all_zero_bits_hit_label_zero():
    c = qpsk()
    symbols = modulate(np.zeros(10, dtype=int), c)
    np.testing.assert_array_equal(symbols, np.full(5, c.points[0]))


def test_modulate_rejects_non_binary_bits():
    with pytest.raises(ValueError, match="bits"):
        modulate([0, 2], qpsk())


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
def test_modulate_rejects_every_non_binary_value(bad):
    with pytest.raises(ValueError, match="bits"):
        modulate([1, 0, bad, 1], square_qam(16))


@pytest.mark.parametrize("order", [4, 16])
def test_modulate_accepts_float_and_bool_bits(order):
    c = square_qam(order)
    bits = np.random.default_rng(12).integers(0, 2, size=40 * c.bits_per_symbol)
    expected = modulate(bits, c)
    np.testing.assert_array_equal(modulate(bits.astype(float), c), expected)
    np.testing.assert_array_equal(modulate(bits.astype(bool), c), expected)
    np.testing.assert_array_equal(modulate(bits.tolist(), c), expected)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_demodulate_matches_nearest_point_oracle(order):
    c = square_qam(order)
    rng = np.random.default_rng(order)
    bits = rng.integers(0, 2, size=20_000 * c.bits_per_symbol)
    for sigma in (0.05, 0.3, 1.5):  # from clean clusters to far outside the grid
        noise = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)
        noisy = modulate(bits, c) + sigma * noise
        np.testing.assert_array_equal(demodulate(noisy, c), argmin_demodulate(noisy, c))


def test_demodulate_keeps_grid_shape_order():
    c = square_qam(16)
    noisy = np.random.default_rng(13).standard_normal((3, 5, 2)) @ np.array([1.0, 1j])
    np.testing.assert_array_equal(demodulate(noisy, c), argmin_demodulate(noisy, c))
    np.testing.assert_array_equal(
        demodulate(noisy.T, c), argmin_demodulate(np.ascontiguousarray(noisy.T), c)
    )


def test_qpsk_decision_boundary_goes_to_lower_label():
    c = qpsk()
    rails = [0.0, -0.0, 0.5, -0.5]
    symbols = np.array([complex(re, im) for re in rails for im in rails])
    got = demodulate(symbols, c)
    np.testing.assert_array_equal(got, argmin_demodulate(symbols, c))
    # +0.0 and -0.0 both give bit 0 on their rail
    np.testing.assert_array_equal(got.reshape(-1, 2)[:2], [[0, 0], [0, 0]])


@pytest.mark.parametrize("order", [4, 16, 64])
def test_every_decision_boundary_goes_to_lower_label(order):
    c = integer_qam(order)
    side = math.isqrt(order)
    # every position and every boundary of the rail, plus points beyond both ends
    rail = np.arange(-side - 2, side + 3, dtype=float)
    symbols = (rail[:, None] + 1j * rail[None, :]).ravel()
    np.testing.assert_array_equal(demodulate(symbols, c), argmin_demodulate(symbols, c))


def test_demodulate_takes_rail_scale_from_points():
    base = square_qam(64)
    scaled = Constellation("64-QAM x 2.5", 2.5 * base.points, base.bits_per_symbol)
    rng = np.random.default_rng(14)
    noisy = 2.5 * (rng.standard_normal(5000) + 1j * rng.standard_normal(5000))
    np.testing.assert_array_equal(demodulate(noisy, scaled), argmin_demodulate(noisy, scaled))


@pytest.mark.parametrize(
    "points, bits",
    [
        (np.array([1.0, -1.0]), 1),  # BPSK: no square grid
        (square_qam(16).points[::-1], 4),  # labels reversed
        (square_qam(16).points.conj(), 4),  # imaginary rail mirrored
        (-square_qam(16).points, 4),  # negative scale
        (square_qam(16).points.imag + 1j * square_qam(16).points.real, 4),  # rails swapped
        (np.sign(square_qam(16).points.real) + 1j * square_qam(16).points.imag, 4),
        (np.zeros(16, dtype=complex), 4),  # zero scale
        (np.full(16, np.nan + 0j), 4),
    ],
)
def test_constellation_rejects_non_square_gray_grids(points, bits):
    with pytest.raises(ValueError, match="per-rail Gray square grid"):
        Constellation("custom", points, bits)


def test_constellation_rejects_wrong_point_count():
    with pytest.raises(ValueError, match="need 16 points"):
        Constellation("short", square_qam(16).points[:15], 4)


def test_modulate_rejects_partial_symbols():
    with pytest.raises(ValueError, match="multiple"):
        modulate([0, 1, 1], qpsk())


def test_ber_counts_differing_bits():
    assert ber([0, 1, 1, 0], [0, 1, 0, 1]) == pytest.approx(0.5)
    assert ber([1, 1], [1, 1]) == 0.0
    with pytest.raises(ValueError, match="length"):
        ber([0, 1], [0, 1, 1])
    # an empty stream has no error rate (np.mean used to warn and give nan)
    with pytest.raises(ValueError, match="empty"):
        ber([], [])
    rng = np.random.default_rng(8)
    sent, got = rng.integers(0, 2, size=(2, 65_537), dtype=np.uint8)
    assert ber(sent, got) == float(np.mean(sent != got))


# ---------------------------------------------------------------------------
# AWGN reference channel


def test_awgn_noise_power_calibration():
    rng = np.random.default_rng(1)
    signal = np.ones(100_000, dtype=complex)
    noisy = awgn(signal, 7.0, rng)
    measured = float(np.mean(np.abs(noisy - signal) ** 2))
    assert measured == pytest.approx(10.0 ** (-0.7), rel=0.02)


# 3 x 50 000 spans more than one noise block and ends on a ragged one
@pytest.mark.parametrize("shape", [(30, 100), (3, 50_000)], ids=["30x100", "3x50000"])
def test_awgn_follows_documented_seed_map(shape):
    # real block, then imaginary block, from the caller's generator, scaled
    # by sqrt(sigma^2 / 2) with sigma^2 from the signal's mean power, taken
    # as vdot(x, x).real / size
    size = math.prod(shape)
    signal = modulate(np.random.default_rng(15).integers(0, 2, size=4 * size), square_qam(16))
    signal = signal.reshape(shape)
    before = signal.copy()
    got = awgn(signal, 4.0, np.random.default_rng(16))
    np.testing.assert_array_equal(signal, before)  # the caller's array is untouched
    sigma2 = float(np.vdot(signal, signal).real / signal.size) / 10.0 ** (4.0 / 10.0)
    rng = np.random.default_rng(16)
    first = rng.standard_normal(signal.shape)
    second = rng.standard_normal(signal.shape)
    assert np.array_equal(got, signal + np.sqrt(sigma2 / 2.0) * (first + 1j * second))


def test_add_noise_leaves_empty_array_and_stream_alone():
    rng = np.random.default_rng(17)
    empty = np.zeros((0, 4), dtype=complex)
    add_noise(empty, 1.0, rng)
    assert empty.shape == (0, 4)
    assert rng.standard_normal() == np.random.default_rng(17).standard_normal()


@pytest.mark.parametrize("sigma2", [-1.0, math.nan, math.inf, -math.inf])
def test_add_noise_refuses_a_bad_noise_power(sigma2):
    # a negative or NaN power used to write NaN into the caller's array
    rng = np.random.default_rng(19)
    grid = np.ones((4, 6), dtype=complex)
    with pytest.raises(ValueError, match="noise power"):
        add_noise(grid, sigma2, rng)
    assert (grid == 1.0).all()
    assert rng.standard_normal() == np.random.default_rng(19).standard_normal()


@pytest.mark.parametrize("snr_db", [4.0, np.inf])
def test_awgn_of_an_empty_signal_is_empty_and_draws_nothing(snr_db):
    # the mean power of nothing is 0 / 0; an empty signal takes no noise
    rng = np.random.default_rng(20)
    got = awgn(np.zeros((0, 3), dtype=complex), snr_db, rng)
    assert got.shape == (0, 3)
    assert rng.standard_normal() == np.random.default_rng(20).standard_normal()


def test_add_noise_refuses_a_strided_view():
    # a flat copy of a strided view would take the noise and drop it
    grid = np.zeros((4, 6), dtype=complex)
    with pytest.raises(ValueError, match="contiguous"):
        add_noise(grid.T, 1.0, np.random.default_rng(18))
    assert not grid.any()


def test_qpsk_awgn_theory_curve():
    assert qpsk_awgn_ber(10.0) == pytest.approx(0.5 * math.erfc(math.sqrt(5.0)), rel=1e-12)
    assert qpsk_awgn_ber(10.0) == pytest.approx(7.827e-4, rel=1e-3)
    curve = [qpsk_awgn_ber(snr) for snr in (0.0, 5.0, 10.0, 15.0)]
    assert all(a > b for a, b in zip(curve, curve[1:]))


@pytest.mark.parametrize("snr", [math.nan, -math.inf, 4000.0, -4000.0])
def test_qpsk_awgn_ber_refuses_an_snr_without_a_noise_level(snr):
    # +-4000 dB used to raise OverflowError from 10 ** 400, NaN to return NaN
    assert qpsk_awgn_ber(math.inf) == 0.0
    with pytest.raises(ValueError, match="snr_db"):
        qpsk_awgn_ber(snr)


def test_monte_carlo_qpsk_matches_theory():
    rng = np.random.default_rng(2)
    c = qpsk()
    bits = rng.integers(0, 2, size=200_000)
    noisy = awgn(modulate(bits, c), 6.0, rng)
    measured = ber(bits, demodulate(noisy, c))
    lo, hi = binomial_band(qpsk_awgn_ber(6.0), bits.size)
    assert lo < measured < hi


# ---------------------------------------------------------------------------
# directional link


def test_link_ber_at_steer_matches_qpsk_theory(ref_cfg, ref_pattern):
    # at the steered direction scrambling is a pure scalar gain, so the link
    # reduces to QPSK over AWGN at the configured SNR
    measured = link_ber(ref_cfg, ref_pattern, qpsk(), ref_cfg.cu_angle_deg)
    n_bits = 2 * ref_cfg.num_subcarriers * ref_cfg.num_ofdm_symbols
    lo, hi = binomial_band(qpsk_awgn_ber(ref_cfg.snr_db), n_bits)
    assert lo < measured < hi


def test_link_ber_noiseless_at_steer_is_zero(ref_cfg, ref_pattern):
    assert link_ber(ref_cfg, ref_pattern, qpsk(), ref_cfg.cu_angle_deg, snr_db=np.inf) == 0.0


def test_link_ber_rejects_partial_ofdm_symbols(ref_cfg, ref_pattern):
    with pytest.raises(ValueError, match="multiples"):
        link_ber(ref_cfg, ref_pattern, qpsk(), 60.0, num_symbols=65)


@pytest.mark.parametrize("count", [0, -64, 128.0, "128", True, np.float64(128.0)])
def test_link_ber_refuses_non_positive_symbol_count(ref_cfg, ref_pattern, count):
    # zero symbols used to come back as BER nan, negative ones as a NumPy
    # error, a float or a string as a TypeError, and True as one symbol
    with pytest.raises(ValueError, match="positive"):
        link_ber(ref_cfg, ref_pattern, qpsk(), 60.0, num_symbols=count)
    with pytest.raises(ValueError, match="positive"):
        ber_vs_angle(ref_cfg, ref_pattern, qpsk(), [60.0, 40.0], num_symbols=count)


def test_link_ber_invariant_to_common_switching_delay(ref_cfg, ref_pattern):
    # shifting every on-interval by the same fraction of the period leaves
    # the fundamental untouched, and at the steered direction only the
    # fundamental survives: same symbols, same noise draw, same BER
    shifted = dataclasses.replace(ref_pattern, tau_on=(ref_pattern.tau_on + 0.3) % 1.0)
    base = link_ber(ref_cfg, ref_pattern, qpsk(), ref_cfg.cu_angle_deg, snr_db=10.0)
    moved = link_ber(ref_cfg, shifted, qpsk(), ref_cfg.cu_angle_deg, snr_db=10.0)
    assert base == moved


def summed_mixing_matrix(pattern, cfg, theta_deg):
    """Oracle: the N_s x N_s mixing matrix M[s, i] = coefficient(s - i) as the
    explicit sum over elements of steering x weight x duty x sinc x phase,
    sharing no gate, cache or coefficient code with the package."""
    ns = cfg.num_subcarriers
    m = np.subtract.outer(np.arange(ns), np.arange(ns)).astype(float)  # s - i
    sin_theta = math.sin(math.radians(theta_deg))
    mix = np.zeros((ns, ns), dtype=complex)
    for n in range(pattern.num_elements):
        duty, tau = float(pattern.duty[n]), float(pattern.tau_on[n])
        x = np.pi * m * duty
        lobe = np.sin(x) / np.where(m == 0, 1.0, x)
        lobe[m == 0] = 1.0
        steer = cmath.exp(-2j * math.pi * n * cfg.tx_spacing_wavelengths * sin_theta)
        mix += steer * complex(pattern.weights[n]) * duty * lobe * np.exp(
            -1j * np.pi * m * (2.0 * tau + duty)
        )
    return mix


def documented_payload(rng, n_bits):
    """The documented seed -> payload map of ``link_ber``: ceil(n / 8) bytes
    of the stream unpacked MSB first, cut to n bits."""
    return np.unpackbits(np.frombuffer(rng.bytes(-(-n_bits // 8)), np.uint8), count=n_bits)


def old_link_ber(cfg, pattern, constellation, theta_deg, snr_db, count, rng):
    """Oracle: the link chain without the package's slicer, labels or mixing
    (isin check, label matmul, points divided by the reference before mixing
    by the per-element sum, out-of-place noise at mean |x|^2, argmin
    slicing)."""
    k = constellation.bits_per_symbol
    bits = documented_payload(rng, count * k)
    assert np.isin(bits, (0, 1)).all()
    labels = bits.reshape(-1, k) @ (1 << np.arange(k - 1, -1, -1))
    reference = harmonic_coefficients(pattern, cfg, 0, cfg.cu_angle_deg)
    grid = (constellation.points / reference)[labels].reshape(cfg.num_subcarriers, -1)
    received = summed_mixing_matrix(pattern, cfg, theta_deg) @ grid
    if np.isfinite(snr_db):
        sigma2 = float(np.mean(np.abs(received) ** 2)) / 10.0 ** (snr_db / 10.0)
        noise = rng.standard_normal(received.shape) + 1j * rng.standard_normal(received.shape)
        received = received + np.sqrt(sigma2 / 2.0) * noise
    return ber(bits, argmin_demodulate(received, constellation))


@pytest.mark.parametrize("order", [4, 16])
@pytest.mark.parametrize("snr_db", [10.0, np.inf])
def test_link_ber_payload_follows_documented_seed_map(small_cfg, monkeypatch, order, snr_db):
    # 7 subcarriers x 3 symbols: 42 QPSK or 84 16-QAM bits, neither a whole
    # number of bytes, so the last byte is cut
    cfg = dataclasses.replace(small_cfg, num_subcarriers=7)
    pattern = design_pattern(cfg, cfg.cu_angle_deg)
    c = square_qam(order)
    sent = []
    monkeypatch.setattr(comms, "ber", lambda bits, got: sent.append(bits.copy()) or 0.0)
    rng = np.random.default_rng(21)
    link_ber(cfg, pattern, c, 10.0, snr_db=snr_db, num_symbols=21, rng=rng)

    expected_rng = np.random.default_rng(21)
    n_bits = 21 * c.bits_per_symbol
    assert n_bits % 8
    np.testing.assert_array_equal(sent[0], documented_payload(expected_rng, n_bits))
    assert sent[0].dtype == np.uint8
    if np.isfinite(snr_db):  # then the real and the imaginary noise block
        expected_rng.standard_normal(2 * 21)
    assert rng.bit_generator.state == expected_rng.bit_generator.state


@pytest.mark.parametrize("order", [4, 16])
@pytest.mark.parametrize("snr_db", [10.0, np.inf])
def test_ber_vs_angle_matches_old_chain(ref_cfg, ref_pattern, order, snr_db):
    c = square_qam(order)
    angles = np.append(np.linspace(-85.0, 85.0, 19), ref_cfg.cu_angle_deg)
    got = ber_vs_angle(ref_cfg, ref_pattern, c, angles, snr_db=snr_db, num_symbols=512, seed=6)
    children = np.random.SeedSequence(6).spawn(angles.size)
    expected = [
        old_link_ber(ref_cfg, ref_pattern, c, theta, snr_db, 512, np.random.default_rng(child))
        for theta, child in zip(angles, children)
    ]
    np.testing.assert_array_equal(got, expected)


def test_link_ber_refuses_more_than_one_direction(ref_cfg, ref_pattern):
    # [10, 20] used to end in "bit streams differ in length", [10] to pass
    for theta in (np.array([10.0, 20.0]), np.array([10.0]), [10.0]):
        with pytest.raises(ValueError, match="one direction"):
            link_ber(ref_cfg, ref_pattern, qpsk(), theta, num_symbols=64)


def test_ber_vs_angle_refuses_angles_with_two_axes(ref_cfg, ref_pattern):
    with pytest.raises(ValueError, match="1-D"):
        ber_vs_angle(ref_cfg, ref_pattern, qpsk(), np.zeros((2, 2)), num_symbols=64)


# The traced peak of one reference QPSK probe read 857 KB while an int64
# payload lived for the whole probe, and reads 628 KB with the payload drawn
# as bytes and the labels and the equalized alphabet freed before the
# scramble product; the bound keeps that footprint, and with it the probe's
# page-fault churn, from creeping back.
PROBE_PEAK_LIMIT_BYTES = 700_000


def test_link_ber_probe_footprint(ref_cfg, ref_pattern):
    def probe():
        rng = np.random.default_rng(5)
        return link_ber(ref_cfg, ref_pattern, qpsk(), 20.0, snr_db=30.0, rng=rng)

    probe()  # the first probe builds the cached gate
    tracemalloc.start()
    try:
        probe()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PROBE_PEAK_LIMIT_BYTES, f"traced peak {peak} B"


def test_link_ber_leaves_caller_arrays_unchanged(ref_cfg, ref_pattern):
    c = square_qam(16)
    before = (ref_pattern.duty.copy(), ref_pattern.tau_on.copy(), c.points.copy())
    link_ber(ref_cfg, ref_pattern, c, 20.0, snr_db=10.0, num_symbols=512)
    link_ber(ref_cfg, ref_pattern, c, ref_cfg.cu_angle_deg, snr_db=np.inf, num_symbols=512)
    for array, copy in zip((ref_pattern.duty, ref_pattern.tau_on, c.points), before):
        np.testing.assert_array_equal(array, copy)


def test_always_on_array_has_no_security(ref_cfg, ref_pattern):
    """Control experiment: duty 1 removes the harmonics entirely, so one-tap
    equalization recovers the payload perfectly at any angle, while the
    staggered pattern leaves irreducible inter-carrier interference."""
    probe = 40.0
    rng = np.random.default_rng(3)
    c = qpsk()
    bits = rng.integers(0, 2, size=2 * ref_cfg.num_subcarriers * ref_cfg.num_ofdm_symbols)
    grid = modulate(bits, c).reshape(ref_cfg.grid_shape)

    nt = ref_cfg.num_tx_antennas
    all_on = dataclasses.replace(ref_pattern, duty=np.ones(nt), tau_on=np.zeros(nt))
    for pattern, expect_secure in ((all_on, False), (ref_pattern, True)):
        received = scramble_symbols(grid, pattern, ref_cfg, probe)
        gain = harmonic_coefficients(pattern, ref_cfg, 0, probe)
        recovered = ber(bits, demodulate(received / gain, c))
        if expect_secure:
            assert recovered > 0.3
        else:
            assert recovered == 0.0


def test_ber_vs_angle_appending_probes_keeps_streams(ref_cfg, ref_pattern):
    short = ber_vs_angle(
        ref_cfg, ref_pattern, qpsk(), [60.0, 40.0], seed=3, num_symbols=512
    )
    longer = ber_vs_angle(
        ref_cfg, ref_pattern, qpsk(), [60.0, 40.0, 20.0], seed=3, num_symbols=512
    )
    np.testing.assert_array_equal(short, longer[:2])
    # and the whole curve is reproducible
    np.testing.assert_array_equal(
        short, ber_vs_angle(ref_cfg, ref_pattern, qpsk(), [60.0, 40.0], seed=3, num_symbols=512)
    )


def test_ber_vs_angle_notch_at_steer(ref_cfg, ref_pattern):
    curve = ber_vs_angle(ref_cfg, ref_pattern, qpsk(), [60.0, 30.0], seed=4)
    assert curve[0] < 5e-3  # clean QPSK at 10 dB
    assert curve[1] > 0.2  # far off-steer: scrambled beyond use

"""Coarse angle/range/velocity stage.

The deterministic scenario used throughout: a noiseless single target placed
exactly on the angle/range/velocity lattice of the small config, where every
stage of the pipeline has a closed-form outcome (one occupied DFT bin per
axis, peak magnitudes N_r and N_r*N_p*|beta|).
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import qpsk_frame
from tmadfrc import (
    CoarseEstimate,
    DegenerateBinError,
    Frame,
    NoPeaksError,
    Scene,
    Target,
    coarse_pipeline,
    design_pattern,
    radar_returns,
    scramble_symbols,
)
from tmadfrc.coarse import (
    angle_spectrum,
    beam_rows,
    bin_to_angle_deg,
    bin_to_range_m,
    bin_to_velocity_mps,
    descramble,
    detect_peaks,
    peak_threshold,
)
from tmadfrc import model
from tmadfrc.model import derived_resolutions
from tmadfrc.transforms import dft

# one target sitting exactly on all three grids of the small config
ON_GRID_SIN = 0.25  # rx bin 7 of 8 at half-wavelength spacing
ON_GRID_ANGLE = math.degrees(math.asin(ON_GRID_SIN))
ON_GRID_RANGE_BIN = 2
ON_GRID_VELOCITY_BIN = 3


def beam_cube(frame):
    """Every angle bin's beamformed rows, the bin axis first."""
    return np.stack([beam_rows(frame, k) for k in range(frame.cfg.num_rx_antennas)])


@pytest.fixture()
def nb_cfg(small_cfg):
    """Narrowband-Doppler variant: slow-time phase separates exactly."""
    return dataclasses.replace(small_cfg, narrowband_doppler=True)


@pytest.fixture()
def on_grid(nb_cfg):
    """(cfg, pattern, data, grid, target) for the noiseless on-grid scenario."""
    range_res, velocity_res, _ = derived_resolutions(nb_cfg)
    target = Target(
        ON_GRID_ANGLE,
        ON_GRID_RANGE_BIN * range_res,
        ON_GRID_VELOCITY_BIN * velocity_res,
        reflectivity=1.0,
    )
    pattern = design_pattern(nb_cfg, nb_cfg.cu_angle_deg)
    data = qpsk_frame(nb_cfg, seed=5)
    grid = radar_returns(data, pattern, nb_cfg, Scene((target,), snr_db=np.inf))
    return nb_cfg, pattern, data, grid, target


# ---------------------------------------------------------------------------
# peak detection


def test_peak_threshold_median_rule():
    profile = np.array([0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    # median 0 -> the max_factor branch wins
    assert peak_threshold(profile) == pytest.approx(2.5)


def test_peak_threshold_keep_tallest_caps_at_profile_max():
    profile = np.array([4.0, 5.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0])
    assert peak_threshold(profile) == pytest.approx(12.0)  # 3 * median
    capped = peak_threshold(profile, keep_tallest=True)
    assert capped == pytest.approx(5.0)
    # without the cap nothing survives; with it the tallest bin always does
    assert detect_peaks(profile).size == 0
    assert detect_peaks(profile, keep_tallest=True).tolist() == [1]


def test_detect_peaks_simple_profile():
    profile = np.array([0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    assert detect_peaks(profile).tolist() == [2]


def test_detect_peaks_wraps_circularly():
    # bin 0 must see bin -1 as its left neighbour
    profile = np.array([5.0, 1.0, 0.0, 1.0, 1.0])
    assert detect_peaks(profile).tolist() == [0]
    # a tall shoulder at either end is no peak when its far neighbour is taller
    assert detect_peaks(np.array([5.0, 1.0, 0.0, 1.0, 4.0])).tolist() == [0]
    assert detect_peaks(np.array([4.0, 1.0, 0.0, 1.0, 5.0])).tolist() == [4]


def test_detect_peaks_plateau_counts_rightmost_bin():
    profile = np.array([0.0, 2.0, 2.0, 0.0])
    peaks = detect_peaks(profile, keep_tallest=True)
    assert peaks.tolist() == [2]


def test_detect_peaks_singleton_profile():
    profile = np.array([3.0])
    assert detect_peaks(profile, keep_tallest=True).tolist() == [0]
    # 3 * median = 9 exceeds the only value once the cap is off
    assert detect_peaks(profile).size == 0


def test_detect_peaks_flat_profile_keeps_its_last_bin():
    # a flat circular profile is one plateau all round; the plateau rule keeps
    # its rightmost bin when the tallest must be kept, and nothing otherwise
    assert detect_peaks(np.ones(8), keep_tallest=True).tolist() == [7]
    assert detect_peaks(np.ones(8)).size == 0
    assert detect_peaks(np.zeros(8)).size == 0


def test_pipeline_keeps_a_range_bin_of_an_echo_on_one_subcarrier(ref_cfg, ref_pattern, ref_frame):
    # with the echo on subcarrier 0 alone every range bin of a detected angle
    # bin has the same magnitude; the flat profile still yields one range bin
    data, received = ref_frame
    grid = np.zeros_like(received)
    grid[:, 0] = received[:, 0]
    result = coarse_pipeline(Frame(grid, data, ref_pattern, ref_cfg))
    assert result.bins
    for bin_result in result.bins:
        profile = bin_result.range_profile
        np.testing.assert_allclose(profile, profile[0], rtol=1e-12)
        assert bin_result.range_bins.tolist() == [ref_cfg.num_subcarriers - 1]


# ---------------------------------------------------------------------------
# bin-to-physical-value mappings


def test_bin_mappings_reference_values(ref_cfg):
    assert bin_to_angle_deg(20, ref_cfg) == pytest.approx(math.degrees(math.asin(1 / 3)))
    assert bin_to_angle_deg(6, ref_cfg) == pytest.approx(-30.0)
    assert bin_to_range_m(3, ref_cfg) == pytest.approx(58.59375, abs=1e-12)
    assert bin_to_velocity_mps(-4, ref_cfg) == pytest.approx(-9.375, abs=1e-12)


def test_bin_mapping_nan_outside_visible_region(ref_cfg):
    # quarter-wavelength spacing maps some bins beyond |sin| = 1
    squeezed = dataclasses.replace(ref_cfg, rx_spacing_wavelengths=0.25)
    grid = bin_to_angle_deg(np.arange(squeezed.num_rx_antennas), squeezed)
    assert np.isnan(grid).any()
    assert np.isfinite(grid[0])  # boresight always maps


@pytest.mark.parametrize(
    "changes",
    [
        {},
        {"rx_spacing_wavelengths": 0.25},
        # bin 2 of 3 lands on endfire, sin(theta) = 1 up to rounding
        {"num_rx_antennas": 3, "rx_spacing_wavelengths": 1 / 3},
    ],
)
def test_bin_mapping_matches_derived_angle_grid(ref_cfg, changes):
    cfg = dataclasses.replace(ref_cfg, **changes)
    mapped = bin_to_angle_deg(np.arange(cfg.num_rx_antennas), cfg)
    np.testing.assert_array_equal(mapped, derived_resolutions(cfg)[2])
    assert not np.isnan(mapped).all()


# ---------------------------------------------------------------------------
# angle stage


def test_angle_spectrum_concentrates_on_grid_target(on_grid):
    # the occupied bin's power is N_r^2 times the mean scrambled power
    cfg, pattern, data, grid, target = on_grid
    frame = Frame(grid, data, pattern, cfg)
    spectrum = angle_spectrum(frame)
    assert spectrum.shape == (cfg.num_rx_antennas,)
    assert beam_cube(frame).shape == cfg.returns_shape
    assert int(np.argmax(spectrum)) == 7
    scrambled = scramble_symbols(data, pattern, cfg, target.angle_deg)
    expected = cfg.num_rx_antennas**2 * np.mean(np.abs(scrambled) ** 2)
    assert spectrum[7] == pytest.approx(expected, rel=1e-10)
    others = np.delete(spectrum, 7)
    assert others.min() >= 0.0
    assert others.max() < 1e-9 * spectrum[7]


def test_angle_spectrum_beams_match_steered_sum(on_grid):
    # the occupied beam equals N_r times the single-target contribution
    cfg, pattern, data, grid, target = on_grid
    rows = beam_rows(Frame(grid, data, pattern, cfg), 7)
    scrambled = scramble_symbols(data, pattern, cfg, target.angle_deg)
    s = np.arange(cfg.num_subcarriers)
    mu = np.arange(cfg.num_ofdm_symbols)
    ramp = np.exp(
        -2j * np.pi * s * cfg.subcarrier_spacing_hz * 2.0 * target.range_m / cfg.c
    )
    doppler = 2.0 * target.velocity_mps * cfg.carrier_freq_hz / cfg.c
    slow = np.exp(2j * np.pi * cfg.symbol_duration_s * doppler * mu)
    expected = cfg.num_rx_antennas * scrambled * ramp[:, None] * slow[None, :]
    np.testing.assert_allclose(rows, expected, rtol=1e-10, atol=1e-9)


def test_noise_only_grid_raises_no_peaks(small_cfg):
    # 50 white-noise cubes: no angle bin rises above the threshold in any
    rng = np.random.default_rng(0)
    data = qpsk_frame(small_cfg, seed=1)
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    for _ in range(50):
        grid = rng.standard_normal(small_cfg.returns_shape) + 1j * rng.standard_normal(
            small_cfg.returns_shape
        )
        with pytest.raises(NoPeaksError):
            coarse_pipeline(Frame(grid, data, pattern, small_cfg))


def oracle_angle_bins(grid, cfg):
    """Angle bins of the statistic the beam power replaced, the |DFT| across
    receive elements summed over subcarriers and symbols, under the same
    peak rule and the same visible-bin filter."""
    bins = detect_peaks(np.abs(np.fft.fft(grid, axis=0)).sum((1, 2)))
    return bins[~np.isnan(bin_to_angle_deg(bins, cfg))].tolist()


@pytest.mark.parametrize(
    "beta", [(1, 1, 1), (0.5, 1, 1), (1, 0.5, 1), (1, 1, 0.5), (1, 1, 0.3)], ids=str
)
def test_beam_power_detects_the_bins_of_the_magnitude_oracle(
    ref_cfg, ref_scene, ref_pattern, beta
):
    # reflectivities beta for the (20, 22, -30 deg) targets, 10 dB SNR
    targets = tuple(
        dataclasses.replace(t, reflectivity=complex(b)) for t, b in zip(ref_scene.targets, beta)
    )
    data = qpsk_frame(ref_cfg, seed=7)
    for seed in range(5):
        grid = radar_returns(data, ref_pattern, ref_cfg, Scene(targets, seed=seed))
        result = coarse_pipeline(Frame(grid, data, ref_pattern, ref_cfg))
        expected = oracle_angle_bins(grid, ref_cfg)
        assert expected and [b.angle_bin for b in result.bins] == expected


# ---------------------------------------------------------------------------
# descrambling


def descramble_on_grid(cfg, pattern, data, grid, target):
    """Angle bin 7 of the on-grid frame, descrambled toward the target."""
    rows = beam_rows(Frame(grid, data, pattern, cfg), 7)
    reference = scramble_symbols(data, pattern, cfg, target.angle_deg)
    return descramble(rows, reference, target.angle_deg)


def test_descramble_recovers_pure_ramp(on_grid):
    cfg, pattern, data, grid, target = on_grid
    result = descramble_on_grid(cfg, pattern, data, grid, target)
    assert not result.masked.any()
    # data dependence cancels: quotient is N_r * ramp x slow-time
    s = np.arange(cfg.num_subcarriers)
    mu = np.arange(cfg.num_ofdm_symbols)
    ramp = np.exp(
        -2j * np.pi * s * cfg.subcarrier_spacing_hz * 2.0 * target.range_m / cfg.c
    )
    doppler = 2.0 * target.velocity_mps * cfg.carrier_freq_hz / cfg.c
    slow = np.exp(2j * np.pi * cfg.symbol_duration_s * doppler * mu)
    expected = cfg.num_rx_antennas * ramp[:, None] * slow[None, :]
    np.testing.assert_allclose(result.symbols, expected, rtol=1e-9)


def test_descramble_masks_guarded_entries(small_cfg):
    # all-on pattern at boresight scrambles by a pure scalar N_t, so zeroed
    # data symbols give exactly-zero references the guard must mask
    nt = small_cfg.num_tx_antennas
    pattern = design_pattern(small_cfg, 0.0)
    pattern = dataclasses.replace(pattern, duty=np.ones(nt), tau_on=np.zeros(nt))
    data = qpsk_frame(small_cfg, seed=3)
    flat = data.ravel().copy()
    n_zero = int(0.05 * flat.size)
    flat[:n_zero] = 0.0
    data = flat.reshape(data.shape)
    rows = np.ones(small_cfg.grid_shape, dtype=complex)
    result = descramble(rows, scramble_symbols(data, pattern, small_cfg, 0.0), 0.0)
    assert result.masked.mean() == pytest.approx(n_zero / flat.size, abs=1e-12)
    assert np.all(result.symbols[result.masked] == 0.0)
    np.testing.assert_allclose(result.symbols[~result.masked], 1.0 / (nt * data[~result.masked]))


def test_descramble_rejects_degenerate_direction(small_cfg):
    pattern = design_pattern(small_cfg, 0.0)
    nt = small_cfg.num_tx_antennas
    pattern = dataclasses.replace(pattern, duty=np.ones(nt), tau_on=np.zeros(nt))
    data = qpsk_frame(small_cfg, seed=3)
    flat = data.ravel().copy()
    flat[: int(0.2 * flat.size)] = 0.0
    data = flat.reshape(data.shape)
    rows = np.ones(small_cfg.grid_shape, dtype=complex)
    with pytest.raises(DegenerateBinError, match="guard"):
        descramble(rows, scramble_symbols(data, pattern, small_cfg, 0.0), 0.0)


def test_descramble_guard_scales_by_the_upper_median(small_cfg):
    # n is even; the sorted magnitudes' middle pair is (0.9, 1.1), so the
    # guard is 1e-3 * 1.1: a symbol of magnitude 0.00105 is masked, which a
    # guard on the mean of the pair (1e-3 * 1.0) would divide
    n_s, n_p = small_cfg.grid_shape
    reference = np.full(n_s * n_p, 1.1 + 0j)
    reference[: n_s * n_p // 2] = 0.9j
    reference[0] = -0.00105
    reference = reference.reshape(n_s, n_p)
    result = descramble(np.ones_like(reference), reference, 0.0)
    assert np.flatnonzero(result.masked).tolist() == [0]
    assert result.symbols[0, 0] == 0.0


@pytest.mark.parametrize("nonzero", [0, 1])
def test_descramble_refuses_a_reference_that_is_mostly_zero(small_cfg, nonzero):
    # an upper median magnitude of 0 puts the guard at 0; the guard masks
    # the zeros at or below it, at least half the grid, so an all-zero
    # payload or a payload with one non-zero symbol is refused instead of
    # divided by 0
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    data = np.zeros(small_cfg.grid_shape, dtype=complex)
    data[2, 3] = nonzero
    rows = np.ones(small_cfg.grid_shape, dtype=complex)
    with pytest.raises(DegenerateBinError, match="guard"):
        descramble(rows, scramble_symbols(data, pattern, small_cfg, 10.0), 10.0)


# ---------------------------------------------------------------------------
# range / velocity stages on the separable scenario


def test_range_profile_single_bin(on_grid):
    cfg, pattern, data, grid, target = on_grid
    (bin_result,) = coarse_pipeline(Frame(grid, data, pattern, cfg)).bins
    assert bin_result.angle_bin == 7
    profile = bin_result.range_profile
    assert int(np.argmax(profile)) == ON_GRID_RANGE_BIN
    assert profile[ON_GRID_RANGE_BIN] == pytest.approx(cfg.num_rx_antennas, rel=1e-9)
    others = np.delete(profile, ON_GRID_RANGE_BIN)
    assert others.max() < 1e-9 * profile[ON_GRID_RANGE_BIN]


def test_velocity_spectrum_single_bin_with_known_magnitude(on_grid):
    cfg, pattern, data, grid, target = on_grid
    (bin_result,) = coarse_pipeline(Frame(grid, data, pattern, cfg)).bins
    assert bin_result.range_bins.tolist() == [ON_GRID_RANGE_BIN]
    spec = bin_result.velocity_spectra[0]
    assert int(np.argmax(spec)) == ON_GRID_VELOCITY_BIN  # positive bin: DFT order
    assert spec[ON_GRID_VELOCITY_BIN] == pytest.approx(
        cfg.num_rx_antennas * cfg.num_ofdm_symbols, rel=1e-9
    )


# ---------------------------------------------------------------------------
# full pipeline


def test_pipeline_recovers_on_grid_target_exactly(on_grid):
    cfg, pattern, data, grid, target = on_grid
    result = coarse_pipeline(Frame(grid, data, pattern, cfg))
    assert len(result.estimates) == 1
    est = result.estimates[0]
    assert isinstance(est, CoarseEstimate)
    assert est.angle_bin == 7
    assert est.range_bin == ON_GRID_RANGE_BIN
    assert est.velocity_bin == ON_GRID_VELOCITY_BIN
    assert est.angle_deg == pytest.approx(target.angle_deg, abs=1e-9)
    assert est.range_m == pytest.approx(target.range_m, abs=1e-9)
    assert est.velocity_mps == pytest.approx(target.velocity_mps, abs=1e-9)
    assert len(result.bins) == 1
    reference = scramble_symbols(data, pattern, cfg, est.angle_deg)
    rows = beam_rows(Frame(grid, data, pattern, cfg), est.angle_bin)
    assert not descramble(rows, reference, est.angle_deg).masked.any()


def test_pipeline_pairs_velocities_with_their_range_bin(nb_cfg):
    # two targets in one angle bin, different ranges, different velocities:
    # each velocity estimate must belong to its own range bin
    range_res, velocity_res, _ = derived_resolutions(nb_cfg)
    targets = (
        Target(ON_GRID_ANGLE, 1 * range_res, 2 * velocity_res, reflectivity=1.0),
        Target(ON_GRID_ANGLE, 5 * range_res, -3 * velocity_res, reflectivity=1.0),
    )
    pattern = design_pattern(nb_cfg, nb_cfg.cu_angle_deg)
    data = qpsk_frame(nb_cfg, seed=8)
    grid = radar_returns(data, pattern, nb_cfg, Scene(targets, snr_db=np.inf))
    result = coarse_pipeline(Frame(grid, data, pattern, nb_cfg))
    assert len(result.bins) == 1
    pipeline = result.bins[0]
    assert pipeline.range_bins.tolist() == [1, 5]
    rows = {(e.range_bin, e.velocity_bin) for e in result.estimates}
    assert rows == {(1, 2), (5, -3)}


def test_pipeline_two_targets_same_bin_sum_coherently(nb_cfg):
    # the occupied beam is N_r times the sum of both contributions
    range_res, velocity_res, _ = derived_resolutions(nb_cfg)
    targets = (
        Target(ON_GRID_ANGLE, 1 * range_res, 2 * velocity_res, reflectivity=0.8 + 0.1j),
        Target(ON_GRID_ANGLE, 5 * range_res, -3 * velocity_res, reflectivity=-0.5j),
    )
    pattern = design_pattern(nb_cfg, nb_cfg.cu_angle_deg)
    data = qpsk_frame(nb_cfg, seed=8)
    grid = radar_returns(data, pattern, nb_cfg, Scene(targets, snr_db=np.inf))
    beams = dft(grid, axis=0)
    s = np.arange(nb_cfg.num_subcarriers)
    mu = np.arange(nb_cfg.num_ofdm_symbols)
    scrambled = scramble_symbols(data, pattern, nb_cfg, ON_GRID_ANGLE)
    expected = np.zeros(nb_cfg.grid_shape, dtype=complex)
    for target in targets:
        ramp = np.exp(
            -2j * np.pi * s * nb_cfg.subcarrier_spacing_hz * 2.0 * target.range_m / nb_cfg.c
        )
        doppler = 2.0 * target.velocity_mps * nb_cfg.carrier_freq_hz / nb_cfg.c
        slow = np.exp(2j * np.pi * nb_cfg.symbol_duration_s * doppler * mu)
        expected += target.reflectivity * scrambled * ramp[:, None] * slow[None, :]
    np.testing.assert_allclose(
        beams[7], nb_cfg.num_rx_antennas * expected, rtol=1e-9, atol=1e-9
    )


def test_pipeline_bins_invariant_to_global_scaling(on_grid):
    cfg, pattern, data, grid, _ = on_grid
    base = coarse_pipeline(Frame(grid, data, pattern, cfg))
    scaled = coarse_pipeline(Frame((0.3 - 1.7j) * grid, data, pattern, cfg))
    base_rows = [(e.angle_bin, e.range_bin, e.velocity_bin) for e in base.estimates]
    scaled_rows = [(e.angle_bin, e.range_bin, e.velocity_bin) for e in scaled.estimates]
    assert base_rows == scaled_rows


def test_pipeline_reference_frame_bins(ref_cfg, ref_pattern, ref_frame):
    """The packaged scene resolves to its known angle/range/velocity bins."""
    data, received = ref_frame
    result = coarse_pipeline(Frame(received, data, ref_pattern, ref_cfg))
    rows = {(e.angle_bin, e.range_bin, e.velocity_bin) for e in result.estimates}
    assert rows == {(20, 3, -4), (20, 3, 4), (6, 6, 9)}


@pytest.fixture()
def ragged_frame(small_cfg):
    """(cfg, pattern, data, grid): a noisy two-target frame of 12 receive
    elements and 48 x 50 = 2400 snapshots, so the default snapshot block
    leaves a ragged last block."""
    cfg = dataclasses.replace(
        small_cfg, num_rx_antennas=12, num_subcarriers=48, num_ofdm_symbols=50
    )
    range_res, velocity_res, _ = derived_resolutions(cfg)
    targets = (
        Target(20.0, 5.3 * range_res, 2.4 * velocity_res, reflectivity=1.0),
        Target(40.0, 11.8 * range_res, -6.2 * velocity_res, reflectivity=0.8),
    )
    pattern = design_pattern(cfg, cfg.cu_angle_deg)
    data = qpsk_frame(cfg, seed=3)
    grid = radar_returns(data, pattern, cfg, Scene(targets, seed=5, snr_db=10.0))
    assert (cfg.num_subcarriers * cfg.num_ofdm_symbols) % model._SNAPSHOT_BLOCK != 0
    return cfg, pattern, data, grid


@pytest.mark.parametrize("block", [None, 7])
def test_blocked_angle_stage_matches_full_cube_dft(monkeypatch, ragged_frame, block):
    """The beam power from the snapshot-blocked covariance and the per-bin
    beamforming product agree with one DFT of the whole cube (only the
    summation order differs)."""
    if block is not None:
        monkeypatch.setattr(model, "_SNAPSHOT_BLOCK", block)
    cfg, pattern, data, grid = ragged_frame
    full = dft(grid, axis=0)
    frame = Frame(grid, data, pattern, cfg)
    spectrum = angle_spectrum(frame)
    np.testing.assert_allclose(spectrum, np.mean(np.abs(full) ** 2, axis=(1, 2)), rtol=1e-12)
    np.testing.assert_allclose(beam_cube(frame), full, rtol=1e-12)
    result = coarse_pipeline(frame)
    assert [b.angle_bin for b in result.bins] == [8, 10]
    np.testing.assert_array_equal(result.spectrum, spectrum)
    for bin_result in result.bins:
        rows = beam_rows(frame, bin_result.angle_bin)
        assert rows.flags.owndata  # not a view of a beam cube
        np.testing.assert_allclose(rows, full[bin_result.angle_bin], rtol=1e-12)

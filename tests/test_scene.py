"""Return synthesis against a scalar oracle, noise calibration, and grid files.

The oracle builds each receive sample with explicit per-(m, s, mu) scalar
phase arithmetic on top of scramble_symbols (itself verified independently in
test_tma), so any indexing or sign slip in the vectorized synthesis shows up.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from tmadfrc import (
    ConfigError,
    GridFormatError,
    Scene,
    SceneError,
    Target,
    awgn,
    design_pattern,
    link_ber,
    qpsk,
    radar_returns,
    read_grid,
    scramble_symbols,
    harmonic_coefficients,
    load_scene,
    scene_from_dict,
    scene_to_dict,
    validate_scene,
    write_grid,
)
from tmadfrc import scene as scene_module
from tmadfrc.model import write_document

from conftest import qpsk_frame


def oracle_returns(data, pattern, cfg, targets):
    """Noiseless per-sample reconstruction with scalar loops."""
    out = np.zeros(cfg.returns_shape, dtype=complex)
    for target in targets:
        scrambled = scramble_symbols(data, pattern, cfg, target.angle_deg)
        sin_theta = math.sin(math.radians(target.angle_deg))
        for m in range(cfg.num_rx_antennas):
            steer = cmath.exp(-2j * math.pi * m * cfg.rx_spacing_wavelengths * sin_theta)
            for s in range(cfg.num_subcarriers):
                range_phase = cmath.exp(
                    -2j
                    * math.pi
                    * s
                    * cfg.subcarrier_spacing_hz
                    * 2.0
                    * target.range_m
                    / cfg.c
                )
                doppler_hz = (
                    2.0
                    * target.velocity_mps
                    * (cfg.carrier_freq_hz + s * cfg.subcarrier_spacing_hz)
                    / cfg.c
                )
                for mu in range(cfg.num_ofdm_symbols):
                    slow = cmath.exp(2j * math.pi * mu * cfg.symbol_duration_s * doppler_hz)
                    out[m, s, mu] += (
                        target.reflectivity * steer * range_phase * slow * scrambled[s, mu]
                    )
    return out


@pytest.fixture
def small_pattern(small_cfg):
    return design_pattern(small_cfg, small_cfg.cu_angle_deg)


def test_returns_match_scalar_oracle(small_cfg, small_pattern):
    targets = (
        Target(12.0, 300.0, 40.0, reflectivity=1.3 - 0.2j),
        Target(-25.0, 700.0, -90.0, reflectivity=0.4 + 0.9j),
    )
    data = qpsk_frame(small_cfg, seed=21)
    got = radar_returns(data, small_pattern, small_cfg, Scene(targets, snr_db=math.inf))
    expected = oracle_returns(data, small_pattern, small_cfg, targets)
    assert np.max(np.abs(got - expected)) < 1e-10


def test_superposition_of_targets(small_cfg, small_pattern):
    a = Target(5.0, 200.0, 10.0)
    b = Target(-40.0, 900.0, -120.0, reflectivity=2.0j)
    data = qpsk_frame(small_cfg, seed=22)
    both = radar_returns(data, small_pattern, small_cfg, Scene((a, b), snr_db=math.inf))
    only_a = radar_returns(data, small_pattern, small_cfg, Scene((a,), snr_db=math.inf))
    only_b = radar_returns(data, small_pattern, small_cfg, Scene((b,), snr_db=math.inf))
    assert np.max(np.abs(both - (only_a + only_b))) < 1e-12


def test_cu_direction_target_collapses_to_steering(small_cfg, small_pattern):
    # Angle at the steered direction, zero range and velocity: every phase
    # term drops except the receive steering vector and the fundamental gain.
    data = qpsk_frame(small_cfg, seed=23)
    scene = Scene((Target(small_cfg.cu_angle_deg, 0.0, 0.0),), snr_db=math.inf)
    got = radar_returns(data, small_pattern, small_cfg, scene)
    gain = harmonic_coefficients(small_pattern, small_cfg, 0, small_cfg.cu_angle_deg)
    m = np.arange(small_cfg.num_rx_antennas)
    steer = np.exp(
        -2j
        * np.pi
        * m
        * small_cfg.rx_spacing_wavelengths
        * math.sin(math.radians(small_cfg.cu_angle_deg))
    )
    expected = gain * steer[:, None, None] * data[None, :, :]
    assert np.max(np.abs(got - expected)) < 1e-10


def test_empty_scene_noise_calibration(ref_cfg, ref_pattern):
    # With no targets the reference power is 1, so the sample variance must
    # sit within a few percent of 10^(-snr/10) over ~400k samples.
    data = qpsk_frame(ref_cfg, seed=24)
    got = radar_returns(data, ref_pattern, ref_cfg, Scene((), seed=3, snr_db=10.0))
    sigma2 = 10.0 ** (-10.0 / 10.0)
    assert np.mean(np.abs(got) ** 2) == pytest.approx(sigma2, rel=0.05)


def test_empty_scene_noise_follows_documented_seed_map(ref_cfg, ref_pattern):
    # The seed -> noise map, bit for bit: the real block, then the imaginary
    # block, drawn from default_rng(seed) and scaled by sqrt(sigma^2 / 2).
    data = qpsk_frame(ref_cfg, seed=24)
    got = radar_returns(data, ref_pattern, ref_cfg, Scene((), seed=3, snr_db=10.0))
    sigma2 = 1.0 / 10.0 ** (10.0 / 10.0)
    rng = np.random.default_rng(3)
    first = rng.standard_normal(ref_cfg.returns_shape)
    second = rng.standard_normal(ref_cfg.returns_shape)
    assert np.array_equal(got, np.sqrt(sigma2 / 2.0) * (first + 1j * second))


def test_noiseless_empty_scene_is_exact_zeros(small_cfg, small_pattern):
    data = qpsk_frame(small_cfg, seed=31)
    got = radar_returns(data, small_pattern, small_cfg, Scene((), snr_db=math.inf))
    assert got.shape == small_cfg.returns_shape
    assert got.dtype == np.complex128
    assert np.array_equal(got, np.zeros(small_cfg.returns_shape, dtype=complex))


def test_same_angle_targets_superpose(small_cfg, small_pattern):
    a = Target(-15.0, 250.0, 30.0, reflectivity=0.7 + 0.4j)
    b = Target(-15.0, 800.0, -60.0, reflectivity=-1.1j)
    data = qpsk_frame(small_cfg, seed=32)
    both = radar_returns(data, small_pattern, small_cfg, Scene((a, b), snr_db=math.inf))
    only_a = radar_returns(data, small_pattern, small_cfg, Scene((a,), snr_db=math.inf))
    only_b = radar_returns(data, small_pattern, small_cfg, Scene((b,), snr_db=math.inf))
    assert np.max(np.abs(both - (only_a + only_b))) < 1e-12


def test_snr_definition_relative_to_signal(small_cfg, small_pattern):
    data = qpsk_frame(small_cfg, seed=25)
    scene = Scene((Target(10.0, 400.0, 50.0),), seed=9, snr_db=0.0)
    clean = radar_returns(
        data, small_pattern, small_cfg, dataclasses.replace(scene, snr_db=math.inf)
    )
    noisy = radar_returns(data, small_pattern, small_cfg, scene)
    noise_power = np.mean(np.abs(noisy - clean) ** 2)
    # 0 dB: noise power equals signal power (tolerance from the sample size)
    assert noise_power == pytest.approx(np.mean(np.abs(clean) ** 2), rel=0.15)


def test_narrowband_flag_bounds_the_phase_error(small_cfg, small_pattern):
    target = Target(8.0, 500.0, 100.0)
    data = np.ones(small_cfg.grid_shape, dtype=complex)
    wideband = radar_returns(
        data, small_pattern, small_cfg, Scene((target,), snr_db=math.inf)
    )
    narrow_cfg = dataclasses.replace(small_cfg, narrowband_doppler=True)
    narrowband = radar_returns(
        data, design_pattern(narrow_cfg, narrow_cfg.cu_angle_deg), narrow_cfg,
        Scene((target,), snr_db=math.inf),
    )
    phase_error = np.abs(np.angle(wideband * narrowband.conj()))
    bound = (
        2.0
        * math.pi
        * (small_cfg.num_ofdm_symbols - 1)
        * small_cfg.symbol_duration_s
        * 2.0
        * target.velocity_mps
        * (small_cfg.num_subcarriers - 1)
        * small_cfg.subcarrier_spacing_hz
        / small_cfg.c
    )
    assert np.max(phase_error) <= bound + 1e-12
    # the bound is attained at the far corner of the grid
    assert phase_error[:, -1, -1] == pytest.approx(bound, rel=1e-9)


def test_fixed_seed_reproducible(small_cfg, small_pattern):
    data = qpsk_frame(small_cfg, seed=26)
    scene = Scene((Target(0.0, 100.0, 0.0),), seed=77, snr_db=5.0)
    first = radar_returns(data, small_pattern, small_cfg, scene)
    second = radar_returns(data, small_pattern, small_cfg, scene)
    assert np.array_equal(first, second)
    other = radar_returns(
        data, small_pattern, small_cfg, dataclasses.replace(scene, seed=78)
    )
    assert not np.array_equal(first, other)


def test_scene_snr_defers_to_config(small_cfg, small_pattern):
    data = qpsk_frame(small_cfg, seed=27)
    deferred = Scene((Target(0.0, 100.0, 0.0),), seed=1, snr_db=None)
    explicit = Scene((Target(0.0, 100.0, 0.0),), seed=1, snr_db=small_cfg.snr_db)
    assert np.array_equal(
        radar_returns(data, small_pattern, small_cfg, deferred),
        radar_returns(data, small_pattern, small_cfg, explicit),
    )


def test_too_many_distinct_angles_rejected(small_cfg, small_pattern):
    cfg = dataclasses.replace(small_cfg, num_rx_antennas=3)
    targets = tuple(Target(a, 100.0, 0.0) for a in (-20.0, 0.0, 20.0))
    with pytest.raises(SceneError, match="distinct"):
        validate_scene(Scene(targets), cfg)
    # duplicated angles count once
    validate_scene(Scene((Target(0.0, 100.0, 0.0), Target(0.0, 200.0, 5.0))), cfg)


def test_out_of_window_target_is_refused(small_cfg, small_pattern):
    data = qpsk_frame(small_cfg, seed=28)
    scene = Scene((Target(0.0, small_cfg.range_window_m * 2.0, 0.0),), snr_db=math.inf)
    with pytest.raises(SceneError, match="unambiguous window"):
        radar_returns(data, small_pattern, small_cfg, scene)


def test_radar_returns_refuses_non_finite_target(small_cfg, small_pattern):
    data = qpsk_frame(small_cfg, 0)
    scene = Scene((Target(10.0, math.nan, 0.0),), snr_db=math.inf)
    with pytest.raises(SceneError, match="finite"):
        radar_returns(data, small_pattern, small_cfg, scene)


# --- the SNR rule: +inf is noise-free, NaN, -inf and beyond +-3082 dB name no noise level


def _noisy_frame(cfg, pattern, scene):
    return radar_returns(qpsk_frame(cfg, seed=40), pattern, cfg, scene)


ONE_TARGET = (Target(10.0, 30.0, 5.0),)
SNR_SITES = {
    "config": (
        ConfigError,
        lambda cfg, pattern, snr, seed: _noisy_frame(
            dataclasses.replace(cfg, snr_db=snr), pattern, Scene(ONE_TARGET, seed)
        ),
    ),
    "scene": (
        SceneError,
        lambda cfg, pattern, snr, seed: _noisy_frame(cfg, pattern, Scene(ONE_TARGET, seed, snr)),
    ),
    "awgn": (
        ValueError,
        lambda cfg, pattern, snr, seed: awgn(
            qpsk_frame(cfg, seed=41), snr, np.random.default_rng(seed)
        ),
    ),
    "link_ber": (
        ValueError,
        lambda cfg, pattern, snr, seed: link_ber(
            cfg, pattern, qpsk(), cfg.cu_angle_deg, snr, rng=np.random.default_rng(seed)
        ),
    ),
}


@pytest.mark.parametrize(
    "snr", [math.nan, -math.inf, 4000.0, -4000.0], ids=["nan", "minus_inf", "4000", "minus_4000"]
)
@pytest.mark.parametrize("site", SNR_SITES)
def test_snr_without_a_noise_level_is_refused(small_cfg, small_pattern, site, snr):
    error, run = SNR_SITES[site]
    with pytest.raises(error, match="snr_db"):
        run(small_cfg, small_pattern, snr, 1)


@pytest.mark.parametrize("site", SNR_SITES)
def test_infinite_snr_is_noise_free(small_cfg, small_pattern, site):
    _, run = SNR_SITES[site]

    def seeds_agree(snr):
        first, second = (run(small_cfg, small_pattern, snr, seed) for seed in (1, 2))
        return np.array_equal(first, second)

    # the seed changes the result at a finite SNR, and nothing at +inf
    assert not seeds_agree(0.0)
    assert seeds_agree(math.inf)


# --- the direction rule: finite and inside [-90, 90] deg -----------------------

DIRECTION_SITES = {
    "scramble_symbols": lambda cfg, pattern, theta: scramble_symbols(
        qpsk_frame(cfg, seed=43), pattern, cfg, theta
    ),
    "link_ber": lambda cfg, pattern, theta: link_ber(cfg, pattern, qpsk(), theta, 10.0),
}


@pytest.mark.parametrize(
    "theta",
    [math.nan, math.inf, -math.inf, 90.5, 200.0],
    ids=["nan", "inf", "minus_inf", "90.5", "200"],
)
@pytest.mark.parametrize("site", DIRECTION_SITES)
def test_direction_outside_the_half_space_is_refused(small_cfg, small_pattern, site, theta):
    # NaN used to give an all-NaN grid (and BER 0.5), 200 a result for 200 deg
    with pytest.raises(ValueError, match="direction"):
        DIRECTION_SITES[site](small_cfg, small_pattern, theta)


@pytest.mark.parametrize("site", DIRECTION_SITES)
def test_endfire_direction_is_a_direction(small_cfg, small_pattern, site):
    for theta in (-90.0, 90.0):
        assert np.isfinite(DIRECTION_SITES[site](small_cfg, small_pattern, theta)).all()


# --- scene serialization -----------------------------------------------------


def test_scene_file_roundtrip(tmp_path, ref_scene):
    path = tmp_path / "scene.json"
    write_document(scene_to_dict(ref_scene), path)
    again = load_scene(path)
    assert again == ref_scene


def test_scene_dict_accepts_bare_target_list():
    scene = scene_from_dict([{"angle_deg": 5.0, "range_m": 10.0, "velocity_mps": 0.0}])
    assert scene.seed == 0 and scene.snr_db is None
    assert scene.targets[0].angle_deg == 5.0


def test_scene_dict_rejects_unknown_keys():
    with pytest.raises(SceneError):
        scene_from_dict({"targets": [], "entropy": 3})
    with pytest.raises(SceneError):
        scene_from_dict(
            {"targets": [{"angle_deg": 0.0, "range_m": 1.0, "velocity_mps": 0.0, "rcs": 2}]}
        )


@pytest.mark.parametrize("seed", [-1, True, False, 1.0])
def test_scene_refuses_a_seed_that_is_no_non_negative_integer(seed):
    # a negative seed used to decode and then fail inside NumPy, True to
    # synthesize as seed 1
    with pytest.raises(SceneError, match="seed"):
        scene_from_dict({"targets": [], "seed": seed})
    with pytest.raises(SceneError, match="seed"):
        Scene((), seed=seed)
    with pytest.raises(SceneError, match="seed"):
        dataclasses.replace(Scene(()), seed=seed)


def test_scene_accepts_a_numpy_integer_seed():
    assert Scene((), seed=np.int64(3)).seed == 3


def test_scene_dict_restores_complex_reflectivity():
    scene = scene_from_dict(
        {
            "targets": [
                {"angle_deg": 0.0, "range_m": 1.0, "velocity_mps": 0.0, "beta": [0.5, -1.5]}
            ]
        }
    )
    assert scene.targets[0].reflectivity == 0.5 - 1.5j
    assert scene_to_dict(scene)["targets"][0]["beta"] == [0.5, -1.5]


# --- binary grid files --------------------------------------------------------


def test_grid_file_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    cube = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    path = tmp_path / "cube.grid"
    write_grid(path, cube)
    assert np.array_equal(read_grid(path), cube)


def test_grid_file_promotes_two_dimensional_input(tmp_path):
    flat = np.arange(12, dtype=complex).reshape(3, 4)
    path = tmp_path / "flat.grid"
    write_grid(path, flat)
    again = read_grid(path)
    assert again.shape == (1, 3, 4)
    assert np.array_equal(again[0], flat)


def test_grid_file_rejects_other_ranks(tmp_path):
    with pytest.raises(GridFormatError):
        write_grid(tmp_path / "bad.grid", np.zeros((2, 2, 2, 2), dtype=complex))


def test_grid_file_refuses_non_finite_values_before_writing(tmp_path):
    cube = np.zeros((2, 3, 4), dtype=complex)
    cube[1, 2, 3] = np.nan
    path = tmp_path / "nan.grid"
    with pytest.raises(GridFormatError, match="non-finite"):
        write_grid(path, cube)
    assert not path.exists()
    # an existing file is left as it was, not truncated
    kept = tmp_path / "kept.grid"
    write_grid(kept, np.ones((2, 3, 4), dtype=complex))
    before = kept.read_bytes()
    cube[1, 2, 3] = np.inf
    with pytest.raises(GridFormatError, match="non-finite"):
        write_grid(kept, cube)
    assert kept.read_bytes() == before


def test_truncated_header_names_byte_counts(tmp_path):
    path = tmp_path / "short.grid"
    path.write_bytes(b"TMAG\x01\x00")
    with pytest.raises(GridFormatError, match="bytes"):
        read_grid(path)


def test_bad_magic_reported_at_byte_zero(tmp_path):
    path = tmp_path / "magic.grid"
    write_grid(path, np.zeros((1, 2, 2), dtype=complex))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"BLOB"
    path.write_bytes(bytes(raw))
    with pytest.raises(GridFormatError, match="byte 0"):
        read_grid(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "version.grid"
    write_grid(path, np.zeros((1, 2, 2), dtype=complex))
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(GridFormatError, match="version"):
        read_grid(path)


def test_truncated_payload_names_byte_offset(tmp_path):
    path = tmp_path / "cut.grid"
    write_grid(path, np.zeros((2, 3, 4), dtype=complex))
    raw = path.read_bytes()
    path.write_bytes(raw[:-17])
    with pytest.raises(GridFormatError, match=f"byte {len(raw) - 17}"):
        read_grid(path)


class EndlessStream:
    """A file that never ends: ``head`` and then zero bytes, like a device or
    a FIFO.  It counts what it hands out and fails on a read to the end or
    past 1 MB, so a reader that does not stop at the size the header promises
    fails here instead of exhausting memory."""

    LIMIT = 1 << 20

    def __init__(self, head=b""):
        self.head = head
        self.served = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self, size=-1):
        if size < 0 or self.served + size > self.LIMIT:
            raise AssertionError(f"read({size}) after {self.served} bytes of an endless stream")
        out = (self.head[self.served :] + bytes(size))[:size]
        self.served += size
        return out


def endless_open(monkeypatch, head=b""):
    stream = EndlessStream(head)
    monkeypatch.setattr(scene_module, "open", lambda path, mode: stream, raising=False)
    return stream


def test_read_grid_refuses_an_endless_zero_stream_after_its_header(monkeypatch):
    stream = endless_open(monkeypatch)
    with pytest.raises(GridFormatError, match="byte 0"):
        read_grid("/dev/zero")
    assert stream.served == scene_module._HEADER.size


def test_read_grid_stops_one_byte_past_the_promised_payload(monkeypatch, tmp_path):
    path = tmp_path / "head.grid"
    write_grid(path, np.zeros((1, 2, 2), dtype=complex))
    stream = endless_open(monkeypatch, path.read_bytes())
    with pytest.raises(GridFormatError, match="runs past byte 88"):
        read_grid("endless.grid")
    assert stream.served == 24 + 64 + 1


def test_read_grid_refuses_a_header_promising_more_than_the_file_holds(tmp_path):
    path = tmp_path / "boast.grid"
    header = scene_module._HEADER.pack(b"TMAG", 1, 2**32 - 1, 2**32 - 1, 2**32 - 1, 0)
    path.write_bytes(header + bytes(32))
    with pytest.raises(GridFormatError, match="truncated at byte 56"):
        read_grid(path)

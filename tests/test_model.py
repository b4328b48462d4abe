"""Configuration validation, derived resolutions, targets, and serialization."""

import cmath
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from tmadfrc import (
    ConfigError,
    Scene,
    SceneError,
    Target,
    config_from_dict,
    config_hash,
    config_to_dict,
    derived_resolutions,
    load_config,
    range_resolution_m,
    validate_scene,
    validate_target,
    velocity_resolution_mps,
)
import tmadfrc
from tmadfrc import coarse, model, refine
from tmadfrc.model import (
    ROUNDED_SPEED_OF_LIGHT,
    SPEED_OF_LIGHT,
    check_symbol_grid,
    document_text,
    signed_bin_index,
    wrapped_bin_frequency,
    wrap_velocity_mps,
    write_document,
)


def test_reference_config_is_valid(ref_cfg):
    assert ref_cfg.num_tx_antennas == 8
    assert ref_cfg.num_rx_antennas == 24
    assert ref_cfg.carrier_freq_hz == 24e9
    assert ref_cfg.rounded_speed_of_light
    assert ref_cfg.c == ROUNDED_SPEED_OF_LIGHT == 3.0e8
    assert ref_cfg.grid_shape == (64, 256)
    assert ref_cfg.returns_shape == (24, 64, 256)


def test_exact_speed_of_light_is_the_default(small_cfg):
    cfg = dataclasses.replace(small_cfg, rounded_speed_of_light=False)
    assert cfg.c == SPEED_OF_LIGHT == 299_792_458.0


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("num_rx_antennas", 0, "num_rx_antennas"),
        ("num_subcarriers", 0, "num_subcarriers"),
        ("carrier_freq_hz", -1.0, "carrier_freq_hz"),
        ("subcarrier_spacing_hz", 0.0, "subcarrier_spacing_hz"),
        ("subcarrier_spacing_hz", math.nan, "subcarrier_spacing_hz"),
        ("tx_spacing_wavelengths", 0.0, "tx_spacing_wavelengths"),
        ("cu_angle_deg", 91.0, "cu_angle_deg"),
        ("snr_db", float("nan"), "snr_db"),
        ("snr_db", -math.inf, "snr_db"),
        ("carrier_freq_hz", math.inf, "carrier_freq_hz"),
        ("subcarrier_spacing_hz", math.inf, "subcarrier_spacing_hz"),
        ("symbol_duration_s", math.inf, "symbol_duration_s"),
        ("tx_spacing_wavelengths", math.inf, "tx_spacing_wavelengths"),
        ("rx_spacing_wavelengths", math.inf, "rx_spacing_wavelengths"),
    ],
)
def test_invalid_configs_name_the_violated_field(small_cfg, field, value, fragment):
    # refused when the config is built, before any computation can use it
    with pytest.raises(ConfigError, match=fragment):
        dataclasses.replace(small_cfg, **{field: value})


def test_infinite_snr_stays_valid(small_cfg):
    # +inf SNR means a noise-free frame, not a broken configuration
    dataclasses.replace(small_cfg, snr_db=math.inf)


def test_symbol_duration_below_useful_length_rejected(small_cfg):
    # 8.0 us is shorter than 1/f_s = 8.333 us, i.e. a negative cyclic prefix.
    with pytest.raises(ConfigError, match="symbol_duration_s"):
        dataclasses.replace(small_cfg, symbol_duration_s=8.0e-6)


def test_zero_cyclic_prefix_is_allowed(small_cfg):
    dataclasses.replace(small_cfg, symbol_duration_s=1.0 / 120e3)


def test_stated_alternative_duration_is_valid(ref_cfg):
    # A shorter published duration (8.92 us) also satisfies every invariant;
    # only the derived velocity bins change.
    dataclasses.replace(ref_cfg, symbol_duration_s=8.92e-6)


def test_reference_resolutions(ref_cfg):
    range_res, velocity_res, angle_grid = derived_resolutions(ref_cfg)
    assert range_res == pytest.approx(19.53125, abs=1e-12)
    assert velocity_res == pytest.approx(2.34375, rel=1e-12)
    # bin 20 beams to arcsin(1/3), bin 6 to arcsin(-1/2)
    assert angle_grid[20] == pytest.approx(math.degrees(math.asin(1.0 / 3.0)), abs=1e-9)
    assert angle_grid[6] == pytest.approx(-30.0, abs=1e-9)
    assert angle_grid[0] == 0.0


def test_single_resolutions_match_derived_resolutions(ref_cfg, small_cfg):
    for cfg in (ref_cfg, small_cfg, dataclasses.replace(ref_cfg, rounded_speed_of_light=False)):
        range_res, velocity_res, _ = derived_resolutions(cfg)
        assert range_resolution_m(cfg) == range_res
        assert velocity_resolution_mps(cfg) == velocity_res
        assert range_res == cfg.c / (2.0 * cfg.num_subcarriers * cfg.subcarrier_spacing_hz)
    # no resolution of an invalid config can be asked for: it is never built
    with pytest.raises(ConfigError, match="subcarrier_spacing_hz"):
        dataclasses.replace(ref_cfg, subcarrier_spacing_hz=-1.0)


def test_windows_are_resolution_times_bin_count(ref_cfg):
    range_res, velocity_res, _ = derived_resolutions(ref_cfg)
    assert ref_cfg.range_window_m == pytest.approx(ref_cfg.num_subcarriers * range_res)
    assert ref_cfg.velocity_window_mps == pytest.approx(
        ref_cfg.num_ofdm_symbols * velocity_res / 2.0
    )


def test_resolution_unaffected_by_repeat_calls(ref_cfg):
    first = derived_resolutions(ref_cfg)
    second = derived_resolutions(ref_cfg)
    assert first[0] == second[0] and first[1] == second[1]
    assert np.array_equal(first[2], second[2], equal_nan=True)


def test_single_subcarrier_range_resolution(small_cfg):
    cfg = dataclasses.replace(small_cfg, num_subcarriers=1)
    range_res, _, _ = derived_resolutions(cfg)
    assert range_res == pytest.approx(cfg.c / (2.0 * cfg.subcarrier_spacing_hz))


def test_angle_grid_nan_outside_visible_region(small_cfg):
    # Quarter-wavelength spacing maps some bins to |sin theta| > 1.
    cfg = dataclasses.replace(small_cfg, rx_spacing_wavelengths=0.25)
    _, _, angle_grid = derived_resolutions(cfg)
    assert np.isnan(angle_grid).any()
    assert np.isfinite(angle_grid).any()


def test_wrapped_bin_frequency():
    assert wrapped_bin_frequency(0, 8) == 0.0
    assert wrapped_bin_frequency(1, 8) == 0.125
    assert wrapped_bin_frequency(3, 8) == 0.375
    assert wrapped_bin_frequency(4, 8) == -0.5
    assert wrapped_bin_frequency(7, 8) == -0.125
    values = wrapped_bin_frequency(np.arange(8), 8)
    assert np.all((values >= -0.5) & (values < 0.5))


def test_signed_bin_index():
    assert signed_bin_index(0, 8) == 0
    assert signed_bin_index(3, 8) == 3
    assert signed_bin_index(4, 8) == -4
    assert signed_bin_index(7, 8) == -1
    # odd length: the upper half starts at (n+1)//2
    assert signed_bin_index(3, 7) == 3
    assert signed_bin_index(4, 7) == -3
    assert np.array_equal(signed_bin_index(np.arange(8), 8), [0, 1, 2, 3, -4, -3, -2, -1])


def test_target_validation(small_cfg):
    ok = Target(angle_deg=10.0, range_m=100.0, velocity_mps=5.0)
    assert validate_target(ok, small_cfg) is ok
    with pytest.raises(SceneError):
        validate_target(Target(10.0, -1.0, 0.0), small_cfg)
    with pytest.raises(SceneError):
        validate_target(Target(95.0, 100.0, 0.0), small_cfg)
    beyond_range = Target(10.0, small_cfg.range_window_m * 1.5, 0.0)
    with pytest.raises(SceneError):
        validate_target(beyond_range, small_cfg)
    too_fast = Target(10.0, 100.0, small_cfg.velocity_window_mps * 1.5)
    with pytest.raises(SceneError):
        validate_target(too_fast, small_cfg)


@pytest.mark.parametrize("in_scene", [False, True])
@pytest.mark.parametrize(
    "field,value",
    [
        ("angle_deg", math.nan),
        ("range_m", math.nan),
        ("range_m", math.inf),
        ("velocity_mps", math.nan),
        ("velocity_mps", math.inf),
        ("velocity_mps", -math.inf),
        ("reflectivity", complex(math.nan, 0.0)),
        ("reflectivity", complex(1.0, math.inf)),
    ],
)
def test_target_validation_refuses_non_finite_parameters(small_cfg, field, value, in_scene):
    # a NaN fails every range comparison, so it must be refused explicitly,
    # alone and as a target of a scene
    target = dataclasses.replace(Target(10.0, 100.0, 5.0), **{field: value})
    with pytest.raises(SceneError, match="finite"):
        if in_scene:
            validate_scene(Scene((target,)), small_cfg)
        else:
            validate_target(target, small_cfg)


# --- echo factors -------------------------------------------------------------


@pytest.mark.parametrize(
    "factor,values,axis,phase",
    [
        pytest.param(
            model.steering_vector,
            (20.0, -30.0, 90.0),
            "num_rx_antennas",
            lambda cfg, theta, m: -2 * math.pi * m * cfg.rx_spacing_wavelengths
            * math.sin(math.radians(theta)),
            id="steering_vector",
        ),
        pytest.param(
            model.range_ramp,
            (120.0, 0.0, 37.25),
            "num_subcarriers",
            lambda cfg, r, s: -2 * math.pi * s * cfg.subcarrier_spacing_hz * 2 * r / cfg.c,
            id="range_ramp",
        ),
        pytest.param(
            model.slow_time_rotation,
            (3.2e3, -1.1e3, 0.0),
            "num_ofdm_symbols",
            lambda cfg, f_d, mu: 2 * math.pi * mu * cfg.symbol_duration_s * f_d,
            id="slow_time_rotation",
        ),
    ],
)
def test_echo_factor_phase_law(ref_cfg, factor, values, axis, phase):
    n = getattr(ref_cfg, axis)
    expected = np.array([[cmath.exp(1j * phase(ref_cfg, v, i)) for i in range(n)] for v in values])
    single = factor(ref_cfg, values[0])
    assert single.shape == (n,)
    assert single[0] == 1.0 + 0.0j
    np.testing.assert_allclose(single, expected[0], rtol=1e-12)
    stacked = factor(ref_cfg, list(values))
    assert stacked.shape == (len(values), n)
    np.testing.assert_allclose(stacked, expected, rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 24, 64, 256, 257])
@pytest.mark.parametrize("shape", [(), (0,), (3,), (3, 64)], ids=str)
def test_phase_powers_match_direct_exponentials(n, shape):
    # every phase step * k lies within +-60 rad, as the echo factors' do
    step = np.random.default_rng(n).uniform(-60.0, 60.0, size=shape) / max(n - 1, 1)
    powers = model._phase_powers(step, n)
    direct = np.exp(1j * np.multiply.outer(step, np.arange(n)))
    assert powers.shape == direct.shape == (*shape, n)
    np.testing.assert_allclose(powers, direct, rtol=1e-13)


def test_echo_factors_keep_their_shapes(ref_cfg):
    n_r, n_s, n_p = ref_cfg.returns_shape
    assert model.steering_vector(ref_cfg, 20.0).shape == (n_r,)
    assert model.steering_vector(ref_cfg, [20.0, -30.0]).shape == (2, n_r)
    assert model.steering_vector(ref_cfg, []).shape == (0, n_r)
    assert model.range_ramp(ref_cfg, [[1.0, 2.0, 3.0]]).shape == (1, 3, n_s)
    assert model.range_ramp(ref_cfg, []).shape == (0, n_s)
    # per-subcarrier Doppler of K targets, as the wideband synthesis passes it
    assert model.slow_time_rotation(ref_cfg, np.ones((3, n_s))).shape == (3, n_s, n_p)
    assert model.slow_time_rotation(ref_cfg, np.ones((0, n_s))).shape == (0, n_s, n_p)


def test_moved_names_keep_their_old_import_paths():
    assert refine.sample_covariance is model.sample_covariance is tmadfrc.sample_covariance
    assert refine.steering_vector is model.steering_vector is tmadfrc.steering_vector
    assert coarse.bin_to_range_m is model.bin_to_range_m is tmadfrc.bin_to_range_m
    assert coarse.bin_to_velocity_mps is model.bin_to_velocity_mps is tmadfrc.bin_to_velocity_mps


def json_roundtrip(cfg):
    return config_from_dict(json.loads(document_text(config_to_dict(cfg))))


def test_config_json_roundtrip_is_bit_exact(ref_cfg):
    assert json_roundtrip(ref_cfg) == ref_cfg
    # repr-based floats survive: perturb by one ulp and the copy still matches
    cfg = dataclasses.replace(
        ref_cfg, symbol_duration_s=np.nextafter(ref_cfg.symbol_duration_s, 1.0)
    )
    assert json_roundtrip(cfg) == cfg


def test_config_rejects_unknown_keys(ref_cfg):
    data = config_to_dict(ref_cfg)
    data["bogus_knob"] = 3
    with pytest.raises(ConfigError, match="bogus_knob"):
        config_from_dict(data)


def test_config_field_types_enforced(ref_cfg):
    data = config_to_dict(ref_cfg)
    data["num_subcarriers"] = 64.5
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = config_to_dict(ref_cfg)
    data["num_subcarriers"] = True
    with pytest.raises(ConfigError):
        config_from_dict(data)
    data = config_to_dict(ref_cfg)
    data["rounded_speed_of_light"] = 1
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_config_hash_tracks_content(ref_cfg):
    assert config_hash(ref_cfg) == config_hash(ref_cfg)
    changed = dataclasses.replace(ref_cfg, snr_db=11.0)
    assert config_hash(changed) != config_hash(ref_cfg)


def test_config_file_roundtrip(tmp_path, ref_cfg):
    path = tmp_path / "cfg.json"
    write_document(config_to_dict(ref_cfg), path)
    assert load_config(path) == ref_cfg
    # the file is plain JSON with the documented keys
    data = json.loads(path.read_text())
    assert data["num_subcarriers"] == 64


@pytest.mark.filterwarnings("ignore:refined \\w+ hit the edge:RuntimeWarning")
def test_estimate_set_traceability(ref_cfg, ref_pattern, ref_frame):
    # every refined row comes from an angle bin that holds a coarse detection
    data, received = ref_frame
    estimates = refine.estimate_targets(received, data, ref_pattern, ref_cfg)
    assert estimates.refined
    bins = {row.angle_bin for row in estimates.coarse}
    assert {row.angle_bin for row in estimates.refined} <= bins


def test_grid_shape_checks(small_cfg):
    good = np.zeros(small_cfg.grid_shape, dtype=np.complex128)
    assert check_symbol_grid(small_cfg, good).shape == small_cfg.grid_shape
    with pytest.raises(ValueError):
        check_symbol_grid(small_cfg, good.T)


def test_grid_checks_reject_non_finite_entries(small_cfg):
    # finite entries whose sum overflows are valid and must pass silently
    huge = np.full(small_cfg.grid_shape, 1e308 + 1e308j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_symbol_grid(small_cfg, huge).shape == small_cfg.grid_shape
    huge[2, 3] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="non-finite"):
        check_symbol_grid(small_cfg, huge)


@pytest.mark.parametrize("velocity", [-300.0, -299.9, 0.0, 123.456, 299.99])
def test_velocity_wrap_leaves_window_values_as_they_are(ref_cfg, velocity):
    assert ref_cfg.velocity_window_mps == 300.0
    assert wrap_velocity_mps(velocity, ref_cfg) is velocity


@pytest.mark.parametrize(
    "velocity,wrapped",
    [(300.0, -300.0), (300.5, -299.5), (-300.25, 299.75), (-301.171875, 298.828125)],
)
def test_velocity_wrap_moves_outside_values_by_twice_the_window(ref_cfg, velocity, wrapped):
    assert wrap_velocity_mps(velocity, ref_cfg) == wrapped

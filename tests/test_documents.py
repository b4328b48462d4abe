"""JSON documents: one text format, one checked decoder, and round trips.

Config, scene, pattern and estimate documents all decode through
``model.decode_object``, so every malformed document below must raise the
module's own error (a ``ValueError`` subclass) and nothing else.
"""

import json
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmadfrc import (
    CoarseEstimate,
    ConfigError,
    EstimateSet,
    PatternError,
    RefinedEstimate,
    Scene,
    SceneError,
    SwitchingPattern,
    SystemConfig,
    Target,
    config_from_dict,
    config_to_dict,
    load_config,
    load_pattern,
    load_scene,
    read_grid,
    save_config,
    save_pattern,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    write_grid,
)
from tmadfrc.tma import pattern_from_dict, pattern_to_dict

DROP = object()


def edited(base: dict, **changes) -> dict:
    """A copy of ``base`` with keys replaced, added, or removed (``DROP``)."""
    out = {**base, **changes}
    return {key: value for key, value in out.items() if value is not DROP}


CONFIG = config_to_dict(
    SystemConfig(
        carrier_freq_hz=24e9,
        subcarrier_spacing_hz=120e3,
        num_subcarriers=8,
        num_ofdm_symbols=16,
        num_tx_antennas=4,
        num_rx_antennas=8,
        symbol_duration_s=1.25 / 120e3,
        cu_angle_deg=30.0,
    )
)
TARGET = {"angle_deg": 5.0, "range_m": 10.0, "velocity_mps": 0.0, "beta": [1.0, 0.0]}
PATTERN = {"tau_on": [0.0, 0.5], "duty": [0.5, 0.5], "weights": [[1.0, 0.0], [0.0, 1.0]]}
COARSE = {
    "angle_bin": 5,
    "angle_deg": 19.47,
    "range_bin": 3,
    "range_m": 58.59,
    "velocity_bin": -4,
    "velocity_mps": -9.38,
}
REFINED = {"angle_bin": 5, "angle_deg": 20.0, "range_m": 50.0, "velocity_mps": -10.08}


def target_scene(**changes) -> dict:
    return {"targets": [edited(TARGET, **changes)], "seed": 1, "snr_db": None}


MALFORMED = {
    # config (the field types were already enforced; the document shape was not)
    "config_number": (config_from_dict, 42, ConfigError),
    "config_null": (config_from_dict, None, ConfigError),
    "config_huge_integer": (config_from_dict, edited(CONFIG, carrier_freq_hz=10**400), ConfigError),
    # scene
    "scene_number": (scene_from_dict, 42, SceneError),
    "scene_targets_number": (scene_from_dict, {"targets": 5}, SceneError),
    "scene_targets_null": (scene_from_dict, {"targets": None}, SceneError),
    "scene_without_targets": (scene_from_dict, {"seed": 1}, SceneError),
    "scene_fractional_seed": (scene_from_dict, {"targets": [], "seed": 1.5}, SceneError),
    "scene_boolean_seed": (scene_from_dict, {"targets": [], "seed": True}, SceneError),
    "scene_string_seed": (scene_from_dict, {"targets": [], "seed": "7"}, SceneError),
    "scene_null_seed": (scene_from_dict, {"targets": [], "seed": None}, SceneError),
    "scene_string_snr": (scene_from_dict, {"targets": [], "snr_db": "10"}, SceneError),
    # target
    "target_number": (scene_from_dict, {"targets": [42]}, SceneError),
    "target_without_angle": (scene_from_dict, target_scene(angle_deg=DROP), SceneError),
    "target_null_angle": (scene_from_dict, target_scene(angle_deg=None), SceneError),
    "target_string_angle": (scene_from_dict, target_scene(angle_deg="5"), SceneError),
    "target_short_beta": (scene_from_dict, target_scene(beta=[1]), SceneError),
    "target_long_beta": (scene_from_dict, target_scene(beta=[1.0, 0.0, 2.0]), SceneError),
    "target_string_beta": (scene_from_dict, target_scene(beta="ab"), SceneError),
    "target_null_beta": (scene_from_dict, target_scene(beta=None), SceneError),
    "target_boolean_beta": (scene_from_dict, target_scene(beta=[True, 0.0]), SceneError),
    # pattern
    "pattern_number": (pattern_from_dict, 42, PatternError),
    "pattern_without_weights": (pattern_from_dict, edited(PATTERN, weights=DROP), PatternError),
    "pattern_string_onsets": (
        pattern_from_dict,
        edited(PATTERN, tau_on=["0.0", "0.5"]),
        PatternError,
    ),
    "pattern_scalar_onset": (
        pattern_from_dict,
        {"tau_on": 0.5, "duty": [0.5], "weights": [[1.0, 0.0]]},
        PatternError,
    ),
    "pattern_boolean_duty": (pattern_from_dict, edited(PATTERN, duty=[True, True]), PatternError),
    # estimate set
    "estimates_list": (EstimateSet.from_dict, [], ValueError),
    "estimates_coarse_number": (EstimateSet.from_dict, {"coarse": 5}, ValueError),
    "estimates_unknown_key": (EstimateSet.from_dict, {"coarse": [], "extra": 1}, ValueError),
    "estimates_row_unknown_key": (
        EstimateSet.from_dict,
        {"coarse": [edited(COARSE, power=1.0)]},
        ValueError,
    ),
    "estimates_row_missing_key": (
        EstimateSet.from_dict,
        {"coarse": [edited(COARSE, range_m=DROP)]},
        ValueError,
    ),
    "estimates_row_string_bin": (
        EstimateSet.from_dict,
        {"coarse": [edited(COARSE, angle_bin="5")]},
        ValueError,
    ),
    "estimates_row_fractional_bin": (
        EstimateSet.from_dict,
        {"coarse": [edited(COARSE, angle_bin=5.5)]},
        ValueError,
    ),
    "estimates_refined_number": (
        EstimateSet.from_dict,
        {"coarse": [COARSE], "refined": [42]},
        ValueError,
    ),
}


@pytest.mark.parametrize("decode,document,error", MALFORMED.values(), ids=MALFORMED)
def test_malformed_documents_raise_the_module_error(decode, document, error):
    with pytest.raises(error):
        decode(document)


def test_wellformed_base_documents_decode():
    # the bases the malformed cases edit are themselves valid
    assert config_to_dict(config_from_dict(CONFIG)) == CONFIG
    assert scene_from_dict(target_scene()).targets == (Target(5.0, 10.0, 0.0),)
    pattern = pattern_from_dict(PATTERN)
    assert np.array_equal(pattern.weights, [1.0, 1j])
    estimates = EstimateSet.from_dict({"coarse": [COARSE], "refined": [REFINED]})
    assert estimates.coarse == [CoarseEstimate(**COARSE)]
    assert estimates.refined == [RefinedEstimate(**REFINED)]


def test_saved_documents_share_one_text_format(tmp_path, ref_cfg, ref_scene, ref_pattern):
    cases = (
        (save_config, ref_cfg, config_to_dict),
        (save_scene, ref_scene, scene_to_dict),
        (save_pattern, ref_pattern, pattern_to_dict),
    )
    for save, value, to_dict in cases:
        path = tmp_path / "document.json"
        save(value, path)
        expected = json.dumps(to_dict(value), indent=2, sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == expected


# --- round-trip properties -----------------------------------------------------

# A few examples each keep the suite fast; no example database is written.
ROUND_TRIPS = settings(max_examples=25, deadline=None, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
complexes = st.builds(complex, finite, finite)


@st.composite
def configs(draw):
    spacing_hz = draw(st.floats(1e3, 1e7))
    return SystemConfig(
        carrier_freq_hz=draw(st.floats(1e6, 1e12)),
        subcarrier_spacing_hz=spacing_hz,
        num_subcarriers=draw(st.integers(1, 4096)),
        num_ofdm_symbols=draw(st.integers(1, 4096)),
        num_tx_antennas=draw(st.integers(1, 64)),
        num_rx_antennas=draw(st.integers(1, 64)),
        symbol_duration_s=(1.0 + draw(st.floats(0.0, 1.0))) / spacing_hz,
        cu_angle_deg=draw(st.floats(-90.0, 90.0)),
        tx_spacing_wavelengths=draw(st.floats(0.05, 4.0)),
        rx_spacing_wavelengths=draw(st.floats(0.05, 4.0)),
        snr_db=draw(st.floats(-60.0, 120.0) | st.just(math.inf)),
        rounded_speed_of_light=draw(st.booleans()),
        narrowband_doppler=draw(st.booleans()),
    )


targets = st.builds(Target, finite, finite, finite, complexes)
scenes = st.builds(
    Scene,
    st.lists(targets, max_size=4),
    seed=st.integers(0, 2**63),
    snr_db=st.none() | finite | st.just(math.inf),
)


@st.composite
def patterns(draw):
    n = draw(st.integers(1, 8))
    return SwitchingPattern(
        tau_on=draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n)),
        duty=draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=n, max_size=n)),
        weights=draw(st.lists(complexes, min_size=n, max_size=n)),
    )


@st.composite
def estimate_sets(draw):
    row = st.builds(
        CoarseEstimate, st.integers(), finite, st.integers(), finite, st.integers(), finite
    )
    coarse = draw(st.lists(row, max_size=4))
    bins = st.sampled_from([row.angle_bin for row in coarse]) if coarse else st.nothing()
    refined = draw(st.lists(st.builds(RefinedEstimate, bins, finite, finite, finite), max_size=4))
    return EstimateSet(coarse=coarse, refined=refined)


def through_file(save, load, value):
    with tempfile.TemporaryDirectory() as folder:
        path = pathlib.Path(folder) / "document"
        save(value, path)
        return load(path)


@ROUND_TRIPS
@given(configs())
def test_config_file_round_trip(cfg):
    assert through_file(save_config, load_config, cfg) == cfg


@ROUND_TRIPS
@given(scenes)
def test_scene_file_round_trip(scene):
    assert through_file(save_scene, load_scene, scene) == scene


@ROUND_TRIPS
@given(patterns())
def test_pattern_file_round_trip(pattern):
    again = through_file(save_pattern, load_pattern, pattern)
    for name in ("tau_on", "duty", "weights"):
        assert np.array_equal(getattr(again, name), getattr(pattern, name))


@ROUND_TRIPS
@given(estimate_sets())
def test_estimate_set_round_trip(estimates):
    text = json.dumps(estimates.to_dict(), indent=2, sort_keys=True)
    assert EstimateSet.from_dict(json.loads(text)) == estimates


@ROUND_TRIPS
@given(st.data())
def test_grid_file_round_trip(data):
    shape = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    size = math.prod(shape)
    values = data.draw(st.lists(complexes, min_size=size, max_size=size))
    grid = np.array(values, dtype=np.complex128).reshape(shape)
    again = through_file(lambda values, path: write_grid(path, values), read_grid, grid)
    assert np.array_equal(again, grid.reshape((1,) * (3 - grid.ndim) + grid.shape))

"""JSON documents: one text format, one checked decoder, and round trips.

Config and scene documents both decode through ``model.decode_object``, so
every malformed document below must raise the module's own error (a
``ValueError`` subclass) and nothing else.
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
    ConfigError,
    Scene,
    SceneError,
    SystemConfig,
    Target,
    config_from_dict,
    config_to_dict,
    load_config,
    load_scene,
    read_grid,
    scene_from_dict,
    scene_to_dict,
    write_grid,
)
from tmadfrc.model import write_document

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
    "scene_snr_beyond_float_range": (scene_from_dict, {"targets": [], "snr_db": 4000.0}, SceneError),
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
}


@pytest.mark.parametrize("decode,document,error", MALFORMED.values(), ids=MALFORMED)
def test_malformed_documents_raise_the_module_error(decode, document, error):
    with pytest.raises(error):
        decode(document)


def test_wellformed_base_documents_decode():
    # the bases the malformed cases edit are themselves valid
    assert config_to_dict(config_from_dict(CONFIG)) == CONFIG
    assert scene_from_dict(target_scene()).targets == (Target(5.0, 10.0, 0.0),)


def test_saved_documents_share_one_text_format(tmp_path, ref_cfg, ref_scene):
    for value, to_dict in ((ref_cfg, config_to_dict), (ref_scene, scene_to_dict)):
        path = tmp_path / "document.json"
        write_document(to_dict(value), path)
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
# a Scene refuses an SNR whose linear value leaves the float range (~3082 dB)
scenes = st.builds(
    Scene,
    st.lists(targets, max_size=4),
    seed=st.integers(0, 2**63),
    snr_db=st.none() | st.floats(-3000.0, 3000.0) | st.just(math.inf),
)


def through_file(save, load, value):
    with tempfile.TemporaryDirectory() as folder:
        path = pathlib.Path(folder) / "document"
        save(value, path)
        return load(path)


def write_as(to_dict):
    """A writer of the document of ``to_dict``, argument order of :func:`through_file`."""
    return lambda value, path: write_document(to_dict(value), path)


@ROUND_TRIPS
@given(configs())
def test_config_file_round_trip(cfg):
    assert through_file(write_as(config_to_dict), load_config, cfg) == cfg


@ROUND_TRIPS
@given(scenes)
def test_scene_file_round_trip(scene):
    assert through_file(write_as(scene_to_dict), load_scene, scene) == scene


@ROUND_TRIPS
@given(st.data())
def test_grid_file_round_trip(data):
    shape = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    size = math.prod(shape)
    values = data.draw(st.lists(complexes, min_size=size, max_size=size))
    grid = np.array(values, dtype=np.complex128).reshape(shape)
    again = through_file(lambda values, path: write_grid(path, values), read_grid, grid)
    assert np.array_equal(again, grid.reshape((1,) * (3 - grid.ndim) + grid.shape))

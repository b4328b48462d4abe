"""Shared fixtures: the packaged reference setup plus a small fast config.

The reference frame (payload drawn from the scene seed, exactly as the
reproduce subcommand builds it) is session-scoped because several modules and
the acceptance suite all process the same frame.  Every test also runs under
``no_leaked_threads``.
"""

import json
import importlib.resources
import threading

import numpy as np
import pytest

from tmadfrc import (
    Scene,
    SystemConfig,
    config_from_dict,
    design_pattern,
    modulate,
    qpsk,
    radar_returns,
    scene_from_dict,
)


def fixture_text(name: str) -> str:
    return (
        importlib.resources.files("tmadfrc").joinpath("fixtures").joinpath(name).read_text()
    )


def qpsk_frame(cfg: SystemConfig, seed: int) -> np.ndarray:
    """Random QPSK symbol grid, bits drawn from the given seed."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=2 * cfg.num_subcarriers * cfg.num_ofdm_symbols)
    return modulate(bits, qpsk()).reshape(cfg.grid_shape)


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves more threads running than it found: an unjoined
    noise worker of ``radar_returns``, or a persistent pool, shows up here."""
    before = threading.active_count()
    yield
    after = threading.active_count()
    if after > before:
        pytest.fail(f"{after - before} thread(s) left running: {threading.enumerate()}")


@pytest.fixture(scope="session")
def ref_cfg() -> SystemConfig:
    return config_from_dict(json.loads(fixture_text("reference_config.json")))


@pytest.fixture(scope="session")
def ref_scene() -> Scene:
    return scene_from_dict(json.loads(fixture_text("reference_scene.json")))


@pytest.fixture(scope="session")
def ref_pattern(ref_cfg):
    return design_pattern(ref_cfg, ref_cfg.cu_angle_deg)


@pytest.fixture(scope="session")
def ref_frame(ref_cfg, ref_scene, ref_pattern):
    """(data, received) for the packaged scene, payload seeded by the scene seed."""
    data = qpsk_frame(ref_cfg, ref_scene.seed)
    received = radar_returns(data, ref_pattern, ref_cfg, ref_scene)
    return data, received


@pytest.fixture
def small_cfg() -> SystemConfig:
    """Fast configuration for unit tests; same carrier, fewer everything."""
    return SystemConfig(
        carrier_freq_hz=24e9,
        subcarrier_spacing_hz=120e3,
        num_subcarriers=8,
        num_ofdm_symbols=16,
        num_tx_antennas=4,
        num_rx_antennas=8,
        symbol_duration_s=1.25 / 120e3,
        cu_angle_deg=30.0,
        rounded_speed_of_light=True,
    )

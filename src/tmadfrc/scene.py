"""Point-target scenes, simulated receive grids, and grid file storage.

Monostatic geometry: the transmit array scrambles the OFDM frame per
direction, each target reflects the mixture arriving at its own angle, and a
separate uniform linear receive array observes the superposition.  For target
k at angle theta_k, range R_k, radial velocity v_k and reflectivity beta_k,
receive element m sees on subcarrier s of OFDM symbol mu (the echo factors
of ``tmadfrc.model``):

    beta_k * scrambled(s, mu, theta_k)
           * exp(-2j pi m d_r sin(theta_k) / lambda)
           * exp(-2j pi s f_s 2 R_k / c)
           * exp(+2j pi mu T_p f_D(k, s))

with Doppler f_D(k, s) = 2 v_k (f_c + s f_s) / c, or the narrowband
simplification 2 v_k f_c / c when ``cfg.narrowband_doppler`` is set.

Noise is complex white Gaussian, calibrated so that
mean(|signal|^2) / sigma^2 equals the linear SNR (reference power 1.0 when
the scene is empty).  Sampling uses numpy's seeded PCG64 generator
(``np.random.default_rng``; ziggurat-sampled normals), so grids are
bit-reproducible for a given seed.
"""

import dataclasses
import struct

import numpy as np

from .comms import _mean_power, add_noise
from .model import (
    SceneError,
    SystemConfig,
    Target,
    check_integer,
    check_symbol_grid,
    decode_complex,
    decode_list,
    decode_object,
    range_ramp,
    read_document,
    slow_time_rotation,
    snr_adds_noise,
    steering_vector,
    validate_target,
)
from .tma import SwitchingPattern, scramble_symbols


@dataclasses.dataclass(frozen=True)
class Scene:
    """Targets plus the noise realization parameters.

    ``snr_db`` of None defers to ``cfg.snr_db``; +inf disables noise
    entirely.  A scene checks its seed and SNR when it is built and raises
    :class:`SceneError` for a seed that is no non-negative integer and for an
    SNR that :func:`model.snr_adds_noise` refuses (NaN, -inf, or beyond the
    float range).  The targets need the config: :func:`validate_scene`.
    """

    targets: tuple
    seed: int = 0
    snr_db: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        check_integer(self.seed, 0, "Scene seed", SceneError)
        if self.snr_db is not None:
            snr_adds_noise(self.snr_db, SceneError)


def validate_scene(scene: Scene, cfg: SystemConfig) -> Scene:
    """Check every target and the angle-identifiability bound against
    ``cfg``."""
    for target in scene.targets:
        validate_target(target, cfg)
    distinct = {float(np.sin(np.radians(t.angle_deg))) for t in scene.targets}
    if len(distinct) > cfg.num_rx_antennas - 1:
        raise SceneError(
            f"{len(distinct)} distinct target angles exceed the "
            f"{cfg.num_rx_antennas - 1} the receive array can identify"
        )
    return scene


def radar_returns(
    data: np.ndarray, pattern: SwitchingPattern, cfg: SystemConfig, scene: Scene
) -> np.ndarray:
    """Simulate the receive-array grid for one OFDM frame.

    Args:
        data: transmitted symbol grid (num_subcarriers, num_ofdm_symbols).

    Returns:
        Complex grid (num_rx_antennas, num_subcarriers, num_ofdm_symbols).
    """
    data = check_symbol_grid(cfg, data)
    validate_scene(scene, cfg)

    targets = scene.targets
    n_r, n_s, n_p = cfg.returns_shape
    steers = steering_vector(cfg, [t.angle_deg for t in targets])  # (K, N_r)
    if cfg.narrowband_doppler:
        carrier_hz = cfg.carrier_freq_hz
    else:
        carrier_hz = cfg.carrier_freq_hz + np.arange(n_s) * cfg.subcarrier_spacing_hz
    velocities = np.array([t.velocity_mps for t in targets], dtype=float)
    doppler_hz = 2.0 * velocities[:, None] * carrier_hz / cfg.c  # (K, 1) or (K, N_s)
    # One (K, N_s, N_p) slab scrambled toward every target; the echo factors multiply in place.
    slabs = scramble_symbols(data, pattern, cfg, [t.angle_deg for t in targets])
    slabs *= range_ramp(cfg, [t.range_m for t in targets])[:, :, None]
    slabs *= slow_time_rotation(cfg, doppler_hz)
    slabs *= np.array([t.reflectivity for t in targets], dtype=np.complex128)[:, None, None]
    # Superpose all K echoes in one rank-K product: (N_r, K) @ (K, N_s * N_p).
    out = (steers.T @ slabs.reshape(len(targets), n_s * n_p)).reshape(n_r, n_s, n_p)

    snr_db = cfg.snr_db if scene.snr_db is None else scene.snr_db
    if snr_adds_noise(snr_db):
        signal_power = _mean_power(out)
        reference = signal_power if signal_power > 0.0 else 1.0
        sigma2 = reference / 10.0 ** (snr_db / 10.0)
        add_noise(out, sigma2, np.random.default_rng(scene.seed))
    return out


# --- scene serialization -----------------------------------------------------


def scene_to_dict(scene: Scene) -> dict:
    return {
        "targets": [
            {
                "angle_deg": t.angle_deg,
                "range_m": t.range_m,
                "velocity_mps": t.velocity_mps,
                "beta": [t.reflectivity.real, t.reflectivity.imag],
            }
            for t in scene.targets
        ],
        "seed": scene.seed,
        "snr_db": scene.snr_db,
    }


def _target_from_dict(data) -> Target:
    convert = {"beta": decode_complex}
    return decode_object(Target, data, SceneError, convert, keys={"reflectivity": "beta"})


def scene_from_dict(data) -> Scene:
    """Accept either a bare target list or a {targets, seed, snr_db} object.

    Raises:
        SceneError: for a malformed document or a negative seed.
    """
    if isinstance(data, list):
        data = {"targets": data}
    convert = {"targets": lambda value: decode_list(value, _target_from_dict)}
    return decode_object(Scene, data, SceneError, convert)


def load_scene(path) -> Scene:
    return scene_from_dict(read_document(path))


# --- binary grid storage -------------------------------------------------------

GRID_MAGIC = b"TMAG"
GRID_VERSION = 1
_HEADER = struct.Struct("<4sIIIII")  # magic, version, n_rx, n_subcarriers, n_symbols, reserved


class GridFormatError(ValueError):
    """A grid file is malformed or truncated."""


def write_grid(path, values: np.ndarray) -> None:
    """Store a complex grid as little-endian interleaved float64 re/im.

    ``values`` may be 2-D (subcarrier, symbol) — stored with a leading
    receive-element axis of 1 — or 3-D (element, subcarrier, symbol).  A grid
    that :func:`read_grid` would refuse is rejected before the file is opened,
    so nothing is created or truncated.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim == 2:
        values = values[None, :, :]
    if values.ndim != 3:
        raise GridFormatError(f"grid must be 2-D or 3-D, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise GridFormatError("grid contains non-finite values")
    header = _HEADER.pack(GRID_MAGIC, GRID_VERSION, *values.shape, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values).astype("<c16").tobytes())


def read_grid(path) -> np.ndarray:
    """Load a grid written by :func:`write_grid`; always returns 3-D."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise GridFormatError(
            f"grid header truncated: need {_HEADER.size} bytes, file has {len(raw)}"
        )
    magic, version, n_rx, n_sub, n_sym, _ = _HEADER.unpack_from(raw)
    if magic != GRID_MAGIC:
        raise GridFormatError(f"bad magic {magic!r} at byte 0 (expected {GRID_MAGIC!r})")
    if version != GRID_VERSION:
        raise GridFormatError(f"unsupported grid version {version}")
    expected = n_rx * n_sub * n_sym * 16
    payload = len(raw) - _HEADER.size
    if payload != expected:
        raise GridFormatError(
            f"grid payload truncated at byte {len(raw)}: header promises "
            f"{expected} bytes after byte {_HEADER.size}, found {payload}"
        )
    data = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    if not np.isfinite(data).all():
        raise GridFormatError("grid payload contains non-finite values")
    return data.reshape(n_rx, n_sub, n_sym).astype(np.complex128)

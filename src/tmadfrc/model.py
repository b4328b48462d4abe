"""System configuration, scene/estimate containers, and their serialization.

Grid conventions used throughout the package
--------------------------------------------
Symbol grids are plain complex ndarrays:

* transmitted / scrambled symbols: shape ``(num_subcarriers, num_ofdm_symbols)``,
  axis 0 = subcarrier index s, axis 1 = OFDM symbol index mu;
* received radar returns: shape ``(num_rx_antennas, num_subcarriers,
  num_ofdm_symbols)``, axis 0 = receive element index m.

Angles are degrees at every public boundary and radians only inside
formulas.  Element spacings are carrier wavelengths.  All functions here are
pure: same inputs, same outputs, no hidden state.
"""

import dataclasses
import hashlib
import json
import math
import typing

import numpy as np

#: Exact vacuum speed of light (m/s).
SPEED_OF_LIGHT = 299_792_458.0
#: Rounded value used by many link-budget style calculations; selected by
#: ``SystemConfig.rounded_speed_of_light`` so bin-center arithmetic can be
#: reproduced digit for digit.
ROUNDED_SPEED_OF_LIGHT = 3.0e8


class ConfigError(ValueError):
    """A system configuration violates one of its invariants."""


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """Static description of the OFDM waveform and the two antenna arrays.

    ``symbol_duration_s`` is the full OFDM symbol period including the cyclic
    prefix; the useful (data) portion always lasts ``1/subcarrier_spacing_hz``.
    A config checks its invariants when it is built and raises
    :class:`ConfigError` naming the first one violated.
    """

    carrier_freq_hz: float
    subcarrier_spacing_hz: float
    num_subcarriers: int
    num_ofdm_symbols: int
    num_tx_antennas: int
    num_rx_antennas: int
    symbol_duration_s: float
    cu_angle_deg: float
    tx_spacing_wavelengths: float = 0.5
    rx_spacing_wavelengths: float = 0.5
    snr_db: float = 10.0
    rounded_speed_of_light: bool = False
    narrowband_doppler: bool = False

    def __post_init__(self):
        for ok, message in _invariants(self):
            if not ok:
                raise ConfigError(message)
        snr_adds_noise(self.snr_db, ConfigError)

    @property
    def c(self) -> float:
        """Propagation speed used by all range/velocity arithmetic."""
        return ROUNDED_SPEED_OF_LIGHT if self.rounded_speed_of_light else SPEED_OF_LIGHT

    @property
    def grid_shape(self) -> tuple:
        return (self.num_subcarriers, self.num_ofdm_symbols)

    @property
    def returns_shape(self) -> tuple:
        return (self.num_rx_antennas,) + self.grid_shape

    @property
    def range_window_m(self) -> float:
        """Unambiguous range span of the subcarrier phase ramp."""
        return self.c / (2.0 * self.subcarrier_spacing_hz)

    @property
    def velocity_window_mps(self) -> float:
        """Half-width of the signed unambiguous velocity interval."""
        return self.c / (4.0 * self.carrier_freq_hz * self.symbol_duration_s)


# Ordered list of (predicate, message) pairs so the *first* violated invariant
# is the one reported.
def _invariants(cfg: SystemConfig):
    # Chained range checks also refuse NaN, which fails every comparison.
    for name in ("carrier_freq_hz", "subcarrier_spacing_hz"):
        yield 0 < getattr(cfg, name) < math.inf, f"{name} must be positive and finite"
    yield cfg.num_subcarriers >= 1, "num_subcarriers must be >= 1"
    yield cfg.num_ofdm_symbols >= 1, "num_ofdm_symbols must be >= 1"
    yield cfg.num_tx_antennas >= 1, "num_tx_antennas must be >= 1"
    yield cfg.num_rx_antennas >= 1, "num_rx_antennas must be >= 1"
    for name in ("tx_spacing_wavelengths", "rx_spacing_wavelengths"):
        yield 0 < getattr(cfg, name) < math.inf, f"{name} must be positive and finite"
    # Allow exact equality (zero cyclic prefix) up to float rounding of 1/f_s.
    yield (
        (1.0 - 1e-12) / cfg.subcarrier_spacing_hz <= cfg.symbol_duration_s < math.inf,
        "symbol_duration_s must be finite and >= 1/subcarrier_spacing_hz "
        "(non-negative cyclic prefix)",
    )
    yield abs(cfg.cu_angle_deg) <= 90.0, "cu_angle_deg must lie in [-90, 90]"


def snr_adds_noise(snr_db: float, error=ValueError) -> bool:
    """Whether an SNR in dB asks for noise: only +inf means a noise-free signal.

    A finite SNR must have a linear value 10^(snr_db / 10) that is a finite
    positive float with a finite reciprocal (about |snr_db| < 3082 dB), so
    the noise power it sets is neither zero nor infinite.

    Raises:
        error: for NaN or -inf, which name no noise level, and for a finite
            SNR beyond that range.
    """
    if not -math.inf < snr_db:  # also refuses NaN
        raise error(f"snr_db must be a number above -inf (+inf means noise-free), got {snr_db}")
    if snr_db == math.inf:
        return False
    try:
        linear = math.pow(10.0, snr_db / 10.0)  # 0.0 below the float range
    except OverflowError:
        linear = math.inf
    if not (0.0 < linear < math.inf and 1.0 / linear < math.inf):
        raise error(
            f"snr_db {snr_db} is beyond the float range: 10^(snr_db / 10) and its "
            f"reciprocal must both be finite positive floats"
        )
    return True


def check_integer(value, minimum: int, what: str, error=ValueError) -> None:
    """Raise ``error`` naming ``what`` unless ``value`` is an integer (a bool
    is none: it would pass as 0 or 1) of at least ``minimum``, 0 or 1."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= minimum):
        kind = {0: "non-negative", 1: "positive"}[minimum]
        raise error(f"{what} must be a {kind} integer, got {value!r}")


def derived_resolutions(cfg: SystemConfig):
    """Resolution cells implied by the configuration.

    Returns:
        (range_res_m, velocity_res_mps, angle_grid_deg) where angle_grid_deg
        is :func:`bin_to_angle_deg` of every receive-DFT bin index.  Code that
        needs one resolution calls :func:`range_resolution_m` or
        :func:`velocity_resolution_mps`, which skip the angle grid.
    """
    return (
        range_resolution_m(cfg),
        velocity_resolution_mps(cfg),
        bin_to_angle_deg(np.arange(cfg.num_rx_antennas), cfg),
    )


def range_resolution_m(cfg: SystemConfig) -> float:
    """Range cell of ``cfg``: one bin of the subcarrier IDFT."""
    return cfg.c / (2.0 * cfg.num_subcarriers * cfg.subcarrier_spacing_hz)


def velocity_resolution_mps(cfg: SystemConfig) -> float:
    """Velocity cell of ``cfg``: one bin of the slow-time DFT."""
    return cfg.c / (2.0 * cfg.carrier_freq_hz * cfg.num_ofdm_symbols * cfg.symbol_duration_s)


def wrapped_bin_frequency(k, n: int):
    """Signed frequency (cycles/sample) of DFT bin index k (0..n-1), in [-1/2, 1/2)."""
    freq = np.asarray(k, dtype=float) / n
    return np.where(freq >= 0.5, freq - 1.0, freq)


def signed_bin_index(k, n: int):
    """Map DFT bin index k (0..n-1) to the centered index in [-n/2, n/2)."""
    k = np.asarray(k)
    return np.where(k >= (n + 1) // 2, k - n, k)


def bin_to_sine(angle_bin, cfg: SystemConfig):
    """sin(theta) that receive-DFT bin(s) steer to: -wrap(k / N_r) / spacing."""
    freq = wrapped_bin_frequency(angle_bin, cfg.num_rx_antennas)
    return -freq / cfg.rx_spacing_wavelengths


def bin_to_angle_deg(angle_bin, cfg: SystemConfig):
    """Direction (degrees) that receive-DFT bin(s) steer to.

    NaN for bins whose spatial frequency falls outside |sin theta| <= 1, which
    can happen for element spacings below half a wavelength.  The bound allows
    1e-12 of rounding, so a bin that lands on endfire maps to +-90 degrees.
    """
    sin_theta = bin_to_sine(angle_bin, cfg)
    visible = np.abs(sin_theta) <= 1.0 + 1e-12
    return np.where(visible, np.degrees(np.arcsin(np.clip(sin_theta, -1.0, 1.0))), np.nan)


def bin_to_range_m(range_bin, cfg: SystemConfig):
    """Range (m) of subcarrier-IDFT bin(s): bin times the range cell."""
    return np.asarray(range_bin, dtype=float) * range_resolution_m(cfg)


def bin_to_velocity_mps(velocity_bin, cfg: SystemConfig):
    """Signed slow-time DFT bin(s) to meters per second."""
    return np.asarray(velocity_bin, dtype=float) * velocity_resolution_mps(cfg)


# --- echo factors: a target at (theta, R, f_D) adds its scrambled symbol times
# steering_vector[m] * range_ramp[s] * slow_time_rotation[mu] to receive element
# m, subcarrier s, OFDM symbol mu.  Synthesis and both fits use only these.


def _phase_powers(step, n: int) -> np.ndarray:
    """exp(j step k) for k = 0 .. n-1 (n >= 1), shape step.shape + (n,).

    With k = L a + b and L = ceil(sqrt(n)), each power is the product of
    exp(j step L a) and exp(j step b), so a step takes about 2 sqrt(n)
    complex exponentials instead of n.
    """
    step = np.asarray(step, dtype=float)
    fine_len = math.isqrt(n - 1) + 1
    coarse_len = -(-n // fine_len)
    coarse = np.exp(1j * np.multiply.outer(step, fine_len * np.arange(coarse_len)))
    fine = np.exp(1j * np.multiply.outer(step, np.arange(fine_len)))
    powers = coarse[..., :, None] * fine[..., None, :]
    return powers.reshape(*step.shape, coarse_len * fine_len)[..., :n]


def steering_vector(cfg: SystemConfig, theta_deg) -> np.ndarray:
    """Receive-array response exp(-2j pi m d_r sin(theta)), shape
    (num_rx_antennas,) or (..., num_rx_antennas)."""
    sin_theta = np.sin(np.radians(np.asarray(theta_deg, dtype=float)))
    return _phase_powers(-2.0 * np.pi * cfg.rx_spacing_wavelengths * sin_theta, cfg.num_rx_antennas)


def range_ramp(cfg: SystemConfig, range_m) -> np.ndarray:
    """Subcarrier phase ramp exp(-2j pi s f_s 2R/c), shape (num_subcarriers,)
    or (..., num_subcarriers)."""
    delay = 2.0 * np.asarray(range_m, dtype=float) / cfg.c
    return _phase_powers(-2.0 * np.pi * cfg.subcarrier_spacing_hz * delay, cfg.num_subcarriers)


def slow_time_rotation(cfg: SystemConfig, doppler_hz) -> np.ndarray:
    """Slow-time Doppler rotation exp(+2j pi mu T_p f_D) for Doppler
    frequencies in Hz, shape (num_ofdm_symbols,) or (..., num_ofdm_symbols)."""
    step = 2.0 * np.pi * cfg.symbol_duration_s * np.asarray(doppler_hz, dtype=float)
    return _phase_powers(step, cfg.num_ofdm_symbols)


@dataclasses.dataclass(frozen=True)
class Target:
    """A point scatterer: angle (deg), slant range (m), radial velocity (m/s),
    complex reflectivity."""

    angle_deg: float
    range_m: float
    velocity_mps: float
    reflectivity: complex = 1.0 + 0.0j


class SceneError(ValueError):
    """A target or scene violates the geometry the waveform can support."""


def validate_target(target: Target, cfg: SystemConfig) -> Target:
    """Check a single target against the configured unambiguous windows."""
    parameters = (target.angle_deg, target.range_m, target.velocity_mps, target.reflectivity)
    if not np.isfinite(parameters).all():
        raise SceneError(f"target parameters must be finite, got {target}")
    if abs(target.angle_deg) > 90.0:
        raise SceneError(f"target angle {target.angle_deg} deg outside [-90, 90]")
    if target.range_m < 0.0:
        raise SceneError(f"target range {target.range_m} m is negative")
    if target.range_m >= cfg.range_window_m:
        raise SceneError(
            f"target range {target.range_m} m outside unambiguous window "
            f"[0, {cfg.range_window_m}) m"
        )
    if abs(target.velocity_mps) > cfg.velocity_window_mps:
        raise SceneError(
            f"target velocity {target.velocity_mps} m/s outside unambiguous window "
            f"+-{cfg.velocity_window_mps} m/s"
        )
    return target


def _checked_grid(values: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    values = np.asarray(values)
    if values.shape != shape:
        raise ValueError(f"{what} shape {values.shape} != expected {shape}")
    values = values.astype(np.complex128, copy=False)
    # A finite sum proves every entry finite (inf and NaN never cancel back to
    # a finite value), at half the cost of the element-wise test; only a sum
    # that overflows falls through to that test.
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    if not (np.isfinite(total) or np.isfinite(values).all()):
        raise ValueError(f"{what} contains non-finite values")
    return values


def check_symbol_grid(cfg: SystemConfig, values: np.ndarray) -> np.ndarray:
    """Validate shape and finiteness of a (subcarrier, symbol) grid and return
    it as complex."""
    return _checked_grid(values, cfg.grid_shape, "symbol grid")


def check_antenna_grid(cfg: SystemConfig, values: np.ndarray) -> np.ndarray:
    """Validate shape and finiteness of a per-receive-element grid and return
    it as complex."""
    return _checked_grid(values, cfg.returns_shape, "antenna grid")


# Snapshots (subcarrier-symbol pairs) per block of the covariance product: an
# (N_r, 2048) block is 768 KB on the 24-element reference array, against the
# 6 MB of the whole cube.
_SNAPSHOT_BLOCK = 2048


def sample_covariance(grid: np.ndarray) -> np.ndarray:
    """Spatial sample covariance R = Y Y^H / N with every subcarrier of every
    OFDM symbol as one of the N snapshots, accumulated over column blocks of
    the (N_r, N) receive matrix, ``_SNAPSHOT_BLOCK`` snapshots at a time."""
    grid = np.asarray(grid, dtype=np.complex128)
    flat = grid.reshape(grid.shape[0], -1)
    covariance = np.zeros((grid.shape[0], grid.shape[0]), dtype=np.complex128)
    for start in range(0, flat.shape[1], _SNAPSHOT_BLOCK):
        block = flat[:, start : start + _SNAPSHOT_BLOCK]
        covariance += block @ block.conj().T
    return covariance / flat.shape[1]


@dataclasses.dataclass(frozen=True, eq=False)
class Frame:
    """One received frame and the payload it carried: the receive cube
    (N_r, N_s, N_p), the transmitted symbols (N_s, N_p), the switching
    pattern that scrambled them and the configuration.

    Both grids are validated and converted to complex once, when the frame is
    built, so the estimation stages that take a frame need not check them
    again.  The cube is then read once more, for ``covariance``, the spatial
    sample covariance R over its N = N_s N_p snapshots
    (:func:`sample_covariance`); ``energy`` = ||grid||^2 = N trace(R).
    """

    grid: np.ndarray
    data: np.ndarray
    pattern: "SwitchingPattern"  # tma's; named as a string because tma imports this module
    cfg: SystemConfig
    covariance: np.ndarray = dataclasses.field(init=False)
    energy: float = dataclasses.field(init=False)

    def __post_init__(self):
        grid = check_antenna_grid(self.cfg, self.grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "data", check_symbol_grid(self.cfg, self.data))
        covariance = sample_covariance(grid)
        snapshots = grid.size // grid.shape[0]
        object.__setattr__(self, "covariance", covariance)
        object.__setattr__(self, "energy", float(snapshots * np.trace(covariance).real))


@dataclasses.dataclass(frozen=True)
class CoarseEstimate:
    """One (angle bin, range bin, velocity bin) detection from the DFT stage.

    ``velocity_bin`` uses the signed (centered) bin convention.
    """

    angle_bin: int
    angle_deg: float
    range_bin: int
    range_m: float
    velocity_bin: int
    velocity_mps: float


@dataclasses.dataclass(frozen=True)
class RefinedEstimate:
    """One refined target triple; ``angle_bin`` records the coarse bin it
    came from."""

    angle_bin: int
    angle_deg: float
    range_m: float
    velocity_mps: float


@dataclasses.dataclass
class EstimateSet:
    """Coarse detections plus refined triples for one processed frame."""

    coarse: list = dataclasses.field(default_factory=list)
    refined: list = dataclasses.field(default_factory=list)
    # the estimator's coarse.CoarseResult, spectra included; not in the document
    coarse_result: object = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "coarse": [dataclasses.asdict(row) for row in self.coarse],
            "refined": [dataclasses.asdict(row) for row in self.refined],
        }


# --- JSON documents ------------------------------------------------------------
# Config and scene files and the CLI's reports all share one format: written
# by write_document, read by read_document, and a config or scene turned into
# its dataclass by decode_object.


def document_text(data) -> str:
    """``data`` as JSON document text: 2-space indents and sorted keys, with
    repr-based floats that round-trip bit-exactly."""
    return json.dumps(data, indent=2, sort_keys=True)


def write_document(data, path) -> None:
    """Write ``data`` to ``path`` as a JSON document with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(document_text(data) + "\n")


def read_document(path):
    """The JSON value stored in the document file at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


_PLAIN = {bool: ("a boolean", bool), int: ("an integer", int), float: ("a number", (int, float))}


def decode_number(value, kind=float):
    """A JSON value under the config type rule for a ``kind`` (bool, int,
    float, or ``X | None``) field: a bool is no number, a fraction no integer
    and a string neither; an int is stored as float in a float field.

    Raises:
        TypeError: when ``value`` does not have that type.
    """
    options = set(typing.get_args(kind))
    if type(None) in options:
        if value is None:
            return None
        (kind,) = options - {type(None)}
    name, accepted = _PLAIN[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise TypeError(f"must be {name}, got {value!r}")
    return float(value) if kind is float else value


def decode_list(value, item) -> list:
    """The elements of the JSON array ``value``, each decoded by ``item``."""
    if not isinstance(value, list):
        raise TypeError(f"must be an array, got {value!r}")
    return [item(element) for element in value]


def decode_complex(value) -> complex:
    """A complex number stored as its JSON pair ``[re, im]``."""
    if not (isinstance(value, list) and len(value) == 2):
        raise TypeError(f"must be an [re, im] pair, got {value!r}")
    return complex(decode_number(value[0]), decode_number(value[1]))


def decode_object(cls, data, error, convert=None, keys=None):
    """Build the dataclass ``cls`` from the JSON object ``data``.

    Refuses a non-object, keys that name no init field and missing required
    keys.  Each field decodes by :func:`decode_number` with the field's own
    type, or, for a field that is not a plain number, by ``convert[key]``.
    ``keys`` maps a field name to its JSON key where the two differ.

    Raises:
        error: naming the document and the key when a value does not convert.
    """
    convert, keys, name = convert or {}, keys or {}, cls.__name__
    if not isinstance(data, dict):
        raise error(f"{name} must be a JSON object, got {data!r}")
    fields = {keys.get(f.name, f.name): f for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise error(f"unknown {name} keys: {', '.join(unknown)}")
    missing = sorted(
        key
        for key, f in fields.items()
        if key not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    )
    if missing:
        raise error(f"missing {name} keys: {', '.join(missing)}")
    types = typing.get_type_hints(cls)
    values = {}
    for key, value in data.items():
        field = fields[key].name
        try:
            if key in convert:
                values[field] = convert[key](value)
            else:
                values[field] = decode_number(value, types[field])
        except (TypeError, ValueError, OverflowError) as exc:  # 10**400 overflows a float
            raise error(f"{name} key {key}: {exc}") from None
    return cls(**values)


# --- configuration serialization -------------------------------------------


def config_to_dict(cfg: SystemConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_from_dict(data: dict) -> SystemConfig:
    """Build and validate a config from a plain dict; unknown keys are an error."""
    return decode_object(SystemConfig, data, ConfigError)


def load_config(path) -> SystemConfig:
    return config_from_dict(read_document(path))


def config_hash(cfg: SystemConfig) -> str:
    """Stable hex digest identifying a configuration (embedded in outputs)."""
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

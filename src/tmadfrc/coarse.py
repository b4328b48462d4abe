"""Coarse angle/range/velocity estimation on the receive grid.

The pipeline is three nested discrete transforms, each followed by peak
picking on a magnitude profile:

1. an unnormalized DFT across receive elements localizes targets in angle
   (bin k corresponds to sin(theta) = -wrap(k / N_r) / spacing),
2. within each detected angle bin the beamformed rows are descrambled by
   element-wise division with the direction-matched transmit symbols, and an
   IDFT across subcarriers turns the residual range ramp into a complex range
   response r(l, mu); peaks are picked on its magnitude averaged over OFDM
   symbols (bin l corresponds to l * c / (2 N_s f_s)),
3. for each detected range bin, a DFT across OFDM symbols of the response row
   r(l_peak, mu) turns the slow-time Doppler ramp into a velocity spectrum
   (signed bin p corresponds to p * c / (2 f_c N_p T_p)).

Estimates therefore come out paired: every velocity peak belongs to the range
peak whose response row produced it, and every range peak to its angle bin.

Detection policy differs by stage.  The angle stage decides whether anything
is present at all, so it applies its threshold strictly.  The range and
velocity stages run inside a bin that already passed detection — at least one
target is known to be there — so their thresholds only adjudicate secondary
peaks and the tallest local maximum is always kept.
"""

import dataclasses

import numpy as np

from .model import (
    CoarseEstimate,
    SystemConfig,
    bin_to_angle_deg,
    check_antenna_grid,
    check_symbol_grid,
    range_resolution_m,
    velocity_resolution_mps,
)
from .tma import SwitchingPattern, scramble_symbols
from .transforms import dft, idft, signed_bin_index


class NoPeaksError(RuntimeError):
    """No spectrum bin rose above the detection threshold."""


class DegenerateBinError(RuntimeError):
    """Too many scrambled reference symbols were near zero to descramble."""


@dataclasses.dataclass(frozen=True)
class PeakCriterion:
    """Peak-picking rule for one spectrum class.

    A bin is a peak when it is a circular local maximum and its magnitude
    reaches ``max(median_factor * median, max_factor * max)`` of the profile.
    With ``keep_tallest`` the threshold is additionally capped at the profile
    maximum, so the tallest local maximum always qualifies — appropriate for
    stages that run inside an already-detected angle bin, where the question
    is not "is anything there?" but "how many?".
    """

    median_factor: float = 3.0
    max_factor: float = 0.5
    keep_tallest: bool = False


@dataclasses.dataclass(frozen=True)
class DetectionOptions:
    """Per-stage peak criteria plus the descrambling guard."""

    angle_peaks: PeakCriterion = PeakCriterion()
    range_peaks: PeakCriterion = PeakCriterion(keep_tallest=True)
    velocity_peaks: PeakCriterion = PeakCriterion(keep_tallest=True)
    descramble_guard: float = 1e-3
    max_masked_fraction: float = 0.10


def peak_threshold(profile: np.ndarray, criterion: PeakCriterion = PeakCriterion()) -> float:
    profile = np.asarray(profile, dtype=float)
    top = float(np.max(profile, initial=0.0))
    threshold = max(
        criterion.median_factor * float(np.median(profile)),
        criterion.max_factor * top,
    )
    return min(threshold, top) if criterion.keep_tallest else threshold


def detect_peaks(profile: np.ndarray, criterion: PeakCriterion = PeakCriterion()) -> np.ndarray:
    """Indices of circular local maxima at or above the stage threshold.

    On an exact plateau only its rightmost bin counts as the local maximum.
    """
    profile = np.asarray(profile, dtype=float)
    threshold = peak_threshold(profile, criterion)
    if profile.size == 1:
        return np.flatnonzero(profile >= threshold)
    left = np.roll(profile, 1)
    right = np.roll(profile, -1)
    return np.flatnonzero((profile >= threshold) & (profile >= left) & (profile > right))


def angle_spectrum(grid: np.ndarray, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Beamform across receive elements.

    Returns:
        (spectrum, beams): ``spectrum`` is the magnitude aggregated over all
        subcarriers and symbols per angle bin, ``beams`` the full complex
        DFT cube with the bin axis first, each bin's rows computed exactly
        as :func:`coarse_pipeline` computes them.
    """
    grid = check_antenna_grid(cfg, grid)
    beams = np.stack([_beam_rows(grid, k) for k in range(cfg.num_rx_antennas)])
    return _angle_spectrum(grid), beams


# Snapshots (subcarrier-symbol pairs) per block of the receive-axis DFT: an
# (N_r, 2048) block is 768 KB on the 24-element reference array, against the
# 6 MB of a whole beam cube.
_SNAPSHOT_BLOCK = 2048


def _snapshot_blocks(grid: np.ndarray):
    """Column blocks of the (N_r, N_s * N_p) receive matrix, one snapshot per
    column and at most ``_SNAPSHOT_BLOCK`` columns each, as views."""
    flat = grid.reshape(grid.shape[0], -1)
    for start in range(0, flat.shape[1], _SNAPSHOT_BLOCK):
        yield flat[:, start : start + _SNAPSHOT_BLOCK]


def _angle_spectrum(grid: np.ndarray) -> np.ndarray:
    """Spectrum of :func:`angle_spectrum` for an already validated grid.  The
    receive-axis DFT runs one snapshot block at a time, and the magnitudes go
    through one reused buffer, so no cube-sized temporary is allocated."""
    spectrum = np.zeros(grid.shape[0])
    magnitude = np.empty((grid.shape[0], min(_SNAPSHOT_BLOCK, grid[0].size)))
    for block in _snapshot_blocks(grid):
        beams = dft(block, axis=0)
        spectrum += np.abs(beams, out=magnitude[:, : block.shape[1]]).sum(axis=1)
    return spectrum


def _beam_rows(grid: np.ndarray, angle_bin: int) -> np.ndarray:
    """Beamformed (N_s, N_p) rows of one DFT angle bin: the bin's DFT weights
    times the receive cube as one product, in an array of their own."""
    n_rx = grid.shape[0]
    weights = np.exp(-2j * np.pi * (angle_bin * np.arange(n_rx) % n_rx) / n_rx)
    rows = np.empty(grid.shape[1:], dtype=np.complex128)
    np.matmul(weights, grid.reshape(n_rx, -1), out=rows.reshape(-1))
    return rows


def bin_to_range_m(range_bin, cfg: SystemConfig):
    return np.asarray(range_bin, dtype=float) * range_resolution_m(cfg)


def bin_to_velocity_mps(velocity_bin, cfg: SystemConfig):
    """Signed velocity bin to meters per second."""
    return np.asarray(velocity_bin, dtype=float) * velocity_resolution_mps(cfg)


@dataclasses.dataclass(frozen=True)
class DescrambleResult:
    symbols: np.ndarray  # (num_subcarriers, num_ofdm_symbols) quotient grid
    masked: np.ndarray  # bool grid of entries zeroed by the small-divisor guard
    epsilon: float


def descramble(
    rows: np.ndarray,
    data: np.ndarray,
    pattern: SwitchingPattern,
    cfg: SystemConfig,
    theta_deg: float,
    options: DetectionOptions = DetectionOptions(),
) -> DescrambleResult:
    """Divide beamformed rows by the direction-matched scrambled symbols.

    Entries whose reference magnitude falls below ``descramble_guard`` times
    the median reference magnitude are zeroed instead of divided; if more
    than ``max_masked_fraction`` of the grid is affected the direction is too
    close to a scrambling null to descramble at all.
    """
    rows = check_symbol_grid(cfg, rows)
    reference = scramble_symbols(check_symbol_grid(cfg, data), pattern, cfg, theta_deg)
    return _descramble(rows, reference, theta_deg, options)


def _descramble(
    rows: np.ndarray, reference: np.ndarray, theta_deg: float, options: DetectionOptions
) -> DescrambleResult:
    """:func:`descramble` of validated rows by the symbols already scrambled
    toward ``theta_deg``."""
    magnitude = np.abs(reference)
    epsilon = options.descramble_guard * float(np.median(magnitude))
    masked = magnitude < epsilon
    fraction = float(masked.mean())
    if fraction > options.max_masked_fraction:
        raise DegenerateBinError(
            f"{100.0 * fraction:.1f}% of reference symbols at {theta_deg:.2f} deg "
            f"fall below the descrambling guard "
            f"(limit {100.0 * options.max_masked_fraction:.1f}%)"
        )
    quotient = np.divide(rows, reference, out=np.zeros_like(rows), where=~masked)
    return DescrambleResult(symbols=quotient, masked=masked, epsilon=epsilon)


def range_response(descrambled: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Complex range response r(l, mu): IDFT across subcarriers."""
    return idft(check_symbol_grid(cfg, descrambled), axis=0)


def range_profile(descrambled: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Magnitude range profile: |r(l, mu)| averaged over OFDM symbols."""
    return np.abs(range_response(descrambled, cfg)).mean(axis=1)


def velocity_spectrum(response_row: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Magnitude velocity spectrum of one range-response row, DFT bin order."""
    row = np.asarray(response_row, dtype=np.complex128)
    if row.shape != (cfg.num_ofdm_symbols,):
        raise ValueError(
            f"response row must have shape ({cfg.num_ofdm_symbols},), got {row.shape}"
        )
    return np.abs(dft(row))


@dataclasses.dataclass(frozen=True)
class BinPipeline:
    """Everything the coarse stage computed inside one detected angle bin.

    ``velocity_spectra[i]`` and ``velocity_bins[i]`` belong to range bin
    ``range_bins[i]``.
    """

    angle_bin: int
    angle_deg: float
    rows: np.ndarray  # complex beamformed rows at this bin, (N_s, N_p)
    descrambled: np.ndarray
    masked_fraction: float
    range_response: np.ndarray  # complex r(l, mu), (N_s, N_p)
    range_profile: np.ndarray
    range_bins: np.ndarray
    velocity_spectra: tuple  # one magnitude spectrum per detected range bin
    velocity_bins: tuple  # one signed-bin array per detected range bin


@dataclasses.dataclass(frozen=True)
class CoarseResult:
    estimates: tuple
    spectrum: np.ndarray
    threshold: float  # the angle-stage threshold
    bins: tuple


def coarse_pipeline(
    grid: np.ndarray,
    data: np.ndarray,
    pattern: SwitchingPattern,
    cfg: SystemConfig,
    options: DetectionOptions = DetectionOptions(),
) -> CoarseResult:
    """Run the full angle/range/velocity coarse stage.

    Raises:
        NoPeaksError: when no angle bin clears the detection threshold.
        DegenerateBinError: when a detected direction cannot be descrambled.
    """
    grid = check_antenna_grid(cfg, grid)
    data = check_symbol_grid(cfg, data)
    return _coarse_pipeline(grid, data, pattern, cfg, options)


def _coarse_pipeline(
    grid: np.ndarray,
    data: np.ndarray,
    pattern: SwitchingPattern,
    cfg: SystemConfig,
    options: DetectionOptions,
) -> CoarseResult:
    """:func:`coarse_pipeline` of a validated grid and payload: each bin
    center is scrambled once, and nothing re-validates the cube."""
    spectrum = _angle_spectrum(grid)
    angle_bins = detect_peaks(spectrum, options.angle_peaks)
    angle_bins = angle_bins[~np.isnan(bin_to_angle_deg(angle_bins, cfg))]
    if angle_bins.size == 0:
        raise NoPeaksError("no angle bin rises above the detection threshold")

    estimates = []
    bin_results = []
    for angle_bin in angle_bins:
        angle_deg = float(bin_to_angle_deg(int(angle_bin), cfg))
        rows = _beam_rows(grid, int(angle_bin))
        reference = scramble_symbols(data, pattern, cfg, angle_deg)
        desc = _descramble(rows, reference, angle_deg, options)
        response = range_response(desc.symbols, cfg)
        profile = np.abs(response).mean(axis=1)
        range_bins = detect_peaks(profile, options.range_peaks)
        spectra = []
        velocity_bins = []
        for range_bin in range_bins:
            spec = velocity_spectrum(response[range_bin], cfg)
            signed = signed_bin_index(
                detect_peaks(spec, options.velocity_peaks), cfg.num_ofdm_symbols
            )
            spectra.append(spec)
            velocity_bins.append(signed)
            for velocity_bin in signed:
                estimates.append(
                    CoarseEstimate(
                        angle_bin=int(angle_bin),
                        angle_deg=angle_deg,
                        range_bin=int(range_bin),
                        range_m=float(bin_to_range_m(int(range_bin), cfg)),
                        velocity_bin=int(velocity_bin),
                        velocity_mps=float(bin_to_velocity_mps(int(velocity_bin), cfg)),
                    )
                )
        bin_results.append(
            BinPipeline(
                angle_bin=int(angle_bin),
                angle_deg=angle_deg,
                rows=rows,
                descrambled=desc.symbols,
                masked_fraction=float(desc.masked.mean()),
                range_response=response,
                range_profile=profile,
                range_bins=range_bins,
                velocity_spectra=tuple(spectra),
                velocity_bins=tuple(velocity_bins),
            )
        )
    return CoarseResult(
        estimates=tuple(estimates),
        spectrum=spectrum,
        threshold=peak_threshold(spectrum, options.angle_peaks),
        bins=tuple(bin_results),
    )

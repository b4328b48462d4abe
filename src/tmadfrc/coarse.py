"""Coarse angle/range/velocity estimation on the receive grid.

The pipeline is three nested discrete transforms, each followed by peak
picking on an amplitude profile:

1. an unnormalized DFT across receive elements localizes targets in angle
   (bin k corresponds to sin(theta) = -wrap(k / N_r) / spacing); its beam
   power, the mean of |DFT|^2 over all subcarriers and symbols, is
   real(F R F^H)[k, k] for the DFT matrix F and the frame's spatial sample
   covariance R, and peaks are picked on its square root, the RMS beam
   amplitude,
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
    Frame,
    bin_to_angle_deg,
    bin_to_range_m,
    bin_to_velocity_mps,
    signed_bin_index,
)
from .tma import scramble_symbols
from .transforms import dft, idft


class NoPeaksError(RuntimeError):
    """No spectrum bin rose above the detection threshold."""


class DegenerateBinError(RuntimeError):
    """Too many scrambled reference symbols were near zero to descramble."""


# Peak rule: a bin is a peak when it is a circular local maximum and its
# magnitude reaches max(_MEDIAN_FACTOR * median, _MAX_FACTOR * max) of the
# profile.
_MEDIAN_FACTOR = 3.0
_MAX_FACTOR = 0.5
# Descrambling guard: a reference symbol at or below _DESCRAMBLE_GUARD times the
# upper median reference magnitude is zeroed instead of divided, and a direction
# with more than _MAX_MASKED_FRACTION of its grid zeroed cannot be descrambled.
_DESCRAMBLE_GUARD = 1e-3
_MAX_MASKED_FRACTION = 0.10


def peak_threshold(profile: np.ndarray, keep_tallest: bool = False) -> float:
    """The level a peak of ``profile`` must reach.  With ``keep_tallest`` it
    is capped at the profile maximum, so the tallest local maximum always
    qualifies — for stages that run inside an already-detected angle bin,
    where the question is not "is anything there?" but "how many?"."""
    top = float(np.max(profile, initial=0.0))
    threshold = max(_MEDIAN_FACTOR * float(np.median(profile)), _MAX_FACTOR * top)
    return min(threshold, top) if keep_tallest else threshold


def _local_maxima(values, wrap: bool) -> np.ndarray:
    """Mask of local maxima, a plateau counting at its rightmost sample.  Each
    value meets its neighbours in the profile padded at both ends: with
    ``wrap`` by its own far ends, as a circular DFT profile is; otherwise, and
    for a single value, by -inf."""
    v = np.asarray(values, dtype=float)
    left, right = (v[-1:], v[:1]) if wrap and v.size > 1 else ([-np.inf], [-np.inf])
    padded = np.concatenate((left, v, right))
    return (v >= padded[:-2]) & (v > padded[2:])


def detect_peaks(profile: np.ndarray, keep_tallest: bool = False) -> np.ndarray:
    """Indices of circular local maxima at or above the stage threshold.

    On an exact plateau only its rightmost bin counts as the local maximum; a
    flat profile is one plateau all round, and with ``keep_tallest`` its last
    bin is kept.
    """
    threshold = peak_threshold(profile, keep_tallest)
    maxima = _local_maxima(profile, wrap=True)
    if keep_tallest and maxima.size and not maxima.any():
        maxima[-1] = True
    return np.flatnonzero((profile >= threshold) & maxima)


def _dft_weights(angle_bins, n_rx: int) -> np.ndarray:
    """Receive-axis DFT weights exp(-2j pi k m / N_r) of angle bin(s) k,
    shape (N_r,) or (..., N_r)."""
    return np.exp(-2j * np.pi * (np.multiply.outer(angle_bins, np.arange(n_rx)) % n_rx) / n_rx)


def angle_spectrum(frame: Frame) -> np.ndarray:
    """Beam power per angle bin: real(diag(F R F^H)) for the receive-axis DFT
    matrix F and the frame's sample covariance R, which is the mean |DFT|^2
    over all subcarriers and symbols.  Rounding can leave an empty bin a hair
    below zero, so the power is clipped at 0.  :func:`beam_rows` gives one
    bin's complex rows."""
    n_rx = frame.cfg.num_rx_antennas
    weights = _dft_weights(np.arange(n_rx), n_rx)
    power = ((weights @ frame.covariance) * weights.conj()).sum(axis=1).real
    return np.maximum(power, 0.0)


def beam_rows(frame: Frame, angle_bin: int) -> np.ndarray:
    """Beamformed (N_s, N_p) rows of one DFT angle bin: the bin's DFT weights
    times the receive cube as one product, in an array of their own."""
    grid = frame.grid
    n_rx = grid.shape[0]
    rows = np.empty(grid.shape[1:], dtype=np.complex128)
    np.matmul(_dft_weights(angle_bin, n_rx), grid.reshape(n_rx, -1), out=rows.reshape(-1))
    return rows


@dataclasses.dataclass(frozen=True)
class DescrambleResult:
    symbols: np.ndarray  # (num_subcarriers, num_ofdm_symbols) quotient grid
    masked: np.ndarray  # bool grid of entries zeroed by the small-divisor guard


def descramble(rows: np.ndarray, reference: np.ndarray, theta_deg: float) -> DescrambleResult:
    """Divide beamformed (N_s, N_p) rows by ``reference``, the payload
    scrambled toward ``theta_deg``.

    Entries whose magnitude is at or below ``_DESCRAMBLE_GUARD`` times the
    upper median of the n reference magnitudes, the one at index n // 2 once
    sorted, are zeroed instead of divided; if more than
    ``_MAX_MASKED_FRACTION`` of the grid is affected the direction is too
    close to a scrambling null to descramble at all.  So at least n // 2 + 1
    zero references, which make the upper median 0, refuse the direction.
    """
    magnitude = np.abs(reference)
    middle = magnitude.size // 2
    scale = np.partition(magnitude, middle, axis=None)[middle]
    masked = magnitude <= _DESCRAMBLE_GUARD * scale
    fraction = float(masked.mean())
    if fraction > _MAX_MASKED_FRACTION:
        raise DegenerateBinError(
            f"{100.0 * fraction:.1f}% of reference symbols at {theta_deg:.2f} deg "
            f"fall below the descrambling guard "
            f"(limit {100.0 * _MAX_MASKED_FRACTION:.1f}%)"
        )
    quotient = np.divide(rows, reference, out=np.zeros_like(rows), where=~masked)
    return DescrambleResult(symbols=quotient, masked=masked)


@dataclasses.dataclass(frozen=True)
class BinPipeline:
    """The profiles and peaks the coarse stage found inside one detected angle
    bin; ``velocity_spectra[i]`` belongs to range bin ``range_bins[i]``.
    Refinement reads only ``angle_bin`` and ``range_bins``; the spectra are
    kept for export.
    """

    angle_bin: int
    range_profile: np.ndarray  # |r(l, mu)| averaged over OFDM symbols
    range_bins: np.ndarray
    velocity_spectra: tuple  # one magnitude spectrum per detected range bin


@dataclasses.dataclass(frozen=True)
class CoarseResult:
    estimates: tuple
    spectrum: np.ndarray  # beam power per angle bin (angle_spectrum)
    bins: tuple


def coarse_pipeline(frame: Frame) -> CoarseResult:
    """Run the full angle/range/velocity coarse stage.  Every detected bin
    center is scrambled in one call.

    Raises:
        NoPeaksError: when no angle bin clears the detection threshold.
        DegenerateBinError: when a detected direction cannot be descrambled.
    """
    cfg = frame.cfg
    spectrum = angle_spectrum(frame)
    angle_bins = detect_peaks(np.sqrt(spectrum))  # the rule reads amplitudes
    angles = bin_to_angle_deg(angle_bins, cfg)
    angle_bins, angles = angle_bins[~np.isnan(angles)], angles[~np.isnan(angles)]
    if angle_bins.size == 0:
        raise NoPeaksError("no angle bin rises above the detection threshold")

    estimates = []
    bin_results = []
    references = scramble_symbols(frame.data, frame.pattern, cfg, angles)  # (bins, N_s, N_p)
    for angle_bin, angle_deg, reference in zip(angle_bins, angles.tolist(), references):
        desc = descramble(beam_rows(frame, int(angle_bin)), reference, angle_deg)
        response = idft(desc.symbols, axis=0)  # r(l, mu)
        profile = np.abs(response).mean(axis=1)
        range_bins = detect_peaks(profile, keep_tallest=True)
        spectra = np.abs(dft(response[range_bins], axis=1))  # one row per range bin
        for range_bin, spec in zip(range_bins, spectra):
            signed = signed_bin_index(detect_peaks(spec, keep_tallest=True), cfg.num_ofdm_symbols)
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
                range_profile=profile,
                range_bins=range_bins,
                velocity_spectra=tuple(spectra),
            )
        )
    return CoarseResult(
        estimates=tuple(estimates),
        spectrum=spectrum,
        bins=tuple(bin_results),
    )

"""Independent reference routes that only the tests read.

- :func:`time_domain_demod` synthesizes the switched waveform on a fine time
  grid and demodulates it, with no harmonic-coefficient formula, so it checks
  :func:`tmadfrc.scramble_symbols`; :func:`snap_pattern` and
  :func:`gate_matrix` build its grid-aligned gates.
- :func:`qpsk_awgn_ber` is the closed-form Gray-QPSK bit error rate that the
  simulated link is held against.
"""

import math

import numpy as np

from tmadfrc import PatternError, SwitchingPattern, SystemConfig
from tmadfrc import tma
from tmadfrc.model import check_symbol_grid, snr_adds_noise


def snap_pattern(pattern: SwitchingPattern, n_intervals: int) -> SwitchingPattern:
    """Align switch edges to a grid of ``n_intervals`` per period.

    Edges are rounded to the nearest grid line; a window that would round to
    zero width is an error.  The staggered pattern is already aligned whenever
    the element count divides ``n_intervals``.
    """
    start = np.rint(pattern.tau_on * n_intervals).astype(int)
    length = np.rint(pattern.duty * n_intervals).astype(int)
    if np.any(length < 1):
        raise PatternError(f"duty below grid resolution (1/{n_intervals}); cannot snap")
    return SwitchingPattern(
        tau_on=np.mod(start, n_intervals) / n_intervals,
        duty=np.minimum(length, n_intervals) / n_intervals,
        weights=pattern.weights.copy(),
    )


def gate_matrix(pattern: SwitchingPattern, n_intervals: int) -> np.ndarray:
    """0/1 switch states on the interval grid, shape (elements, n_intervals).

    Assumes edges already lie on the grid (see :func:`snap_pattern`); windows
    wrap around the period boundary.
    """
    start = np.rint(pattern.tau_on * n_intervals).astype(int)
    length = np.rint(pattern.duty * n_intervals).astype(int)
    gates = np.zeros((pattern.num_elements, n_intervals))
    for row, (s0, ln) in enumerate(zip(start, length)):
        idx = (s0 + np.arange(ln)) % n_intervals
        gates[row, idx] = 1.0
    return gates


# Grid intervals of the time-domain route per 1/num_subcarriers of a symbol.
INTERVALS_PER_SUBCARRIER = 8


def time_domain_demod(
    data: np.ndarray,
    pattern: SwitchingPattern,
    cfg: SystemConfig,
    theta_deg: float,
) -> np.ndarray:
    """Reference route: synthesize the switched waveform and demodulate it.

    Builds the baseband product gate(t) * ofdm(t) on a grid of
    ``INTERVALS_PER_SUBCARRIER`` (8) times ``num_subcarriers`` intervals per
    symbol (switch edges snapped to that grid, so the gate is constant on
    each interval), then projects onto each receive subcarrier by integrating
    the complex exponential exactly over every interval.  No
    harmonic-coefficient formula is involved, which makes this an independent
    check of :func:`tmadfrc.scramble_symbols`; both routes agree to machine
    precision for grid-aligned patterns.  A direction is refused by the
    package's own rule.

    The cyclic prefix drops out: the demodulation window spans exactly one
    switching period and every integrand is periodic over it.
    """
    tma._check_direction(theta_deg)
    data = check_symbol_grid(cfg, data)
    ns = cfg.num_subcarriers
    n = ns * INTERVALS_PER_SUBCARRIER
    snapped = snap_pattern(pattern, n)
    gates = gate_matrix(snapped, n)

    sin_theta = np.sin(np.radians(theta_deg))
    elem = np.arange(pattern.num_elements)
    steer = np.exp(-2j * np.pi * elem * cfg.tx_spacing_wavelengths * sin_theta)
    combined_gate = (steer * snapped.weights) @ gates  # (n,)

    # Exact integral of exp(-2j pi m tau) over interval [i/n, (i+1)/n) for the
    # in-band harmonic orders; rows i, columns m.
    orders = np.arange(-(ns - 1), ns)
    i = np.arange(n)
    phase = np.exp(-2j * np.pi * np.multiply.outer(i, orders) / n)
    nonzero = orders != 0
    width = np.empty(orders.size, dtype=np.complex128)
    width[nonzero] = (1.0 - np.exp(-2j * np.pi * orders[nonzero] / n)) / (
        2j * np.pi * orders[nonzero]
    )
    width[~nonzero] = 1.0 / n
    coeffs = combined_gate @ (phase * width)  # (2*ns-1,)

    return tma._toeplitz(coeffs) @ data


def qpsk_awgn_ber(snr_db: float) -> float:
    """Theoretical Gray-QPSK bit error rate on an AWGN channel at symbol SNR
    ``snr_db``: Q(sqrt(SNR)), 0 at +inf.  Other SNRs that name no noise level
    (:func:`tmadfrc.model.snr_adds_noise`) raise ``ValueError``."""
    snr_adds_noise(snr_db)
    snr = 10.0 ** (snr_db / 10.0)
    return 0.5 * math.erfc(math.sqrt(snr / 2.0))

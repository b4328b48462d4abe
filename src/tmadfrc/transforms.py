"""Discrete Fourier transforms and DFT bin conventions for the estimation
pipeline.

``dft``/``idft`` are ``np.fft.fft``/``np.fft.ifft`` along ``axis``, one path
for every length (the 24-element receive axis as well as the power-of-two
subcarrier and slow-time axes).  Conventions: forward sum
``X[k] = sum_n x[n] exp(-2j pi k n / N)`` without normalization, inverse
carries the 1/N factor, so ``idft(dft(x)) == x``.
"""

import numpy as np


def dft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Forward DFT along ``axis``, unnormalized."""
    return np.fft.fft(np.asarray(x, dtype=np.complex128), axis=axis)


def idft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse DFT along ``axis`` with the 1/N normalization."""
    return np.fft.ifft(np.asarray(x, dtype=np.complex128), axis=axis)


def wrapped_bin_frequency(k, n: int):
    """Map DFT bin index k (0..n-1) to its signed frequency in cycles/sample,
    wrapped to [-1/2, 1/2)."""
    freq = np.asarray(k, dtype=float) / n
    return np.where(freq >= 0.5, freq - 1.0, freq)


def signed_bin_index(k, n: int):
    """Map DFT bin index k (0..n-1) to the centered index in [-n/2, n/2)."""
    k = np.asarray(k)
    return np.where(k >= (n + 1) // 2, k - n, k)

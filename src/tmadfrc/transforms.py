"""Discrete Fourier transforms of the estimation pipeline.

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

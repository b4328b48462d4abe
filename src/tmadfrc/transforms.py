"""Discrete Fourier transforms of the estimation pipeline.

``dft``/``idft`` are ``np.fft.fft``/``np.fft.ifft`` along ``axis``, one path
for every length (the 24-element receive axis as well as the power-of-two
subcarrier and slow-time axes).  Conventions: forward sum
``X[k] = sum_n x[n] exp(-2j pi k n / N)`` without normalization, inverse
carries the 1/N factor, so ``idft(dft(x)) == x``.
"""

import numpy as np

dft = np.fft.fft
idft = np.fft.ifft

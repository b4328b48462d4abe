"""The DFT contract against the explicit sums of the module docstring."""

import numpy as np
import pytest

from tmadfrc import dft, idft, transforms


def test_transforms_are_numpys_ffts():
    assert transforms.dft is np.fft.fft
    assert transforms.idft is np.fft.ifft


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dft_matrix(n):
    """W[k, m] = exp(-2j pi k m / n): ``W @ x`` is the unnormalized forward sum."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 24, 64, 256])
def test_dft_matches_numpy(n):
    """``dft`` (NumPy's FFT) is the forward sum, without normalization."""
    x = random_complex(np.random.default_rng(n), n)
    reference = dft_matrix(n) @ x
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(dft(x) - reference)) < 1e-12 * scale


def test_dft_along_leading_axis():
    x = random_complex(np.random.default_rng(7), 8, 5)
    assert np.allclose(dft(x, axis=0), dft_matrix(8) @ x, atol=1e-12)
    assert np.allclose(dft(x, axis=1), x @ dft_matrix(5).T, atol=1e-12)


def test_idft_matches_numpy():
    """``idft`` (NumPy's inverse FFT) is the conjugate sum carrying 1/N."""
    x = random_complex(np.random.default_rng(9), 24)
    assert np.allclose(idft(x), dft_matrix(24).conj() @ x / 24, atol=1e-13)


@pytest.mark.parametrize("n", [4, 24, 64, 256])
def test_roundtrip(n):
    x = random_complex(np.random.default_rng(n + 2), n)
    assert np.max(np.abs(idft(dft(x)) - x)) < 1e-12
    assert np.max(np.abs(dft(idft(x)) - x)) < 1e-12

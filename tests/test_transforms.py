"""The DFT contract against the numpy.fft oracle."""

import numpy as np
import pytest

from tmadfrc import dft, idft


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 24, 64, 256])
def test_dft_matches_numpy(n):
    x = random_complex(np.random.default_rng(n), n)
    reference = np.fft.fft(x)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(dft(x) - reference)) < 1e-12 * scale


def test_dft_along_leading_axis():
    x = random_complex(np.random.default_rng(7), 8, 5)
    assert np.allclose(dft(x, axis=0), np.fft.fft(x, axis=0), atol=1e-12)
    assert np.allclose(dft(x, axis=1), np.fft.fft(x, axis=1), atol=1e-12)


def test_idft_matches_numpy():
    x = random_complex(np.random.default_rng(9), 24)
    assert np.allclose(idft(x), np.fft.ifft(x), atol=1e-13)


@pytest.mark.parametrize("n", [4, 24, 64, 256])
def test_roundtrip(n):
    x = random_complex(np.random.default_rng(n + 2), n)
    assert np.max(np.abs(idft(dft(x)) - x)) < 1e-12
    assert np.max(np.abs(dft(idft(x)) - x)) < 1e-12

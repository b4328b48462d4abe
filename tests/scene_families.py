"""Seeded multi-target scene families on the reference config.

Each generator yields ``Scene``s at 10 dB (the spread family draws its SNR)
with the scene index as noise seed:

- ``separated_scenes(k, count)``: k unit-reflectivity targets, angles uniform
  in +-60 deg and at least 10 deg apart, R 5-300 m, |v| <= 100 m/s
  (``default_rng(100 + k)``);
- ``clustered_scenes(count)``: 2-4 unit-reflectivity targets within +-3 deg of
  a centre drawn from +-50 deg, R 5-300 m, |v| <= 100 m/s (``default_rng(11)``);
- ``spread_scenes(count)``: 1-5 targets, angles uniform in +-60 deg,
  R 5-1000 m, |v| <= 100 m/s, reflectivity 0.3-1, SNR -15-20 dB
  (``default_rng(12)``).
"""

import numpy as np

from tmadfrc import Scene, Target


def _targets(rng, angles, max_range_m=300.0, betas=None):
    ranges = rng.uniform(5.0, max_range_m, angles.size)
    velocities = rng.uniform(-100.0, 100.0, angles.size)
    betas = np.ones(angles.size) if betas is None else betas
    return tuple(
        Target(float(a), float(r), float(v), reflectivity=complex(b))
        for a, r, v, b in zip(angles, ranges, velocities, betas)
    )


def separated_scenes(k: int, count: int):
    rng = np.random.default_rng(100 + k)
    for index in range(count):
        angles = rng.uniform(-60.0, 60.0, k)
        while k > 1 and np.diff(np.sort(angles)).min() < 10.0:
            angles = rng.uniform(-60.0, 60.0, k)
        yield Scene(_targets(rng, angles), seed=index, snr_db=10.0)


def clustered_scenes(count: int):
    rng = np.random.default_rng(11)
    for index in range(count):
        k = int(rng.integers(2, 5))
        angles = rng.uniform(-50.0, 50.0) + rng.uniform(-3.0, 3.0, k)
        yield Scene(_targets(rng, angles), seed=index, snr_db=10.0)


def spread_scenes(count: int):
    rng = np.random.default_rng(12)
    for index in range(count):
        k = int(rng.integers(1, 6))
        angles = rng.uniform(-60.0, 60.0, k)
        targets = _targets(rng, angles, 1000.0, rng.uniform(0.3, 1.0, k))
        yield Scene(targets, seed=index, snr_db=float(rng.uniform(-15.0, 20.0)))

"""Refinement stage: MUSIC angles and exhaustive least-squares grid fits.

The grid fits are validated against a brute-force oracle that reconstructs
the rank-1 source model directly and enumerates the full combination grid --
the factorized quadratic form inside refine_ranges/refine_velocities must
agree with that direct evaluation combination by combination.
"""

import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import qpsk_frame
from tmadfrc import coarse, comms, model, refine
from tmadfrc import (
    Frame,
    Scene,
    Target,
    design_pattern,
    estimate_targets,
    radar_returns,
    scramble_symbols,
)
from tmadfrc.coarse import angle_spectrum, coarse_pipeline, descramble
from tmadfrc.model import derived_resolutions
from tmadfrc.refine import (
    RefineOptions,
    SubspaceError,
    candidate_range_grid,
    candidate_velocity_grid,
    estimate_n_sources,
    matched_velocity_bins,
    music_pseudospectrum,
    music_search_grid,
    refine_ranges,
    refine_velocities,
    sample_covariance,
    steering_vector,
)

ON_GRID_SIN = 0.25
ON_GRID_ANGLE = math.degrees(math.asin(ON_GRID_SIN))


def pattern_for(cfg):
    return design_pattern(cfg, cfg.cu_angle_deg)


# ---------------------------------------------------------------------------
# subspace pieces


@pytest.mark.parametrize(
    "name, value", [("num_sources", 0), ("num_sources", -2), ("num_sources", True)]
)
def test_refine_options_refuse_bad_values(name, value):
    # refused up front, not misread (0 sources as "auto") or failing deep
    # inside a stage with an unrelated error
    with pytest.raises(ValueError, match=f"RefineOptions.{name}"):
        RefineOptions(**{name: value})


def test_refine_options_hold_only_the_caller_settings():
    assert [f.name for f in dataclasses.fields(RefineOptions)] == ["num_sources", "fit_gains"]
    with pytest.raises(TypeError):
        RefineOptions(range_points=11)
    with pytest.raises(TypeError):
        RefineOptions(velocity_points=11)
    assert RefineOptions(fit_gains=True).velocity_points == refine.VELOCITY_POINTS == 11


def test_window_sizes_are_odd():
    # an odd window's middle value is its center, so refinement can never do
    # worse than the coarse stage on the same objective
    assert refine.RANGE_POINTS % 2 == 1 and refine.VELOCITY_POINTS % 2 == 1


def test_sample_covariance_matches_manual_average():
    rng = np.random.default_rng(0)
    grid = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    flat = grid.reshape(3, -1)
    manual = sum(np.outer(flat[:, k], flat[:, k].conj()) for k in range(4)) / 4
    np.testing.assert_allclose(sample_covariance(grid), manual, rtol=1e-12)


@pytest.mark.parametrize("block", [None, 7])
def test_sample_covariance_matches_full_cube_product(monkeypatch, block):
    """Accumulating over snapshot blocks, the last one ragged, agrees with
    one product of the whole receive matrix."""
    if block is not None:
        monkeypatch.setattr(model, "_SNAPSHOT_BLOCK", block)
    rng = np.random.default_rng(3)
    grid = rng.standard_normal((12, 48, 50)) + 1j * rng.standard_normal((12, 48, 50))
    assert (48 * 50) % model._SNAPSHOT_BLOCK != 0
    flat = grid.reshape(12, -1)
    expected = flat @ flat.conj().T / flat.shape[1]
    np.testing.assert_allclose(sample_covariance(grid), expected, rtol=1e-12)


def mdl_by_loop(eigenvalues, snapshots):
    """Wax & Kailath's MDL, one order at a time: the reference for the
    cumulative-sum form of ``estimate_n_sources``."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    m = lam.size
    scores = []
    for k in range(m):
        tail = lam[k:]
        log_ratio = np.mean(np.log(tail)) - np.log(np.mean(tail))  # log(geomean / mean)
        scores.append(-snapshots * (m - k) * log_ratio + 0.5 * k * (2 * m - k) * np.log(snapshots))
    return int(np.argmin(scores))


@pytest.mark.parametrize("order", range(8))
def test_estimate_n_sources_counts_the_eigenvalues_above_the_noise_floor(order):
    # order 0 is the flat spectrum: noise alone
    spectrum = [100.0] * order + [1.0] * (8 - order)
    assert estimate_n_sources(spectrum, 1000) == order
    assert estimate_n_sources(spectrum[::-1], 1000) == order


def test_estimate_n_sources_matches_the_order_by_order_formula():
    assert estimate_n_sources([10.0, 9.0, 8.0, 1.0, 1.0], 100) == 3
    assert estimate_n_sources([50.0, 1.0, 1.0], 100) == 1
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(2, 25))
        spectrum = rng.exponential(size=m) * 10.0 ** rng.uniform(-3, 3, size=m)
        snapshots = int(rng.integers(1, 20000))
        assert estimate_n_sources(spectrum, snapshots) == mdl_by_loop(spectrum, snapshots)


def test_estimate_n_sources_rejects_degenerate_spectrum():
    for spectrum in ([0.0, 0.0, 0.0], [1.0, np.nan, 0.5], [np.inf, 1.0], [2.0]):
        with pytest.raises(SubspaceError, match="degenerate"):
            estimate_n_sources(spectrum, 100)


@pytest.mark.parametrize("snapshots", [0, -3, 2.5, True])
def test_estimate_n_sources_refuses_a_snapshot_count_that_is_no_positive_integer(snapshots):
    with pytest.raises(ValueError, match="snapshots"):
        estimate_n_sources([2.0, 1.0], snapshots)


def test_estimate_n_sources_on_a_rank_deficient_spectrum_stays_below_m_without_warnings():
    rng = np.random.default_rng(8)
    columns = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))  # N = 3 < M = 8
    rank_three = np.linalg.eigvalsh(columns @ columns.conj().T / 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert estimate_n_sources(rank_three, 3) <= 7
        assert estimate_n_sources([5.0, 3.0, 0.0, 0.0], 1000) <= 3
        assert estimate_n_sources([5.0, 0.0, 0.0, -1e-17], 1000) <= 3


def test_estimate_n_sources_finds_no_source_in_noise_only_cubes(ref_cfg):
    rng = np.random.default_rng(11)
    cube = np.zeros((ref_cfg.num_rx_antennas, *ref_cfg.grid_shape), dtype=np.complex128)
    for _ in range(100):
        cube[...] = 0.0
        comms.add_noise(cube, 1.0, rng)
        eigenvalues = np.linalg.eigvalsh(sample_covariance(cube))
        assert estimate_n_sources(eigenvalues, cube[0].size) == 0


# ---------------------------------------------------------------------------
# MUSIC


def test_music_search_grid_is_step_lattice_covering_bin(ref_cfg):
    grid = music_search_grid(20, ref_cfg)
    # every point is a multiple of the step
    np.testing.assert_allclose(grid, np.round(grid / 0.1) * 0.1, atol=1e-9)
    center = 1.0 / 3.0  # sine of bin 20
    width = 1.0 / (ref_cfg.num_rx_antennas * 0.5)
    lo = math.degrees(math.asin(center - width))
    hi = math.degrees(math.asin(center + width))
    assert grid[0] >= lo - 1e-9 and grid[0] - 0.1 < lo
    assert grid[-1] <= hi + 1e-9 and grid[-1] + 0.1 > hi
    assert 20.0 == pytest.approx(grid[np.argmin(np.abs(grid - 20.0))], abs=1e-9)


def test_music_search_grid_clips_at_endfire(ref_cfg):
    # bin 12 sits at sin(theta) = 1: the window is clipped to +/-90 degrees
    grid = music_search_grid(12, ref_cfg)
    assert np.all(np.isfinite(grid))
    assert grid[-1] == pytest.approx(90.0, abs=1e-9)


def analytic_covariance(cfg, angles_deg, noise_power):
    steer = steering_vector(cfg, angles_deg)
    cov = noise_power * np.eye(cfg.num_rx_antennas, dtype=complex)
    for row in steer:
        cov += np.outer(row, row.conj())
    return cov


def test_music_angles_exact_on_analytic_covariance(ref_cfg):
    cov = analytic_covariance(ref_cfg, [20.0, 22.0], noise_power=0.01)
    grid = music_search_grid(20, ref_cfg)
    spectrum = music_pseudospectrum(cov, 2, ref_cfg, grid)
    inner = spectrum[1:-1]
    peaks = np.flatnonzero((inner > spectrum[:-2]) & (inner > spectrum[2:])) + 1
    angles = np.sort(grid[peaks[np.argsort(spectrum[peaks])[-2:]]])
    assert angles.shape == (2,)
    assert angles[0] == pytest.approx(20.0, abs=1e-6)
    assert angles[1] == pytest.approx(22.0, abs=1e-6)


def test_music_pseudospectrum_scale_invariant(ref_cfg):
    cov = analytic_covariance(ref_cfg, [20.0, 22.0], noise_power=0.01)
    grid = music_search_grid(20, ref_cfg)
    base = music_pseudospectrum(cov, 2, ref_cfg, grid)
    scaled = music_pseudospectrum(7.3 * cov, 2, ref_cfg, grid)
    assert int(np.argmax(base)) == int(np.argmax(scaled))
    # compare the noise-subspace projections: the reciprocal peaks themselves
    # are 1/eps-sized and numerically irreproducible at the exact angles
    np.testing.assert_allclose(1.0 / scaled, 1.0 / base, rtol=1e-6, atol=1e-12)


def test_music_pseudospectrum_needs_noise_subspace(ref_cfg):
    cov = analytic_covariance(ref_cfg, [20.0], noise_power=0.01)
    with pytest.raises(SubspaceError, match="noise subspace"):
        music_pseudospectrum(cov, ref_cfg.num_rx_antennas, ref_cfg, np.array([0.0]))


def test_music_pseudospectrum_rejects_wrong_shape(ref_cfg):
    with pytest.raises(ValueError, match="covariance"):
        music_pseudospectrum(np.eye(3), 1, ref_cfg, np.array([0.0]))


def test_music_pseudospectrum_rejects_non_finite(ref_cfg):
    n = ref_cfg.num_rx_antennas
    cov = np.full((n, n), np.nan, dtype=complex)
    with pytest.raises(SubspaceError, match="finite"):
        music_pseudospectrum(cov, 1, ref_cfg, np.array([0.0]))


# ---------------------------------------------------------------------------
# candidate grids


def test_candidate_range_grid_window(monkeypatch, small_cfg):
    monkeypatch.setattr(refine, "RANGE_POINTS", 5)
    res, _, _ = derived_resolutions(small_cfg)
    grid = candidate_range_grid([2], small_cfg)
    np.testing.assert_allclose(
        grid, 2 * res + res * np.array([-0.5, -0.25, 0.0, 0.25, 0.5]), rtol=1e-12
    )


def test_candidate_range_grid_drops_negative_ranges(monkeypatch, small_cfg):
    monkeypatch.setattr(refine, "RANGE_POINTS", 5)
    res, _, _ = derived_resolutions(small_cfg)
    grid = candidate_range_grid([0], small_cfg)
    np.testing.assert_allclose(grid, res * np.array([0.0, 0.25, 0.5]), atol=1e-12)


def test_candidate_range_grid_merges_touching_windows(monkeypatch, small_cfg):
    # windows of adjacent bins share one endpoint; the union drops duplicates
    monkeypatch.setattr(refine, "RANGE_POINTS", 5)
    grid = candidate_range_grid([2, 3], small_cfg)
    assert grid.size == 9
    assert np.all(np.diff(grid) > 0)


@pytest.mark.parametrize("points", [3, 11])
def test_candidate_windows_contain_their_center(monkeypatch, small_cfg, points):
    monkeypatch.setattr(refine, "RANGE_POINTS", points)
    monkeypatch.setattr(refine, "VELOCITY_POINTS", points)
    res, vres, _ = derived_resolutions(small_cfg)
    ranges = candidate_range_grid([3], small_cfg)
    velocities = candidate_velocity_grid([-2], small_cfg)
    assert ranges.size == velocities.size == points
    assert np.min(np.abs(ranges - 3 * res)) <= 1e-12 * res
    assert np.min(np.abs(velocities + 2 * vres)) <= 1e-12 * vres


def test_candidate_velocity_grid_keeps_negative_values(monkeypatch, small_cfg):
    monkeypatch.setattr(refine, "VELOCITY_POINTS", 3)
    _, res, _ = derived_resolutions(small_cfg)
    grid = candidate_velocity_grid([-1, 1], small_cfg)
    np.testing.assert_allclose(
        grid, res * np.array([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5]), rtol=1e-12
    )


# ---------------------------------------------------------------------------
# least-squares fits


def fit_ranges(grid, data, pattern, cfg, angles, range_bins, **kwargs):
    """:func:`refine_ranges` of (grid, payload), scrambled toward each angle."""
    scrambled = scramble_symbols(data, pattern, cfg, angles)
    return refine_ranges(Frame(grid, data, pattern, cfg), angles, scrambled, range_bins, **kwargs)


def fit_velocities(grid, data, pattern, cfg, angles, ranges, velocity_bins, **kwargs):
    """:func:`refine_velocities` of (grid, payload), scrambled toward each angle."""
    scrambled = scramble_symbols(data, pattern, cfg, angles)
    frame = Frame(grid, data, pattern, cfg)
    return refine_velocities(frame, angles, scrambled, ranges, velocity_bins, **kwargs)


def single_target_frame(cfg, target, seed):
    pattern = pattern_for(cfg)
    data = qpsk_frame(cfg, seed=seed)
    grid = radar_returns(data, pattern, cfg, Scene((target,), snr_db=np.inf))
    return pattern, data, grid


def test_refine_ranges_zero_residual_on_candidate_lattice(small_cfg):
    res, _, _ = derived_resolutions(small_cfg)
    step = res / 100  # default 101-point window
    truth = 2 * res + 10 * step  # on the candidate lattice, off the bin center
    target = Target(ON_GRID_ANGLE, truth, 40.0, reflectivity=1.0)
    pattern, data, grid = single_target_frame(small_cfg, target, seed=11)
    fit = fit_ranges(grid, data, pattern, small_cfg, [ON_GRID_ANGLE], [2])
    energy = float(np.sum(np.abs(grid[:, :, 0]) ** 2))
    assert fit.values[0] == pytest.approx(truth, abs=1e-9)
    assert fit.residual == pytest.approx(0.0, abs=1e-9 * energy)
    # pinning the source to the coarse center must fit strictly worse
    assert fit.coarse_residual > fit.residual
    assert not any(fit.on_boundary)


def test_refine_ranges_fitted_gain_recovers_reflectivity(small_cfg):
    res, _, _ = derived_resolutions(small_cfg)
    beta = 0.8 + 0.1j
    target = Target(ON_GRID_ANGLE, 2 * res, -75.0, reflectivity=beta)
    pattern, data, grid = single_target_frame(small_cfg, target, seed=12)
    fit = fit_ranges(
        grid, data, pattern, small_cfg, [ON_GRID_ANGLE], [2],
        options=RefineOptions(fit_gains=True),
    )
    unit = fit_ranges(grid, data, pattern, small_cfg, [ON_GRID_ANGLE], [2])
    energy = float(np.sum(np.abs(grid[:, :, 0]) ** 2))
    # the fitted gain absorbs beta: the truth is reconstructed exactly, which
    # unit gains cannot do (|beta - 1|^2 / |beta|^2 of the energy at the truth)
    assert fit.values[0] == pytest.approx(2 * res, abs=1e-9)
    assert fit.residual == pytest.approx(0.0, abs=1e-9 * energy)
    assert unit.residual > 1e-2 * energy


# complex reflectivities of the two oracle sources when the gains are fitted
FITTED_BETAS = (0.7 * np.exp(1j), -1.0)


def oracle_pair_fit(observed, atom0, atom1, fit_gains):
    """Residual of one candidate pair, reconstructed directly; fitted gains
    come from ``np.linalg.lstsq`` on the two atoms."""
    if not fit_gains:
        return float(np.sum(np.abs(observed - (atom0 + atom1)) ** 2))
    atoms = np.stack([atom0.ravel(), atom1.ravel()], axis=1)
    gains = np.linalg.lstsq(atoms, observed.ravel(), rcond=None)[0]
    return float(np.sum(np.abs(observed.ravel() - atoms @ gains) ** 2))


def assert_matches_oracle(fit, candidates, best):
    residual, (i, j) = best
    assert fit.values[0] == candidates[i]
    assert fit.values[1] == candidates[j]
    assert fit.residual == pytest.approx(residual, rel=1e-8)


def two_source_range_frame(cfg, fit_gains):
    """(angles, pattern, data, grid) of two noise-free sources in bins 2 and
    7, off the candidate lattice in range."""
    res, _, _ = derived_resolutions(cfg)
    angles = [math.degrees(math.asin(-0.5)), ON_GRID_ANGLE]  # bins 2 and 7
    betas = FITTED_BETAS if fit_gains else (1.0, 1.0)
    targets = (
        Target(angles[0], 2.33 * res, 40.0, reflectivity=betas[0]),
        Target(angles[1], 4.77 * res, -90.0, reflectivity=betas[1]),
    )
    pattern = pattern_for(cfg)
    data = qpsk_frame(cfg, seed=13)
    grid = radar_returns(data, pattern, cfg, Scene(targets, snr_db=np.inf))
    return angles, pattern, data, grid


@pytest.mark.parametrize("fit_gains", [False, True])
def test_refine_ranges_matches_enumeration_oracle(monkeypatch, small_cfg, fit_gains):
    """Two sources, 22x22 combination grid: the factorized search must pick
    the same combination as direct reconstruction of every candidate pair,
    with unit gains or with each pair's least-squares gains."""
    monkeypatch.setattr(refine, "RANGE_POINTS", 11)
    angles, pattern, data, grid = two_source_range_frame(small_cfg, fit_gains)
    options = RefineOptions(fit_gains=fit_gains)
    fit = fit_ranges(grid, data, pattern, small_cfg, angles, [2, 5], options=options)

    candidates = candidate_range_grid([2, 5], small_cfg)
    np.testing.assert_allclose(fit.grids[0], candidates, rtol=1e-12)
    snapshot = grid[:, :, 0]
    s = np.arange(small_cfg.num_subcarriers)
    steer = steering_vector(small_cfg, angles)
    scrambled = [
        scramble_symbols(data[:, 0], pattern, small_cfg, angle) for angle in angles
    ]

    def ramp(r):
        return np.exp(
            -2j * np.pi * s * small_cfg.subcarrier_spacing_hz * 2.0 * r / small_cfg.c
        )

    best = (np.inf, None)
    for i, r0 in enumerate(candidates):
        atom0 = steer[0][:, None] * (scrambled[0] * ramp(r0))[None, :]
        for j, r1 in enumerate(candidates):
            atom1 = steer[1][:, None] * (scrambled[1] * ramp(r1))[None, :]
            residual = oracle_pair_fit(snapshot, atom0, atom1, fit_gains)
            if residual < best[0]:
                best = (residual, (i, j))
    assert_matches_oracle(fit, candidates, best)


@pytest.mark.parametrize("fit_gains", [False, True])
def test_refine_velocities_matches_enumeration_oracle(small_cfg, fit_gains):
    cfg = dataclasses.replace(small_cfg, narrowband_doppler=True)
    res, vres, _ = derived_resolutions(cfg)
    angles = [math.degrees(math.asin(-0.5)), ON_GRID_ANGLE]
    ranges = [2.33 * res, 4.77 * res]
    velocities = [2.17 * vres, -3.38 * vres]
    betas = FITTED_BETAS if fit_gains else (1.0, 1.0)
    targets = (
        Target(angles[0], ranges[0], velocities[0], reflectivity=betas[0]),
        Target(angles[1], ranges[1], velocities[1], reflectivity=betas[1]),
    )
    pattern = pattern_for(cfg)
    data = qpsk_frame(cfg, seed=14)
    grid = radar_returns(data, pattern, cfg, Scene(targets, snr_db=np.inf))
    options = RefineOptions(fit_gains=fit_gains)
    fit = fit_velocities(grid, data, pattern, cfg, angles, ranges, [2, -3], options=options)

    candidates = candidate_velocity_grid([2, -3], cfg)
    s = np.arange(cfg.num_subcarriers)
    mu = np.arange(cfg.num_ofdm_symbols)
    steer = steering_vector(cfg, angles)
    base = []
    for angle, r in zip(angles, ranges):
        scrambled = scramble_symbols(data, pattern, cfg, angle)
        ramp = np.exp(-2j * np.pi * s * cfg.subcarrier_spacing_hz * 2.0 * r / cfg.c)
        base.append(scrambled * ramp[:, None])

    def recon_one(q, v):
        slow = np.exp(
            2j * np.pi * cfg.symbol_duration_s * mu * 2.0 * v * cfg.carrier_freq_hz / cfg.c
        )
        return steer[q][:, None, None] * (base[q] * slow[None, :])[None, :, :]

    best = (np.inf, None)
    for i, v0 in enumerate(candidates):
        part = recon_one(0, v0)
        for j, v1 in enumerate(candidates):
            residual = oracle_pair_fit(grid, part, recon_one(1, v1), fit_gains)
            if residual < best[0]:
                best = (residual, (i, j))
    assert_matches_oracle(fit, candidates, best)


def test_refine_ranges_duplicate_angles_solve_singular_members_one_by_one(
    monkeypatch, small_cfg
):
    """Two sources at the same angle: a combination that puts both on the
    same grid point has a singular Gram matrix.  The batched search must
    match a per-combination loop -- solve, lstsq where solve fails, strict
    first minimum -- bit for bit; lstsq over the whole stack would not."""
    res, _, _ = derived_resolutions(small_cfg)
    target = Target(0.0, 0.3 * res, 40.0, reflectivity=0.7 * np.exp(1j))
    pattern, data, grid = single_target_frame(small_cfg, target, seed=23)
    captured = {}
    search = refine._search_combinations

    def capturing_search(u, gram, energy, *rest):
        captured.update(u=u, gram=gram, energy=energy)
        return search(u, gram, energy, *rest)

    monkeypatch.setattr(refine, "_search_combinations", capturing_search)
    monkeypatch.setattr(refine, "RANGE_POINTS", 11)
    options = RefineOptions(fit_gains=True)
    fit = fit_ranges(grid, data, pattern, small_cfg, [0.0, 0.0], [0, 1], options=options)

    u, gram, energy = captured["u"], captured["gram"], captured["energy"]
    best, singular = (np.inf, None), 0
    for i, j in np.ndindex(len(u[0]), len(u[1])):
        v = np.array([u[0][i], u[1][j]])
        g = np.array(
            [[gram[0, 0][i, i], gram[0, 1][i, j]], [gram[0, 1][i, j].conj(), gram[1, 1][j, j]]]
        )
        try:
            gains = np.linalg.solve(g, v)
        except np.linalg.LinAlgError:
            singular += 1
            gains = np.linalg.lstsq(g, v, rcond=None)[0]
        residual = float(energy - np.real(v.conj() @ gains))
        if residual < best[0]:
            best = (residual, (i, j))
    assert singular > 0  # the range-0 pair at least: its Gram entries are exactly real
    residual, (i, j) = best
    assert fit.values.tolist() == [fit.grids[0][i], fit.grids[1][j]]
    assert fit.residual == residual


@pytest.mark.parametrize("slab", [1, 70])
@pytest.mark.parametrize("fit_gains", [False, True])
def test_combination_search_does_not_depend_on_slab_size(monkeypatch, small_cfg, fit_gains, slab):
    # 22 x 22 combinations: one row per slab, or 3 rows with a ragged last slab
    monkeypatch.setattr(refine, "RANGE_POINTS", 11)
    angles, pattern, data, grid = two_source_range_frame(small_cfg, fit_gains)
    options = RefineOptions(fit_gains=fit_gains)
    whole = fit_ranges(grid, data, pattern, small_cfg, angles, [2, 5], options=options)
    monkeypatch.setattr(refine, "_SLAB_COMBINATIONS", slab)
    slabbed = fit_ranges(grid, data, pattern, small_cfg, angles, [2, 5], options=options)
    np.testing.assert_array_equal(slabbed.values, whole.values)
    assert slabbed.residual == whole.residual
    assert slabbed.coarse_residual == whole.coarse_residual
    assert slabbed.on_boundary == whole.on_boundary
    assert len(slabbed.grids) == len(whole.grids)
    for got, expected in zip(slabbed.grids, whole.grids):
        np.testing.assert_array_equal(got, expected)


def test_refine_ranges_warns_when_optimum_hits_window_edge(small_cfg):
    res, _, _ = derived_resolutions(small_cfg)
    target = Target(ON_GRID_ANGLE, 2 * res, 40.0, reflectivity=1.0)
    pattern, data, grid = single_target_frame(small_cfg, target, seed=15)
    frame = Frame(grid, data, pattern, small_cfg)
    scrambled = scramble_symbols(data, pattern, small_cfg, [ON_GRID_ANGLE])
    # claim the target sits in bin 1: its window tops out at 1.5 cells
    with pytest.warns(RuntimeWarning, match="range hit the edge") as record:
        fit = refine_ranges(frame, [ON_GRID_ANGLE], scrambled, [1])
    assert [w.filename for w in record] == [__file__]  # the warning names this call
    assert any(fit.on_boundary)
    assert fit.values[0] == pytest.approx(1.5 * res, abs=1e-9)


def test_refine_velocities_warns_when_optimum_hits_window_edge(small_cfg):
    cfg = dataclasses.replace(small_cfg, narrowband_doppler=True)
    res, vres, _ = derived_resolutions(cfg)
    # just past the window edge: the closest in-window candidate is the edge
    target = Target(ON_GRID_ANGLE, 2 * res, 0.55 * vres, reflectivity=1.0)
    pattern, data, grid = single_target_frame(cfg, target, seed=16)
    frame = Frame(grid, data, pattern, cfg)
    scrambled = scramble_symbols(data, pattern, cfg, [ON_GRID_ANGLE])
    with pytest.warns(RuntimeWarning, match="velocity hit the edge") as record:
        fit = refine_velocities(frame, [ON_GRID_ANGLE], scrambled, [2 * res], [0])
    assert [w.filename for w in record] == [__file__]  # the warning names this call
    assert any(fit.on_boundary)
    assert fit.values[0] == pytest.approx(0.5 * vres, abs=1e-9)


def test_refine_velocities_needs_one_range_per_angle(small_cfg):
    pattern = pattern_for(small_cfg)
    data = qpsk_frame(small_cfg, seed=17)
    grid = np.zeros(small_cfg.returns_shape, dtype=complex)
    with pytest.raises(ValueError, match="one refined range per angle"):
        fit_velocities(grid, data, pattern, small_cfg, [0.0, 10.0], [100.0], [0])


def test_combination_budget_is_enforced(monkeypatch, small_cfg):
    monkeypatch.setattr(refine, "_MAX_COMBINATIONS", 10)
    monkeypatch.setattr(refine, "RANGE_POINTS", 11)
    pattern = pattern_for(small_cfg)
    data = qpsk_frame(small_cfg, seed=18)
    grid = np.ones(small_cfg.returns_shape, dtype=complex)
    for fit_gains in (False, True):  # the limit holds in both gain modes
        options = RefineOptions(fit_gains=fit_gains)
        with pytest.raises(ValueError, match="2 sources .* over the limit"):
            fit_ranges(grid, data, pattern, small_cfg, [0.0, 10.0], [2, 5], options=options)


def test_matched_velocity_bins_recovers_true_bin(small_cfg):
    cfg = dataclasses.replace(small_cfg, narrowband_doppler=True)
    res, vres, _ = derived_resolutions(cfg)
    target = Target(ON_GRID_ANGLE, 2 * res, 3 * vres, reflectivity=1.0)
    pattern, data, grid = single_target_frame(cfg, target, seed=19)
    rows = np.einsum(
        "m,msp->sp", np.exp(2j * np.pi * np.arange(cfg.num_rx_antennas) * 0.5 * ON_GRID_SIN), grid
    )
    reference = scramble_symbols(data, pattern, cfg, ON_GRID_ANGLE)
    bins = matched_velocity_bins(rows, reference, cfg, ON_GRID_ANGLE, target.range_m, count=1)
    assert bins == [3]


def test_matched_velocity_peak_straddling_bin_zero_counts_once(small_cfg):
    # The velocity spectrum is a DFT, so bins -1 and 0 are neighbours: the
    # peak of a target at -0.4 cells must not count twice and push out the
    # weaker source four cells away.
    cfg = dataclasses.replace(small_cfg, narrowband_doppler=True)
    res, vres, _ = derived_resolutions(cfg)
    targets = (Target(0.0, 2 * res, -0.4 * vres, 1.0), Target(0.0, 2 * res, 4 * vres, 0.4))
    pattern = pattern_for(cfg)
    data = qpsk_frame(cfg, seed=0)
    grid = radar_returns(data, pattern, cfg, Scene(targets, snr_db=np.inf))
    rows = grid.sum(axis=0)  # beamformed at 0 deg
    reference = scramble_symbols(data, pattern, cfg, 0.0)
    assert matched_velocity_bins(rows, reference, cfg, 0.0, 2 * res, count=2) == [0, 4]


def test_more_peaks_than_grid_points_is_refused(small_cfg):
    # a bin with more refined angles than slow-time bins asks each matched
    # spectrum for more peaks than it has points
    _, _, _, rows, reference, _ = stage_inputs(small_cfg)
    count = small_cfg.num_ofdm_symbols + 1
    with pytest.raises(SubspaceError, match="peaks"):
        matched_velocity_bins(rows, reference, small_cfg, 10.0, 100.0, count)


# ---------------------------------------------------------------------------
# end-to-end estimation


def test_estimate_targets_reference_frame(ref_cfg, ref_pattern, ref_frame):
    """The packaged scene refines to its true parameters within one grid step
    on every axis.  The 20 m/s target's best velocity sits exactly on its
    search-window edge, which the fit flags with a warning."""
    data, received = ref_frame
    with pytest.warns(RuntimeWarning, match="velocity hit the edge"):
        estimates = estimate_targets(received, data, ref_pattern, ref_cfg)
    assert len(estimates.refined) == 3
    _, vres, _ = derived_resolutions(ref_cfg)
    truth = {
        20.0: (50.0, -10.0),
        22.0: (60.0, 10.0),
        -30.0: (120.0, 20.0),
    }
    matched = set()
    for row in estimates.refined:
        angle = min(truth, key=lambda a: abs(a - row.angle_deg))
        assert abs(row.angle_deg - angle) <= 0.1 + 1e-9
        expected_range, expected_velocity = truth[angle]
        assert abs(row.range_m - expected_range) <= 0.2
        assert abs(row.velocity_mps - expected_velocity) <= vres / 10 + 1e-9
        matched.add(angle)
    assert matched == set(truth)


@pytest.mark.parametrize("betas", [(0.5, 1.0, 1.0), (1.0, 0.5, 1.0)])
@pytest.mark.filterwarnings("ignore:refined \\w+ hit the edge:RuntimeWarning")
def test_estimate_targets_separates_a_weaker_co_bin_target(betas, ref_cfg, ref_scene, ref_pattern):
    """With one of the two co-bin targets at half amplitude, the signal
    dimension still counts all three targets, so the 20 deg bin refines to
    both of its sources on every noise seed."""
    data = qpsk_frame(ref_cfg, 7)
    targets = tuple(
        dataclasses.replace(t, reflectivity=complex(b)) for t, b in zip(ref_scene.targets, betas)
    )
    truths = sorted(t.angle_deg for t in targets)
    for seed in range(10):
        frame = dataclasses.replace(ref_scene, targets=targets, seed=seed)
        received = radar_returns(data, ref_pattern, ref_cfg, frame)
        estimates = estimate_targets(received, data, ref_pattern, ref_cfg)
        angles = sorted(row.angle_deg for row in estimates.refined)
        assert len(angles) == 3
        np.testing.assert_allclose(angles, truths, atol=0.1 + 1e-9)


def test_estimate_targets_empty_frame_returns_empty_set(small_cfg):
    pattern = pattern_for(small_cfg)
    data = qpsk_frame(small_cfg, seed=20)
    grid = radar_returns(data, pattern, small_cfg, Scene((), seed=4, snr_db=10.0))
    estimates = estimate_targets(grid, data, pattern, small_cfg)
    assert estimates.coarse == [] and estimates.refined == []


@pytest.mark.filterwarnings("ignore:refined \\w+ hit the edge:RuntimeWarning")
def test_estimate_targets_allocates_less_than_one_receive_cube(ref_cfg, ref_pattern, ref_frame):
    """The frame path streams the cube in blocks: no beam cube, no conjugated
    copy for the covariance, so its traced peak stays below the cube's size."""
    data, received = ref_frame
    estimate_targets(received, data, ref_pattern, ref_cfg)  # first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        estimate_targets(received, data, ref_pattern, ref_cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < received.nbytes, f"peak {peak} B on a {received.nbytes} B cube"


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_estimate_targets_rejects_non_finite_input(small_cfg, bad):
    # one bad sample must fail loudly, not read as an empty scene
    pattern = pattern_for(small_cfg)
    data = qpsk_frame(small_cfg, seed=20)
    grid = radar_returns(data, pattern, small_cfg, Scene((), seed=4, snr_db=10.0))
    bad_grid, bad_data = grid.copy(), data.copy()
    bad_grid[1, 2, 3] = bad
    bad_data[2, 3] = bad
    for received, payload in ((bad_grid, data), (grid, bad_data)):
        with pytest.raises(ValueError, match="non-finite"):
            estimate_targets(received, payload, pattern, small_cfg)


def bad_grid(shape, how):
    """A grid of ones of ``shape`` with one NaN, or one OFDM symbol short."""
    if how == "short":
        return np.ones((*shape[:-1], shape[-1] - 1), dtype=complex)
    values = np.ones(shape, dtype=complex)
    values[(1,) * len(shape)] = np.nan
    return values


@pytest.mark.parametrize("how, match", [("nan", "non-finite"), ("short", "shape")])
@pytest.mark.parametrize("where", ["grid", "payload"])
def test_frame_refuses_a_bad_grid_or_payload(small_cfg, where, how, match):
    pattern = pattern_for(small_cfg)
    grid = np.ones(small_cfg.returns_shape, dtype=complex)
    data = qpsk_frame(small_cfg, seed=22)
    if where == "grid":
        grid = bad_grid(small_cfg.returns_shape, how)
    else:
        data = bad_grid(small_cfg.grid_shape, how)
    with pytest.raises(ValueError, match=match):
        Frame(grid, data, pattern, small_cfg)


STAGE_ANGLES = [10.0, 12.0]


def _public_call(name, grid, data, pattern, cfg, rows, reference, scrambled):
    """One call of a public stage.  The frame-taking stages get a Frame of
    (grid, payload); the row stages take ``rows`` and ``reference``, and the
    fits ``scrambled``, one payload per angle of STAGE_ANGLES."""

    def frame():
        return Frame(grid, data, pattern, cfg)

    calls = {
        "angle_spectrum": lambda: angle_spectrum(frame()),
        "coarse_pipeline": lambda: coarse_pipeline(frame()),
        "descramble": lambda: descramble(rows, reference, cfg, 10.0),
        "matched_velocity_bins": lambda: matched_velocity_bins(rows, reference, cfg, 10.0, 100.0, 1),
        "refine_ranges": lambda: refine_ranges(frame(), STAGE_ANGLES, scrambled, [2]),
        "refine_velocities": lambda: refine_velocities(
            frame(), STAGE_ANGLES, scrambled, [100.0, 100.0], [1]
        ),
    }
    return calls[name]()


def stage_inputs(cfg, seed=22):
    """(pattern, data, grid, rows, reference, scrambled) of a one-target
    frame: rows are the first receive element's, reference is the payload
    scrambled toward 10 deg, scrambled toward each of STAGE_ANGLES."""
    pattern = pattern_for(cfg)
    data = qpsk_frame(cfg, seed=seed)
    target = Target(10.0, 100.0, 20.0, reflectivity=1.0)
    grid = radar_returns(data, pattern, cfg, Scene((target,), seed=5, snr_db=20.0))
    reference = scramble_symbols(data, pattern, cfg, 10.0)
    scrambled = scramble_symbols(data, pattern, cfg, STAGE_ANGLES)
    return pattern, data, grid, grid[0].copy(), reference, scrambled


ROW_STAGES = ("descramble", "matched_velocity_bins")
FIT_STAGES = ("refine_ranges", "refine_velocities")


@pytest.mark.parametrize(
    "name, where",
    [
        ("angle_spectrum", "grid"),
        *(
            (name, where)
            for name in ("coarse_pipeline", *ROW_STAGES, *FIT_STAGES)
            for where in ("grid", "payload")
        ),
        *((name, "first payload") for name in FIT_STAGES),
    ],
)
def test_public_stages_reject_non_finite_input(small_cfg, name, where):
    # A NaN on the grid side (the cube, or a row stage's beamformed rows) or
    # the payload side (the payload, or the grids scrambled from it) of any
    # public stage fails loudly.  The frame-taking stages see the cube and
    # payload only through a Frame, which checks them once.  The fits check
    # their Q scrambled grids as one stack: a NaN in the first or in the last
    # grid is refused.
    pattern, data, grid, rows, reference, scrambled = stage_inputs(small_cfg)
    if name in ROW_STAGES:
        target = rows if where == "grid" else reference
    elif name in FIT_STAGES and where != "grid":
        target = scrambled[0 if where == "first payload" else -1]
    else:
        target = grid[0] if where == "grid" else data
    target[2, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        _public_call(name, grid, data, pattern, small_cfg, rows, reference, scrambled)


@pytest.mark.parametrize(
    "name, where",
    [*((name, where) for name in ROW_STAGES for where in ("rows", "reference")),
     *((name, "scrambled") for name in FIT_STAGES)],
)
def test_public_stages_reject_mis_shaped_input(small_cfg, name, where):
    pattern, data, grid, rows, reference, scrambled = stage_inputs(small_cfg)
    inputs = {"rows": rows, "reference": reference, "scrambled": scrambled}
    inputs[where] = inputs[where][..., :-1]  # one OFDM symbol short
    with pytest.raises(ValueError, match="shape"):
        _public_call(name, grid, data, pattern, small_cfg, **inputs)


@pytest.mark.parametrize("name", FIT_STAGES)
@pytest.mark.parametrize("count", [1, 3])
def test_fits_refuse_a_scrambled_count_other_than_the_angle_count(small_cfg, name, count):
    pattern, data, grid, rows, reference, _ = stage_inputs(small_cfg)
    scrambled = scramble_symbols(data, pattern, small_cfg, [10.0] * count)
    with pytest.raises(ValueError, match="one scrambled payload per angle"):
        _public_call(name, grid, data, pattern, small_cfg, rows, reference, scrambled)


def test_estimate_targets_validates_once_and_scrambles_each_angle_once(
    monkeypatch, ref_cfg, ref_pattern, ref_frame
):
    data, received = ref_frame
    scrambled_at, cube_checks, covariances = [], [], []
    scramble, check = refine.scramble_symbols, model.check_antenna_grid
    covariance = model.sample_covariance

    def counting_scramble(data, pattern, cfg, theta_deg):
        # one entry per direction: a call may scramble a whole array of them
        scrambled_at.extend(np.atleast_1d(theta_deg).tolist())
        return scramble(data, pattern, cfg, theta_deg)

    def counting_check(cfg, values):
        cube_checks.append(np.shape(values))
        return check(cfg, values)

    def counting_covariance(grid):
        covariances.append(np.shape(grid))
        return covariance(grid)

    for module in (coarse, refine):
        monkeypatch.setattr(module, "scramble_symbols", counting_scramble)
    descrambled_at = []
    descramble_stage = coarse.descramble

    def counting_descramble(rows, reference, cfg, theta_deg):
        descrambled_at.append(theta_deg)
        return descramble_stage(rows, reference, cfg, theta_deg)

    monkeypatch.setattr(model, "check_antenna_grid", counting_check)
    for module in (model, refine):
        monkeypatch.setattr(module, "sample_covariance", counting_covariance)
    for module in (coarse, refine):
        monkeypatch.setattr(module, "descramble", counting_descramble)
    with pytest.warns(RuntimeWarning, match="velocity hit the edge"):
        estimates = estimate_targets(received, data, ref_pattern, ref_cfg)
    # 2 bin centers for the coarse descramble, then 3 refined angles
    bin_centers = {row.angle_deg for row in estimates.coarse}
    refined_angles = [row.angle_deg for row in estimates.refined]
    assert len(bin_centers) == 2 and len(refined_angles) == 3
    assert len(scrambled_at) == 5
    assert sorted(scrambled_at) == sorted([*bin_centers, *refined_angles])
    assert cube_checks == [ref_cfg.returns_shape]
    # one covariance, read by the angle stage and by MUSIC alike
    assert covariances == [ref_cfg.returns_shape]
    # the same 5 directions again, one descramble each
    assert sorted(descrambled_at) == sorted(scrambled_at)


# Refined (angle deg, range m, velocity m/s) of the reference scene with
# payload seed 7 and noise seeds 0-4, with default options and with fitted
# gains.  Every value is a search-grid point, so the pins are exact.
PINNED_REFINED = {
    0: [(-30.0, 119.921875, 19.921875), (20.0, 50.0, -10.078125), (22.0, 60.15625, 10.078125)],
    1: [(-30.0, 119.921875, 19.921875), (20.0, 50.0, -10.078125), (22.0, 59.9609375, 10.078125)],
    2: [(-30.0, 119.921875, 19.921875), (20.0, 50.0, -10.078125), (22.0, 60.15625, 10.078125)],
    3: [(-30.0, 119.921875, 19.921875), (20.0, 50.0, -10.078125), (22.0, 59.9609375, 10.078125)],
    4: [(-30.0, 119.921875, 19.921875), (20.0, 49.8046875, -10.078125), (22.0, 59.9609375, 10.078125)],
}
PINNED_REFINED_FIT_GAINS = {
    0: [(-30.0, 120.1171875, 19.921875), (20.0, 50.1953125, -10.078125), (22.0, 60.15625, 10.078125)],
    1: [(-30.0, 119.921875, 19.921875), (20.0, 50.1953125, -10.078125), (22.0, 59.765625, 10.078125)],
    2: [(-30.0, 119.921875, 19.921875), (20.0, 50.0, -10.078125), (22.0, 59.9609375, 10.078125)],
    3: [(-30.0, 119.921875, 19.921875), (20.0, 50.1953125, -10.078125), (22.0, 59.9609375, 10.078125)],
    4: [(-30.0, 120.1171875, 19.921875), (20.0, 49.8046875, -10.078125), (22.0, 59.5703125, 10.078125)],
}


@pytest.mark.parametrize("fit_gains", [False, True])
def test_estimate_targets_pinned_reference_estimates(ref_cfg, ref_scene, ref_pattern, fit_gains):
    data = qpsk_frame(ref_cfg, seed=7)
    options = RefineOptions(fit_gains=fit_gains)
    pinned = PINNED_REFINED_FIT_GAINS if fit_gains else PINNED_REFINED
    for noise_seed, expected in pinned.items():
        frame = dataclasses.replace(ref_scene, seed=noise_seed)
        received = radar_returns(data, ref_pattern, ref_cfg, frame)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"refined \w+ hit the edge", RuntimeWarning)
            estimates = estimate_targets(received, data, ref_pattern, ref_cfg, options=options)
        got = [(row.angle_deg, row.range_m, row.velocity_mps) for row in estimates.refined]
        assert got == expected, f"noise seed {noise_seed}"


@pytest.mark.filterwarnings("ignore:refined \\w+ hit the edge:RuntimeWarning")
def test_target_order_and_fit_residuals_on_reference_frames(
    monkeypatch, ref_cfg, ref_scene, ref_pattern
):
    """Permuting the scene's targets leaves the refined set unchanged (sorted,
    to 1e-9), and no joint fit ends above its coarse residual, in either gain
    mode, on payload seed 7 with noise seeds 0-4."""
    fits = []
    joint_fit = refine._joint_fit

    def recording_fit(*args):
        fits.append(joint_fit(*args))
        return fits[-1]

    monkeypatch.setattr(refine, "_joint_fit", recording_fit)
    data = qpsk_frame(ref_cfg, seed=7)

    def refined(targets, noise_seed, options=RefineOptions()):
        scene = dataclasses.replace(ref_scene, targets=tuple(targets), seed=noise_seed)
        received = radar_returns(data, ref_pattern, ref_cfg, scene)
        rows = estimate_targets(received, data, ref_pattern, ref_cfg, options=options).refined
        return sorted((row.angle_deg, row.range_m, row.velocity_mps) for row in rows)

    for noise_seed in range(5):
        expected = refined(ref_scene.targets, noise_seed)
        assert len(expected) == len(ref_scene.targets)
        for order in list(itertools.permutations(ref_scene.targets))[1:]:
            got = refined(order, noise_seed)
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-9)
        refined(ref_scene.targets, noise_seed, RefineOptions(fit_gains=True))  # for its fits

    # a range and a velocity fit per occupied bin, 2 bins, 7 frames per seed
    assert len(fits) == 5 * 7 * 2 * 2
    for fit in fits:
        assert fit.residual <= fit.coarse_residual


# forcing one source per bin mis-models the shared bin, so the fits
# legitimately hit window edges
@pytest.mark.filterwarnings("ignore:refined \\w+ hit the edge:RuntimeWarning")
def test_estimate_targets_num_sources_override(ref_cfg, ref_pattern, ref_frame):
    data, received = ref_frame
    options = RefineOptions(num_sources=1)
    estimates = estimate_targets(received, data, ref_pattern, ref_cfg, options=options)
    # one source per occupied angle bin instead of two in the shared bin
    assert len(estimates.refined) == 2
    assert sorted({row.angle_bin for row in estimates.refined}) == [6, 20]


@pytest.mark.filterwarnings("ignore:refined \\w+ hit the edge:RuntimeWarning")
def test_estimate_targets_three_forced_sources(ref_cfg, ref_pattern, ref_frame):
    # three sources on one 101-point range window is the largest search the
    # combination budget admits
    data, received = ref_frame
    options = RefineOptions(num_sources=3)
    estimates = estimate_targets(received, data, ref_pattern, ref_cfg, options=options)
    bins = [row.angle_bin for row in estimates.refined]
    assert sorted(bins) == [6, 6, 6, 20, 20, 20]


def test_estimate_targets_refuse_more_forced_sources_than_the_dimension(
    ref_cfg, ref_pattern, ref_frame
):
    # the frame's signal subspace has dimension 3; a fourth source per bin
    # used to be cut to 3 without a word
    data, received = ref_frame
    options = RefineOptions(num_sources=4)
    with pytest.raises(SubspaceError, match="4 forced sources .* dimension of 3"):
        estimate_targets(received, data, ref_pattern, ref_cfg, options=options)


def test_four_sources_on_a_default_window_are_refused_before_any_search(
    monkeypatch, small_cfg
):
    def no_search(*args):
        raise AssertionError("a combination mesh was scored")

    monkeypatch.setattr(refine, "_mesh_minimum", no_search)
    pattern = pattern_for(small_cfg)
    data = qpsk_frame(small_cfg, seed=18)
    grid = np.ones(small_cfg.returns_shape, dtype=complex)
    angles = [-10.0, 0.0, 10.0, 20.0]
    with pytest.raises(ValueError, match="4 sources on 101 candidates .* fewer sources"):
        fit_ranges(grid, data, pattern, small_cfg, angles, [3])


def test_estimate_targets_separates_two_narrowband_targets(small_cfg):
    cfg = dataclasses.replace(small_cfg, narrowband_doppler=True)
    res, vres, _ = derived_resolutions(cfg)
    # sines 0.75 and 0.25 sit symmetric about the 30-degree steer, where the
    # scrambled signal power is equal, so neither return shadows the other
    # at the angle detection stage
    targets = (
        Target(math.degrees(math.asin(0.75)), 2.2 * res, 1.3 * vres, reflectivity=1.0),
        Target(ON_GRID_ANGLE, 4.6 * res, -2.6 * vres, reflectivity=1.0),
    )
    pattern = pattern_for(cfg)
    data = qpsk_frame(cfg, seed=21)
    grid = radar_returns(data, pattern, cfg, Scene(targets, snr_db=np.inf))
    estimates = estimate_targets(grid, data, pattern, cfg)
    assert len(estimates.refined) == 2
    found = sorted(row.angle_deg for row in estimates.refined)
    expected = sorted(t.angle_deg for t in targets)
    assert found[0] == pytest.approx(expected[0], abs=0.06)
    assert found[1] == pytest.approx(expected[1], abs=0.06)

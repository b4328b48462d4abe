"""Refinement of coarse detections: subspace angles, least-squares
ranges and velocities.

Angles first: within each detected beamforming bin a MUSIC pseudospectrum is
evaluated on a fine degree grid around the bin, using the receive sample
covariance.  Co-bin targets that the coarse DFT merged are separated here —
their slow-time Doppler rotation decorrelates them across OFDM symbols, so
averaging the covariance over the whole frame keeps the signal subspace well
conditioned even for closely spaced directions.  The noise projector is built
once per frame from the *global* signal-subspace dimension: when several bins
are occupied, sizing the subspace per bin would leave the other bins' signal
eigenvectors inside the noise subspace and bias the peaks by a few tenths of
a degree.

Ranges and velocities follow by exhaustive least squares on candidate grids.
The signal model for Q sources in one angle bin is

    D = sum_q g_q * atom_q(parameter_q) + noise,

and the search minimizes ||D - sum_q g_q atom_q||^2 over the Q-fold grid
product.  With u_q[i] = <atom_q(i), D> and Gram blocks
C_qp[i, j] = <atom_q(i), atom_p(j)>, a combination (i_1, ..., i_Q) has
v_q = u_q[i_q], G_qp = C_qp[i_q, i_p] and the residual

    ||D||^2 - 2 Re sum_q v_q + sum_qp G_qp    unit gains, g_q = 1
    ||D||^2 - Re(v^H G^-1 v)                  ``fit_gains``: g = G^-1 v (variable projection)

so the inner products against the data are computed once per grid point
rather than once per combination.  One evaluator scores a whole mesh of
combinations in either mode, for the search and its coarse-center baseline.

Range atoms live on the antenna-by-subcarrier slice of OFDM symbol 0, where
the slow-time Doppler phase of every target is exactly 1 (at later symbols a
moving target's range ramp is displaced by its migration v * mu * T_p):

    atom_q(R)[m, s] = scrambled_q(s, 0) * a_m(theta_q) * exp(-2j pi s f_s 2R/c).

All sources of a bin share one range grid — the union of windows around the
bin's detected range peaks, half a resolution cell either side — because a
merged range peak says nothing about which source produced it; the joint fit
sorts that out.

Velocity atoms use the whole frame with the refined angles and ranges frozen
in, and the slow-time phase exp(+2j pi mu T_p 2 v f_c / c).  The candidate
bins pool the coarse velocity peaks with each source's matched-spectrum peaks
(see ``matched_velocity_bins``): the coarse spectra descramble at the
bin-center angle, which decoheres a target sitting toward the edge of the
bin, while the matched spectra restore it but cannot tell whose peak is
whose.  All sources therefore share the union of candidate windows and the
joint fit assigns them.

Every grid contains the value it was centered on, so refinement can never do
worse than the coarse stage on the same objective.
"""

import dataclasses
import warnings

import numpy as np

from .coarse import (
    DetectionOptions,
    NoPeaksError,
    _coarse_pipeline,
    _descramble,
    _snapshot_blocks,
    range_response,
    velocity_spectrum,
)
from .model import (
    EstimateSet,
    RefinedEstimate,
    SystemConfig,
    bin_to_sine,
    check_antenna_grid,
    check_symbol_grid,
    range_resolution_m,
    velocity_resolution_mps,
)
from .tma import SwitchingPattern, scramble_symbols
from .transforms import signed_bin_index


class SubspaceError(RuntimeError):
    """The covariance eigenstructure cannot support the requested split."""


@dataclasses.dataclass(frozen=True)
class RefineOptions:
    music_step_deg: float = 0.1
    num_sources: int | None = None  # per-bin peak count; default: count pseudospectrum peaks
    signal_dimension: int | None = None  # subspace size; default: eigenvalue-gap estimate
    peak_rel_threshold: float = 1e-2  # pseudospectrum maxima below this fraction don't count
    range_points: int = 101
    velocity_points: int = 11
    fit_gains: bool = False
    max_combinations: int = 1_000_000
    covariance_symbol: int | None = None  # None: average over the whole frame

    def __post_init__(self):
        for name in ("num_sources", "signal_dimension", "range_points", "velocity_points"):
            value = getattr(self, name)
            unset = value is None and name in ("num_sources", "signal_dimension")
            if not (unset or isinstance(value, (int, np.integer)) and value >= 1):
                raise ValueError(f"RefineOptions.{name} must be a positive integer, got {value!r}")
            if name.endswith("_points") and value % 2 == 0:
                raise ValueError(
                    f"RefineOptions.{name} must be odd so each window contains its "
                    f"center, got {value!r}"
                )
        if not 0.0 < self.music_step_deg < np.inf:
            step = self.music_step_deg
            raise ValueError(f"RefineOptions.music_step_deg must be finite and > 0, got {step!r}")


def steering_vector(cfg: SystemConfig, theta_deg) -> np.ndarray:
    """Receive-array response, shape (num_rx_antennas,) or (..., num_rx_antennas)."""
    sin_theta = np.sin(np.radians(np.asarray(theta_deg, dtype=float)))
    m = np.arange(cfg.num_rx_antennas)
    return np.exp(-2j * np.pi * np.multiply.outer(sin_theta, m) * cfg.rx_spacing_wavelengths)


def sample_covariance(grid: np.ndarray, symbol: int | None = None) -> np.ndarray:
    """Spatial sample covariance with subcarriers (and optionally all OFDM
    symbols) as snapshots, accumulated one snapshot block at a time.

    Args:
        symbol: restrict snapshots to one OFDM symbol, 0 <= symbol < N_p;
            None pools the frame.
    """
    grid = np.asarray(grid, dtype=np.complex128)
    if symbol is not None:
        _check_symbol_index(symbol, grid.shape[2])
        grid = grid[:, :, symbol : symbol + 1]
    covariance = np.zeros((grid.shape[0], grid.shape[0]), dtype=np.complex128)
    for block in _snapshot_blocks(grid):
        covariance += block @ block.conj().T
    return covariance / (grid.size // grid.shape[0])


def _check_symbol_index(symbol, num_symbols: int) -> None:
    if isinstance(symbol, bool) or not isinstance(symbol, (int, np.integer)):
        raise ValueError(f"covariance symbol {symbol} is not an integer index")
    if not 0 <= symbol < num_symbols:
        raise ValueError(
            f"covariance symbol {symbol} is outside 0 ... {num_symbols - 1} "
            f"of the {num_symbols}-symbol frame"
        )


def estimate_n_sources(eigenvalues, max_sources: int | None = None, min_ratio: float = 3.0) -> int:
    """Source count from the largest consecutive-eigenvalue ratio.

    Raises:
        SubspaceError: eigenvalues are degenerate or show no gap of at least
            ``min_ratio``.
    """
    lam = np.sort(np.abs(np.asarray(eigenvalues, dtype=float)))[::-1]
    if lam.size < 2 or not np.all(np.isfinite(lam)) or lam[0] <= 0.0:
        raise SubspaceError("eigenvalue spectrum is degenerate")
    upper = lam.size - 1 if max_sources is None else min(int(max_sources), lam.size - 1)
    if upper < 1:
        raise SubspaceError("need room for at least one source and one noise eigenvalue")
    ratios = lam[:upper] / np.maximum(lam[1 : upper + 1], lam[0] * 1e-15)
    best = int(np.argmax(ratios))
    if ratios[best] < min_ratio:
        raise SubspaceError(
            f"largest eigenvalue gap {ratios[best]:.2f} is below {min_ratio:.2f}; "
            f"cannot separate signal from noise"
        )
    return best + 1


def music_search_grid(angle_bin: int, cfg: SystemConfig, step_deg: float = 0.1) -> np.ndarray:
    """Degree grid around a beamforming bin: all multiples of ``step_deg``
    within one coarse bin width either side of the bin center (sine domain)."""
    center = float(bin_to_sine(angle_bin, cfg))
    width = 1.0 / (cfg.num_rx_antennas * cfg.rx_spacing_wavelengths)
    lo = np.degrees(np.arcsin(np.clip(center - width, -1.0, 1.0)))
    hi = np.degrees(np.arcsin(np.clip(center + width, -1.0, 1.0)))
    first = int(np.ceil(lo / step_deg - 1e-9))
    last = int(np.floor(hi / step_deg + 1e-9))
    return np.arange(first, last + 1) * step_deg


def music_pseudospectrum(
    covariance: np.ndarray, n_sources: int, cfg: SystemConfig, grid_deg: np.ndarray
) -> np.ndarray:
    """1 / ||E_noise^H a(theta)||^2 over ``grid_deg``."""
    covariance = np.asarray(covariance, dtype=np.complex128)
    n_rx = cfg.num_rx_antennas
    if covariance.shape != (n_rx, n_rx):
        raise ValueError(f"covariance must be {(n_rx, n_rx)}, got {covariance.shape}")
    if not np.all(np.isfinite(covariance)):
        raise SubspaceError("covariance contains non-finite entries")
    if not 1 <= n_sources < n_rx:
        raise SubspaceError(
            f"{n_sources} sources leave no noise subspace on {n_rx} receive elements"
        )
    _, vecs = np.linalg.eigh(covariance)  # ascending eigenvalues
    noise = vecs[:, : n_rx - n_sources]
    proj = np.abs(noise.conj().T @ steering_vector(cfg, grid_deg).T) ** 2
    return 1.0 / np.maximum(proj.sum(axis=0), np.finfo(float).tiny)


def _local_maxima(v: np.ndarray) -> np.ndarray:
    """Mask of non-circular local maxima; a plateau counts at its rightmost
    sample."""
    left = np.concatenate(([-np.inf], v[:-1]))
    right = np.concatenate((v[1:], [-np.inf]))
    return (v >= left) & (v > right)


def _top_local_maxima(values: np.ndarray, count: int) -> list:
    """Indices of the ``count`` tallest local maxima, topped up with the
    tallest remaining samples when the landscape has too few bumps."""
    v = np.asarray(values, dtype=float)
    if count > v.size:
        raise SubspaceError(f"cannot pick {count} peaks from {v.size} grid points")
    peaks = np.flatnonzero(_local_maxima(v))
    chosen = list(peaks[np.argsort(v[peaks])[::-1]][:count])
    for idx in np.argsort(v)[::-1]:
        if len(chosen) == count:
            break
        if idx not in chosen:
            chosen.append(int(idx))
    return sorted(int(i) for i in chosen)


def _peak_count(spectrum: np.ndarray, rel_threshold: float) -> int:
    """Local maxima within ``rel_threshold`` of the tallest spectrum value."""
    v = np.asarray(spectrum, dtype=float)
    return int(np.count_nonzero(_local_maxima(v) & (v >= rel_threshold * v.max())))


def music_angles(
    covariance: np.ndarray,
    n_sources: int,
    cfg: SystemConfig,
    grid_deg: np.ndarray,
    signal_dimension: int | None = None,
) -> np.ndarray:
    """The ``n_sources`` tallest pseudospectrum peaks, in ascending angle order.

    ``signal_dimension`` sets the signal-subspace size for the noise projector
    and defaults to ``n_sources``.  Pass the frame-wide source count when
    scanning one of several occupied bins — otherwise the other bins' signal
    eigenvectors stay inside the noise subspace and bias the peaks.
    """
    dim = n_sources if signal_dimension is None else signal_dimension
    spectrum = music_pseudospectrum(covariance, dim, cfg, grid_deg)
    return np.asarray(grid_deg)[_top_local_maxima(spectrum, n_sources)]


# --- least-squares grid search -------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CombinationFit:
    """Result of one exhaustive grid fit.

    ``values[q]`` refines source q (aligned with the angle order passed in)
    and is drawn from ``grids[q]``; ``coarse_residual`` is the best residual
    achievable with every source pinned to one of its coarse centers — an
    upper bound the refined residual can never exceed.
    """

    values: np.ndarray
    residual: float
    coarse_values: np.ndarray
    coarse_residual: float
    grids: tuple
    on_boundary: tuple
    gains: np.ndarray | None


def _centered_windows(bins, res: float, points: int) -> list:
    """One window of ``points`` values per bin, spanning its center +- half a
    cell.  ``points`` must be odd, so the middle value is the center (to
    rounding; a 1-point window is the center itself)."""
    if not (isinstance(points, (int, np.integer)) and points >= 1 and points % 2 == 1):
        raise ValueError(f"window points must be a positive odd integer, got {points!r}")
    return [
        np.linspace(bin_index * res - res / 2.0, bin_index * res + res / 2.0, points)
        if points > 1
        else np.array([bin_index * res], dtype=float)
        for bin_index in np.atleast_1d(bins)
    ]


def candidate_range_grid(range_bins, cfg: SystemConfig, points: int = 101) -> np.ndarray:
    """Union of per-bin windows (bin center +- half a range cell, inclusive,
    ``points`` odd); negative candidates are dropped."""
    res = range_resolution_m(cfg)
    grid = np.unique(np.concatenate(_centered_windows(range_bins, res, points)))
    return grid[grid >= 0.0]


def candidate_velocity_grid(velocity_bins, cfg: SystemConfig, points: int = 11) -> np.ndarray:
    """Union of per-signed-bin windows (center +- half a velocity cell,
    ``points`` odd)."""
    res = velocity_resolution_mps(cfg)
    return np.unique(np.concatenate(_centered_windows(velocity_bins, res, points)))


# Combinations scored at once: a Q = 3 Gram stack of 10**6 members is 144 MB.
_SLAB_COMBINATIONS = 65_536


def _mesh_residuals(mesh, u, gram, energy, fit_gains):
    """Residual of every combination of an open index mesh (``np.ix_`` of
    each source's grid indices), and the fitted gains (..., Q) or None."""
    n_sources = len(u)
    if not fit_gains:
        residual = energy
        for q in range(n_sources):
            residual = residual - 2.0 * u[q].real[mesh[q]]
            residual = residual + np.diagonal(gram[q, q]).real[mesh[q]]
        for q in range(n_sources):
            for p in range(q + 1, n_sources):
                residual += 2.0 * gram[q, p].real[mesh[q], mesh[p]]  # no extra temporary
        return residual, None

    v = np.stack(np.broadcast_arrays(*(u[q][mesh[q]] for q in range(n_sources))), axis=-1)
    g = np.empty((*v.shape, n_sources), dtype=complex)
    for q in range(n_sources):
        g[..., q, q] = np.diagonal(gram[q, q])[mesh[q]]
        for p in range(q + 1, n_sources):
            g[..., q, p] = gram[q, p][mesh[q], mesh[p]]
            g[..., p, q] = g[..., q, p].conj()
    try:
        gains = np.linalg.solve(g, v[..., None])[..., 0]
    except np.linalg.LinAlgError:  # lstsq on every member would flip mirrored ties
        gains = np.empty_like(v)
        for idx in np.ndindex(v.shape[:-1]):
            try:
                gains[idx] = np.linalg.solve(g[idx], v[idx])
            except np.linalg.LinAlgError:
                gains[idx] = np.linalg.lstsq(g[idx], v[idx], rcond=None)[0]
    residual = energy - (v.conj()[..., None, :] @ gains[..., :, None])[..., 0, 0].real
    return residual, gains


def _mesh_minimum(indices, u, gram, energy, fit_gains):
    """First minimum, in C order, over the mesh where every source takes one
    of the grid ``indices``, scored in slabs along the first source:
    (grid index per source, residual, gains or None)."""
    rows = max(1, _SLAB_COMBINATIONS // indices.size ** (len(u) - 1))
    best = None, np.inf, None
    for start in range(0, indices.size, rows):
        mesh = np.ix_(indices[start : start + rows], *[indices] * (len(u) - 1))
        residual, gains = _mesh_residuals(mesh, u, gram, energy, fit_gains)
        at = np.unravel_index(np.argmin(residual), residual.shape)
        if residual[at] < best[1]:
            combo = indices[[start + at[0], *at[1:]]]
            best = combo, float(residual[at]), None if gains is None else gains[at].copy()
    return best


def _search_combinations(u, gram, energy, candidates, centers, fit_gains, max_combinations):
    """Best combination of ``candidates``, one per source, and the baseline
    best with every source pinned to one of the coarse ``centers``."""
    n_sources = len(u)
    n_combinations = float(len(candidates)) ** n_sources
    if n_combinations > max_combinations:
        raise ValueError(
            f"{int(n_combinations)} grid combinations exceed the "
            f"limit of {max_combinations}; reduce grid points or sources"
        )
    if not len(candidates):
        raise ValueError("the candidate grid is empty")
    best, residual, gains = _mesh_minimum(np.arange(len(candidates)), u, gram, energy, fit_gains)
    center_idx = np.argmin(np.abs(np.subtract.outer(np.atleast_1d(centers), candidates)), axis=1)
    coarse, coarse_residual, _ = _mesh_minimum(center_idx, u, gram, energy, fit_gains)
    return CombinationFit(
        values=candidates[best],
        residual=residual,
        coarse_values=candidates[coarse],
        coarse_residual=coarse_residual,
        grids=(candidates,) * n_sources,
        on_boundary=tuple(i in (0, len(candidates) - 1) for i in best),
        gains=gains,
    )


def _joint_fit(kind, steer, atoms, projections, pair_weight, energy, candidates, centers, options):
    """Gram blocks, combination search and edge warning of one joint fit.

    Source q's atom at grid point i is ``steer[q]`` times a per-source
    weighting of column i of ``atoms``, so u_q = atoms^H projections[q] and
    C_qp = (a_q^H a_p) * atoms^H diag(pair_weight(q, p)) atoms, kept for q <= p.
    All sources search ``candidates``, with ``centers`` as coarse baseline.
    """
    n_sources = len(steer)
    u = [atoms.conj().T @ projections[q] for q in range(n_sources)]
    array_gram = steer.conj() @ steer.T  # (Q, Q)
    gram = {
        (q, p): array_gram[q, p] * (atoms.conj().T @ (pair_weight(q, p)[:, None] * atoms))
        for q in range(n_sources)
        for p in range(q, n_sources)
    }
    fit = _search_combinations(
        u, gram, energy, candidates, centers, options.fit_gains, options.max_combinations
    )
    if any(fit.on_boundary):
        warnings.warn(
            f"refined {kind} hit the edge of its search window; the optimum "
            "may lie outside the coarse cell",
            RuntimeWarning,
            # caller of the public function -> public function -> worker -> here
            stacklevel=4,
        )
    return fit


def refine_ranges(
    grid: np.ndarray,
    data: np.ndarray,
    pattern: SwitchingPattern,
    cfg: SystemConfig,
    angles_deg,
    range_bins,
    options: RefineOptions = RefineOptions(),
) -> CombinationFit:
    """Joint range fit for the sources of one angle bin (see module docstring).

    Uses only OFDM symbol 0, where Doppler-induced range migration is zero.
    """
    grid = check_antenna_grid(cfg, grid)
    data = check_symbol_grid(cfg, data)
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    symbol0 = _scrambled(data[:, 0], pattern, cfg, angles)
    return _refine_ranges(grid, symbol0, cfg, angles, range_bins, options)


def _scrambled(data, pattern, cfg, angles) -> np.ndarray:
    """Symbols scrambled toward each angle, stacked: (Q, N_s, ...)."""
    return np.stack([scramble_symbols(data, pattern, cfg, angle) for angle in angles])


def _refine_ranges(grid, symbol0, cfg, angles, range_bins, options) -> CombinationFit:
    """:func:`refine_ranges` of a validated grid, with ``symbol0[q]`` OFDM
    symbol 0 of the payload scrambled toward ``angles[q]``, (Q, N_s)."""
    candidates = candidate_range_grid(range_bins, cfg, options.range_points)
    res = range_resolution_m(cfg)
    centers = np.atleast_1d(range_bins) * res

    snapshot = grid[:, :, 0]  # (N_r, N_s)
    energy = float(np.sum(np.abs(snapshot) ** 2))
    s = np.arange(cfg.num_subcarriers)
    ramps = np.exp(
        -2j * np.pi * np.multiply.outer(s * cfg.subcarrier_spacing_hz, 2.0 * candidates / cfg.c)
    )  # (N_s, n_grid)

    steer = steering_vector(cfg, angles)  # (Q, N_r)
    beamed = steer.conj() @ snapshot  # (Q, N_s)
    return _joint_fit(
        "range",
        steer,
        ramps,
        symbol0.conj() * beamed,
        lambda q, p: symbol0[q].conj() * symbol0[p],
        energy,
        candidates,
        centers,
        options,
    )


def refine_velocities(
    grid: np.ndarray,
    data: np.ndarray,
    pattern: SwitchingPattern,
    cfg: SystemConfig,
    angles_deg,
    ranges_m,
    velocity_bins,
    options: RefineOptions = RefineOptions(),
) -> CombinationFit:
    """Joint velocity fit for one angle bin, with angles and ranges frozen.

    ``velocity_bins`` is the pooled set of candidate signed slow-time bins for
    the whole angle bin.  Every source searches the union of the windows
    around those bins and the joint fit decides which source sits where: the
    per-source matched spectra cannot do that on their own, because a strong
    bin mate survives re-descrambling at a neighbouring angle with nearly
    full strength and can out-peak the source that the angle belongs to.
    """
    grid = check_antenna_grid(cfg, grid)
    data = check_symbol_grid(cfg, data)
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    ranges = np.atleast_1d(np.asarray(ranges_m, dtype=float))
    if angles.shape != ranges.shape:
        raise ValueError("need one refined range per angle")
    energy = float(np.vdot(grid, grid).real)
    scrambled = _scrambled(data, pattern, cfg, angles)
    return _refine_velocities(grid, energy, scrambled, cfg, angles, ranges, velocity_bins, options)


def _refine_velocities(
    grid, energy, scrambled, cfg, angles, ranges, velocity_bins, options
) -> CombinationFit:
    """:func:`refine_velocities` of a validated grid with its energy
    ``||grid||^2`` and the payload scrambled toward each angle,
    (Q, N_s, N_p)."""
    candidates = candidate_velocity_grid(velocity_bins, cfg, options.velocity_points)
    res = velocity_resolution_mps(cfg)
    centers = np.atleast_1d(velocity_bins) * res

    s = np.arange(cfg.num_subcarriers)
    mu = np.arange(cfg.num_ofdm_symbols)
    phase = np.exp(
        2j
        * np.pi
        * cfg.symbol_duration_s
        * np.multiply.outer(mu, 2.0 * candidates * cfg.carrier_freq_hz / cfg.c)
    )  # (N_p, n_grid)

    steer = steering_vector(cfg, angles)  # (Q, N_r)
    range_ramp = np.exp(
        -2j * np.pi * np.multiply.outer(2.0 * ranges / cfg.c, s * cfg.subcarrier_spacing_hz)
    )  # (Q, N_s)
    base = scrambled * range_ramp[:, :, None]  # (Q, N_s, N_p): atoms sans slow-time phase

    # Beamform the whole cube with one BLAS product: (Q, N_r) @ (N_r, N_s * N_p).
    beamed = (steer.conj() @ grid.reshape(cfg.num_rx_antennas, -1)).reshape(base.shape)
    h = np.einsum("qsp,qsp->qp", base.conj(), beamed)  # (Q, N_p)
    return _joint_fit(
        "velocity",
        steer,
        phase,
        h,
        lambda q, p: np.einsum("sp,sp->p", base[q].conj(), base[p]),
        energy,
        candidates,
        centers,
        options,
    )


def matched_velocity_bins(
    rows: np.ndarray,
    data: np.ndarray,
    pattern: SwitchingPattern,
    cfg: SystemConfig,
    theta_deg: float,
    range_m: float,
    count: int = 1,
    detection: DetectionOptions = DetectionOptions(),
) -> list:
    """Signed slow-time bins of the strongest velocity peaks for one source.

    The coarse velocity spectra divide by the scrambling reference at the
    *bin center* angle, which decoheres a target sitting toward the edge of
    the bin.  Re-descrambling the same beamformed rows at the refined angle
    restores that target's slow-time ramp at nearly full strength, so its
    peak is always among the top few.  It is not reliably the single tallest
    one: a strong bin mate two degrees away also survives the re-descramble
    at close to full strength, and which of the two wins depends on the
    payload realization.  Returning the top ``count`` bins and letting the
    joint fit sort out the pairing avoids that coin flip.
    """
    rows = check_symbol_grid(cfg, rows)
    theta = float(theta_deg)
    reference = scramble_symbols(check_symbol_grid(cfg, data), pattern, cfg, theta)
    return _matched_velocity_bins(rows, reference, cfg, theta, range_m, count, detection)


def _matched_velocity_bins(rows, reference, cfg, theta_deg, range_m, count, detection) -> list:
    """:func:`matched_velocity_bins` of validated rows, descrambled by the
    payload already scrambled toward ``theta_deg``."""
    desc = _descramble(rows, reference, theta_deg, detection)
    response = range_response(desc.symbols, cfg)
    res = range_resolution_m(cfg)
    gate = int(np.rint(float(range_m) / res)) % cfg.num_subcarriers
    spectrum = velocity_spectrum(response[gate], cfg)
    tops = _top_local_maxima(spectrum, count)
    return [int(signed_bin_index(int(i), cfg.num_ofdm_symbols)) for i in tops]


# --- full estimation -------------------------------------------------------------


def estimate_targets(
    grid: np.ndarray,
    data: np.ndarray,
    pattern: SwitchingPattern,
    cfg: SystemConfig,
    detection: DetectionOptions = DetectionOptions(),
    options: RefineOptions = RefineOptions(),
) -> EstimateSet:
    """Coarse pipeline plus per-bin refinement; the top-level estimator.

    An empty frame (nothing above the detection threshold) yields an empty
    estimate set rather than an error.

    The signal-subspace dimension is frame-global: by default the eigenvalue
    gap of the pooled covariance, floored at the number of occupied bins and
    capped at num_rx_antennas - 1.  Each bin then contributes as many refined
    sources as its pseudospectrum window shows qualifying peaks (or exactly
    ``options.num_sources`` when that override is set).

    The grid and payload are validated here, once; the per-bin stages then
    run unchecked, and each refined angle is scrambled once for the range
    fit, the matched velocity spectra and the velocity fit together.
    """
    grid = check_antenna_grid(cfg, grid)
    data = check_symbol_grid(cfg, data)
    if options.covariance_symbol is not None:
        _check_symbol_index(options.covariance_symbol, cfg.num_ofdm_symbols)
    try:
        coarse = _coarse_pipeline(grid, data, pattern, cfg, detection)
    except NoPeaksError:
        return EstimateSet(coarse=[], refined=[])
    energy = float(np.vdot(grid, grid).real)

    covariance = sample_covariance(grid, options.covariance_symbol)
    max_dim = cfg.num_rx_antennas - 1
    dimension = options.signal_dimension
    if dimension is None:
        try:
            dimension = estimate_n_sources(np.linalg.eigvalsh(covariance), max_sources=max_dim)
        except SubspaceError:
            dimension = len(coarse.estimates)
        dimension = min(max(dimension, len(coarse.bins)), max_dim)

    refined = []
    for bin_result in coarse.bins:
        search = music_search_grid(bin_result.angle_bin, cfg, options.music_step_deg)
        spectrum = music_pseudospectrum(covariance, dimension, cfg, search)
        count = options.num_sources or _peak_count(spectrum, options.peak_rel_threshold)
        count = max(1, min(count, dimension))
        angles = search[_top_local_maxima(spectrum, count)]
        scrambled = _scrambled(data, pattern, cfg, angles)  # (Q, N_s, N_p)
        range_fit = _refine_ranges(
            grid, scrambled[:, :, 0], cfg, angles, bin_result.range_bins, options
        )
        velocity_bins = set()
        for bins in bin_result.velocity_bins:
            velocity_bins.update(int(b) for b in bins)
        for q, angle in enumerate(angles):
            velocity_bins.update(
                _matched_velocity_bins(
                    bin_result.rows,
                    scrambled[q],
                    cfg,
                    float(angle),
                    range_fit.values[q],
                    len(angles),
                    detection,
                )
            )
        velocity_fit = _refine_velocities(
            grid,
            energy,
            scrambled,
            cfg,
            angles,
            range_fit.values,
            sorted(velocity_bins),
            options,
        )
        for q, angle in enumerate(angles):
            refined.append(
                RefinedEstimate(
                    angle_bin=bin_result.angle_bin,
                    angle_deg=float(angle),
                    range_m=float(range_fit.values[q]),
                    velocity_mps=float(velocity_fit.values[q]),
                )
            )
    return EstimateSet(coarse=list(coarse.estimates), refined=refined).validate()

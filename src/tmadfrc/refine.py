"""Refinement of coarse detections: subspace angles, least-squares
ranges and velocities.

Angles first: within each detected beamforming bin a MUSIC pseudospectrum is
evaluated on a fine degree grid around the bin, using the receive sample
covariance.  Co-bin targets that the coarse DFT merged are separated here —
their slow-time Doppler rotation decorrelates them across OFDM symbols, so
averaging the covariance over the whole frame keeps the signal subspace well
conditioned even for closely spaced directions.  Every bin's noise subspace
has the same, frame-global dimension, set once per frame by the minimum
description length (MDL) of the covariance eigenvalues, with no tuned
threshold: when several bins are occupied, sizing the subspace per bin would
leave the other bins' signal eigenvectors inside the noise subspace and bias
the peaks by a few tenths of a degree.

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

All sources of a bin share one range grid — the union of windows of
``RANGE_POINTS`` candidates around the bin's detected range peaks, half a
resolution cell either side — because a merged range peak says nothing about
which source produced it; the joint fit sorts that out.

Velocity atoms use the whole frame with the refined angles and ranges frozen
in, and the slow-time phase exp(+2j pi mu T_p 2 v f_c / c).  The candidate
bins pool the coarse velocity peaks with each source's matched-spectrum peaks
(see ``matched_velocity_bins``): the coarse spectra descramble at the
bin-center angle, which decoheres a target sitting toward the edge of the
bin, while the matched spectra restore it but cannot tell whose peak is
whose.  All sources therefore share the union of candidate windows, of
``VELOCITY_POINTS`` candidates each, and the joint fit assigns them.

Both window sizes are odd, so every grid contains the value it was centered
on and refinement can never do worse than the coarse stage on the same
objective.
"""

import dataclasses
import typing
import warnings

import numpy as np

from . import model
from .coarse import (
    NoPeaksError,
    _local_maxima,
    coarse_pipeline,
    descramble,
    range_response,
    velocity_spectrum,
)
from .model import (
    EstimateSet,
    Frame,
    RefinedEstimate,
    SystemConfig,
    bin_to_range_m,
    bin_to_sine,
    bin_to_velocity_mps,
    check_integer,
    range_ramp,
    range_resolution_m,
    signed_bin_index,
    slow_time_rotation,
    steering_vector,
    velocity_resolution_mps,
)
from .tma import SwitchingPattern, scramble_symbols

# A Frame computes its covariance once, when it is built; the stage keeps its
# name here as well, beside the stages that read the covariance.
sample_covariance = model.sample_covariance


class SubspaceError(RuntimeError):
    """The covariance eigenstructure cannot support the requested split."""


#: MUSIC search grid step (degrees); refined angles are multiples of it.
MUSIC_STEP_DEG = 0.1
#: Range and velocity candidates per coarse cell, spanning it +- half a cell;
#: both odd, so each window contains its center.
RANGE_POINTS = 101
VELOCITY_POINTS = 11
# Pseudospectrum maxima below this fraction of the tallest one do not count
# as sources.
_PEAK_REL_THRESHOLD = 1e-2
# Largest grid product one joint fit may search: three sources on one range
# window.  It guards time and memory against a large forced source count.
_MAX_COMBINATIONS = RANGE_POINTS**3


@dataclasses.dataclass(frozen=True)
class RefineOptions:
    num_sources: int | None = None  # per-bin peak count; default: count pseudospectrum peaks
    fit_gains: bool = False
    velocity_points: typing.ClassVar[int] = VELOCITY_POINTS  # read-only; the benchmark reads it

    def __post_init__(self):
        if self.num_sources is not None:
            check_integer(self.num_sources, 1, "RefineOptions.num_sources")


def estimate_n_sources(eigenvalues, snapshots: int) -> int:
    """Wax & Kailath's MDL source count over N = ``snapshots``: the k in
    0 .. M-1 minimizing N (M-k) log(mean / geomean of the M-k smallest
    eigenvalues) + k (2M-k) log(N) / 2.  Eigenvalues are floored at 1e-15 of
    the largest, so the zeros of a noise-free covariance stay finite.

    Raises:
        SubspaceError: the eigenvalues are degenerate.
    """
    check_integer(snapshots, 1, "snapshots")
    lam = np.sort(np.abs(np.asarray(eigenvalues, dtype=float)))[::-1]
    if lam.size < 2 or not np.all(np.isfinite(lam)) or lam[0] <= 0.0:
        raise SubspaceError("eigenvalue spectrum is degenerate")
    lam = np.maximum(lam, lam[0] * 1e-15)
    m = lam.size
    k = np.arange(m)
    tail = m - k  # noise eigenvalues under order k
    tail_sum = np.cumsum(lam[::-1])[::-1]
    tail_log_sum = np.cumsum(np.log(lam[::-1]))[::-1]
    likelihood = snapshots * (tail * np.log(tail_sum / tail) - tail_log_sum)
    penalty = 0.5 * k * (2 * m - k) * np.log(snapshots)
    return int(np.argmin(likelihood + penalty))


def music_search_grid(angle_bin: int, cfg: SystemConfig) -> np.ndarray:
    """Degree grid around a beamforming bin: all multiples of
    ``MUSIC_STEP_DEG`` within one coarse bin width either side of the bin
    center (sine domain)."""
    center = float(bin_to_sine(angle_bin, cfg))
    width = 1.0 / (cfg.num_rx_antennas * cfg.rx_spacing_wavelengths)
    lo = np.degrees(np.arcsin(np.clip(center - width, -1.0, 1.0)))
    hi = np.degrees(np.arcsin(np.clip(center + width, -1.0, 1.0)))
    first = int(np.ceil(lo / MUSIC_STEP_DEG - 1e-9))
    last = int(np.floor(hi / MUSIC_STEP_DEG + 1e-9))
    return np.arange(first, last + 1) * MUSIC_STEP_DEG


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


def _top_local_maxima(values: np.ndarray, count: int, wrap: bool = False) -> list:
    """Indices of the ``count`` tallest local maxima (circular with ``wrap``), topped up
    with the tallest remaining samples when the landscape has too few bumps."""
    v = np.asarray(values, dtype=float)
    if count > v.size:
        raise SubspaceError(f"cannot pick {count} peaks from {v.size} grid points")
    peaks = np.flatnonzero(_local_maxima(v, wrap))
    chosen = list(peaks[np.argsort(v[peaks])[::-1]][:count])
    for idx in np.argsort(v)[::-1]:
        if len(chosen) == count:
            break
        if idx not in chosen:
            chosen.append(int(idx))
    return sorted(int(i) for i in chosen)


def _peak_count(spectrum: np.ndarray) -> int:
    """Local maxima within ``_PEAK_REL_THRESHOLD`` of the tallest spectrum value."""
    v = np.asarray(spectrum, dtype=float)
    tall = v >= _PEAK_REL_THRESHOLD * v.max()
    return int(np.count_nonzero(_local_maxima(v, wrap=False) & tall))


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
    coarse_residual: float
    grids: tuple
    on_boundary: tuple


def _window_union(centers, res: float, points: int) -> np.ndarray:
    """Sorted union of one window of ``points`` values per center, spanning it
    +- half a cell.  ``points`` is odd, so each window's middle value is its
    center (to rounding)."""
    windows = [np.linspace(c - res / 2.0, c + res / 2.0, points) for c in np.atleast_1d(centers)]
    return np.unique(np.concatenate(windows))


def candidate_range_grid(range_bins, cfg: SystemConfig) -> np.ndarray:
    """Union of per-bin windows of ``RANGE_POINTS`` values (bin center +- half
    a range cell, inclusive); negative candidates are dropped."""
    grid = _window_union(bin_to_range_m(range_bins, cfg), range_resolution_m(cfg), RANGE_POINTS)
    return grid[grid >= 0.0]


def candidate_velocity_grid(velocity_bins, cfg: SystemConfig) -> np.ndarray:
    """Union of per-signed-bin windows of ``VELOCITY_POINTS`` values (center
    +- half a velocity cell, inclusive)."""
    centers = bin_to_velocity_mps(velocity_bins, cfg)
    return _window_union(centers, velocity_resolution_mps(cfg), VELOCITY_POINTS)


# Combinations scored at once: a Q = 3 Gram stack of 10**6 members is 144 MB.
_SLAB_COMBINATIONS = 65_536


def _mesh_residuals(mesh, u, gram, energy, fit_gains):
    """Residual of every combination of an open index mesh (``np.ix_`` of
    each source's grid indices)."""
    n_sources = len(u)
    if not fit_gains:
        residual = energy
        for q in range(n_sources):
            residual = residual - 2.0 * u[q].real[mesh[q]]
            residual = residual + np.diagonal(gram[q, q]).real[mesh[q]]
        for q in range(n_sources):
            for p in range(q + 1, n_sources):
                residual += 2.0 * gram[q, p].real[mesh[q], mesh[p]]  # no extra temporary
        return residual

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
    return energy - (v.conj()[..., None, :] @ gains[..., :, None])[..., 0, 0].real


def _mesh_minimum(indices, u, gram, energy, fit_gains):
    """First minimum, in C order, over the mesh where every source takes one
    of the grid ``indices``, scored in slabs along the first source:
    (grid index per source, residual)."""
    rows = max(1, _SLAB_COMBINATIONS // indices.size ** (len(u) - 1))
    best = None, np.inf
    for start in range(0, indices.size, rows):
        mesh = np.ix_(indices[start : start + rows], *[indices] * (len(u) - 1))
        residual = _mesh_residuals(mesh, u, gram, energy, fit_gains)
        at = np.unravel_index(np.argmin(residual), residual.shape)
        if residual[at] < best[1]:
            best = indices[[start + at[0], *at[1:]]], float(residual[at])
    return best


def _search_combinations(u, gram, energy, candidates, centers, fit_gains):
    """Best combination of ``candidates``, one per source, and the baseline
    best with every source pinned to one of the coarse ``centers``."""
    n_sources = len(u)
    n_combinations = float(len(candidates)) ** n_sources
    if n_combinations > _MAX_COMBINATIONS:
        raise ValueError(
            f"{n_sources} sources on {len(candidates)} candidates need {int(n_combinations)} "
            f"grid combinations, over the limit of {_MAX_COMBINATIONS}; force fewer sources"
        )
    if not len(candidates):
        raise ValueError("the candidate grid is empty")
    best, residual = _mesh_minimum(np.arange(len(candidates)), u, gram, energy, fit_gains)
    center_idx = np.argmin(np.abs(np.subtract.outer(np.atleast_1d(centers), candidates)), axis=1)
    _, coarse_residual = _mesh_minimum(center_idx, u, gram, energy, fit_gains)
    return CombinationFit(
        values=candidates[best],
        residual=residual,
        coarse_residual=coarse_residual,
        grids=(candidates,) * n_sources,
        on_boundary=tuple(i in (0, len(candidates) - 1) for i in best),
    )


def _joint_fit(kind, steer, atoms, projections, pair_weight, energy, candidates, centers, options):
    """Gram blocks, combination search and edge warning of one joint fit.

    Source q's atom at grid point i is ``steer[q]`` times a per-source
    weighting of column i of ``atoms``, so u_q = atoms^H projections[q] and
    C_qp = (a_q^H a_p) * atoms^H diag(pair_weight(q, p)) atoms, kept for q <= p.
    All sources search ``candidates``, with ``centers`` as coarse baseline.
    """
    n_sources = len(steer)
    atoms_h = atoms.conj().T
    u = [atoms_h @ projections[q] for q in range(n_sources)]
    array_gram = steer.conj() @ steer.T  # (Q, Q)
    gram = {
        (q, p): array_gram[q, p] * (atoms_h @ (pair_weight(q, p)[:, None] * atoms))
        for q in range(n_sources)
        for p in range(q, n_sources)
    }
    fit = _search_combinations(u, gram, energy, candidates, centers, options.fit_gains)
    if any(fit.on_boundary):
        warnings.warn(
            f"refined {kind} hit the edge of its search window; the optimum "
            "may lie outside the coarse cell",
            RuntimeWarning,
            # caller of the fit -> refine_ranges or refine_velocities -> here
            stacklevel=3,
        )
    return fit


def _checked_scrambled(cfg: SystemConfig, angles_deg, scrambled):
    """(angles, scrambled) as a float vector and a complex (Q, N_s, N_p)
    stack, refused unless ``scrambled`` holds one finite payload grid per
    angle."""
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    what = "one scrambled payload per angle: scrambled"
    return angles, model._checked_grid(scrambled, (angles.size, *cfg.grid_shape), what)


def refine_ranges(
    frame: Frame, angles_deg, scrambled, range_bins, options: RefineOptions = RefineOptions()
) -> CombinationFit:
    """Joint range fit for the sources of one angle bin (see module docstring),
    with ``scrambled[q]`` the payload scrambled toward ``angles_deg[q]``.

    Uses only OFDM symbol 0, where Doppler-induced range migration is zero.
    """
    cfg = frame.cfg
    angles, scrambled = _checked_scrambled(cfg, angles_deg, scrambled)
    symbol0 = scrambled[:, :, 0]  # (Q, N_s)
    candidates = candidate_range_grid(range_bins, cfg)
    snapshot = frame.grid[:, :, 0]  # (N_r, N_s)
    energy = float(np.sum(np.abs(snapshot) ** 2))
    steer = steering_vector(cfg, angles)  # (Q, N_r)
    beamed = steer.conj() @ snapshot  # (Q, N_s)
    return _joint_fit(
        "range",
        steer,
        range_ramp(cfg, candidates).T,  # (N_s, n_grid)
        symbol0.conj() * beamed,
        lambda q, p: symbol0[q].conj() * symbol0[p],
        energy,
        candidates,
        bin_to_range_m(range_bins, cfg),
        options,
    )


def refine_velocities(
    frame: Frame,
    angles_deg,
    scrambled,
    ranges_m,
    velocity_bins,
    options: RefineOptions = RefineOptions(),
) -> CombinationFit:
    """Joint velocity fit for one angle bin, with angles and ranges frozen and
    ``scrambled[q]`` the payload scrambled toward ``angles_deg[q]``.

    ``velocity_bins`` is the pooled set of candidate signed slow-time bins for
    the whole angle bin.  Every source searches the union of the windows
    around those bins and the joint fit decides which source sits where: the
    per-source matched spectra cannot do that on their own, because a strong
    bin mate survives re-descrambling at a neighbouring angle with nearly
    full strength and can out-peak the source that the angle belongs to.
    """
    cfg = frame.cfg
    angles, scrambled = _checked_scrambled(cfg, angles_deg, scrambled)
    ranges = np.atleast_1d(np.asarray(ranges_m, dtype=float))
    if angles.shape != ranges.shape:
        raise ValueError("need one refined range per angle")
    candidates = candidate_velocity_grid(velocity_bins, cfg)
    steer = steering_vector(cfg, angles)  # (Q, N_r)
    base = scrambled * range_ramp(cfg, ranges)[:, :, None]  # (Q, N_s, N_p): atoms sans slow time

    # Beamform the whole cube with one BLAS product: (Q, N_r) @ (N_r, N_s * N_p).
    beamed = (steer.conj() @ frame.grid.reshape(cfg.num_rx_antennas, -1)).reshape(base.shape)
    h = np.einsum("qsp,qsp->qp", base.conj(), beamed)  # (Q, N_p)
    return _joint_fit(
        "velocity",
        steer,
        slow_time_rotation(cfg, 2.0 * candidates * cfg.carrier_freq_hz / cfg.c).T,  # (N_p, n_grid)
        h,
        lambda q, p: np.einsum("sp,sp->p", base[q].conj(), base[p]),
        frame.energy,
        candidates,
        bin_to_velocity_mps(velocity_bins, cfg),
        options,
    )


def matched_velocity_bins(
    rows: np.ndarray,
    reference: np.ndarray,
    cfg: SystemConfig,
    theta_deg: float,
    range_m: float,
    count: int,
) -> list:
    """Signed slow-time bins of the strongest velocity peaks for one source,
    from beamformed ``rows`` descrambled by ``reference``, the payload
    scrambled toward ``theta_deg``.

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
    desc = descramble(rows, reference, cfg, theta_deg)
    response = range_response(desc.symbols, cfg)
    res = range_resolution_m(cfg)
    gate = int(np.rint(float(range_m) / res)) % cfg.num_subcarriers
    spectrum = velocity_spectrum(response[gate], cfg)
    tops = _top_local_maxima(spectrum, count, wrap=True)
    return [int(signed_bin_index(int(i), cfg.num_ofdm_symbols)) for i in tops]


# --- full estimation -------------------------------------------------------------


def estimate_targets(
    grid: np.ndarray,
    data: np.ndarray,
    pattern: SwitchingPattern,
    cfg: SystemConfig,
    options: RefineOptions = RefineOptions(),
) -> EstimateSet:
    """Coarse pipeline plus per-bin refinement; the top-level estimator.

    An empty frame (nothing above the detection threshold) yields an empty
    estimate set rather than an error; otherwise it keeps ``coarse_result``.

    The covariance is the frame's own: :class:`Frame` computes it once, and
    the coarse angle stage reads its beam power from it.  It pools every
    subcarrier of every OFDM symbol.  The signal-subspace dimension is
    frame-global: the MDL order of that covariance's eigenvalues over its
    N_s N_p snapshots (:func:`estimate_n_sources`), floored at the number of
    occupied bins and capped at num_rx_antennas - 1.  Each bin
    then contributes as many refined sources as its pseudospectrum window
    shows qualifying peaks, capped at the dimension, or exactly
    ``options.num_sources`` when that override is set; a forced count above
    the dimension raises :class:`SubspaceError`.

    The cube and payload are validated once, as one :class:`Frame`, which
    every stage then takes as it is.  A bin's refined angles are scrambled in
    one call for the range fit, the matched velocity spectra and the velocity
    fit; the stages check only those scrambled grids and the beamformed rows.
    """
    frame = Frame(grid, data, pattern, cfg)
    try:
        coarse = coarse_pipeline(frame)
    except NoPeaksError:
        return EstimateSet(coarse=[], refined=[])

    max_dim = cfg.num_rx_antennas - 1
    order = estimate_n_sources(np.linalg.eigvalsh(frame.covariance), frame.grid[0].size)
    dimension = min(max(order, len(coarse.bins)), max_dim)
    if options.num_sources is not None and options.num_sources > dimension:
        raise SubspaceError(
            f"{options.num_sources} forced sources per bin exceed the frame's "
            f"signal-subspace dimension of {dimension}"
        )

    refined = []
    for bin_result in coarse.bins:
        search = music_search_grid(bin_result.angle_bin, cfg)
        spectrum = music_pseudospectrum(frame.covariance, dimension, cfg, search)
        count = options.num_sources or max(1, min(_peak_count(spectrum), dimension))
        angles = search[_top_local_maxima(spectrum, count)]  # ascending
        scrambled = scramble_symbols(frame.data, pattern, cfg, angles)  # (Q, N_s, N_p)
        range_fit = refine_ranges(frame, angles, scrambled, bin_result.range_bins, options)
        velocity_bins = {int(b) for bins in bin_result.velocity_bins for b in bins}
        for reference, angle, range_m in zip(scrambled, angles.tolist(), range_fit.values):
            velocity_bins.update(
                matched_velocity_bins(bin_result.rows, reference, cfg, angle, range_m, len(angles))
            )
        velocity_fit = refine_velocities(
            frame, angles, scrambled, range_fit.values, sorted(velocity_bins), options
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
    estimates = EstimateSet(coarse=list(coarse.estimates), refined=refined)
    estimates.coarse_result = coarse
    return estimates

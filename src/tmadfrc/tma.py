"""Time-modulated transmit array: switching patterns and direction-dependent
symbol scrambling.

Each transmit element n is connected to the common OFDM feed through a switch
that is closed only during a window of the (normalized) switching period:
on at ``tau_on[n]``, open again ``duty[n]`` later, repeating with period
``1/subcarrier_spacing_hz`` (the useful OFDM symbol length).  The periodic
gating spreads each element's signal into harmonics at integer multiples of
the subcarrier spacing.  With the staggered pattern from
:func:`design_pattern` the harmonics cancel across the array exactly in the
steered direction and nowhere else, so a receiver at the steered angle sees a
clean constellation while every other direction sees symbols convolved with
the harmonic leakage — direction-dependent scrambling with no per-symbol key.

Normalized switching times are 1-periodic: every harmonic phase factor
``exp(-1j pi m (2 tau_on + duty))`` is invariant under ``tau_on -> tau_on + 1``,
so turn-on instants are always reduced modulo 1.
"""

import dataclasses
import functools
import math

import numpy as np

from .model import SystemConfig


class PatternError(ValueError):
    """A switching pattern is malformed or unrealizable."""


@dataclasses.dataclass(frozen=True)
class SwitchingPattern:
    """Per-element switch schedule and steering weights.

    Attributes:
        tau_on: turn-on instants, normalized to the switching period, in [0, 1).
        duty: on-fractions in (0, 1].
        weights: complex per-element excitation applied while the switch is
            closed (phase steering).
    """

    tau_on: np.ndarray
    duty: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        tau = np.atleast_1d(np.asarray(self.tau_on, dtype=float))
        duty = np.atleast_1d(np.asarray(self.duty, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=np.complex128))
        if not (tau.shape == duty.shape == weights.shape) or tau.ndim != 1:
            raise PatternError("tau_on, duty and weights must be 1-D and equally long")
        # Written so that NaN, which fails every comparison, is refused too.
        if not np.all((tau >= 0.0) & (tau < 1.0)):
            raise PatternError("tau_on entries must lie in [0, 1)")
        if not np.all((duty > 0.0) & (duty <= 1.0)):
            raise PatternError("duty entries must lie in (0, 1]")
        if not np.isfinite(weights).all():
            raise PatternError("weights must be finite")
        for arr, name in ((tau, "tau_on"), (duty, "duty"), (weights, "weights")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_elements(self) -> int:
        return self.tau_on.size


def design_pattern(cfg: SystemConfig, steer_angle_deg: float) -> SwitchingPattern:
    """Staggered single-slot pattern steering the clean constellation to
    ``steer_angle_deg``.

    Element n switches off for exactly one slot of width 1/N_t per period,
    with the off-slots staggered across elements (duty (N_t-1)/N_t, turn-off
    at n/N_t).  Combined with conjugate phase steering this makes every
    nonzero harmonic vanish in the steered direction: the harmonic sum over
    elements reduces to a full geometric sum of the N_t-th roots of unity for
    m not a multiple of N_t, and the duty-cycle sinc zeroes the multiples.

    Raises:
        ValueError: for a steer direction that is not finite or lies outside
            [-90, 90] deg, the rule of every direction in this module.
        PatternError: for fewer than 2 transmit elements.
    """
    sin0 = np.sin(np.radians(_check_direction(steer_angle_deg)))
    nt = cfg.num_tx_antennas
    if nt < 2:
        raise PatternError(
            "staggered pattern needs at least 2 transmit elements "
            "(duty (N_t-1)/N_t would be zero)"
        )
    n = np.arange(nt)
    duty = np.full(nt, (nt - 1) / nt)
    tau_off = n / nt
    tau_on = np.mod(tau_off - duty, 1.0)
    weights = np.exp(2j * np.pi * n * cfg.tx_spacing_wavelengths * sin0)
    return SwitchingPattern(tau_on=tau_on, duty=duty, weights=weights)


def _check_direction(theta_deg) -> np.ndarray:
    """Direction(s) as floats: a scalar or a 1-D array.  Refuse more axes, and
    any direction that is not finite or lies outside [-90, 90] deg, the rule
    :func:`model.validate_target` applies to a target's angle."""
    theta = np.asarray(theta_deg, dtype=float)
    if theta.ndim > 1:
        raise ValueError(f"directions must be a scalar or a 1-D array, got shape {theta.shape}")
    outside = [x for x in theta.ravel().tolist() if not -90.0 <= x <= 90.0]  # NaN too
    if outside:
        raise ValueError(f"direction must be finite and inside [-90, 90] deg, got {outside[0]}")
    return theta


def element_gains(pattern: SwitchingPattern, cfg: SystemConfig, theta_deg) -> np.ndarray:
    """Per-element gains toward ``theta_deg``: steering x weight x duty.

    Their sum is the fundamental (order-0) coefficient, since the m = 0 gate
    of :func:`harmonic_coefficients` is exactly 1.  A scalar direction gives
    shape (num_elements,), a 1-D array of Q directions (Q, num_elements).

    Raises:
        ValueError: for a direction that is not finite or lies outside
            [-90, 90] deg, or directions with more than one axis.
    """
    sin_theta = np.sin(np.radians(_check_direction(theta_deg)))
    n = np.arange(pattern.num_elements)
    phase = -2j * np.pi * n * cfg.tx_spacing_wavelengths
    return np.exp(np.multiply.outer(sin_theta, phase)) * pattern.weights * pattern.duty


def harmonic_coefficients(pattern: SwitchingPattern, cfg: SystemConfig, m, theta_deg):
    """Array-combined Fourier coefficients of the switched transmission.

    For harmonic order m and direction theta the coefficient is

        sum_n exp(-2j pi n d_t sin(theta) / lambda) * w_n
              * duty_n * sinc(m duty_n) * exp(-1j pi m (2 tau_on_n + duty_n))

    with the normalized sinc ``sin(pi x)/(pi x)`` and sinc(0) = 1 (np.sinc
    evaluates the branch exactly).  Order m = 0 is the fundamental carrying
    the constellation; |m| >= 1 are the scrambling harmonics offset by
    m times the subcarrier spacing.

    Args:
        m: scalar or 1-D array of integer harmonic orders.
        theta_deg: a direction inside [-90, 90], or a 1-D array of Q of them.

    Returns:
        Complex coefficients shaped like ``m``, after a leading axis of Q for
        an array of directions (a Python complex if both are scalars).  The
        direction-free gate comes from :func:`harmonic_gate`.
    """
    gains = element_gains(pattern, cfg, theta_deg)[..., None]  # (..., N_t, 1)
    coeffs = np.matmul(harmonic_gate(pattern, m), gains)[..., 0]
    coeffs = coeffs.reshape(gains.shape[:-2] + np.shape(m))
    return coeffs if coeffs.ndim else complex(coeffs)


def harmonic_gate(pattern: SwitchingPattern, m) -> np.ndarray:
    """The direction-free factor of :func:`harmonic_coefficients`, read-only,
    shape (M, num_elements) for the M orders of ``m`` in C order:
    ``sinc(m duty) * exp(-1j pi m (2 tau_on + duty))``.

    It depends on ``tau_on``, ``duty`` and the orders only, so it is built
    once per pattern and order set and then reused (a bounded cache keyed by
    their bytes: safe against a reused ``id`` and ``dataclasses.replace``).
    """
    m_arr = np.asarray(m).reshape(-1)
    return _gate(pattern.tau_on.tobytes(), pattern.duty.tobytes(), m_arr.dtype.str, m_arr.tobytes())


@functools.lru_cache(maxsize=32)
def _gate(tau_on: bytes, duty: bytes, order_dtype: str, orders: bytes) -> np.ndarray:
    """:func:`harmonic_gate` of the float64 ``tau_on`` and ``duty`` and the
    orders of ``order_dtype``, all given as bytes."""
    tau = np.frombuffer(tau_on)
    on = np.frombuffer(duty)
    m = np.frombuffer(orders, dtype=order_dtype)
    gate = np.sinc(np.multiply.outer(m, on)) * np.exp(
        -1j * np.pi * np.multiply.outer(m, 2.0 * tau + on)
    )
    gate.setflags(write=False)
    return gate


def _toeplitz(coeffs: np.ndarray) -> np.ndarray:
    """The N x N matrix T[s, i] = coeffs[s - i + N - 1] of 2N - 1 coefficients
    for the orders -(N-1) .. N-1, copied from a window view: window w of the
    reversed coefficients holds coeffs[2N - 2 - w - i], i.e. row N - 1 - w."""
    ns = (coeffs.size + 1) // 2
    return np.lib.stride_tricks.sliding_window_view(coeffs[::-1], ns)[::-1].copy()


def scramble_symbols(
    data: np.ndarray, pattern: SwitchingPattern, cfg: SystemConfig, theta_deg
) -> np.ndarray:
    """Symbols observed in direction ``theta_deg`` after the switched array.

    The mixing is the in-band part of the harmonic convolution, the Toeplitz
    matrix M[s, i] = coefficient(s - i, theta): subcarrier s receives data
    symbol i through harmonic order s - i, and orders falling outside the
    occupied band are dropped.  Scrambling ``np.eye(num_subcarriers)`` gives
    M itself.

    Args:
        data: transmitted grid, shape (num_subcarriers, ...) — typically
            (num_subcarriers, num_ofdm_symbols).
        theta_deg: a direction, or a 1-D array of Q directions.

    Returns:
        A new C-contiguous grid shaped like ``data``, after a leading axis of
        Q for an array of directions (callers may work on it in place); at
        the steered angle the input scaled by the fundamental coefficient,
        elsewhere a harmonic mixture.  Each direction's product is written
        straight into it, so one N_s x N_s matrix is alive at a time.

    Raises:
        ValueError: for a direction that is not finite or lies outside
            [-90, 90] deg, or directions with more than one axis.
    """
    data = np.asarray(data, dtype=np.complex128)
    if data.shape[0] != cfg.num_subcarriers:
        raise ValueError(
            f"first axis must hold {cfg.num_subcarriers} subcarriers, got {data.shape}"
        )
    ns = cfg.num_subcarriers
    coeffs = harmonic_coefficients(pattern, cfg, np.arange(-(ns - 1), ns), theta_deg)
    rows = np.atleast_2d(coeffs)  # (Q, 2 N_s - 1); Q = 1 for a scalar direction
    out = np.empty((len(rows), ns, data[0].size), dtype=np.complex128)
    for row, dest in zip(rows, out):
        np.matmul(_toeplitz(row), data.reshape(ns, -1), out=dest)
    return out.reshape(*coeffs.shape[:-1], *data.shape)


# --- steered-direction condition --------------------------------------------

# Probe directions per harmonic_coefficients call in check_dm_condition: the
# (probes, 2 N_s - 2) harmonics of one block are alive at a time, about 2 MB
# on the reference config, whatever the probe count.
_PROBE_BLOCK = 1024


@dataclasses.dataclass(frozen=True)
class DmConditionReport:
    """Outcome of :func:`check_dm_condition`.

    The three clauses of the direction-dependent modulation condition:
    (1) the fundamental survives at the steered angle, (2) every in-band
    harmonic vanishes there, (3) harmonics remain significant at every probe
    angle away from it.
    """

    ok: bool
    failed_clauses: tuple
    fundamental_at_steer: float
    max_harmonic_at_steer: float
    min_off_steer_harmonic: float
    rel_tol: float
    off_steer_floor: float


def check_dm_condition(
    pattern: SwitchingPattern,
    cfg: SystemConfig,
    steer_angle_deg: float,
    probe_angles_deg,
    rel_tol: float,
    off_steer_floor: float,
) -> DmConditionReport:
    """Verify the three-clause scrambling condition over the in-band harmonics.

    Args:
        probe_angles_deg: at least one direction probing clause (3); none
            may share sin(theta) with the steered angle (a co-linear alias
            would probe the steered direction itself).
        rel_tol, off_steer_floor: the multiples of the fundamental that bound
            the harmonics in clauses (2) and (3); ``dm-check`` passes its
            ``--rel-tol`` and ``--floor`` (defaults 1e-10 and 1e-3).

    A single subcarrier has no in-band harmonic to leak into, so clause (3)
    fails there with a leakage of 0.
    """
    # Written so that NaN, which fails every comparison, is refused too.
    if not (0.0 <= rel_tol < math.inf and 0.0 <= off_steer_floor < math.inf):
        raise ValueError(
            f"rel_tol and off_steer_floor must be finite and non-negative, "
            f"got {rel_tol} and {off_steer_floor}"
        )
    probes = np.atleast_1d(np.asarray(probe_angles_deg, dtype=float))
    if probes.size == 0:
        raise ValueError("clause (3) needs at least one probe angle")
    sin0 = np.sin(np.radians(steer_angle_deg))
    if np.any(np.abs(np.sin(np.radians(probes)) - sin0) < 1e-9):
        raise ValueError("probe angles must not alias the steered direction (same sin theta)")

    ns = cfg.num_subcarriers
    orders = np.arange(-(ns - 1), ns)
    nonzero = orders != 0
    at_steer = harmonic_coefficients(pattern, cfg, orders, steer_angle_deg)
    fundamental = abs(at_steer[~nonzero][0])
    max_at_steer = float(np.max(np.abs(at_steer[nonzero]))) if nonzero.any() else 0.0

    min_off = math.inf
    for start in range(0, probes.size, _PROBE_BLOCK):
        block = probes[start : start + _PROBE_BLOCK]
        off = np.abs(harmonic_coefficients(pattern, cfg, orders[nonzero], block))  # (P, M)
        min_off = min(min_off, float(off.max(axis=1, initial=0.0).min()))

    failed = []
    if not fundamental > 1e-12 * pattern.num_elements:
        failed.append(1)
    if not max_at_steer <= rel_tol * fundamental:
        failed.append(2)
    if not min_off > off_steer_floor * fundamental:
        failed.append(3)
    return DmConditionReport(
        ok=not failed,
        failed_clauses=tuple(failed),
        fundamental_at_steer=fundamental,
        max_harmonic_at_steer=max_at_steer,
        min_off_steer_harmonic=min_off,
        rel_tol=rel_tol,
        off_steer_floor=off_steer_floor,
    )

"""Switching patterns, harmonic coefficients, scrambling, and the two
independent demodulation routes.

The oracles here are deliberately scalar: per-element Python loops and
closed-form interval integrals that share no code with the vectorized
package implementation.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from tmadfrc import (
    PatternError,
    SwitchingPattern,
    check_dm_condition,
    design_pattern,
    element_gains,
    harmonic_coefficients,
    load_pattern,
    save_pattern,
    scramble_symbols,
    time_domain_demod,
)
from tmadfrc.tma import gate_matrix, harmonic_gate, snap_pattern

from conftest import qpsk_frame


def scalar_coefficient(pattern, cfg, m, theta_deg):
    """Per-element evaluation of the harmonic sum, no shared vector code."""
    sin_theta = math.sin(math.radians(theta_deg))
    total = 0.0 + 0.0j
    for n in range(pattern.num_elements):
        duty = float(pattern.duty[n])
        tau = float(pattern.tau_on[n])
        if m == 0:
            lobe = 1.0
        else:
            x = math.pi * m * duty
            lobe = math.sin(x) / x
        total += (
            cmath.exp(-2j * math.pi * n * cfg.tx_spacing_wavelengths * sin_theta)
            * complex(pattern.weights[n])
            * duty
            * lobe
            * cmath.exp(-1j * math.pi * m * (2.0 * tau + duty))
        )
    return total


def integrated_coefficient(pattern, cfg, m, theta_deg, n_grid=64):
    """Numeric Fourier integral of the combined gate waveform.

    The gate is piecewise constant once its edges sit on the 1/n_grid lattice
    (assert they do), so the integral of gate(t) * exp(-2j pi m t) over one
    period is a finite sum of closed-form interval integrals.
    """
    assert np.allclose(np.mod(pattern.tau_on * n_grid, 1.0), 0.0)
    assert np.allclose(np.mod(pattern.duty * n_grid, 1.0), 0.0)
    sin_theta = math.sin(math.radians(theta_deg))
    total = 0.0 + 0.0j
    for i in range(n_grid):
        t0, t1 = i / n_grid, (i + 1) / n_grid
        mid = (t0 + t1) / 2.0
        gate = 0.0 + 0.0j
        for n in range(pattern.num_elements):
            tau = float(pattern.tau_on[n])
            span = (mid - tau) % 1.0
            if span < float(pattern.duty[n]):
                gate += complex(pattern.weights[n]) * cmath.exp(
                    -2j * math.pi * n * cfg.tx_spacing_wavelengths * sin_theta
                )
        if m == 0:
            segment = t1 - t0
        else:
            segment = (
                cmath.exp(-2j * math.pi * m * t0) - cmath.exp(-2j * math.pi * m * t1)
            ) / (2j * math.pi * m)
        total += gate * segment
    return total


def all_on_pattern(num_elements):
    return SwitchingPattern(
        tau_on=np.zeros(num_elements),
        duty=np.ones(num_elements),
        weights=np.ones(num_elements, dtype=complex),
    )


# --- pattern design -----------------------------------------------------------


def test_staggered_pattern_layout(ref_cfg):
    pattern = design_pattern(ref_cfg, ref_cfg.cu_angle_deg)
    assert pattern.num_elements == 8
    assert np.allclose(pattern.duty, 7.0 / 8.0)
    # element 0 switches off during [0, 1/8), i.e. on from 1/8 onward
    assert pattern.tau_on[0] == pytest.approx(1.0 / 8.0)
    assert np.allclose(np.abs(pattern.weights), 1.0)


def test_boresight_steering_weights_are_unity(small_cfg):
    pattern = design_pattern(small_cfg, 0.0)
    assert np.allclose(pattern.weights, 1.0)


def test_single_element_pattern_rejected(small_cfg):
    cfg = dataclasses.replace(small_cfg, num_tx_antennas=1)
    with pytest.raises(PatternError):
        design_pattern(cfg, 0.0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("tau_on", [0.0, np.nan]),
        ("duty", [np.nan, 0.5]),
        ("weights", [1.0, np.inf]),
        ("weights", [complex(np.nan, 0.0), 1.0]),
    ],
)
def test_pattern_refuses_non_finite_fields(field, value):
    fields = {"tau_on": [0.0, 0.5], "duty": [0.5, 0.5], "weights": [1.0, 1.0], field: value}
    with pytest.raises(PatternError, match=field):
        SwitchingPattern(**fields)


def test_pattern_field_validation():
    with pytest.raises(PatternError):
        SwitchingPattern(tau_on=[1.5], duty=[0.5], weights=[1.0])
    with pytest.raises(PatternError):
        SwitchingPattern(tau_on=[0.0], duty=[0.0], weights=[1.0])
    with pytest.raises(PatternError):
        SwitchingPattern(tau_on=[0.0, 0.5], duty=[0.5], weights=[1.0])


# --- harmonic coefficients ------------------------------------------------------


def test_coefficients_match_scalar_oracle(small_cfg):
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    rng = np.random.default_rng(3)
    for theta in rng.uniform(-90.0, 90.0, size=5):
        for m in range(-10, 11):
            expected = scalar_coefficient(pattern, small_cfg, m, theta)
            got = harmonic_coefficients(pattern, small_cfg, m, theta)
            assert abs(got - expected) < 1e-12 * max(1.0, abs(expected))


def test_coefficients_match_gate_integral(small_cfg):
    # Independent route: numeric Fourier integration of the switching
    # waveform itself, catching any hidden conjugation in the formula.
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    for theta in (small_cfg.cu_angle_deg, -17.3, 64.0):
        for m in range(-3, 4):
            expected = integrated_coefficient(pattern, small_cfg, m, theta)
            got = harmonic_coefficients(pattern, small_cfg, m, theta)
            assert abs(got - expected) < 1e-12


def test_always_on_fundamental_is_element_count(small_cfg):
    pattern = all_on_pattern(small_cfg.num_tx_antennas)
    assert harmonic_coefficients(pattern, small_cfg, 0, 0.0) == pytest.approx(
        small_cfg.num_tx_antennas
    )


def test_steered_direction_keeps_only_the_fundamental(ref_cfg):
    pattern = design_pattern(ref_cfg, ref_cfg.cu_angle_deg)
    orders = np.arange(-(ref_cfg.num_subcarriers - 1), ref_cfg.num_subcarriers)
    coeffs = harmonic_coefficients(pattern, ref_cfg, orders, ref_cfg.cu_angle_deg)
    fundamental = coeffs[orders == 0][0]
    assert abs(fundamental) == pytest.approx(ref_cfg.num_tx_antennas - 1, abs=1e-9)
    assert np.max(np.abs(coeffs[orders != 0])) < 1e-12 * abs(fundamental)


def test_off_steer_harmonics_survive(ref_cfg):
    pattern = design_pattern(ref_cfg, ref_cfg.cu_angle_deg)
    assert abs(harmonic_coefficients(pattern, ref_cfg, 1, ref_cfg.cu_angle_deg + 30.0)) > 0.01


def test_shape_follows_order_argument(small_cfg):
    pattern = design_pattern(small_cfg, 0.0)
    scalar = harmonic_coefficients(pattern, small_cfg, 2, 10.0)
    assert isinstance(scalar, complex)
    vector = harmonic_coefficients(pattern, small_cfg, np.array([-1, 0, 2]), 10.0)
    assert vector.shape == (3,)
    assert vector[2] == pytest.approx(scalar)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_direction_axis_stacks_the_per_direction_calls(small_cfg, count):
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    data = qpsk_frame(small_cfg, seed=12)
    orders = np.arange(-3, 4)
    angles = np.array([-61.5, 7.25, 30.0][:count])
    gains = element_gains(pattern, small_cfg, angles)
    coeffs = harmonic_coefficients(pattern, small_cfg, orders, angles)
    order_two = harmonic_coefficients(pattern, small_cfg, 2, angles)
    scrambled = scramble_symbols(data, pattern, small_cfg, angles)
    assert gains.shape == (count, pattern.num_elements)
    assert coeffs.shape == (count, orders.size)
    assert order_two.shape == (count,)
    assert scrambled.shape == (count, *data.shape) and scrambled.flags.c_contiguous
    for q, angle in enumerate(angles):
        assert np.array_equal(gains[q], element_gains(pattern, small_cfg, angle))
        assert np.array_equal(coeffs[q], harmonic_coefficients(pattern, small_cfg, orders, angle))
        assert order_two[q] == harmonic_coefficients(pattern, small_cfg, 2, angle)
        assert np.array_equal(scrambled[q], scramble_symbols(data, pattern, small_cfg, angle))


def test_scalar_direction_keeps_its_shapes_and_types(small_cfg):
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    data = qpsk_frame(small_cfg, seed=13)
    for theta in (10.0, np.float64(10.0), 10):
        assert element_gains(pattern, small_cfg, theta).shape == (pattern.num_elements,)
        assert type(harmonic_coefficients(pattern, small_cfg, 1, theta)) is complex
        assert harmonic_coefficients(pattern, small_cfg, np.arange(3), theta).shape == (3,)
        assert scramble_symbols(data, pattern, small_cfg, theta).shape == data.shape
        assert scramble_symbols(data[:, 0], pattern, small_cfg, theta).shape == data[:, 0].shape


@pytest.mark.parametrize("bad", [math.nan, 90.5, -200.0])
def test_one_bad_direction_in_an_array_is_refused(small_cfg, bad):
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    data = qpsk_frame(small_cfg, seed=14)
    angles = np.array([10.0, bad, -20.0])
    calls = (
        lambda: element_gains(pattern, small_cfg, angles),
        lambda: harmonic_coefficients(pattern, small_cfg, np.arange(-2, 3), angles),
        lambda: scramble_symbols(data, pattern, small_cfg, angles),
    )
    for call in calls:
        with pytest.raises(ValueError, match="direction must be finite"):
            call()


def test_directions_with_more_than_one_axis_are_refused(small_cfg):
    # a (2, 2) block used to come back as (2, 2, M) coefficients, or die
    # inside NumPy's window view when scrambling
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    data = qpsk_frame(small_cfg, seed=15)
    angles = np.zeros((2, 2))
    calls = (
        lambda: element_gains(pattern, small_cfg, angles),
        lambda: harmonic_coefficients(pattern, small_cfg, np.arange(-2, 3), angles),
        lambda: scramble_symbols(data, pattern, small_cfg, angles),
    )
    for call in calls:
        with pytest.raises(ValueError, match="scalar or a 1-D array"):
            call()


# --- the direction-free gate ------------------------------------------------------


def test_gate_is_shared_by_equal_patterns_and_read_only(small_cfg):
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    orders = np.arange(-7, 8)
    gate = harmonic_gate(pattern, orders)
    assert gate.shape == (orders.size, pattern.num_elements)
    assert not gate.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        gate[0, 0] = 0.0
    # the gate holds neither direction nor weights: a copy of the pattern,
    # or one steered elsewhere, finds the same gate
    assert harmonic_gate(dataclasses.replace(pattern), orders.tolist()) is gate
    assert harmonic_gate(design_pattern(small_cfg, -20.0), orders) is gate


def test_each_pattern_and_config_gets_its_own_gate(small_cfg):
    # interleaved calls on patterns that differ only in one tau_on, and on
    # configs that differ only in N_s, each checked against the per-element
    # sum: a gate shared between them, or left from an earlier call, fails
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    tau = pattern.tau_on.copy()
    tau[1] = (tau[1] + 0.125) % 1.0
    moved = dataclasses.replace(pattern, tau_on=tau)
    narrow = dataclasses.replace(small_cfg, num_subcarriers=4)
    theta = -25.0
    cases = ((small_cfg, pattern), (small_cfg, moved), (narrow, pattern), (narrow, moved))
    for cfg, p in cases + cases:
        ns = cfg.num_subcarriers
        data = qpsk_frame(cfg, seed=ns)
        mix = np.array(
            [[scalar_coefficient(p, cfg, s - i, theta) for i in range(ns)] for s in range(ns)]
        )
        got = scramble_symbols(data, p, cfg, theta)
        assert np.max(np.abs(got - mix @ data)) < 1e-12
    assert not np.array_equal(
        harmonic_gate(pattern, np.arange(-3, 4)), harmonic_gate(moved, np.arange(-3, 4))
    )


# --- scrambling ------------------------------------------------------------------


def test_steered_direction_is_pure_scaling(small_cfg):
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    data = qpsk_frame(small_cfg, seed=11)
    got = scramble_symbols(data, pattern, small_cfg, small_cfg.cu_angle_deg)
    gain = harmonic_coefficients(pattern, small_cfg, 0, small_cfg.cu_angle_deg)
    assert np.max(np.abs(got - gain * data)) < 1e-12 * abs(gain)


def test_single_subcarrier_has_no_mixing(small_cfg):
    cfg = dataclasses.replace(small_cfg, num_subcarriers=1)
    pattern = design_pattern(cfg, cfg.cu_angle_deg)
    data = qpsk_frame(cfg, seed=4)
    for theta in (cfg.cu_angle_deg, -12.0):
        got = scramble_symbols(data, pattern, cfg, theta)
        gain = harmonic_coefficients(pattern, cfg, 0, theta)
        assert np.allclose(got, gain * data, atol=1e-14)


def test_scrambling_matches_dense_matrix_oracle(small_cfg):
    cfg = dataclasses.replace(small_cfg, num_subcarriers=4)
    pattern = design_pattern(cfg, cfg.cu_angle_deg)
    data = qpsk_frame(cfg, seed=5)
    theta = cfg.cu_angle_deg + 40.0
    mix = np.empty((4, 4), dtype=complex)
    for s in range(4):
        for i in range(4):
            mix[s, i] = scalar_coefficient(pattern, cfg, s - i, theta)
    expected = mix @ data
    assert np.max(np.abs(scramble_symbols(data, pattern, cfg, theta) - expected)) < 1e-12
    assert np.max(np.abs(scramble_symbols(np.eye(4), pattern, cfg, theta) - mix)) < 1e-13


@pytest.mark.parametrize("ns", [1, 2, 64])
def test_scramble_matrix_is_its_definition(ref_cfg, ns):
    # scrambling the identity gives M[s, i] = coefficient of order s - i,
    # taken from one call over all the in-band orders (exact) and from one
    # scalar call per entry (to rounding)
    cfg = dataclasses.replace(ref_cfg, num_subcarriers=ns)
    pattern = design_pattern(cfg, cfg.cu_angle_deg)
    orders = np.arange(-(ns - 1), ns)
    for theta in (-90.0, -41.3, cfg.cu_angle_deg, 90.0):
        coeffs = dict(zip(orders, harmonic_coefficients(pattern, cfg, orders, theta)))
        expected = np.array([[coeffs[s - i] for i in range(ns)] for s in range(ns)])
        got = scramble_symbols(np.eye(ns), pattern, cfg, theta)
        assert got.flags.c_contiguous and got.flags.writeable
        np.testing.assert_array_equal(got, expected)
        scalar = [
            [harmonic_coefficients(pattern, cfg, s - i, theta) for i in range(ns)]
            for s in range(ns)
        ]
        np.testing.assert_allclose(got, scalar, rtol=0.0, atol=1e-15 * cfg.num_tx_antennas)


@pytest.mark.parametrize("shape", [(64,), (64, 16), (64, 4, 3)], ids=["1-D", "2-D", "3-D"])
def test_scramble_symbols_is_the_tensordot_of_its_matrix(ref_cfg, ref_pattern, shape):
    rng = np.random.default_rng(19)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    before = data.copy()
    for theta in (-73.0, ref_cfg.cu_angle_deg, 12.5):
        got = scramble_symbols(data, ref_pattern, ref_cfg, theta)
        mixing = scramble_symbols(np.eye(64), ref_pattern, ref_cfg, theta)
        oracle = np.tensordot(mixing, data, axes=1)
        assert np.array_equal(got, oracle)
        # a fresh array that callers may add noise to in place
        assert got.flags.c_contiguous and not np.shares_memory(got, data)
    np.testing.assert_array_equal(data, before)


def test_fundamental_is_the_sum_of_the_element_gains(ref_cfg, ref_pattern):
    # the m = 0 gate is exactly 1, so the order-0 coefficient needs no gate
    for theta in np.linspace(-90.0, 90.0, 37):
        total = element_gains(ref_pattern, ref_cfg, theta).sum()
        reference = harmonic_coefficients(ref_pattern, ref_cfg, 0, theta)
        assert abs(total - reference) <= 1e-15 * ref_cfg.num_tx_antennas


def test_scrambling_is_linear(small_cfg):
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    a = qpsk_frame(small_cfg, seed=6)
    b = qpsk_frame(small_cfg, seed=7)
    alpha, beta = 0.7 - 1.1j, -2.3 + 0.4j
    theta = 8.5
    combined = scramble_symbols(alpha * a + beta * b, pattern, small_cfg, theta)
    separate = alpha * scramble_symbols(a, pattern, small_cfg, theta) + beta * scramble_symbols(
        b, pattern, small_cfg, theta
    )
    assert np.max(np.abs(combined - separate)) < 1e-12


BAD_DIRECTIONS = [math.nan, math.inf, -math.inf, 90.5, -90.5, 200.0]


@pytest.mark.parametrize("theta", BAD_DIRECTIONS)
def test_direction_outside_the_visible_half_space_is_refused(small_cfg, theta):
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    data = qpsk_frame(small_cfg, seed=8)
    calls = (
        lambda: harmonic_coefficients(pattern, small_cfg, np.arange(-2, 3), theta),
        lambda: harmonic_coefficients(pattern, small_cfg, 0, theta),
        lambda: element_gains(pattern, small_cfg, theta),
        lambda: scramble_symbols(data, pattern, small_cfg, theta),
        lambda: design_pattern(small_cfg, theta),
        lambda: time_domain_demod(data, pattern, small_cfg, theta),
    )
    for call in calls:
        with pytest.raises(ValueError, match="direction"):
            call()


def test_time_domain_route_accepts_endfire(small_cfg):
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    data = qpsk_frame(small_cfg, seed=9)
    for theta in (-90.0, 90.0):
        assert np.isfinite(time_domain_demod(data, pattern, small_cfg, theta)).all()


def test_wrong_grid_shape_rejected(small_cfg):
    pattern = design_pattern(small_cfg, 0.0)
    with pytest.raises(ValueError):
        scramble_symbols(np.zeros((3, 5)), pattern, small_cfg, 0.0)


def test_duty_cycle_energy_fraction(ref_cfg):
    # Each element transmits for exactly (N_t-1)/N_t of every period.
    pattern = design_pattern(ref_cfg, ref_cfg.cu_angle_deg)
    gates = gate_matrix(pattern, ref_cfg.num_tx_antennas * 16)
    assert np.allclose(gates.mean(axis=1), (8 - 1) / 8)


# --- the three-clause condition ---------------------------------------------------

# the defaults of dm-check's --rel-tol and --floor
TOLERANCES = {"rel_tol": 1e-10, "off_steer_floor": 1e-3}


def test_condition_holds_for_reference_pattern(ref_cfg):
    pattern = design_pattern(ref_cfg, ref_cfg.cu_angle_deg)
    report = check_dm_condition(
        pattern, ref_cfg, ref_cfg.cu_angle_deg, [0.0, -40.0, 75.0], **TOLERANCES
    )
    assert report.ok
    assert report.failed_clauses == ()
    assert report.fundamental_at_steer == pytest.approx(7.0, abs=1e-9)


def test_always_on_array_fails_the_scrambling_clause(ref_cfg):
    report = check_dm_condition(
        all_on_pattern(ref_cfg.num_tx_antennas), ref_cfg, 0.0, [25.0, -25.0], **TOLERANCES
    )
    assert not report.ok
    assert report.failed_clauses == (3,)


def test_random_onsets_leak_at_the_steer(ref_cfg):
    rng = np.random.default_rng(1)
    base = design_pattern(ref_cfg, ref_cfg.cu_angle_deg)
    pattern = dataclasses.replace(base, tau_on=rng.uniform(0.0, 1.0, base.num_elements))
    report = check_dm_condition(pattern, ref_cfg, ref_cfg.cu_angle_deg, [0.0], **TOLERANCES)
    assert 2 in report.failed_clauses


def test_condition_needs_a_probe(ref_cfg):
    # with no probes clause (3) would hold vacuously
    pattern = design_pattern(ref_cfg, ref_cfg.cu_angle_deg)
    with pytest.raises(ValueError, match="probe"):
        check_dm_condition(pattern, ref_cfg, ref_cfg.cu_angle_deg, [], **TOLERANCES)


@pytest.mark.parametrize(
    "tolerances",
    [
        {"rel_tol": math.nan},
        {"off_steer_floor": math.nan},
        {"rel_tol": -1e-10},
        {"off_steer_floor": math.inf},
    ],
)
def test_condition_refuses_bad_tolerances(ref_cfg, tolerances):
    pattern = design_pattern(ref_cfg, ref_cfg.cu_angle_deg)
    with pytest.raises(ValueError, match=next(iter(tolerances))):
        check_dm_condition(
            pattern, ref_cfg, ref_cfg.cu_angle_deg, [0.0], **{**TOLERANCES, **tolerances}
        )


def test_aliased_probe_rejected(ref_cfg):
    pattern = design_pattern(ref_cfg, ref_cfg.cu_angle_deg)
    alias = 180.0 - ref_cfg.cu_angle_deg  # same sine, different angle
    with pytest.raises(ValueError, match="alias"):
        check_dm_condition(pattern, ref_cfg, ref_cfg.cu_angle_deg, [alias], **TOLERANCES)


# --- time-domain route -------------------------------------------------------------


def test_time_domain_route_agrees_with_coefficients(small_cfg):
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    data = qpsk_frame(small_cfg, seed=8)
    for theta in (small_cfg.cu_angle_deg, -28.0, 61.7):
        via_time = time_domain_demod(data, pattern, small_cfg, theta)
        via_coeffs = scramble_symbols(data, pattern, small_cfg, theta)
        assert np.max(np.abs(via_time - via_coeffs)) < 1e-9


def test_time_domain_route_at_steer_is_scaling(small_cfg):
    pattern = design_pattern(small_cfg, small_cfg.cu_angle_deg)
    data = qpsk_frame(small_cfg, seed=9)
    got = time_domain_demod(data, pattern, small_cfg, small_cfg.cu_angle_deg)
    gain = harmonic_coefficients(pattern, small_cfg, 0, small_cfg.cu_angle_deg)
    assert np.max(np.abs(got - gain * data)) < 1e-9


def test_time_domain_route_with_all_elements_on(small_cfg):
    data = qpsk_frame(small_cfg, seed=10)
    got = time_domain_demod(data, all_on_pattern(small_cfg.num_tx_antennas), small_cfg, 0.0)
    assert np.max(np.abs(got - small_cfg.num_tx_antennas * data)) < 1e-9


def test_time_domain_route_single_element_half_duty(small_cfg):
    # One element, 50% duty: the in-band mixing matrix built from the
    # truncated coefficient series must reproduce the demodulated grid.
    cfg = dataclasses.replace(small_cfg, num_tx_antennas=1)
    pattern = SwitchingPattern(tau_on=[0.0], duty=[0.5], weights=[1.0])
    data = qpsk_frame(cfg, seed=12)
    ns = cfg.num_subcarriers
    mix = np.empty((ns, ns), dtype=complex)
    for s in range(ns):
        for i in range(ns):
            mix[s, i] = scalar_coefficient(pattern, cfg, s - i, 0.0)
    assert np.max(np.abs(time_domain_demod(data, pattern, cfg, 0.0) - mix @ data)) < 1e-12


# --- snapping and gating ----------------------------------------------------------


def test_snap_preserves_aligned_pattern(ref_cfg):
    pattern = design_pattern(ref_cfg, ref_cfg.cu_angle_deg)
    snapped = snap_pattern(pattern, 64)  # 8 divides 64
    assert np.allclose(snapped.tau_on, pattern.tau_on)
    assert np.allclose(snapped.duty, pattern.duty)


def test_snap_rejects_vanishing_window():
    pattern = SwitchingPattern(tau_on=[0.0], duty=[0.01], weights=[1.0])
    with pytest.raises(PatternError, match="grid resolution"):
        snap_pattern(pattern, 8)


def test_gate_window_wraps_around_period():
    pattern = SwitchingPattern(tau_on=[0.75], duty=[0.5], weights=[1.0])
    gates = gate_matrix(pattern, 8)
    assert np.array_equal(gates[0], [1, 1, 0, 0, 0, 0, 1, 1])


# --- serialization -----------------------------------------------------------------


def test_pattern_file_roundtrip(tmp_path, ref_cfg):
    pattern = design_pattern(ref_cfg, ref_cfg.cu_angle_deg)
    path = tmp_path / "pattern.json"
    save_pattern(pattern, path)
    again = load_pattern(path)
    assert np.array_equal(again.tau_on, pattern.tau_on)
    assert np.array_equal(again.duty, pattern.duty)
    assert np.array_equal(again.weights, pattern.weights)


def test_pattern_dict_rejects_unknown_keys(ref_cfg):
    from tmadfrc.tma import pattern_from_dict, pattern_to_dict

    data = pattern_to_dict(design_pattern(ref_cfg, 0.0))
    data["extra"] = 1
    with pytest.raises(PatternError):
        pattern_from_dict(data)

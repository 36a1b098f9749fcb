"""Numeric layer: integration accuracy, degree tests, variational checks."""

import math
import random

import numpy as np
import pytest

from quartic_nve.dynamics import (DEGREE_TEST_STRIDE, DIVERGENCE_LIMIT, MAX_STEPS,
                                  NumericPotential, Trajectory, _step_count,
                                  integrate_hamilton, nve_coefficient_samples,
                                  polynomial_degree_test,
                                  variational_consistency)
from quartic_nve.jets import conditions_vanish, generate_conditions
from quartic_nve.potential import parse_potential


def numeric(text):
    return NumericPotential.from_potential(parse_potential(text))


class TestIntegration:
    def test_free_particle(self):
        traj = integrate_hamilton(numeric("1"), (0.0, 2.0, 0.0, 0.0), 1e-3, 1.0)
        assert abs(np.asarray(traj.states)[-1, 0] - 2.0) < 1e-12
        assert traj.energy_drift() < 1e-14

    def test_harmonic_closed_form(self):
        traj = integrate_hamilton(numeric("x1^2/2"), (1.0, 0.0, 0.0, 0.0), 1e-3, 1.0)
        assert abs(np.asarray(traj.states)[-1, 0] - math.cos(1.0)) < 1e-8

    def test_rk4_stability_polynomial(self):
        # on x1^2/2 one RK4 step is the matrix R(z) = 1 + z + z^2/2 + z^3/6
        # + z^4/24 at z = dt*A, A the generator of s' = (y1, -x1, y2, 0); the
        # exact flow (cos t, -sin t) is 7e-10 away, so the bound pins the scheme
        dt, steps = 1e-2, 1000
        A = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        z = dt * A
        R = np.eye(4) + z + z @ z / 2 + z @ z @ z / 6 + z @ z @ z @ z / 24
        init = np.array([1.0, 0.0, 0.0, 0.0])
        traj = integrate_hamilton(numeric("x1^2/2"), init, dt, steps * dt)
        expected = np.linalg.matrix_power(R, steps) @ init
        assert np.max(np.abs(np.asarray(traj.states[-1]) - expected)) < 1e-12

    def test_plane_invariance(self):
        traj = integrate_hamilton(numeric("x1^2/2 + (x1^4+1)*x2^2"),
                                  (0.3, 1.1, 0.0, 0.0), 1e-3, 10.0)
        assert traj.max_plane_deviation() < 1e-12

    def test_energy_conservation(self):
        for text in ("x1^2/2", "x1^4/4 + x1^2/2"):
            traj = integrate_hamilton(numeric(text), (1.0, 0.5, 0.0, 0.0), 1e-3, 10.0)
            assert traj.energy_drift() < 1e-8, text

    def test_divergence_flagged(self):
        traj = integrate_hamilton(numeric("-x1^4"), (1.0, 1.0, 0.0, 0.0), 1e-3, 10.0)
        assert traj.diverged

    def test_bad_steps_rejected(self):
        with pytest.raises(ValueError):
            integrate_hamilton(numeric("1"), (0, 0, 0, 0), -1e-3, 1.0)

    # the last is finite, but 10^7 steps is above MAX_STEPS
    @pytest.mark.parametrize("dt, horizon", [(5e-324, 1.0), (1e-308, 1e308), (1e-7, 1.0)])
    def test_overflowing_step_count_rejected(self, dt, horizon):
        with pytest.raises(ValueError, match=f"overflows the step count limit {MAX_STEPS}$"):
            integrate_hamilton(numeric("1"), (0, 0, 0, 0), dt, horizon)

    def test_step_count_limit_is_inclusive(self):
        assert _step_count(float(MAX_STEPS), 1.0) == MAX_STEPS


class TestNveSamples:
    def test_zero_alpha(self):
        traj = integrate_hamilton(numeric("x1^2/2"), (1.0, 0.0, 0.0, 0.0), 1e-3, 1.0)
        samples = nve_coefficient_samples(traj, numeric("x1^2/2"))
        assert np.allclose(samples, 0.0)

    def test_flat_phi_linear_motion(self):
        # phi constant, alpha = x1^4, x1(0)=0, y1(0)=1: a(t) = t^4
        pot = numeric("1 - x1^4*x2^2/2 + x2^3")  # alpha = x1^4 exactly
        traj = integrate_hamilton(pot, (0.0, 1.0, 0.0, 0.0), 1e-3, 2.0)
        samples = np.asarray(nve_coefficient_samples(traj, pot))
        assert np.max(np.abs(samples - np.asarray(traj.times) ** 4)) < 1e-10

    def test_harmonic_cosine_power(self):
        pot = numeric("x1^2/2 - x1^4*x2^2/2")
        traj = integrate_hamilton(pot, (1.0, 0.0, 0.0, 0.0), 1e-3, 2.0)
        samples = np.asarray(nve_coefficient_samples(traj, pot))
        assert np.max(np.abs(samples - np.cos(traj.times) ** 4)) < 1e-7

    def test_off_plane_rejected(self):
        pot = numeric("x1^2/2 + x2^2")
        traj = integrate_hamilton(pot, (1.0, 0.0, 0.5, 0.0), 1e-3, 1.0)
        with pytest.raises(ValueError):
            nve_coefficient_samples(traj, pot)

    def test_plane_deviation_keeps_nan(self):
        states = [(0.0, 1.0, 0.5, 0.0), (0.0, 1.0, 0.0, math.nan)]
        traj = Trajectory([0.0, 1.0], states, [0.0, 0.0])
        assert math.isnan(traj.max_plane_deviation())

    def test_nan_plane_deviation_rejected(self):
        states = [(0.5, 1.0, 0.0, 0.0), (0.6, 1.0, math.nan, math.nan)]
        traj = Trajectory([0.0, 1.0], states, [0.0, 0.0])
        with pytest.raises(ValueError):
            nve_coefficient_samples(traj, numeric("1 + (x1^4+1)*x2^2"))


class TestDegreeTest:
    def test_exact_quartic_passes(self):
        t = np.arange(0, 10.0, 1e-3)
        ok, residual = polynomial_degree_test((2 * t + 1) ** 4, 4)
        assert ok and residual < 1e-9

    def test_cosine_power_fails(self):
        t = np.arange(0, 5.0, 1e-3)
        ok, _ = polynomial_degree_test(np.cos(t) ** 4, 4)
        assert not ok

    def test_constant_passes(self):
        ok, residual = polynomial_degree_test(np.full(2000, 3.7), 4)
        assert ok and residual < 1e-12

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            polynomial_degree_test(np.arange(300.0), 4)

    def test_nan_series_fails(self):
        ok, residual = polynomial_degree_test([math.nan] * 1000, 4)
        assert not ok and math.isnan(residual)

    def test_infinite_series_fails(self):
        # the inf lies off the strided subsample, so only the scale sees it
        ok, residual = polynomial_degree_test([1.0] * 999 + [math.inf], 4)
        assert not ok and math.isnan(residual)

    def test_overflowing_differences_fail(self):
        # finite samples whose third differences are inf - inf = NaN
        samples = [v for v in (-1e308, 1e308, 1e308, -1e308) for _ in range(100)]
        ok, residual = polynomial_degree_test(samples, 2)
        assert not ok and math.isnan(residual)


def reference_step(rhs, s, dt):
    """numpy oracle: one classical RK4 step on arrays."""
    k1 = rhs(s)
    k2 = rhs(s + 0.5 * dt * k1)
    k3 = rhs(s + 0.5 * dt * k2)
    k4 = rhs(s + dt * k3)
    return s + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def reference_rhs(npot):
    f1, f2 = npot.dv_dx1, npot.dv_dx2
    return lambda s: np.array([s[1], -f1(s[0], s[2]), s[3], -f2(s[0], s[2])])


def reference_run(npot, init, dt, horizon):
    """numpy oracle: RK4 on arrays, np.polyval samples, np.diff metric."""
    rhs = reference_rhs(npot)
    rows = [np.array(init, dtype=float)]
    for _ in range(int(round(horizon / dt))):
        rows.append(reference_step(rhs, rows[-1], dt))
        if not np.all(np.isfinite(rows[-1])) or np.max(np.abs(rows[-1])) > DIVERGENCE_LIMIT:
            break
    states = np.array(rows)
    energies = np.array([npot.hamiltonian(s) for s in states])
    samples = np.polyval(np.array(npot.alpha_coeffs), states[:, 0])
    return states, energies, samples


def reference_variational(npot, init, delta, dt, horizon):
    """numpy oracle: both runs of variational_consistency on arrays, the
    normal variational equation's alpha by np.polyval."""
    f1, alpha = npot.dv_dx1, np.array(npot.alpha_coeffs)
    rhs_full = reference_rhs(npot)

    def rhs_nve(s):
        return np.array([s[1], -f1(s[0], 0.0), s[3], np.polyval(alpha, s[0]) * s[2]])

    full = [np.array([init[0], init[1], delta, 0.0])]
    nve = list(full)
    for _ in range(int(round(horizon / dt))):
        full.append(reference_step(rhs_full, full[-1], dt))
        nve.append(reference_step(rhs_nve, nve[-1], dt))
    return float(np.max(np.abs(np.array(full)[:, 2] - np.array(nve)[:, 2]))) / abs(delta)


def reference_metric(samples, degree):
    scale = max(float(np.max(np.abs(samples))), 1e-300)
    metric, step = 0.0, DEGREE_TEST_STRIDE
    while samples[::step].size >= degree + 2:
        diffs = np.diff(samples[::step], n=degree + 1)
        metric = max(metric, float(np.max(np.abs(diffs))) / scale)
        step *= 2
    return metric


class TestBitwiseReference:
    """The float layer keeps the numpy oracle's operation order, so its
    values are equal, not close."""

    @pytest.mark.parametrize("text, init, diverges", [
        ("1 + (x1^4+1)*x2^2", (0.5, 1.0, 0.0, 0.0), False),
        ("x1^2/2 + x1^4*x2^2", (0.9, 0.7, 0.0, 0.0), False),
        ("1 + (x1^4+1)*x2^2 + (2 - x1)*x2^3", (0.5, 1.0, 0.0, 0.0), False),
        ("-x1^4 + (x1^4+1)*x2^2", (1.0, 1.0, 0.0, 0.0), True),
    ])
    def test_orbit(self, text, init, diverges):
        npot = numeric(text)
        traj = integrate_hamilton(npot, init, 1e-3, 10.0)
        states, energies, samples = reference_run(npot, init, 1e-3, 10.0)
        assert traj.diverged == diverges
        assert len(traj.states) == len(states) and (len(states) < 10001) == diverges
        assert traj.states == [tuple(row) for row in states.tolist()]
        assert traj.energies == energies.tolist()
        assert nve_coefficient_samples(traj, npot) == samples.tolist()
        for degree in (3, 4):
            _, residual = polynomial_degree_test(samples.tolist(), degree)
            assert residual == reference_metric(samples, degree)

    def test_overflowing_power(self):
        # within the first step the RK4 stages carry x1 to ~1e79, where x1^12
        # leaves the float range: infinities, then NaNs, as numpy gives
        npot = numeric("-x1^12 + (x1^4+1)*x2^2")
        traj = integrate_hamilton(npot, (5e7, 1.0, 0.0, 0.0), 1e-3, 1.0)
        with np.errstate(all="ignore"):
            states, energies, _ = reference_run(npot, (5e7, 1.0, 0.0, 0.0), 1e-3, 1.0)
        assert traj.diverged and len(states) == 2
        np.testing.assert_array_equal(np.asarray(traj.states), states)
        np.testing.assert_array_equal(traj.energies, energies)
        assert math.isnan(traj.energy_drift()) and math.isnan(traj.max_plane_deviation())

    @pytest.mark.parametrize("text, init", [
        ("1 + (x1^4+1)*x2^2", (0.5, 1.0, 0.0, 0.0)),
        ("1 + (x1^4+1)*x2^2 + (2 - x1)*x2^3", (0.5, 1.0, 0.0, 0.0)),
        ("3 + (-3 + 3*x1 - 3*x1^2 - 2*x1^3 - 2*x1^4)*x2^2", (1.197, 1.353, 0.0, 0.0)),
    ])
    def test_variational(self, text, init):
        npot = numeric(text)
        # a negative delta is divided out by its magnitude
        for delta in (1e-6, -1e-6):
            assert (variational_consistency(npot, init, delta=delta)
                    == reference_variational(npot, init, delta, 1e-3, 1.0))


class TestForwardDirection:
    def test_members_pass_quartic_fail_cubic(self):
        rng = random.Random(12)
        for _ in range(3):
            coeffs = [rng.randint(-3, 3) for _ in range(4)] + [rng.choice([1, 2, -2])]
            terms = " + ".join(f"({c})*x1^{i}" for i, c in enumerate(coeffs) if c)
            pot = numeric(f"1 + ({terms})*x2^2")
            init = (rng.uniform(0.3, 1.2), rng.uniform(0.4, 1.4), 0.0, 0.0)
            traj = integrate_hamilton(pot, init, 1e-3, 10.0)
            assert traj.energy_drift() < 1e-8
            samples = nve_coefficient_samples(traj, pot)
            ok4, res4 = polynomial_degree_test(samples, 4)
            ok3, _ = polynomial_degree_test(samples, 3)
            assert ok4 and res4 < 1e-6
            assert not ok3

    def test_symbolic_and_numeric_agree_on_nonmember(self):
        # V = x1^2/2 + x1^4 x2^2: the jet condition survives and the numeric
        # degree test fails on a generic trajectory
        pot_exact = parse_potential("x1^2/2 + x1^4*x2^2")
        assert not conditions_vanish(generate_conditions(4), pot_exact.alpha, pot_exact.phi)
        pot = NumericPotential.from_potential(pot_exact)
        traj = integrate_hamilton(pot, (0.9, 0.7, 0.0, 0.0), 1e-3, 10.0)
        samples = nve_coefficient_samples(traj, pot)
        ok, _ = polynomial_degree_test(samples, 4)
        assert not ok


class TestVariationalConsistency:
    def test_zero_delta(self):
        assert variational_consistency(numeric("1 + x1*x2^2"), (1.0, 0.0, 0.0, 0.0),
                                       delta=0.0) == 0.0

    def test_diverged_orbit_is_nan(self):
        # the orbit of TestBitwiseReference.test_overflowing_power: a NaN
        # deviation is not dropped by the running maximum
        err = variational_consistency(numeric("-x1^12 + (x1^4+1)*x2^2"),
                                      (5e7, 1.0, 0.0, 0.0))
        assert math.isnan(err)

    def test_linear_alpha_small_error(self):
        # beta = 0, alpha linear: deviation per delta stays below 1e-3
        err = variational_consistency(numeric("1 + x1*x2^2"), (0.5, 1.0, 0.0, 0.0),
                                      delta=1e-6, dt=1e-3, horizon=1.0)
        assert err < 1e-3

    def test_member_family_small_error(self):
        err = variational_consistency(numeric("1 + (x1^4+1)*x2^2"),
                                      (0.5, 1.0, 0.0, 0.0),
                                      delta=1e-6, dt=1e-3, horizon=1.0)
        assert err < 1e-3

    def test_first_order_contract_with_cubic_term(self):
        # with a genuine x2^3 term the deviation is first order in delta:
        # halving delta halves the error
        pot = numeric("1 + (x1^4+1)*x2^2 + x2^3")
        e1 = variational_consistency(pot, (0.5, 1.0, 0.0, 0.0), delta=1e-5)
        e2 = variational_consistency(pot, (0.5, 1.0, 0.0, 0.0), delta=5e-6)
        assert 1.5 <= e1 / e2 <= 2.5

    def test_quadratic_scaling_without_cubic_term(self):
        # with beta = 0 the transverse dynamics is exactly linear and the
        # deviation is second order: halving delta quarters the error
        pot = numeric("1 + (x1^4+1)*x2^2")
        e1 = variational_consistency(pot, (0.5, 1.0, 0.0, 0.0), delta=1e-5)
        e2 = variational_consistency(pot, (0.5, 1.0, 0.0, 0.0), delta=5e-6)
        assert 3.4 <= e1 / e2 <= 4.6

    def test_large_alpha_deviation_is_second_order(self):
        # alpha reaches ~265 along this orbit, so with beta = 0 the deviation
        # at delta = 1e-6 is 7.0e-3; it is still second order in delta and
        # independent of dt, i.e. neither integration error nor a defect
        pot = numeric("3 + (-3 + 3*x1 - 3*x1^2 - 2*x1^3 - 2*x1^4)*x2^2")
        init = (1.197, 1.353, 0.0, 0.0)
        traj = integrate_hamilton(pot, init, 1e-3, 1.0)
        assert np.max(np.abs(nve_coefficient_samples(traj, pot))) > 250
        e1 = variational_consistency(pot, init, delta=1e-6)
        e2 = variational_consistency(pot, init, delta=5e-7)
        assert 3.4 <= e1 / e2 <= 4.6
        for dt in (5e-4, 2.5e-4):
            assert abs(variational_consistency(pot, init, delta=1e-6, dt=dt) - e1) < 1e-9

    @pytest.mark.parametrize("dt, horizon", [(0.0, 1.0), (math.nan, 1.0), (1e-3, math.inf),
                                             (5e-324, 1.0)])
    def test_bad_steps_rejected(self, dt, horizon):
        with pytest.raises(ValueError, match="dt and horizon|step count"):
            variational_consistency(numeric("1 + x1*x2^2"), (1.0, 0.0, 0.0, 0.0),
                                    dt=dt, horizon=horizon)

    @pytest.mark.parametrize("init, delta, message", [
        pytest.param((1.0, 0.0, 0.1, 0.0), 1e-6, "invariant plane", id="off-plane"),
        pytest.param((math.nan, 0.0, 0.0, 0.0), 1e-6, "state must be finite", id="nan-init"),
        pytest.param((1.0, math.inf, 0.0, 0.0), 1e-6, "state must be finite", id="inf-init"),
        pytest.param((1.0, 0.0, 0.0, 0.0), math.nan, "delta must be finite", id="nan-delta"),
        pytest.param((1.0, 0.0, 0.0, 0.0), -math.inf, "delta must be finite", id="inf-delta"),
    ])
    def test_bad_input_rejected(self, init, delta, message):
        with pytest.raises(ValueError, match=message):
            variational_consistency(numeric("1 + x1*x2^2"), init, delta=delta)

    def test_non_invariant_rejected(self):
        # no Potential violates invariance, so a NumericPotential, which is
        # lowered from one, never does and the integrator needs no check
        from quartic_nve.potential import InvariantPlaneError
        with pytest.raises(InvariantPlaneError):
            parse_potential("x1^2/2 + x2")

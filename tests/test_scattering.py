import math

import numpy as np
import pytest

from conftest import clear_of_resonance
from msinoise.algebra import dagger, solve_dense
from msinoise.errors import OpticalSingularity
from msinoise.lumped_mode import params_for_targets
from msinoise.radiation_pressure import force_transfer
from msinoise.scattering import (
    InterferometerParams,
    IntracavityField,
    PortVector,
    classical_fields,
    displacement_transfer,
    fixed_matrices,
    mode_dynamics,
    mode_mixer,
    oracle_solve,
    scattering_matrix,
)
from msinoise.verify import _random_params

# intracavity amplitudes of the reference configuration, frozen from the
# dense-solver oracle (oracle_solve at the pump frequency, dark south port)
P1_E_PLUS = 37894832.492348395 - 92514887.8959454j
P1_E_MINUS = 1690742.7281192031 - 1455645.3846162788j


def params_simple(**overrides):
    base = dict(
        theta_m=0.0, epsilon=0.0, kappa=0.0, tau_s=1e-9, tau_w=1.1e-9,
        r_s=0.0, t_s=1.0, r_w=0.0, t_w=1.0, k_p=2 * math.pi / 1.064e-6,
    )
    base.update(overrides)
    return InterferometerParams(**base)


class TestParamsValidation:
    def test_mirror_normalisation_enforced(self):
        with pytest.raises(ValueError):
            params_simple(r_s=0.5, t_s=0.5)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            params_simple(epsilon=math.pi / 4)

    def test_theta_range(self):
        with pytest.raises(ValueError):
            params_simple(theta_m=-0.1)

    def test_positive_times(self):
        with pytest.raises(ValueError):
            params_simple(tau_s=0.0)


class TestModeMixer:
    def test_symmetric_is_identity(self):
        np.testing.assert_array_equal(mode_mixer(params_simple()), np.eye(2))

    def test_pure_imbalance_is_rotation(self):
        eps = 0.3
        q = mode_mixer(params_simple(epsilon=eps))
        expected = np.array([
            [math.cos(eps), -math.sin(eps)],
            [math.sin(eps), math.cos(eps)],
        ])
        np.testing.assert_allclose(q, expected, atol=1e-15)

    def test_unitary_over_grid(self):
        for eps in np.linspace(-0.7, 0.7, 10):
            for kap in np.linspace(-2.0, 2.0, 10):
                q = mode_mixer(params_simple(epsilon=eps, kappa=kap))
                np.testing.assert_allclose(dagger(q) @ q, np.eye(2), atol=1e-14)


class TestFixedMatrices:
    def test_no_power_recycling_kills_west_reflection(self):
        p = fixed_matrices(params_simple(), omega=1e15)
        assert p.r_tilde[0, 0] == 0.0

    def test_perfect_mirror_membrane(self):
        p = fixed_matrices(params_simple(theta_m=0.0), omega=1e15)
        np.testing.assert_array_equal(p.m, np.eye(2))

    def test_half_wave_west_path(self):
        prm = params_simple()
        omega = math.pi / prm.tau_w
        p = fixed_matrices(prm, omega)
        assert abs(p.a[0, 0] + 1.0) < 1e-12


class TestModeDynamics:
    def test_diagonal_case_closed_form(self):
        prm = params_simple(r_s=0.8, t_s=0.6, r_w=0.3,
                            t_w=math.sqrt(1 - 0.09))
        omega = 1.7e15
        d_e, _, d = mode_dynamics(prm, omega)
        zw = 0.3 * np.exp(2j * omega * prm.tau_w)
        zs = 0.8 * np.exp(2j * omega * prm.tau_s)
        assert abs(d - (1 - zw) * (1 - zs)) < 1e-12
        assert abs(d_e[0, 1]) == 0.0 and abs(d_e[1, 0]) == 0.0

    def test_no_recycling_unit_determinant(self):
        prm = params_simple(epsilon=0.2, kappa=0.7, theta_m=0.4)
        _, _, d = mode_dynamics(prm, 1.9e15)
        assert abs(abs(d) - 1.0) < 1e-12

    def test_p1_inverse_matches_dense_solve(self, p1):
        d_e, d_e_inv, _ = mode_dynamics(p1, p1.omega_p)
        solved = np.column_stack([
            solve_dense(d_e, np.array([1.0, 0.0], dtype=complex)),
            solve_dense(d_e, np.array([0.0, 1.0], dtype=complex)),
        ])
        np.testing.assert_allclose(d_e_inv, solved, rtol=1e-12, atol=1e-14)

    def test_exact_resonance_is_singular(self):
        # fully reflective SRM with an exactly-unit round trip degenerates
        prm = params_simple(r_s=1.0, t_s=0.0, tau_s=1.0, tau_w=1.0, k_p=1.0)
        with pytest.raises(OpticalSingularity):
            mode_dynamics(prm, 0.0)


class TestScatteringMatrix:
    def test_bare_propagation(self):
        prm = params_simple()
        omega = 1.77e15
        r = scattering_matrix(prm, omega)
        expected = np.diag([
            np.exp(2j * omega * prm.tau_w), np.exp(2j * omega * prm.tau_s)
        ])
        np.testing.assert_allclose(r, expected, atol=1e-12)

    def test_lossless_random_sweep(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            prm = _random_params(rng)
            big_omega = rng.uniform(-1e9, 1e9)
            if not clear_of_resonance(prm, big_omega):
                continue
            r = scattering_matrix(prm, prm.omega_p + big_omega)
            assert np.abs(dagger(r) @ r - np.eye(2)).max() <= 1e-10
            checked += 1

    def test_michelson_limit_decouples_arms(self):
        # perfect-mirror membrane, balanced splitter: two independent cavities
        prm = params_simple(theta_m=0.0, r_s=0.9, t_s=math.sqrt(0.19),
                            r_w=0.4, t_w=math.sqrt(0.84))
        omega = 1.77e15
        r = scattering_matrix(prm, omega)
        assert abs(r[0, 1]) < 1e-15 and abs(r[1, 0]) < 1e-15
        for idx, (refl, tau) in enumerate(((0.4, prm.tau_w), (0.9, prm.tau_s))):
            z = np.exp(2j * omega * tau)
            single = -refl + (1 - refl**2) * z / (1 - refl * z)
            assert abs(r[idx, idx] - single) < 1e-12


class TestDisplacementTransfer:
    def test_transparent_membrane_gives_zero(self):
        # cos(pi/2) is ~6e-17 in floats, so "zero" up to that representation
        prm = params_simple(theta_m=math.pi / 2, r_s=0.8, t_s=0.6)
        g = displacement_transfer(prm, 1e6)
        np.testing.assert_allclose(np.abs(g), 0.0, atol=1e-12)

    def test_equals_force_transfer_dagger(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 50:
            prm = _random_params(rng)
            big_omega = rng.uniform(-1e9, 1e9)
            if not clear_of_resonance(prm, big_omega):
                continue
            g = displacement_transfer(prm, big_omega)
            f = force_transfer(prm, big_omega)
            assert np.abs(g - dagger(f)).max() <= 1e-12 * np.abs(f).max()
            checked += 1

    def test_p1_cross_module_identity(self, p1):
        big_omega = 2 * math.pi * 1e5
        g = displacement_transfer(p1, big_omega)
        f = force_transfer(p1, big_omega)
        np.testing.assert_allclose(g, dagger(f), rtol=1e-12)


class TestClassicalFields:
    def test_symmetric_pump_stays_common(self):
        prm = params_simple(r_s=0.8, t_s=0.6)
        field = classical_fields(prm, PortVector(west=1e8, south=0.0))
        assert field.e_minus == 0.0

    def test_zero_pump(self):
        field = classical_fields(params_simple(), PortVector(0.0, 0.0))
        assert field.e_plus == 0.0 and field.e_minus == 0.0

    def test_p1_frozen_oracle_values(self, p1, p1_drive):
        field = classical_fields(p1, p1_drive)
        assert abs(field.e_plus - P1_E_PLUS) <= 1e-12 * abs(P1_E_PLUS)
        assert abs(field.e_minus - P1_E_MINUS) <= 1e-12 * abs(P1_E_MINUS)

    def test_resonant_dark_mode_enhancement_scales_inversely_with_p(self):
        """On resonance the dark-port field picks up a 1/p enhancement."""
        ratios = {}
        for p in (0.02, 0.01, 0.005):
            scale = (p / 0.02) ** 2
            prm = params_for_targets(gamma_s=2.5e6 * scale,
                                     delta_s=-2.0e6 * scale,
                                     theta_m=0.15 * math.pi, p=p, alpha=-0.5)
            field = classical_fields(prm, PortVector(west=1e8, south=0.0))
            ratios[p] = abs(field.e_minus / field.e_plus)
        assert ratios[0.02] > 1.0  # differential mode dominates
        # |E-/E+| * p is a constant of the scaling
        products = [ratios[p] * p for p in (0.02, 0.01, 0.005)]
        assert max(products) / min(products) < 1.05


class TestOracle:
    def test_all_zero(self):
        prm = params_simple(r_s=0.8, t_s=0.6)
        sol = oracle_solve(prm, prm.omega_p, PortVector(0, 0), 0.0,
                           IntracavityField(0, 0))
        for name in "bcdef":
            np.testing.assert_array_equal(getattr(sol, name), np.zeros(2))

    def test_unit_west_input_matches_closed_form(self, p1):
        omega = p1.omega_p
        sol = oracle_solve(p1, omega, PortVector(1.0, 0.0), 0.0,
                           IntracavityField(0, 0))
        expected = scattering_matrix(p1, omega) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(sol.b, expected, rtol=1e-10)

    def test_displacement_response_matches_closed_form(self, p1, p1_drive):
        field = classical_fields(p1, p1_drive)
        x = 1e-15
        big_omega = 2 * math.pi * 4e5
        omega = p1.omega_p + big_omega
        sol = oracle_solve(p1, omega, PortVector(0, 0), x, field)
        expected = scattering_matrix(p1, omega) @ (
            1j * p1.k_p * displacement_transfer(p1, big_omega)
            @ field.as_array() * x
        )
        np.testing.assert_allclose(sol.b, expected, rtol=1e-10)

    def test_random_ensemble_with_power_recycling(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 60:
            prm = _random_params(rng)
            big_omega = rng.uniform(-1e9, 1e9)
            if not clear_of_resonance(prm, big_omega):
                continue
            omega = prm.omega_p + big_omega
            a = PortVector(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
            sol = oracle_solve(prm, omega, a, 0.0, IntracavityField(0, 0))
            expected = scattering_matrix(prm, omega) @ a.as_array()
            assert np.abs(sol.b - expected).max() <= 1e-10 * np.abs(expected).max()
            checked += 1

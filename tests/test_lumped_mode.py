import dataclasses
import math

import numpy as np
import pytest
from scipy.constants import hbar

from msinoise.errors import DegenerateFrequency
from msinoise.lumped_mode import (
    LumpedParams,
    approx_force_transfer,
    approx_rigidity,
    approx_rigidity_matrix,
    asymmetry_polar,
    asymmetry_rates,
    canonical_spectra,
    coupling_constants,
    fano_spectrum,
    from_exact,
    lorentzians,
    params_for_targets,
    reduction_errors,
    strip_propagation_phases,
)
from msinoise.radiation_pressure import force_transfer, noise_spectra, rigidity
from msinoise.scattering import InterferometerParams, IntracavityField
from msinoise.verify import _random_params

THETA = 0.15 * math.pi
K_P = 2 * math.pi / 1.064e-6

# reduced-model values of the reference configuration, frozen from direct
# formula evaluation (delta_s from the round-trip wrap; rates from p, alpha)
P1_DELTA_S = -1310374830.645404
P1_GAMMA_M = 28.813281139545833
P1_DELTA_M = -196204.5013022525


def lumped(gamma_s=2.5e6, delta_s=-2.0e6, p=0.01, alpha=-0.5,
           theta_m=THETA, tau_s=1e-9) -> LumpedParams:
    return LumpedParams(gamma_s=gamma_s, delta_s=delta_s, tau_s=tau_s, p=p,
                        alpha=alpha, theta_m=theta_m)


class TestAsymmetryPolar:
    def test_origin(self):
        assert asymmetry_polar(0.0, 0.0) == (0.0, 0.0)

    def test_closed_form(self):
        p, alpha = asymmetry_polar(0.02, 0.01)
        assert p == math.sqrt(0.0005)
        assert alpha == math.atan2(0.01, 0.02)

    def test_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            eps, kap = rng.uniform(-0.5, 0.5, size=2)
            p, alpha = asymmetry_polar(eps, kap)
            assert abs(p * math.cos(alpha) - eps) <= 1e-15
            assert abs(p * math.sin(alpha) - kap) <= 1e-15


class TestFromExact:
    def test_bandwidth_formula(self, p1):
        lp = from_exact(p1)
        assert abs(lp.gamma_s - 2.5e6) <= 1e-6 * 2.5e6

    def test_symmetric_interferometer_has_no_asymmetry_rates(self):
        prm = params_for_targets(2.5e6, -2e6, THETA, p=0.0, alpha=0.0)
        lp = from_exact(prm)
        assert lp.gamma_m == 0.0 and lp.delta_m == 0.0

    def test_p1_frozen_values(self, p1):
        lp = from_exact(p1)
        assert abs(lp.delta_s - P1_DELTA_S) <= 1e-12 * abs(P1_DELTA_S)
        assert abs(lp.gamma_m - P1_GAMMA_M) <= 1e-12 * P1_GAMMA_M
        assert abs(lp.delta_m - P1_DELTA_M) <= 1e-12 * abs(P1_DELTA_M)

    def test_asymmetry_rates_follow_the_asymmetry(self, p1):
        lp = from_exact(p1)
        moved = dataclasses.replace(lp, p=2 * lp.p)
        rates = asymmetry_rates(2 * lp.p, lp.alpha, lp.theta_m, lp.tau_s)
        assert (moved.gamma_m, moved.delta_m) == rates
        assert moved.gamma == moved.gamma_s + rates[0]

    def test_p1_is_flagged_out_of_regime(self, p1):
        lp = from_exact(p1)
        assert not lp.validity.ok
        assert any("delta_s" in w for w in lp.validity.warnings)

    def test_round_trip_with_target_builder(self):
        for p, alpha, delta_s in ((0.02, -0.5, -2e6), (0.005, 1.1, 3e5)):
            prm = params_for_targets(2.5e6 * (p / 0.02) ** 2, delta_s, THETA,
                                     p, alpha)
            lp = from_exact(prm)
            assert abs(lp.delta_s - delta_s) <= 1e-6 * max(abs(delta_s), lp.gamma_s)
            assert abs(lp.p - p) <= 1e-12
            assert abs(lp.alpha - alpha) <= 1e-9
            assert lp.validity.ok


class TestAsymmetryRates:
    def test_nonnegative_dissipative_rate(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            gamma_m, _ = asymmetry_rates(rng.uniform(0, 0.3),
                                         rng.uniform(-math.pi, math.pi),
                                         rng.uniform(0, math.pi / 2), 1e-9)
            assert gamma_m >= 0.0

    def test_dispersive_rate_odd_about_twice_alpha(self):
        # the sine factor of delta_m is odd around theta_m = 2 alpha
        alpha, x, p, tau = 0.17, 0.21, 0.02, 1e-9
        _, dm_hi = asymmetry_rates(p, alpha, 2 * alpha + x, tau)
        _, dm_lo = asymmetry_rates(p, alpha, 2 * alpha - x, tau)
        assert abs(asymmetry_rates(p, alpha, 2 * alpha, tau)[1]) <= 1e-18
        lhs = dm_hi * math.cos(2 * alpha - x)
        rhs = -dm_lo * math.cos(2 * alpha + x)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestCouplingConstants:
    def test_aligned_asymmetry_is_purely_dispersive(self):
        lp = lumped(alpha=THETA, p=0.02)
        c = coupling_constants(lp, K_P)
        assert c.g_diss_combo == 0.0
        expected = 2 * K_P * lp.r_m * lp.p / lp.tau_s
        assert abs(c.g_disp - expected) <= 1e-15 * expected

    def test_orthogonal_asymmetry_is_purely_dissipative(self):
        lp = lumped(alpha=THETA - math.pi / 2, p=0.02)
        c = coupling_constants(lp, K_P)
        scale = 2 * K_P * lp.r_m * lp.p / lp.tau_s
        assert abs(c.g_disp) <= 1e-15 * scale

    def test_dissipative_magnitude_survives_vanishing_asymmetry(self):
        mags = []
        for p in (0.02, 0.002, 0.0002):
            c = coupling_constants(lumped(p=p), K_P)
            mags.append(abs(c.g_diss_combo))
            assert abs(coupling_constants(lumped(p=p), K_P).g_disp) > 0
        assert max(mags) - min(mags) <= 1e-12 * max(mags)


class TestLorentzians:
    def test_on_resonance(self):
        lp = lumped()
        ell, _ = lorentzians(lp, -lp.delta)
        assert ell == lp.gamma

    def test_zero_detuning_zero_frequency(self):
        lp = lumped(delta_s=0.0, p=0.0, alpha=0.0)
        ell, ell_s = lorentzians(lp, 0.0)
        assert ell == lp.gamma and ell_s == lp.gamma_s

    def test_modulus_identity(self):
        lp = lumped()
        for big_omega in (0.0, 1e6, -3e6):
            ell, _ = lorentzians(lp, big_omega)
            expected = lp.gamma**2 + (lp.delta + big_omega) ** 2
            assert abs(abs(ell) ** 2 - expected) <= 1e-14 * expected


class TestApproxForceTransfer:
    def test_symmetric_corner_entries_vanish(self):
        lp = lumped(p=0.0, alpha=0.0)
        f = approx_force_transfer(lp, 1e6)
        assert f[0, 0] == 0.0 and f[1, 1] == 0.0

    def test_row_magnitude_hierarchy(self):
        """Top row is O(1/p) against the bottom one under the regime scaling."""
        ratios = {}
        for p in (0.02, 0.01):
            scale = (p / 0.02) ** 2
            lp = lumped(gamma_s=2.5e6 * scale, delta_s=-2.0e6 * scale, p=p)
            f = approx_force_transfer(lp, 0.5 * lp.gamma)
            ratios[p] = np.abs(f[0]).max() / np.abs(f[1]).max()
        assert ratios[0.01] / ratios[0.02] == pytest.approx(2.0, rel=0.2)


class TestApproxRigidity:
    def test_symmetric_field_reduces_to_canonical(self):
        lp = lumped(p=0.01)
        field = IntracavityField(3e8, 0.0)
        for big_omega in (0.3 * lp.gamma, -1.7 * lp.gamma):
            k = approx_rigidity(lp, K_P, big_omega, field)
            ell_pos, _ = lorentzians(lp, big_omega)
            ell_neg, _ = lorentzians(lp, -big_omega)
            canonical = (4 * hbar * K_P**2 * lp.r_m**2 * abs(field.e_plus) ** 2
                         * lp.delta / (lp.tau_s * ell_pos * np.conj(ell_neg)))
            assert abs(k - canonical) <= 1e-14 * abs(canonical)

    def test_no_spring_on_resonance(self):
        lp = lumped(delta_s=0.0, p=0.0, alpha=0.0)
        k = approx_rigidity(lp, K_P, 0.0, IntracavityField(3e8, 0.0))
        assert k.real == pytest.approx(0.0, abs=1e-30)

    def test_matrix_is_conjugate_closed(self):
        lp = lumped()
        m_pos = approx_rigidity_matrix(lp, 2e6)
        gen_sum = approx_rigidity_matrix(lp, -2e6)
        np.testing.assert_allclose(m_pos, gen_sum.conj().T, atol=1e-30)


class TestReductionErrors:
    """The batched exact-vs-reduced errors against a per-Omega reference."""

    @staticmethod
    def case():
        p = 0.01
        scale = (p / 0.02) ** 2
        prm = params_for_targets(gamma_s=2.5e6 * scale, delta_s=-2.0e6 * scale,
                                 theta_m=THETA, p=p, alpha=-0.5)
        field = IntracavityField(3e8 * np.exp(0.3j), 2.2e8 * np.exp(-1.1j))
        lp = from_exact(prm)
        return prm, lp, field, np.linspace(-5 * lp.gamma, 5 * lp.gamma, 41)

    def test_matches_per_point_matrix_products(self):
        prm, lp, field, grid = self.case()
        assert 0.0 in grid
        err_f, err_k, err_s = reduction_errors(prm, lp, field, grid)
        e = field.as_array()
        for i, big_omega in enumerate(grid):
            omega = prm.omega_p + big_omega
            f = force_transfer(prm, big_omega)
            f_strip = f @ np.diag(np.exp(-1j * omega * np.array([prm.tau_w, prm.tau_s])))
            f_ap = approx_force_transfer(lp, big_omega)
            ref_f = np.max(np.abs(f_strip - f_ap) / np.abs(f_strip))
            assert err_f[i] == pytest.approx(ref_f, rel=1e-10)
            k = rigidity(prm, field, big_omega).k
            k_mat = approx_rigidity_matrix(lp, big_omega)
            k_ap = hbar * prm.k_p**2 * (e.conj() @ k_mat @ e)
            assert err_k[i] == pytest.approx(abs(k - k_ap) / abs(k), rel=1e-10)
            s_exact = np.sum(np.abs(e.conj() @ f) ** 2)
            s_ap = np.sum(np.abs(e.conj() @ f_ap) ** 2)
            assert err_s[i] == pytest.approx(abs(s_exact - s_ap) / s_exact, rel=1e-10)

    def test_batch_equals_single_points(self):
        prm, lp, field, grid = self.case()
        f_strip = strip_propagation_phases(
            prm, np.stack([force_transfer(prm, w) for w in grid], axis=2), grid)
        batch = reduction_errors(prm, lp, field, grid)
        for i, big_omega in enumerate(grid):
            one = reduction_errors(prm, lp, field, [big_omega])
            assert [err[0] for err in one] == [err[i] for err in batch]
            np.testing.assert_array_equal(
                strip_propagation_phases(prm, force_transfer(prm, big_omega), big_omega),
                f_strip[:, :, i],
            )


class TestStripPropagationPhases:
    """The stripped gauge against the explicit one-way phases e^{-i (omega_p + Omega) tau}."""

    @staticmethod
    def reference(prm, matrix, big_omega):
        omega = prm.omega_p + np.asarray(big_omega, dtype=float)
        return matrix * np.exp(-1j * np.multiply.outer((prm.tau_w, prm.tau_s), omega))

    @staticmethod
    def assert_same_bits(a, b):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def check(self, prm, rng, grid):
        matrices = rng.normal(size=(2, 2, grid.size)) + 1j * rng.normal(size=(2, 2, grid.size))
        self.assert_same_bits(strip_propagation_phases(prm, matrices, grid),
                              self.reference(prm, matrices, grid))
        for i, big_omega in enumerate(grid):
            self.assert_same_bits(strip_propagation_phases(prm, matrices[:, :, i], big_omega),
                                  self.reference(prm, matrices[:, :, i], big_omega))

    def test_p1_bit_for_bit(self, p1):
        rng = np.random.default_rng(20)
        self.check(p1, rng, np.concatenate([[0.0], rng.uniform(-2e9, 2e9, 40)]))

    def test_random_sets_bit_for_bit(self):
        rng = np.random.default_rng(21)
        sets = _random_params(rng, 50)
        grid = rng.uniform(-1e9, 1e9, 50)
        matrices = rng.normal(size=(2, 2, 50)) + 1j * rng.normal(size=(2, 2, 50))
        batch = strip_propagation_phases(sets, matrices, grid)  # set i at grid[i]
        for i in range(50):
            single = InterferometerParams(**{name: float(v[i]) for name, v in vars(sets).items()})
            self.check(single, rng, rng.uniform(-1e9, 1e9, 5))
            self.assert_same_bits(batch[:, :, i],
                                  self.reference(single, matrices[:, :, i], grid[i]))


class TestCanonicalSpectra:
    def test_peak_location_and_value(self):
        lp = lumped(p=0.0, alpha=0.0)
        e_plus = 3e8
        grid = np.array([-lp.delta])  # resonance
        spec = canonical_spectra(lp, K_P, e_plus, grid)
        peak = 4 * hbar**2 * K_P**2 * lp.r_m**2 * abs(e_plus) ** 2 / (
            lp.tau_s * lp.gamma)
        assert spec.s_tilde_pos[0] == pytest.approx(peak, rel=1e-12)

    def test_symmetrised_identity(self):
        lp = lumped()
        grid = np.linspace(-4 * lp.gamma, 4 * lp.gamma, 33)
        grid = grid[grid != 0.0]
        spec = canonical_spectra(lp, K_P, 2e8, grid)
        pos_of_neg = canonical_spectra(lp, K_P, 2e8, -grid).s_tilde_pos
        np.testing.assert_allclose(
            spec.s_sym, (spec.s_tilde_pos + pos_of_neg) / 2, rtol=1e-14
        )

    def test_half_width(self):
        lp = lumped()
        at_peak = canonical_spectra(lp, K_P, 2e8, [-lp.delta]).s_tilde_pos[0]
        at_hwhm = canonical_spectra(lp, K_P, 2e8,
                                    [-lp.delta + lp.gamma]).s_tilde_pos[0]
        assert at_hwhm == pytest.approx(at_peak / 2, rel=1e-12)

    def test_rejects_zero_frequency(self):
        with pytest.raises(DegenerateFrequency):
            canonical_spectra(lumped(), K_P, 1e8, [0.0])


class TestFanoSpectrum:
    def test_no_dissipative_rate_no_dip(self):
        # alpha = theta_m kills gamma_m; the dip term drops entirely
        lp = lumped(alpha=THETA, p=0.02)
        assert lp.gamma_m <= 1e-12 * lp.gamma_s
        eps = lp.p * math.cos(lp.alpha)
        kap = lp.p * math.sin(lp.alpha)
        grid = np.linspace(-3 * lp.gamma, 3 * lp.gamma, 65)
        vals = fano_spectrum(lp, eps, kap, K_P, 1e8, grid)
        ell0, _ = lorentzians(lp, 0.0)
        ell = lp.gamma - 1j * (lp.delta + grid)
        cross = 2 * eps * kap / lp.tau_s
        floor = lp.gamma_s * (lp.gamma**2 + (lp.delta_s - lp.delta_m - cross) ** 2)
        lorentzian = (4 * hbar**2 * K_P**2 * lp.r_m**2 * abs(1e8) ** 2 * floor
                      / (lp.tau_s * abs(ell0) ** 2 * np.abs(ell) ** 2))
        np.testing.assert_allclose(vals, lorentzian, rtol=1e-9)

    def test_dip_term_minimum_location(self):
        lp = lumped(alpha=THETA - math.pi / 2, p=0.02, gamma_s=8e3,
                    delta_s=6e4)
        eps = lp.p * math.cos(lp.alpha)
        kap = lp.p * math.sin(lp.alpha)
        predicted = -2 * lp.delta_s + 2 * eps * kap / lp.tau_s
        grid = np.linspace(predicted - lp.gamma, predicted + lp.gamma, 2001)
        # times |ell|^2 the spectrum is the dip term plus an Omega-independent floor
        vals = fano_spectrum(lp, eps, kap, K_P, 1e8, grid)
        ell = lp.gamma - 1j * (lp.delta + grid)
        dip_term = vals * np.abs(ell) ** 2
        found = grid[np.argmin(dip_term)]
        assert abs(found - predicted) <= (grid[1] - grid[0])


def test_canonical_symmetrised_closed_form():
    """The symmetrised density equals its single-fraction closed form."""
    lp = lumped()
    grid = np.linspace(-4 * lp.gamma, 4 * lp.gamma, 33)
    grid = grid[grid != 0.0]
    spec = canonical_spectra(lp, K_P, 2e8, grid)
    amp = 4 * hbar**2 * K_P**2 * lp.r_m**2 * abs(2e8) ** 2 * lp.gamma / lp.tau_s
    ell_pos_sq = lp.gamma**2 + (lp.delta + grid) ** 2
    ell_neg_sq = lp.gamma**2 + (lp.delta - grid) ** 2
    closed = amp * (lp.gamma**2 + lp.delta**2 + grid**2) / (ell_pos_sq * ell_neg_sq)
    np.testing.assert_allclose(spec.s_sym, closed, rtol=1e-14)


def test_p1_dark_south_minimum_is_regime_limited(p1, p1_drive):
    """The reference configuration sits outside the reduced-model regime
    (|delta_s| tau_s = 1.31): its exact dark-south spectrum still dips, but
    about 10% away in frequency from the reduced-model prediction (value
    frozen from an exact-model scan)."""
    from msinoise.scattering import classical_fields

    lp = from_exact(p1)
    field = classical_fields(p1, p1_drive)
    predicted = -2 * lp.delta_s + 2 * p1.epsilon * p1.kappa / p1.tau_s
    grid = np.linspace(1e8, 4e9, 2001)
    spec = noise_spectra(p1, field, grid)
    found = spec.grid[np.argmin(spec.s_tilde_pos)]
    assert abs(found - predicted) / predicted <= 0.15
    assert abs(found - predicted) / lp.gamma > 10.0  # far in linewidth units


def test_exact_matches_canonical_at_zero_asymmetry():
    """p = 0 configuration: exact noise agrees with the canonical Lorentzian
    to within twice the residual finesse parameter gamma tau_s."""
    prm = params_for_targets(gamma_s=2.5e6, delta_s=-2.0e6, theta_m=THETA,
                             p=0.0, alpha=0.0)
    lp = from_exact(prm)
    field = IntracavityField(3e8, 0.0)
    grid = np.linspace(-5 * lp.gamma, 5 * lp.gamma, 81)
    grid = grid[grid != 0.0]
    exact = noise_spectra(prm, field, grid)
    canon = canonical_spectra(lp, prm.k_p, field.e_plus, grid)
    err = np.max(np.abs(exact.s_tilde_pos - canon.s_tilde_pos)
                 / canon.s_tilde_pos)
    assert err <= 2.0 * lp.gamma * lp.tau_s

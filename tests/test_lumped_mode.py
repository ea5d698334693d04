import dataclasses
import math

import numpy as np
import pytest
from scipy.constants import hbar

from msinoise.errors import DegenerateFrequency
from msinoise.lumped_mode import (
    TARGET_TAU_S,
    LumpedParams,
    _approx_force_entries,
    _approx_mode_entries,
    approx_fields,
    approx_force_transfer,
    approx_rigidity,
    approx_rigidity_matrix,
    approx_spectra,
    asymmetry_polar,
    asymmetry_rates,
    coupling_constants,
    fano_dip,
    fano_spectrum,
    fano_steering,
    from_exact,
    lorentzians,
    params_for_targets,
    reduction_errors,
)
from msinoise.radiation_pressure import (
    _CHUNK, force_transfer, noise_spectra, rigidity, rigidity_matrices,
)
from msinoise.scattering import IntracavityField, PortVector, classical_fields, sideband_blocks
from msinoise.verify import _CONV_FIELD, _CONV_THETA, _conv_params, _exact_mode, _s_tilde_pos

THETA = 0.15 * math.pi
K_P = 2 * math.pi / 1.064e-6

# reduced-model values of the reference configuration, frozen from direct
# formula evaluation (delta_s from the round-trip wrap; rates from p, alpha)
P1_DELTA_S = -1310374830.645404
P1_GAMMA_M = 28.813281139545833
P1_DELTA_M = -196204.5013022525

#: a pump through the west port only, in the stripped gauge
DARK_SOUTH = PortVector(1e8, 0.0)


def lumped(gamma_s=2.5e6, delta_s=-2.0e6, p=0.01, alpha=-0.5,
           theta_m=THETA, tau_s=1e-9) -> LumpedParams:
    return LumpedParams(gamma_s=gamma_s, delta_s=delta_s, tau_s=tau_s, p=p,
                        alpha=alpha, theta_m=theta_m, k_p=K_P)


def carrier(lp, pump):
    """The reduced carrier W(0) A of a record, for a pump A in the stripped gauge."""
    return IntracavityField(*(_approx_mode_entries(lp, np.zeros(1))[:, :, 0]
                              * pump.as_array()).sum(axis=1))


def canonical(lp, e_plus, grid):
    """The reduced record of a symmetric field (e_minus = 0), the canonical Lorentzian."""
    return approx_spectra(lp, IntracavityField(e_plus, 0.0), grid)


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

    def test_wavenumber_is_the_params_wavenumber(self, p1):
        assert from_exact(p1).k_p is p1.k_p

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
        c = coupling_constants(lp)
        assert c.g_diss_combo == 0.0
        expected = 2 * K_P * lp.r_m * lp.p / lp.tau_s
        assert abs(c.g_disp - expected) <= 1e-15 * expected

    def test_orthogonal_asymmetry_is_purely_dissipative(self):
        lp = lumped(alpha=THETA - math.pi / 2, p=0.02)
        c = coupling_constants(lp)
        scale = 2 * K_P * lp.r_m * lp.p / lp.tau_s
        assert abs(c.g_disp) <= 1e-15 * scale

    def test_dissipative_sign_is_the_sign_of_sin_theta_minus_alpha(self):
        # alpha in (-pi, pi] from atan2 puts theta_m - alpha beyond pi for
        # alpha < theta_m - pi, where the sign of theta_m - alpha alone is wrong
        alphas = np.linspace(-math.pi, math.pi, 720)[1:]
        assert np.count_nonzero(THETA - alphas > math.pi) == 53
        for alpha in alphas:
            c = coupling_constants(lumped(alpha=float(alpha), p=0.02))
            assert np.sign(c.g_diss_combo) == np.sign(math.sin(THETA - alpha)), alpha

    def test_dissipative_magnitude_survives_vanishing_asymmetry(self):
        mags = []
        for p in (0.02, 0.002, 0.0002):
            c = coupling_constants(lumped(p=p))
            mags.append(abs(c.g_diss_combo))
            assert abs(coupling_constants(lumped(p=p)).g_disp) > 0
        assert max(mags) - min(mags) <= 1e-12 * max(mags)

    def test_symmetric_interferometer_is_the_limit_along_alpha_zero(self):
        # at p = 0 the mode is purely dissipative: g_disp = 0 and the combination
        # keeps its magnitude; asymmetry_polar puts alpha = 0 there, so its sign is
        # that of p -> 0+ along alpha = 0, and another direction gives the other sign
        lp = from_exact(params_for_targets(2.5e6, -2.0e6, THETA, p=0.0, alpha=0.5))
        assert (lp.p, lp.alpha) == (0.0, 0.0)
        at_zero = coupling_constants(lp)
        assert at_zero.g_disp == 0.0
        magnitude = 2 * lp.k_p * lp.r_m / math.sqrt(lp.tau_s)
        assert at_zero.g_diss_combo == pytest.approx(magnitude, rel=1e-15)
        for p in (1e-6, 1e-9, 1e-12):
            near = coupling_constants(dataclasses.replace(lp, p=p))
            assert near.g_diss_combo == at_zero.g_diss_combo
            assert 0.0 < near.g_disp <= 2 * lp.k_p * p / lp.tau_s
        across = coupling_constants(dataclasses.replace(lp, p=1e-12, alpha=THETA + math.pi / 2))
        assert across.g_diss_combo == -at_zero.g_diss_combo

    def test_dissipative_magnitude_is_two_k_p_r_m_over_root_tau_s(self):
        # the relative deviations at both p, summed
        magnitude = 2 * K_P * lumped().r_m / math.sqrt(lumped().tau_s)
        dev = sum(abs(abs(coupling_constants(lumped(p=p)).g_diss_combo) / magnitude - 1)
                  for p in (0.02, 0.01))
        assert dev <= 1e-12


class TestExactPole:
    """The closed-form kappa-derivative of the exact r_w = 0 pole (`verify._exact_mode`).

    ``exact_modes`` ties the pole and its derivative to the reduced record; here
    the derivative is tied to the pole it is the derivative of.
    """

    @pytest.mark.parametrize("p", [0.02, 0.01, 0.005])
    def test_closed_form_g_is_the_central_difference_of_the_pole(self, p):
        # the finite difference is this test's reference only: at h = 1e-5 p its
        # truncation and rounding stay below 1e-7 |g| (measured <= 8.3e-8)
        params, h = _conv_params(p), 1e-5 * p

        def mode(kappa):
            moved = dataclasses.replace(params, kappa=kappa)
            return _exact_mode(moved, sideband_blocks(moved, np.zeros(1)))

        g = mode(params.kappa)[2]
        diff = params.k_p * (mode(params.kappa + h)[1] - mode(params.kappa - h)[1]) / (2 * h)
        assert abs(diff - g) <= 1e-6 * abs(g)


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
            k, _ = approx_rigidity(lp, field, big_omega)
            ell_pos, _ = lorentzians(lp, big_omega)
            ell_neg, _ = lorentzians(lp, -big_omega)
            canonical = (4 * hbar * K_P**2 * lp.r_m**2 * abs(field.e_plus) ** 2
                         * lp.delta / (lp.tau_s * ell_pos * np.conj(ell_neg)))
            assert abs(k - canonical) <= 1e-14 * abs(canonical)

    def test_no_spring_on_resonance(self):
        lp = lumped(delta_s=0.0, p=0.0, alpha=0.0)
        k, _ = approx_rigidity(lp, IntracavityField(3e8, 0.0), 0.0)
        assert k.real == pytest.approx(0.0, abs=1e-30)

    def test_matrix_is_conjugate_closed(self):
        lp = lumped()
        m_pos = approx_rigidity_matrix(lp, 2e6)
        gen_sum = approx_rigidity_matrix(lp, -2e6)
        np.testing.assert_allclose(m_pos, gen_sum.conj().T, atol=1e-30)

    def test_every_entry_converges_to_the_exact_k1_as_p_squared(self):
        # the next order of each entry is lambda^2 beyond the leading one, so
        # each entry's worst relative error falls x0.25 per halving of p
        worst = []
        for p in (0.02, 0.01, 0.005):
            params = _conv_params(p)
            lp = from_exact(params)
            errors = [np.abs(approx_rigidity_matrix(lp, w) / rigidity_matrices(params, w)[0] - 1)
                      for w in np.linspace(-5 * lp.gamma, 5 * lp.gamma, 41)]
            worst.append(np.max(errors, axis=0))
        ratios = np.array([worst[1] / worst[0], worst[2] / worst[1]])
        assert np.all((ratios >= 0.125) & (ratios <= 0.375)), (worst, ratios)


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
        err_f, err_k, err_s = reduction_errors(prm, field, grid)
        e = field.as_array()
        for i, big_omega in enumerate(grid):
            omega = prm.omega_p + big_omega
            f = force_transfer(prm, big_omega)
            f_strip = f @ np.diag(np.exp(-1j * omega * np.array([prm.tau_w, prm.tau_s])))
            f_ap = approx_force_transfer(lp, big_omega)
            ref_f = np.max(np.abs(f_strip - f_ap) / np.abs(f_strip))
            assert err_f[i] == pytest.approx(ref_f, rel=1e-10)
            k1, k2 = rigidity(prm, field, big_omega)
            k_mat = approx_rigidity_matrix(lp, big_omega)
            # the reduced K1 matrix beside the exact static K2, which is not reduced
            k_ap = hbar * prm.k_p**2 * (e.conj() @ k_mat @ e) + k2
            assert err_k[i] == pytest.approx(abs(k1 + k2 - k_ap) / abs(k1 + k2), rel=1e-10)
            s_exact = np.sum(np.abs(e.conj() @ f) ** 2)
            s_ap = np.sum(np.abs(e.conj() @ f_ap) ** 2)
            assert err_s[i] == pytest.approx(abs(s_exact - s_ap) / s_exact, rel=1e-10)

    @pytest.mark.parametrize("p", [0.02, 0.01, 0.005])
    def test_records_compare_as_they_stand(self, p):
        # the reduction keeps the exact K2, so both records carry the same one
        # and err_K is |exact.k - approx.k| / |exact.k|, bit for bit
        params = _conv_params(p)
        lp = from_exact(params)
        grid = np.linspace(-5 * lp.gamma, 5 * lp.gamma, 41)
        grid = grid[grid != 0.0]
        fields = (_CONV_FIELD, IntracavityField(3e8, 0.0),
                  IntracavityField(1e8 * np.exp(-0.5j), 2.5e8 * np.exp(0.9j)))
        for field in fields:
            exact, approx = noise_spectra(params, field, grid), approx_spectra(lp, field, grid)
            assert np.float64(exact.k2).tobytes() == np.float64(approx.k2).tobytes()
            expected = np.abs(exact.k - approx.k) / np.abs(exact.k)
            assert reduction_errors(params, field, grid)[1].tobytes() == expected.tobytes()

    def test_batch_equals_single_points(self):
        prm, lp, field, grid = self.case()
        batch = reduction_errors(prm, field, grid, IntracavityField(3e8, 0.0))
        assert len(batch) == 4
        for i, big_omega in enumerate(grid):
            one = reduction_errors(prm, field, [big_omega], IntracavityField(3e8, 0.0))
            assert [err[0] for err in one] == [err[i] for err in batch]

    @pytest.mark.parametrize("points", [201, 2 * _CHUNK + 5])
    def test_reduced_columns_are_the_fano_spectrum_errors(self, p1, points):
        # one column per reduced field, |s - fano_spectrum| / s bit for bit, over
        # one part and over three parts of the kernel's part size
        pump = PortVector(1e8, 3e7 * np.exp(0.7j))
        field = classical_fields(p1, pump)
        reduced = (IntracavityField(field.e_plus, 0.0), approx_fields(p1, pump))
        grid = np.linspace(1e8, 2e9, points)
        lp = from_exact(p1)
        s = noise_spectra(p1, field, grid).s_tilde_pos
        errors = reduction_errors(p1, field, grid, *reduced)
        assert len(errors) == 5
        for column, plain in zip(errors, reduction_errors(p1, field, grid)):
            assert column.tobytes() == plain.tobytes()
        for r, column in zip(reduced, errors[3:]):
            expected = np.abs(s - fano_spectrum(lp, r, grid)) / s
            assert column.tobytes() == expected.tobytes()


class TestApproxFields:
    """The reduced carrier against the exact `classical_fields`."""

    def test_converges_to_the_exact_carrier_as_p_squared(self):
        # the next order of W(0) is p^2 beyond the leading one, so the error
        # falls x0.25 per halving of p; an unstripped pump would leave an O(1)
        # error at every p, so this pins the port gauge
        pumps = (PortVector(1e8, 0.0), PortVector(1e8, 3e7 * np.exp(0.7j)), PortVector(0.0, 1e8))
        errors = []
        for p in (0.02, 0.01, 0.005):
            params = _conv_params(p)
            exact = [classical_fields(params, pump).as_array() for pump in pumps]
            errors.append([np.abs(approx_fields(params, pump).as_array() - e).max()
                           / np.abs(e).max() for pump, e in zip(pumps, exact)])
        errors = np.array(errors)  # (p, pump)
        ratios = errors[1:] / errors[:-1]
        assert errors[0].max() <= 10 * 0.02
        assert np.all((ratios >= 0.125) & (ratios <= 0.375)), (errors, ratios)


class TestCanonicalSpectra:
    def test_peak_location_and_value(self):
        lp = lumped(p=0.0, alpha=0.0)
        e_plus = 3e8
        grid = np.array([-lp.delta])  # resonance
        spec = canonical(lp, e_plus, grid)
        peak = 4 * hbar**2 * K_P**2 * lp.r_m**2 * abs(e_plus) ** 2 / (
            lp.tau_s * lp.gamma)
        assert spec.s_tilde_pos[0] == pytest.approx(peak, rel=1e-12)

    def test_symmetrised_identity(self):
        lp = lumped()
        grid = np.linspace(-4 * lp.gamma, 4 * lp.gamma, 33)
        grid = grid[grid != 0.0]
        spec = canonical(lp, 2e8, grid)
        pos_of_neg = canonical(lp, 2e8, -grid).s_tilde_pos
        np.testing.assert_allclose(
            spec.s_sym, (spec.s_tilde_pos + pos_of_neg) / 2, rtol=1e-14
        )

    def test_half_width(self):
        lp = lumped()
        at_peak = canonical(lp, 2e8, [-lp.delta]).s_tilde_pos[0]
        at_hwhm = canonical(lp, 2e8, [-lp.delta + lp.gamma]).s_tilde_pos[0]
        assert at_hwhm == pytest.approx(at_peak / 2, rel=1e-12)

    def test_rejects_zero_frequency(self):
        with pytest.raises(DegenerateFrequency):
            canonical(lumped(), 1e8, [0.0])


class TestFanoSpectrum:
    def test_no_dissipative_rate_no_dip(self):
        # alpha = theta_m kills gamma_m; the dip term drops entirely
        lp = lumped(alpha=THETA, p=0.02)
        assert lp.gamma_m <= 1e-12 * lp.gamma_s
        eps = lp.p * math.cos(lp.alpha)
        kap = lp.p * math.sin(lp.alpha)
        grid = np.linspace(-3 * lp.gamma, 3 * lp.gamma, 65)
        vals = fano_spectrum(lp, carrier(lp, DARK_SOUTH), grid)
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
        predicted = fano_dip(lp, carrier(lp, DARK_SOUTH)).real
        grid = np.linspace(predicted - lp.gamma, predicted + lp.gamma, 2001)
        # times |ell|^2 the spectrum is the dip term plus an Omega-independent floor
        vals = fano_spectrum(lp, carrier(lp, DARK_SOUTH), grid)
        ell = lp.gamma - 1j * (lp.delta + grid)
        dip_term = vals * np.abs(ell) ** 2
        found = grid[np.argmin(dip_term)]
        assert abs(found - predicted) <= (grid[1] - grid[0])


    @staticmethod
    def dip_and_floor(lp, a_west, grid):
        """The dark-south line shape written out as a Lorentzian times a
        quadratic dip term plus an Omega-independent floor."""
        ell0, _ = lorentzians(lp, 0.0)
        ell, _ = lorentzians(lp, grid)
        pref = 4.0 * hbar**2 * lp.k_p**2 * lp.r_m**2 * abs(a_west) ** 2 / (
            lp.tau_s * abs(ell0) ** 2 * np.abs(ell) ** 2)
        cross = lp.p**2 * math.sin(2.0 * lp.alpha) / lp.tau_s
        dip = lp.gamma_m * (2.0 * lp.delta_s - cross + grid) ** 2
        floor = lp.gamma_s * (lp.gamma**2 + (lp.delta_s - lp.delta_m - cross) ** 2)
        return pref * (dip + floor)

    def test_dark_south_is_the_dip_and_floor_formula(self):
        rng = np.random.default_rng(33)
        worst = 0.0
        for _ in range(200):
            lp = lumped(gamma_s=rng.uniform(1e3, 1e7), delta_s=rng.uniform(-1e7, 1e7),
                        p=rng.uniform(0.0, 0.1), alpha=rng.uniform(-math.pi, math.pi),
                        theta_m=rng.uniform(0.0, math.pi / 2), tau_s=rng.uniform(1e-10, 1e-8))
            a_west = rng.uniform(1e6, 1e9) * np.exp(1j * rng.uniform(-math.pi, math.pi))
            grid = rng.uniform(-3, 3, 17) * lp.gamma - lp.delta
            vals = fano_spectrum(lp, carrier(lp, PortVector(a_west, 0.0)), grid)
            oracle = self.dip_and_floor(lp, a_west, grid)
            worst = max(worst, float(np.max(np.abs(vals - oracle) / oracle)))
        assert worst <= 1e-13

    def test_is_the_record_of_its_field(self):
        # the one-sided line shape is the S_tilde(+Omega) column of `approx_spectra`
        # for the same field, bit for bit
        rng = np.random.default_rng(37)
        for size in (1, 17, 3001):
            lp = lumped(gamma_s=rng.uniform(1e3, 1e7), delta_s=rng.uniform(-1e7, 1e7),
                        p=rng.uniform(0.0, 0.1), alpha=rng.uniform(-math.pi, math.pi))
            pump = PortVector(*(rng.uniform(1e6, 1e9, 2) * np.exp(1j * rng.uniform(-3, 3, 2))))
            field = carrier(lp, pump)
            grid = rng.uniform(-3, 3, size) * lp.gamma - lp.delta
            record = approx_spectra(lp, field, grid)
            np.testing.assert_array_equal(fano_spectrum(lp, field, grid), record.s_tilde_pos)

    @staticmethod
    def fano_case():
        """`verify.check_fano`'s configuration, its record and its dark-south dip."""
        p = 0.02
        gamma_s = p**2 / 50.0 / TARGET_TAU_S
        gamma_total = gamma_s + p**2 / TARGET_TAU_S
        prm = params_for_targets(gamma_s=gamma_s, delta_s=0.15 * gamma_total,
                                 theta_m=_CONV_THETA, p=p, alpha=_CONV_THETA - math.pi / 2)
        lp = from_exact(prm)
        return prm, lp, fano_dip(lp, approx_fields(prm, DARK_SOUTH)).real

    @pytest.mark.parametrize("ratio, phase", [
        (0.0, 0.0), (0.5, 1.0), (0.5, -2.0), (2.0, 1.0), (2.0, -2.0), (8.0, 1.0), (8.0, -2.0),
    ])
    def test_two_port_line_shape_tracks_the_exact_spectrum(self, ratio, phase):
        # a south pump moves the dip (to -2.32 gamma at ratio 8 and phase 1,
        # from -1.10 gamma dark); the reduced shape follows it
        prm, lp, dip = self.fano_case()
        grid = np.linspace(dip - 1.5 * lp.gamma, dip + 1.5 * lp.gamma, 3001)
        pump = PortVector(1e8, ratio * 1e8 * np.exp(1j * phase))
        exact = noise_spectra(prm, classical_fields(prm, pump), grid)
        shape = fano_spectrum(lp, approx_fields(prm, pump), exact.grid)
        s = exact.s_tilde_pos
        assert np.max(np.abs(s - shape) / s) <= 5e-3
        found, ours = int(np.argmin(s)), int(np.argmin(shape))
        assert 0 < found < s.size - 1, "the exact dip lies inside the grid"
        assert abs(found - ours) <= 2

    @pytest.mark.parametrize("at_dip, offset", [
        (True, 0.0), (True, -0.7), (True, 0.5), (False, 0.0), (False, 1.0),
    ], ids=["dip", "dip-0.7gamma", "dip+0.5gamma", "zero", "gamma"])
    def test_a_two_port_carrier_steers_the_exact_dip(self, at_dip, offset):
        # `verify`'s fano_minimum puts the exact argmin within 0.05 gamma of each target;
        # here the reduced shape's argmin lies within two grid steps of the exact one
        prm, lp, dip = self.fano_case()
        omega0 = (dip if at_dip else 0.0) + offset * lp.gamma
        field = IntracavityField(1e8, 1e8 * fano_steering(lp, omega0))
        grid = np.linspace(omega0 - 3 * lp.gamma, omega0 + 3 * lp.gamma, 6001)
        found = int(np.argmin(_s_tilde_pos(prm, field, grid)))
        assert abs(found - int(np.argmin(fano_spectrum(lp, field, grid)))) <= 2


class TestFanoDip:
    """`fano_dip` and its inverse `fano_steering`, the closed-form zero of the west
    column of `_approx_force_entries`."""

    @staticmethod
    def records(seed, n=100):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            lp = lumped(gamma_s=rng.uniform(1e4, 1e7), delta_s=rng.uniform(-1e7, 1e7),
                        p=rng.uniform(0.001, 0.1), alpha=rng.uniform(-math.pi, math.pi),
                        theta_m=rng.uniform(0.0, math.pi / 2), tau_s=rng.uniform(5e-10, 2e-9))
            yield lp, rng.uniform(-3, 3) * lp.gamma - lp.delta

    def test_steering_is_the_numerical_west_column_zero(self):
        # the ratio e_minus / e_plus with e_bar . F_ap[:, 0](omega0) = 0, from the entries
        worst = 0.0
        for lp, omega0 in self.records(41):
            f = _approx_force_entries(lp, np.array([omega0]))[:, 0, 0]
            numerical = np.conj(-f[0] / f[1])
            worst = max(worst, abs(fano_steering(lp, omega0) / numerical - 1))
        assert worst <= 1e-12

    def test_dip_inverts_steering(self):
        worst = 0.0
        for lp, omega0 in self.records(43):
            dip = fano_dip(lp, IntracavityField(1.0, fano_steering(lp, omega0)))
            worst = max(worst, abs(dip - omega0) / lp.gamma)
        assert worst <= 1e-12

    def test_steering_broadcasts_over_omega0(self):
        lp = lumped(alpha=THETA - math.pi / 2, p=0.02, gamma_s=8e3, delta_s=6e4)
        omega0 = np.linspace(-3, 3, 12).reshape(3, 4) * lp.gamma
        ratios = fano_steering(lp, omega0)
        assert ratios.shape == (3, 4)
        assert ratios[1, 2] == fano_steering(lp, omega0[1, 2])

    def test_dark_south_dip_is_the_reference_formula(self):
        # the one place -2 delta_s + p^2 sin(2 alpha) / tau_s is written out
        rng = np.random.default_rng(47)
        for _ in range(100):
            prm = params_for_targets(
                gamma_s=rng.uniform(1e5, 1e7), delta_s=rng.uniform(-1e7, 1e7),
                theta_m=rng.uniform(0.0, math.pi / 2), p=rng.uniform(0.001, 0.1),
                alpha=rng.uniform(-math.pi, math.pi))
            lp = from_exact(prm)
            pump = PortVector(rng.uniform(1e6, 1e9) * np.exp(1j * rng.uniform(-3, 3)), 0.0)
            dip = fano_dip(lp, approx_fields(prm, pump))
            reference = -2 * lp.delta_s + lp.p**2 * math.sin(2 * lp.alpha) / lp.tau_s
            assert abs(dip.real - reference) <= 1e-12 * lp.gamma
            assert abs(dip.imag) <= 1e-12 * lp.gamma

    def test_refusals(self):
        lp = lumped()
        with pytest.raises(ValueError, match="^fano_dip needs e_minus != 0"):
            fano_dip(lp, IntracavityField(1e8, 0.0))
        with pytest.raises(ValueError, match="^fano_steering needs p sin"):
            fano_steering(lumped(alpha=THETA), 0.0)  # theta_m = alpha: gamma_m = 0
        with pytest.raises(ValueError, match="^fano_steering needs p sin"):
            fano_steering(lumped(p=0.0, alpha=0.0), 0.0)


class TestRecordWavenumber:
    """The record is the one source of k_p: doubling ``lp.k_p`` scales every
    output by its power of k_p, bit for bit (a power of two scales exactly)."""

    @staticmethod
    def pair():
        lp = lumped(p=0.02, gamma_s=8e3, delta_s=6e4)
        return lp, dataclasses.replace(lp, k_p=2 * lp.k_p)

    def test_canonical_record_scales_by_four(self):
        lp, doubled = self.pair()
        grid = np.linspace(-3 * lp.gamma, 3 * lp.gamma, 16)
        one, two = canonical(lp, 2e8, grid), canonical(doubled, 2e8, grid)
        for name in ("s_tilde_pos", "s_tilde_neg", "k"):
            np.testing.assert_array_equal(getattr(two, name), 4 * getattr(one, name))

    def test_fano_spectrum_scales_by_four(self):
        lp, doubled = self.pair()
        grid = np.linspace(-3 * lp.gamma, 3 * lp.gamma, 16)
        field = carrier(lp, DARK_SOUTH)  # W(0) does not read k_p
        np.testing.assert_array_equal(fano_spectrum(doubled, field, grid),
                                      4 * fano_spectrum(lp, field, grid))

    def test_approx_rigidity_scales_by_four(self):
        lp, doubled = self.pair()
        field = IntracavityField(3e8 * np.exp(0.3j), 2.2e8 * np.exp(-1.1j))
        k1, k2 = approx_rigidity(lp, field, 0.7 * lp.gamma)
        assert approx_rigidity(doubled, field, 0.7 * lp.gamma) == (4 * k1, 4 * k2)

    def test_coupling_constants_scale_by_two(self):
        lp, doubled = self.pair()
        one, two = coupling_constants(lp), coupling_constants(doubled)
        assert one.g_disp != 0.0 and one.g_diss_combo != 0.0
        assert (two.g_disp, two.g_diss_combo) == (2 * one.g_disp, 2 * one.g_diss_combo)


def test_canonical_symmetrised_closed_form():
    """The symmetrised density equals its single-fraction closed form."""
    lp = lumped()
    grid = np.linspace(-4 * lp.gamma, 4 * lp.gamma, 33)
    grid = grid[grid != 0.0]
    spec = canonical(lp, 2e8, grid)
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
    predicted = fano_dip(lp, approx_fields(p1, p1_drive)).real
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
    canon = approx_spectra(lp, field, grid)
    err = np.max(np.abs(exact.s_tilde_pos - canon.s_tilde_pos)
                 / canon.s_tilde_pos)
    assert err <= 2.0 * lp.gamma * lp.tau_s

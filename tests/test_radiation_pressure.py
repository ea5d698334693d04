import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.constants import hbar

from conftest import clear_of_resonance
from msinoise import lumped_mode, radiation_pressure
from msinoise.errors import DegenerateFrequency, OpticalSingularity
from msinoise.lumped_mode import from_exact, params_for_targets, reduction_errors
from msinoise.radiation_pressure import (
    ForceNoiseSpectrum,
    _force_entries,
    _noise_form,
    _spring_entries,
    _spring_form,
    force_transfer,
    noise_spectra,
    rigidity,
    rigidity_matrices,
)
from msinoise.scattering import (
    InterferometerParams,
    IntracavityField,
    PortVector,
    classical_fields,
    oracle_solve,
    sideband_blocks,
)
from msinoise.verify import (
    DEFAULT_SEED, _ORACLE_CASES, _p1_config, _random_params, _s_tilde_pos,
    _well_conditioned_cases,
)

Z = np.diag([1.0, -1.0])
COLUMNS = ("grid", "s_tilde_pos", "s_tilde_neg", "s_sym", "k", "h_opt")


def make_params(**overrides):
    base = dict(
        theta_m=0.3, epsilon=0.05, kappa=0.1, tau_s=1e-9, tau_w=1.1e-9,
        r_s=0.9, t_s=math.sqrt(0.19), r_w=0.0, t_w=1.0,
        k_p=2 * math.pi / 1.064e-6,
    )
    base.update(overrides)
    return InterferometerParams(**base)


def unit_srm_params():
    """r_s = 1: omega_p + Omega = 0 hits an exactly-unit round trip."""
    return InterferometerParams(
        theta_m=0.0, epsilon=0.0, kappa=0.0, tau_s=1.0, tau_w=1.0,
        r_s=1.0, t_s=0.0, r_w=0.0, t_w=1.0, k_p=2 * math.pi,
    )


class TestForceTransfer:
    def test_transparent_membrane_gives_zero(self):
        prm = make_params(theta_m=math.pi / 2)
        f = force_transfer(prm, 3e6)
        np.testing.assert_allclose(np.abs(f), 0.0, atol=1e-12)

    def test_dark_port_decoupling_in_michelson_limit(self):
        """Perfect mirror, balanced and unpumped-south: the west-port vacuum
        never reaches the force."""
        prm = make_params(theta_m=0.0, epsilon=0.0, kappa=0.0)
        field = classical_fields(prm, PortVector(west=1e8, south=0.0))
        assert field.e_minus == 0.0
        f = force_transfer(prm, 5e6)
        assert abs(f[0, 0]) < 1e-15
        row = field.as_array().conj() @ f
        assert abs(row[0]) < 1e-15 * abs(row[1])


class TestRigidityMatrices:
    def test_static_part_vanishes_for_perfect_mirror(self):
        _, k2 = rigidity_matrices(make_params(theta_m=0.0), 2e6)
        np.testing.assert_allclose(np.abs(k2), 0.0, atol=1e-12)

    def test_static_part_closed_form_at_45_degrees(self):
        _, k2 = rigidity_matrices(make_params(theta_m=math.pi / 4), 2e6)
        np.testing.assert_allclose(k2, -2.0 * Z, atol=1e-15)

    def test_dynamic_part_needs_a_cavity(self):
        prm = make_params(r_s=0.0, t_s=1.0)
        k1, _ = rigidity_matrices(prm, 2e6)
        np.testing.assert_allclose(np.abs(k1), 0.0, atol=1e-15)


class TestRigidity:
    def test_zero_field_gives_zero(self):
        k1, k2 = rigidity(make_params(), IntracavityField(0, 0), 3e6)
        assert k1 + k2 == 0.0 and k1 == 0.0 and k2 == 0.0

    def test_scales_with_field_energy(self):
        prm = make_params()
        f1 = IntracavityField(2e8 * np.exp(0.7j), 1e8 * np.exp(-0.2j))
        lam = 1.7 * np.exp(0.4j)
        f2 = IntracavityField(lam * f1.e_plus, lam * f1.e_minus)
        k_f1 = sum(rigidity(prm, f1, 3e6))
        k_f2 = sum(rigidity(prm, f2, 3e6))
        assert abs(k_f2 - abs(lam) ** 2 * k_f1) <= 1e-14 * abs(k_f2)

    def test_canonical_spring_in_symmetric_regime(self):
        p = 0.01
        scale = (p / 0.02) ** 2
        prm = params_for_targets(gamma_s=2.5e6 * scale, delta_s=-2.0e6 * scale,
                                 theta_m=0.15 * math.pi, p=p, alpha=-0.5)
        lp = from_exact(prm)
        field = IntracavityField(3e8, 0.0)
        for big_omega in np.linspace(-4 * lp.gamma, 4 * lp.gamma, 9):
            if big_omega == 0.0:
                continue
            k = sum(rigidity(prm, field, big_omega))
            ell_pos = lp.gamma - 1j * (lp.delta + big_omega)
            ell_neg = lp.gamma - 1j * (lp.delta - big_omega)
            canonical = (4 * hbar * prm.k_p**2 * prm.r_m**2
                         * abs(field.e_plus) ** 2 * lp.delta
                         / (lp.tau_s * ell_pos * np.conj(ell_neg)))
            assert abs(k - canonical) <= 10 * p * abs(canonical)


class TestRigidityOracle:
    """The static K traced to the dense solve of the raw field equations.

    The membrane feels hbar k_p E^dagger N e over the field e towards it, with
    N = 2 R_m [[0, m*], [m, 0]], m = e^{i theta_m}, the factor of the kernel's
    identity F = N adj(D_e) T_tilde / d.  At a fixed port drive, the static force
    F_dc = hbar k_p E^dagger N E moved through kappa = k_p X gives
    K1(0) + K2 = -k_p dF_dc/dkappa, E the dense carrier.  K1 at +/-Omega is
    `oracle_equivalence`'s.
    """

    CASES = 50  # of oracle_equivalence's well-conditioned draw, r_w > 0 included

    @classmethod
    def cases(cls):
        """The (N, 1) sets of the draw, and a random port drive of each."""
        rng = np.random.default_rng(DEFAULT_SEED)
        sets, _, _ = _well_conditioned_cases(rng, _ORACLE_CASES, 1)
        sets = InterferometerParams(**{name: v[:cls.CASES] for name, v in vars(sets).items()})
        pair = (2, cls.CASES, 1)
        drive = PortVector(*(rng.normal(size=pair) + 1j * rng.normal(size=pair)) * 1e8)
        return sets, drive

    @staticmethod
    def carrier(sets, drive):
        """The dense carrier E of each set under ``drive``, (2, N, 1)."""
        return oracle_solve(sets, sets.omega_p, drive, 0.0, IntracavityField(0.0, 0.0)).e

    @staticmethod
    def membrane_force(sets, e_bar, e):
        """E^dagger N e of each set, over the trailing axes of ``e``."""
        m = np.exp(1j * sets.theta_m)
        return 2 * sets.r_m * (e_bar[0].conj() * m.conj() * e[1] + e_bar[1].conj() * m * e[0])

    @staticmethod
    def rigidities(sets, carrier, omegas):
        """`rigidity` of set i on its dense carrier at omegas[i], one call per set."""
        for i in range(sets.theta_m.size):
            params = InterferometerParams(**{name: float(v.flat[i])
                                             for name, v in vars(sets).items()})
            field = IntracavityField(*(complex(e.flat[i]) for e in carrier))
            yield rigidity(params, field, omegas.flat[i])

    def test_static_k_is_the_kappa_derivative_of_the_dense_force(self):
        sets, drive = self.cases()
        h = 1e-6

        def dc_force(kappa):
            e = self.carrier(dataclasses.replace(sets, kappa=kappa), drive)
            return hbar * sets.k_p * self.membrane_force(sets, e, e).real

        dense = (-sets.k_p * (dc_force(sets.kappa + h) - dc_force(sets.kappa - h))
                 / (2 * h)).ravel()
        static = np.array([k1 + k2 for k1, k2 in self.rigidities(
            sets, self.carrier(sets, drive), np.zeros(self.CASES))])
        worst = np.max(np.abs(dense - static) / np.abs(static))
        # the central difference's rounding, eps |F_dc| / h, sets the error:
        # measured worst 9.5e-9 (median 1.3e-10), gated with a margin of ~10x
        assert worst <= 1e-7, worst


class TestNoiseSpectra:
    def test_zero_field_zero_spectra(self):
        spec = noise_spectra(make_params(), IntracavityField(0, 0), [1e6, 3e6])
        np.testing.assert_array_equal(spec.s_tilde_pos, 0.0)
        np.testing.assert_array_equal(spec.s_tilde_neg, 0.0)
        np.testing.assert_array_equal(spec.h_opt, 0.0)

    def test_positivity_and_symmetrisation(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 30:
            prm = _random_params(rng)
            big_omega = rng.uniform(1e5, 1e9)
            if not clear_of_resonance(prm, big_omega):
                continue
            field = IntracavityField(
                *(rng.normal(size=2) + 1j * rng.normal(size=2)) * 1e8
            )
            spec = noise_spectra(prm, field, [big_omega])
            assert spec.s_tilde_pos[0] >= 0.0 and spec.s_tilde_neg[0] >= 0.0
            assert spec.s_sym[0] == (spec.s_tilde_pos[0] + spec.s_tilde_neg[0]) / 2
            checked += 1

    def test_quadratic_scaling_in_field(self):
        prm = make_params()
        f1 = IntracavityField(2e8, 1e8j)
        f2 = IntracavityField(3.0 * f1.e_plus, 3.0 * f1.e_minus)
        s1 = noise_spectra(prm, f1, [4e6]).s_tilde_pos[0]
        s2 = noise_spectra(prm, f2, [4e6]).s_tilde_pos[0]
        assert abs(s2 - 9.0 * s1) <= 1e-14 * s2

    def test_singular_points_skipped_and_reported(self):
        prm = unit_srm_params()
        field = IntracavityField(1e4, 0.0)
        grid = [1.0, -prm.omega_p, 0.0]
        spec = noise_spectra(prm, field, grid)
        assert len(spec.grid) == 1 and spec.grid[0] == 1.0
        assert len(spec.skipped) == 2
        (at_pole, singular), (at_zero, zero) = spec.skipped
        assert (at_pole, at_zero) == (-prm.omega_p, 0.0)
        assert type(singular) is OpticalSingularity and "singular" in str(singular)
        assert type(zero) is DegenerateFrequency and "zero sideband" in str(zero)


class TestOpticalDamping:
    def test_symmetric_spectrum_no_damping(self):
        spec = ForceNoiseSpectrum(
            grid=np.array([1e6]), s_tilde_pos=np.array([3.0]),
            s_tilde_neg=np.array([3.0]), k1=np.array([0.0j]), k2=0.0,
        )
        assert spec.h_opt[0] == 0.0

    def test_zero_frequency_rejected(self):
        spec = ForceNoiseSpectrum(
            grid=np.array([0.0]), s_tilde_pos=np.array([1.0]),
            s_tilde_neg=np.array([0.5]), k1=np.array([0.0j]), k2=0.0,
        )
        with pytest.raises(DegenerateFrequency):
            spec.h_opt

    def test_derived_columns_follow_the_stored_pair(self, p1, p1_drive):
        spec = noise_spectra(p1, classical_fields(p1, p1_drive), [1e8, 3e8])
        moved = dataclasses.replace(spec, s_tilde_neg=2.0 * spec.s_tilde_neg)
        np.testing.assert_array_equal(
            moved.s_sym, (spec.s_tilde_pos + 2.0 * spec.s_tilde_neg) / 2.0)
        np.testing.assert_array_equal(
            moved.h_opt, (spec.s_tilde_pos - 2.0 * spec.s_tilde_neg) / (2.0 * hbar * spec.grid))
        assert not np.any(moved.h_opt == spec.h_opt)

    def test_red_detuned_damping_is_positive(self):
        prm = params_for_targets(gamma_s=2.5e6, delta_s=-6e6,
                                 theta_m=0.15 * math.pi, p=0.005, alpha=-0.5)
        field = classical_fields(prm, PortVector(west=1e8, south=0.0))
        lp = from_exact(prm)
        spec = noise_spectra(prm, field, [abs(lp.delta)])
        assert spec.h_opt[0] > 0.0

    def test_kubo_route_matches_rigidity_route(self, p1, p1_drive):
        field = classical_fields(p1, p1_drive)
        for big_omega in np.linspace(2 * math.pi * 1e5, 2 * math.pi * 2e6, 7):
            spec = noise_spectra(p1, field, [big_omega])
            lhs = big_omega * spec.h_opt[0]
            rhs = -spec.k[0].imag
            assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


class TestBatchEqualsScalar:
    """A grid evaluated at once equals the same points one at a time, bit for bit."""

    @staticmethod
    def cases(p1, p1_drive):
        # 37 points leave a remainder after any SIMD width; both signs of Omega
        grid = np.linspace(-2e9, 2e9, 37)
        yield p1, classical_fields(p1, p1_drive), grid[grid != 0.0]
        rng = np.random.default_rng(31)
        for _ in range(3):
            prm = _random_params(rng)
            field = IntracavityField(*(rng.normal(size=2) + 1j * rng.normal(size=2)) * 1e8)
            yield prm, field, rng.uniform(-1e9, 1e9, size=37)

    def test_noise_spectra_grid_equals_single_points(self, p1, p1_drive):
        for prm, field, grid in self.cases(p1, p1_drive):
            batch = noise_spectra(prm, field, grid)
            assert len(batch.grid) == len(grid)
            for i, big_omega in enumerate(grid):
                one = noise_spectra(prm, field, np.array([big_omega]))
                for name in ("grid", "s_tilde_pos", "s_tilde_neg", "s_sym", "k", "h_opt"):
                    assert getattr(one, name)[0] == getattr(batch, name)[i], name

    def test_force_transfer_and_rigidity_equal_batch(self, p1, p1_drive):
        for prm, field, grid in self.cases(p1, p1_drive):
            batch = noise_spectra(prm, field, grid)
            f_batch = _force_entries(sideband_blocks(prm, grid))
            for i, big_omega in enumerate(grid):
                np.testing.assert_array_equal(
                    force_transfer(prm, big_omega), f_batch[:, :, i]
                )
                k1, k2 = rigidity(prm, field, big_omega)
                assert k1 + k2 == batch.k[i]


class TestPairAxis:
    def test_map_grid_equals_flat_grid(self):
        """(N, 1) sets over a (2, N, K) pair grid give the bits of the same
        sets repeated over the flat (2, N K) pair grid."""
        rng = np.random.default_rng(17)
        n, k = 6, 5
        params = _random_params(rng, (n, 1))
        omegas = rng.uniform(-1e9, 1e9, size=(n, k))
        points = InterferometerParams(
            **{name: np.repeat(v, k) for name, v in vars(params).items()})
        e = IntracavityField(2e8 * np.exp(0.4j), 1.3e8 * np.exp(-0.9j)).as_array()
        pair = sideband_blocks(params, np.stack([omegas, -omegas]))
        flat = sideband_blocks(points, np.stack([omegas.ravel(), -omegas.ravel()]))
        for form, entries, shape in ((_spring_form, _spring_entries, (n, k)),
                                     (_noise_form, _force_entries, (2, n, k))):
            on_map = form(params.k_p, e, entries(pair))
            per_point = form(points.k_p, e, entries(flat))
            assert on_map.shape == shape
            assert on_map.reshape(per_point.shape).tobytes() == per_point.tobytes()


class TestChunkedEvaluation:
    """Large grids go through the kernel in parts, with the values of one call."""

    def test_parts_equal_one_call(self, p1, p1_drive, monkeypatch):
        cases = []
        grid = np.linspace(-1e9, 2e9, radiation_pressure._CHUNK + 5)
        cases.append((p1, classical_fields(p1, p1_drive), grid))
        prm = unit_srm_params()
        grid = np.linspace(1.0, 1e9, radiation_pressure._CHUNK + 5)
        grid[10], grid[-3] = -prm.omega_p, 0.0  # skipped in the first and last part
        cases.append((prm, IntracavityField(1e4, 0.0), grid))
        parts = [noise_spectra(*case) for case in cases]
        monkeypatch.setattr(radiation_pressure, "_CHUNK", 2 * len(grid))
        for case, split in zip(cases, parts):
            whole = noise_spectra(*case)
            for name in COLUMNS:
                np.testing.assert_array_equal(getattr(split, name), getattr(whole, name))
            # exceptions compare by identity, so compare what they say
            assert ([(omega, str(reason)) for omega, reason in split.skipped]
                    == [(omega, str(reason)) for omega, reason in whole.skipped])
        assert [omega for omega, _ in parts[1].skipped] == [-prm.omega_p, 0.0]

    def test_peak_memory_is_bounded_by_the_result(self, p1, p1_drive):
        field = classical_fields(p1, p1_drive)
        grid = np.linspace(1e8, 2e9, 2**18)
        tracemalloc.start()
        try:
            spec = noise_spectra(p1, field, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = sum(getattr(spec, name).nbytes for name in COLUMNS)
        # 2^10-point parts peak at ~1.6x the result, 2^16-point parts at
        # ~4.5x and one kernel call over all 2^19 sidebands at ~13x
        assert peak <= 2 * result, peak / result

    def test_reduction_errors_peak_memory_is_bounded_by_the_result(self, p1, p1_drive):
        field = classical_fields(p1, p1_drive)
        grid = np.linspace(1e8, 2e9, 2**18)
        tracemalloc.start()
        try:
            errors = reduction_errors(p1, field, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = sum(err.nbytes for err in errors)
        # 2^10-point parts peak at ~1.2x the result, 2^16-point parts at
        # ~13.5x and one kernel call over all 2^19 sidebands at ~44x
        assert peak <= 2 * result, peak / result

    def test_rows_do_not_depend_on_the_grid_around_them(self, monkeypatch):
        """A row of a sub-grid equals the same Omega's row of a 40 001-point
        grid evaluated as one part, whatever the sub-grid's length."""
        cfg = _p1_config()
        field = classical_fields(cfg.params, cfg.pump)
        grid = np.linspace(cfg.grid[0], cfg.grid[-1], 40_001)
        for module in (radiation_pressure, lumped_mode):
            monkeypatch.setattr(module, "_CHUNK", 2 * grid.size)
        whole = noise_spectra(cfg.params, field, grid)
        whole_errors = reduction_errors(cfg.params, field, grid)
        for size, lo in ((41, 7), (4_001, 1_000), (8_192, 3), (12_000, 20_000)):
            rows = slice(lo, lo + size)
            part = noise_spectra(cfg.params, field, grid[rows])
            for name in COLUMNS:
                np.testing.assert_array_equal(getattr(part, name), getattr(whole, name)[rows])
            for err, whole_err in zip(reduction_errors(cfg.params, field, grid[rows]),
                                      whole_errors):
                np.testing.assert_array_equal(err, whole_err[rows])


class TestOneSidedForceNoise:
    """verify's search grids read S_tilde(+Omega) alone, from one kernel call."""

    def test_equals_the_noise_spectra_column_on_p1(self):
        cfg = _p1_config()
        field = classical_fields(cfg.params, cfg.pump)
        # P1's grid, the sizes of verify's two search grids and of the Fano
        # steering test's (none holds Omega = 0, which noise_spectra drops); a
        # grid of 16 384 points or more reaches numpy's 256 KiB temporary
        # elision in its one kernel call, so a check on one is measured here first
        for grid in (cfg.grid, *(np.linspace(cfg.grid[0], cfg.grid[-1], n)
                                 for n in (4_001, 3_001, 6_001))):
            np.testing.assert_array_equal(
                _s_tilde_pos(cfg.params, field, grid),
                noise_spectra(cfg.params, field, grid).s_tilde_pos,
            )

    def test_singular_sideband_raises(self):
        prm = unit_srm_params()
        with pytest.raises(OpticalSingularity):
            _s_tilde_pos(prm, IntracavityField(1e4, 0.0), [1.0, -prm.omega_p])

import dataclasses
import math

import numpy as np
import pytest

from conftest import clear_of_resonance
from msinoise.algebra import dagger, det2, solve_dense
from msinoise.cooling import pump_for_intracavity
from msinoise.errors import OpticalSingularity
from msinoise.lumped_mode import (
    _approx_force_entries,
    _approx_spring_entries,
    approx_fields,
    approx_force_transfer,
    approx_rigidity,
    approx_rigidity_matrix,
    approx_spectra,
    fano_spectrum,
    from_exact,
    params_for_targets,
    reduction_errors,
)
from msinoise.radiation_pressure import (
    _CHUNK,
    _force_entries,
    _spring_entries,
    _spring_form,
    _static_spring,
    force_transfer,
    noise_spectra,
    rigidity,
    rigidity_matrices,
)
from msinoise.scattering import (
    HBAR,
    K_BOLTZMANN,
    SPEED_OF_LIGHT,
    InterferometerParams,
    IntracavityField,
    PortVector,
    _displacement_entries,
    _mixer,
    _scattering_entries,
    classical_fields,
    displacement_transfer,
    mode_mixer,
    oracle_solve,
    scattering_matrix,
    sideband_blocks,
)
from msinoise.verify import _random_params

# intracavity amplitudes of the reference configuration, frozen from the
# dense-solver oracle (oracle_solve at the pump frequency, dark south port)
P1_E_PLUS = 37894832.492348395 - 92514887.8959454j
P1_E_MINUS = 1690742.7281192031 - 1455645.3846162788j


#: every entry point that takes a sideband frequency, as (params, lp, field, Omega) ->
#: a call; the grid functions get a grid holding Omega
OMEGA_ENTRIES = {
    "sideband_blocks": lambda prm, lp, e, w: sideband_blocks(prm, [1e8, w]),
    "scattering_matrix": lambda prm, lp, e, w: scattering_matrix(prm, w),
    "displacement_transfer": lambda prm, lp, e, w: displacement_transfer(prm, w),
    "force_transfer": lambda prm, lp, e, w: force_transfer(prm, w),
    "rigidity_matrices": lambda prm, lp, e, w: rigidity_matrices(prm, w),
    "rigidity": lambda prm, lp, e, w: rigidity(prm, e, w),
    "approx_force_transfer": lambda prm, lp, e, w: approx_force_transfer(lp, w),
    "approx_rigidity_matrix": lambda prm, lp, e, w: approx_rigidity_matrix(lp, w),
    "approx_rigidity": lambda prm, lp, e, w: approx_rigidity(lp, e, w),
    "noise_spectra": lambda prm, lp, e, w: noise_spectra(prm, e, [1e8, w]),
    "reduction_errors": lambda prm, lp, e, w: reduction_errors(prm, e, [1e8, w]),
    "approx_spectra": lambda prm, lp, e, w: approx_spectra(lp, e, [1e8, w]),
    "fano_spectrum": lambda prm, lp, e, w: fano_spectrum(lp, e, [1e8, w]),
}

#: the entry points that take a grid, as (params, lp, field, grid) -> a call
GRID_ENTRIES = {
    "sideband_blocks": lambda prm, lp, e, g: sideband_blocks(prm, g),
    "noise_spectra": lambda prm, lp, e, g: noise_spectra(prm, e, g),
    "reduction_errors": lambda prm, lp, e, g: reduction_errors(prm, e, g),
    "approx_spectra": lambda prm, lp, e, g: approx_spectra(lp, e, g),
    "fano_spectrum": lambda prm, lp, e, g: fano_spectrum(lp, e, g),
}

#: the scalar views: one Omega of one set, through `scattering._one_point`
SCALAR_VIEWS = [entry for entry in OMEGA_ENTRIES if entry not in GRID_ENTRIES]


def result_arrays(result) -> tuple:
    """The arrays of a result: itself, its items, or its array fields."""
    if isinstance(result, np.ndarray):
        return (result,)
    if isinstance(result, tuple):
        return result
    return tuple(v for v in vars(result).values() if isinstance(v, np.ndarray))


def params_simple(**overrides):
    base = dict(
        theta_m=0.0, epsilon=0.0, kappa=0.0, tau_s=1e-9, tau_w=1.1e-9,
        r_s=0.0, t_s=1.0, r_w=0.0, t_w=1.0, k_p=2 * math.pi / 1.064e-6,
    )
    base.update(overrides)
    return InterferometerParams(**base)


def test_exact_si_constants_match_scipy():
    from scipy import constants

    assert HBAR == constants.hbar
    assert K_BOLTZMANN == constants.k
    assert SPEED_OF_LIGHT == constants.c


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

    @pytest.mark.parametrize("batch", [False, True], ids=["float", "entry"])
    @pytest.mark.parametrize("name", ["tau_s", "tau_w", "k_p", "r_s", "t_s", "r_w", "t_w",
                                      "kappa"])
    def test_nan_is_refused(self, name, batch):
        # each check states the condition that must hold, which NaN fails
        value = np.array([vars(params_simple())[name], math.nan]) if batch else math.nan
        with pytest.raises(ValueError):
            params_simple(**{name: value})

    @pytest.mark.parametrize("batch", [False, True], ids=["float", "entry"])
    @pytest.mark.parametrize("name", ["tau_s", "tau_w", "k_p"])
    def test_infinity_is_refused(self, name, batch):
        # sideband_blocks would give det D_e = NaN, which no singularity flag catches
        value = np.array([vars(params_simple())[name], math.inf]) if batch else math.inf
        with pytest.raises(ValueError, match="tau_s, tau_w and k_p must be finite"):
            params_simple(**{name: value})

    def test_kappa_must_be_finite(self):
        with pytest.raises(ValueError, match="kappa = inf must be finite"):
            params_simple(kappa=math.inf)


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


class TestMirrorAndPhaseBlocks:
    """The diagonal propagation and mirror blocks of `sideband_blocks`."""

    def test_no_power_recycling_kills_west_reflection(self):
        b = sideband_blocks(params_simple(), np.array([1e6]))
        assert b.r_tilde[0, 0] == 0.0

    def test_perfect_mirror_membrane(self):
        b = sideband_blocks(params_simple(theta_m=0.0), np.array([1e6]))
        assert b.factors[2] == 1.0  # m = e^{i theta_m}

    def test_half_wave_west_path(self):
        # a pump frequency of pi / tau_w puts half a wave on the west path
        prm = params_simple(k_p=math.pi / (1.1e-9 * SPEED_OF_LIGHT))
        b = sideband_blocks(prm, np.zeros(1))
        assert abs(b.phases[0, 0] + 1.0) < 1e-12
        assert abs(b.t_tilde[0, 0] + 1.0) < 1e-12


class TestModeDeterminant:
    """The mode matrix D_e = Q^dagger - R_tilde Q^T M and its determinant."""

    def test_diagonal_case_closed_form(self):
        prm = params_simple(r_s=0.8, t_s=0.6, r_w=0.3,
                            t_w=math.sqrt(1 - 0.09))
        b = sideband_blocks(prm, np.array([1.7e15 - prm.omega_p]))
        omega = b.omega[0]
        zw = 0.3 * np.exp(2j * omega * prm.tau_w)
        zs = 0.8 * np.exp(2j * omega * prm.tau_s)
        assert abs(b.d[0] - (1 - zw) * (1 - zs)) < 1e-12
        assert abs(b.d_e[0, 1, 0]) == 0.0 and abs(b.d_e[1, 0, 0]) == 0.0

    def test_no_recycling_unit_determinant(self):
        prm = params_simple(epsilon=0.2, kappa=0.7, theta_m=0.4)
        b = sideband_blocks(prm, np.array([1.9e15 - prm.omega_p]))
        assert abs(abs(b.d[0]) - 1.0) < 1e-12

    def test_p1_inverse_matches_dense_solve(self, p1, p1_drive):
        # classical_fields applies the closed-form inverse adj(D_e) / det D_e
        b = sideband_blocks(p1, np.zeros(1))
        solved = solve_dense(b.d_e[:, :, 0], b.t_tilde[:, 0] * p1_drive.as_array())
        closed = classical_fields(p1, p1_drive).as_array()
        np.testing.assert_allclose(closed, solved, rtol=1e-12, atol=1e-14)

    def test_exact_resonance_is_singular(self):
        # fully reflective SRM with an exactly-unit round trip degenerates
        prm = params_simple(r_s=1.0, t_s=0.0, tau_s=1.0, tau_w=1.0, k_p=1.0)
        b = sideband_blocks(prm, np.array([-prm.omega_p, 1.0]))
        assert b.omega[0] == 0.0
        assert b.singular.tolist() == [True, False]
        with pytest.raises(OpticalSingularity):
            b.checked()

    def test_singular_point_of_a_grid_is_named(self):
        prm = params_simple(r_s=1.0, t_s=0.0, tau_s=1.0, tau_w=1.0, k_p=1.0)
        grid = np.array([[1.0, 2.0, 3.0], [4.0, -prm.omega_p, 5.0]])
        b = sideband_blocks(prm, grid)
        assert b.singular.tolist() == [[False] * 3, [False, True, False]]
        with pytest.raises(OpticalSingularity) as err:
            b.checked()
        assert (err.value.omega, err.value.det) == (0.0, complex(b.d[1, 1]))

    @pytest.mark.parametrize("omega", [np.complex128(1e8 + 1e7j), 2e8 + 0j])
    @pytest.mark.parametrize("entry", OMEGA_ENTRIES)
    def test_complex_grid_is_refused(self, p1, entry, omega):
        # a cast to float would drop the imaginary part and evaluate at Re Omega
        field = IntracavityField(P1_E_PLUS, P1_E_MINUS)
        with pytest.raises(TypeError, match="must be real, got complex"):
            OMEGA_ENTRIES[entry](p1, from_exact(p1), field, omega)

    @pytest.mark.parametrize("entry", GRID_ENTRIES)
    def test_scalar_grid_is_a_one_point_grid(self, p1, entry):
        field = IntracavityField(P1_E_PLUS, P1_E_MINUS)
        alone, listed = (result_arrays(GRID_ENTRIES[entry](p1, from_exact(p1), field, grid))
                         for grid in (2e8, [2e8]))
        assert alone[0].shape == (1,)
        for one, ref in zip(alone, listed, strict=True):
            assert one.shape == ref.shape and one.tobytes() == ref.tobytes()

    def test_d_e_matches_matrix_products(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            prm = _random_params(rng)
            grid = rng.uniform(-1e9, 1e9, size=7)
            b = sideband_blocks(prm, grid)
            q = mode_mixer(prm)
            m = np.diag([np.exp(1j * prm.theta_m), np.exp(-1j * prm.theta_m)])
            for i in range(grid.size):
                expected = q.conj().T - np.diag(b.r_tilde[:, i]) @ q.T @ m
                np.testing.assert_allclose(b.d_e[:, :, i], expected, rtol=0, atol=1e-14)
                assert abs(b.d[i] - np.linalg.det(expected)) <= 1e-13


class TestScatteringMatrix:
    def test_bare_propagation(self):
        prm = params_simple()
        big_omega = 2e6
        omega = prm.omega_p + big_omega
        r = scattering_matrix(prm, big_omega)
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
            r = scattering_matrix(prm, big_omega)
            assert np.abs(dagger(r) @ r - np.eye(2)).max() <= 1e-10
            checked += 1

    def test_michelson_limit_decouples_arms(self):
        # perfect-mirror membrane, balanced splitter: two independent cavities
        prm = params_simple(theta_m=0.0, r_s=0.9, t_s=math.sqrt(0.19),
                            r_w=0.4, t_w=math.sqrt(0.84))
        big_omega = 1.77e15 - prm.omega_p
        omega = prm.omega_p + big_omega
        r = scattering_matrix(prm, big_omega)
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
        expected = scattering_matrix(p1, 0.0) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(sol.b, expected, rtol=1e-10)

    def test_displacement_response_matches_closed_form(self, p1, p1_drive):
        field = classical_fields(p1, p1_drive)
        x = 1e-15
        big_omega = 2 * math.pi * 4e5
        omega = p1.omega_p + big_omega
        sol = oracle_solve(p1, omega, PortVector(0, 0), x, field)
        expected = scattering_matrix(p1, big_omega) @ (
            1j * p1.k_p * displacement_transfer(p1, big_omega)
            @ field.as_array() * x
        )
        np.testing.assert_allclose(sol.b, expected, rtol=1e-10)


def one_set(params, i):
    """Set i of (N,) array params, as the float params of a point-wise caller."""
    return InterferometerParams(**{name: float(v[i]) for name, v in vars(params).items()})


def worst_rel(batch, scalar):
    """Largest |batch - scalar| of a (..., N) pair, relative to the largest
    |scalar| at the same point."""
    axes = tuple(range(np.ndim(scalar) - 1))
    return float((np.abs(batch - scalar).max(axis=axes) / np.abs(scalar).max(axis=axes)).max())


class TestBatchedParams:
    """Array params against per-set calls with float params."""

    N_SETS, N_OMEGAS = 300, 5

    def test_kernel_entries_and_fields_match_per_set_calls(self):
        # (N, 1) sets broadcast over an (N, K) grid, as the verify ensembles draw them
        rng = np.random.default_rng(15)
        sets = _random_params(rng, self.N_SETS)
        omegas = rng.uniform(-1e9, 1e9, size=(self.N_SETS, self.N_OMEGAS))
        params = InterferometerParams(**{name: v[:, None] for name, v in vars(sets).items()})
        b = sideband_blocks(params, omegas)

        def entries(prm, blocks):  # F, G and R_ifo stacks; only R_ifo reads the params
            return {"F": _force_entries(blocks), "G": _displacement_entries(blocks),
                    "R_ifo": _scattering_entries(prm, blocks)}

        batched = entries(params, b)
        pump = PortVector(*(rng.normal(size=(2, self.N_SETS))
                            + 1j * rng.normal(size=(2, self.N_SETS))) * 1e8)
        fields = classical_fields(sets, pump)
        assert fields.e_plus.shape == (self.N_SETS,)
        worst = dict.fromkeys(["d", "cf", *batched], 0.0)
        for i in range(self.N_SETS):
            single = one_set(sets, i)
            bs = sideband_blocks(single, omegas[i])
            worst["d"] = max(worst["d"], worst_rel(b.d[i][None], bs.d[None]))
            for name, stack in entries(single, bs).items():
                worst[name] = max(worst[name], worst_rel(batched[name][:, :, i], stack))
            field = classical_fields(single, PortVector(pump.west[i], pump.south[i]))
            assert isinstance(field.e_plus, complex)
            worst["cf"] = max(worst["cf"], worst_rel(fields.as_array()[:, i:i + 1],
                                                     field.as_array()[:, None]))
        assert max(worst.values()) <= 1e-14, worst

    def test_fields_of_column_sets_equal_the_flat_call(self):
        # (N, 1) sets, as the verify ensembles and a (delta_s, alpha) map draw them
        sets = _random_params(np.random.default_rng(19), (4, 1))
        flat = InterferometerParams(**{name: v.ravel() for name, v in vars(sets).items()})
        column = classical_fields(sets, PortVector(np.ones((4, 1)), 0.0))
        assert column.e_plus.shape == column.e_minus.shape == (4, 1)
        reference = classical_fields(flat, PortVector(np.ones(4), 0.0))
        assert column.as_array().tobytes() == reference.as_array().tobytes()

    def test_failed_self_check_names_the_set_by_flat_index(self, monkeypatch):
        from msinoise import scattering

        sets = _random_params(np.random.default_rng(20), (3, 2))

        def off_at_4(d_e):  # det D_e one part in 1e6 off for flat set 4 only
            d = det2(d_e)
            return d * np.where(np.arange(d.size).reshape(d.shape) == 4, 1 + 1e-6, 1.0)

        monkeypatch.setattr(scattering, "det2", off_at_4)
        with pytest.raises(ArithmeticError, match="self-check") as err:
            classical_fields(sets, PortVector(1.0, 0.0))
        assert f"at omega = {float(sets.omega_p.flat[4])!r}" in str(err.value)

    @pytest.mark.parametrize("n", [5, _CHUNK + 1])
    @pytest.mark.parametrize("batched", ["params", "field"])
    @pytest.mark.parametrize("entry", ["noise_spectra", "reduction_errors"])
    def test_grid_passes_refuse_batched_sets(self, p1, entry, batched, n):
        # a grid pass cuts its grid into parts of _CHUNK points but never the
        # sets, so a batch matching the grid would work up to _CHUNK points only
        rng = np.random.default_rng(21)
        prm, field = p1, IntracavityField(P1_E_PLUS, P1_E_MINUS)
        if batched == "params":
            prm = _random_params(rng, n)
        else:
            field = IntracavityField(np.full(n, P1_E_PLUS), P1_E_MINUS)
        with pytest.raises(ValueError, match=f"^{entry} takes one parameter set .*sideband_blocks"):
            GRID_ENTRIES[entry](prm, from_exact(p1), field, rng.uniform(1e6, 1e9, size=n))

    @pytest.mark.parametrize("entry, batched", [
        *((entry, batched) for entry in SCALAR_VIEWS for batched in ("params", "omega")),
        ("pump_for_intracavity", "params"),
        *((entry, "field") for entry in ("approx_rigidity", "pump_for_intracavity", "rigidity")),
    ])
    def test_scalar_views_refuse_batched_sets(self, p1, entry, batched):
        # a scalar view returns one value: at two sets or two Omegas the matrix
        # views returned set 0 or a (2, 2, 2) stack, rigidity_matrices added K2
        # along the Omega axis, and pump_for_intracavity mixed the two sets
        call = {**OMEGA_ENTRIES, "pump_for_intracavity":
                lambda prm, lp, e, w: pump_for_intracavity(prm, e)}[entry]
        prm, lp, omega = p1, from_exact(p1), 2e6
        field = IntracavityField(P1_E_PLUS, P1_E_MINUS)
        if batched == "params":
            prm = _random_params(np.random.default_rng(22), 2)
            lp = dataclasses.replace(lp, gamma_s=np.array([lp.gamma_s, 2 * lp.gamma_s]))
        elif batched == "field":
            field = IntracavityField(np.array([P1_E_PLUS, 2 * P1_E_PLUS]),
                                     np.array([P1_E_MINUS, 0.5 * P1_E_MINUS]))
        else:
            omega = np.array([2e6, 3e6])
        refusal = "one Omega, got an array of shape" if batched == "omega" else "one parameter set"
        with pytest.raises(ValueError, match=f"^{entry} takes {refusal} ") as err:
            call(prm, lp, field, omega)
        # sideband_blocks evaluates batched exact sets, not the reduced model
        exact_sets = batched != "omega" and not entry.startswith("approx")
        assert ("sideband_blocks" in str(err.value)) == exact_sets

    @pytest.mark.parametrize("entry, batched", [
        ("from_exact", "params"), ("approx_fields", "params"), ("approx_fields", "pump"),
        ("approx_spectra", "field"), ("approx_spectra", "record"), ("fano_spectrum", "field"),
        ("fano_spectrum", "record"), ("reduction_errors", "reduced"),
    ])
    def test_reduced_intakes_refuse_batched_inputs(self, p1, entry, batched):
        # from_exact raised numpy's TypeError of a float() cast, and the
        # canonical Lorentzian paired amplitude i with Omega i of its grid
        lp, grid, amp = from_exact(p1), np.array([2e6, 3e6]), 1e8
        if batched == "record":
            lp = dataclasses.replace(lp, gamma_s=np.array([lp.gamma_s, 2 * lp.gamma_s]))
        elif batched != "params":
            amp = np.array([1e8, 2e8])
        sets = _random_params(np.random.default_rng(23), 2) if batched == "params" else p1
        call = {
            "from_exact": lambda: from_exact(sets),
            "approx_fields": lambda: approx_fields(sets, PortVector(amp, 1e6)),
            "approx_spectra": lambda: approx_spectra(lp, IntracavityField(amp, 0.0), grid),
            "fano_spectrum": lambda: fano_spectrum(lp, IntracavityField(amp, 0.0), grid),
            "reduction_errors": lambda: reduction_errors(
                p1, IntracavityField(1e8, 0.0), grid, IntracavityField(amp, 0.0)),
        }[entry]
        with pytest.raises(ValueError, match=f"^{entry} takes one parameter set at a time"):
            call()

    def test_rigidity_matrices_refuse_an_omega_array(self, p1):
        # K1 + K2 used to add the (2, 2) K2 along the trailing Omega axis, so
        # the total at 2e6 came out off by 1.62 without an error
        with pytest.raises(ValueError, match="^rigidity_matrices takes one Omega"):
            rigidity_matrices(p1, np.array([2e6, 3e6]))

    @pytest.mark.parametrize("omega", [0.0, 2e6, np.float64(-3.5e8), np.array(7e8)],
                             ids=["zero", "float", "float64", "0-d"])
    def test_scalar_views_are_their_grid_entries(self, p1, omega):
        # each view equals the entry at its Omega of a grid call, bit for bit;
        # 0-d arrays and Omega = 0 are one point.  The two rigidities are also
        # their records' (k1[i], k2) where the records keep the point, Omega != 0
        lp, e = from_exact(p1), IntracavityField(P1_E_PLUS, P1_E_MINUS)
        grid = np.array([1e5, float(omega), 3e7])
        b, pair = sideband_blocks(p1, grid), sideband_blocks(p1, np.stack([grid, -grid]))
        k1, approx_k = _spring_entries(pair), _approx_spring_entries(lp, np.stack([grid, -grid]))
        arr = e.as_array()
        k2 = -4.0 * p1.r_m * p1.t_m * np.diag([1.0 + 0j, -1.0])
        pairs = [
            (scattering_matrix(p1, omega), _scattering_entries(p1, b)[:, :, 1]),
            (displacement_transfer(p1, omega), _displacement_entries(b)[:, :, 1]),
            (force_transfer(p1, omega), _force_entries(b)[:, :, 1]),
            (np.array(rigidity_matrices(p1, omega)), np.array([k1[:, :, 1], k2])),
            (np.array(rigidity(p1, e, omega)),
             np.array([_spring_form(p1.k_p, arr, k1)[1], _static_spring(p1, arr)])),
            (approx_force_transfer(lp, omega), _approx_force_entries(lp, grid)[:, :, 1]),
            (approx_rigidity_matrix(lp, omega), approx_k[:, :, 1]),
            (np.array(approx_rigidity(lp, e, omega)),
             np.array([_spring_form(lp.k_p, arr, approx_k)[1], _static_spring(lp, arr)])),
        ]
        if omega != 0.0:
            exact, approx = noise_spectra(p1, e, grid), approx_spectra(lp, e, grid)
            pairs += [(np.array(rigidity(p1, e, omega)), np.array([exact.k1[1], exact.k2])),
                      (np.array(approx_rigidity(lp, e, omega)),
                       np.array([approx.k1[1], approx.k2]))]
        for view, entry in pairs:
            assert view.shape == entry.shape and view.tobytes() == entry.tobytes()

    def test_stacked_oracle_matches_per_case_calls(self):
        rng = np.random.default_rng(16)
        n = 60
        sets = _random_params(rng, n)
        omega = sets.omega_p + rng.uniform(-1e9, 1e9, n)
        inputs = PortVector(*(rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))))
        field = IntracavityField(*(rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))) * 1e8)
        x = rng.uniform(0.0, 1e-15, n)
        stacked = oracle_solve(sets, omega, inputs, x, field)
        for i in range(n):
            single = oracle_solve(
                one_set(sets, i), float(omega[i]),
                PortVector(inputs.west[i], inputs.south[i]), float(x[i]),
                IntracavityField(field.e_plus[i], field.e_minus[i]),
            )
            for name in "bcdef":
                ref = getattr(single, name)
                assert ref.shape == (2,)
                assert worst_rel(getattr(stacked, name)[:, i:i + 1], ref[:, None]) <= 1e-13

    @pytest.mark.parametrize("n", [None, 40])
    def test_drives_equal_separate_calls_bit_for_bit(self, n):
        """k drives of float params (n None) or of (n,) params: one solve."""
        rng = np.random.default_rng(17)
        k = 3
        drives = (k,) if n is None else (k, n)
        sets = _random_params(rng, n)
        omega = sets.omega_p + rng.uniform(-1e9, 1e9, n)
        inputs = PortVector(*(rng.normal(size=(2, *drives))
                              + 1j * rng.normal(size=(2, *drives))))
        x = rng.uniform(0.0, 1e-15, drives)
        field = IntracavityField(*(rng.normal(size=(2, *drives[1:]))
                                   + 1j * rng.normal(size=(2, *drives[1:]))) * 1e8)
        stacked = oracle_solve(sets, omega, inputs, x, field)
        for j in range(k):
            single = oracle_solve(sets, omega, PortVector(inputs.west[j], inputs.south[j]),
                                  x[j], field)
            for name in "bcdef":
                assert getattr(stacked, name).shape == (2, *drives)
                assert getattr(stacked, name)[:, j].tobytes() == getattr(single, name).tobytes()

    def test_set_columns_on_a_grid_equal_flat_row_calls_bit_for_bit(self):
        """(n, 1) sets at an (n, m) grid with k drives: one solve, each row as
        a flat call of its set alone at its m sidebands."""
        rng = np.random.default_rng(18)
        k, n, m = 2, 6, 3
        sets = _random_params(rng, (n, 1))
        omega = sets.omega_p + rng.uniform(-1e9, 1e9, (n, m))
        inputs = PortVector(*(rng.normal(size=(2, k, n, m))
                              + 1j * rng.normal(size=(2, k, n, m))))
        x = rng.uniform(0.0, 1e-15, (k, n, m))
        field = IntracavityField(*(rng.normal(size=(2, n, 1))
                                   + 1j * rng.normal(size=(2, n, 1))) * 1e8)
        stacked = oracle_solve(sets, omega, inputs, x, field)
        for i in range(n):
            row = oracle_solve(
                InterferometerParams(**{name: float(v[i, 0]) for name, v in vars(sets).items()}),
                omega[i], PortVector(inputs.west[:, i], inputs.south[:, i]), x[:, i],
                IntracavityField(field.e_plus[i, 0], field.e_minus[i, 0]),
            )
            for name in "bcdef":
                assert getattr(stacked, name).shape == (2, k, n, m)
                assert getattr(stacked, name)[:, :, i].tobytes() == getattr(row, name).tobytes()

    def test_a_set_rounds_alike_in_a_batch_of_any_length(self):
        # 40 000 sets: numpy would multiply unnamed temporaries of this size
        # in place, with the operands of a complex product swapped
        rng = np.random.default_rng(5)
        sets = _random_params(rng, 40000)
        omegas = rng.uniform(-1e9, 1e9, 40000)
        first = InterferometerParams(**{name: v[:100] for name, v in vars(sets).items()})
        batch, alone = sideband_blocks(sets, omegas), sideband_blocks(first, omegas[:100])
        for whole, part in ((batch.d, alone.d), (batch.d_e, alone.d_e),
                            (_force_entries(batch), _force_entries(alone))):
            assert whole[..., :100].tobytes() == part.tobytes()

    def test_float_and_array_fields_mix(self):
        rng = np.random.default_rng(18)
        theta = rng.uniform(0.0, math.pi / 2, 7)
        mixed = params_simple(theta_m=theta, epsilon=0.1, kappa=0.3, r_s=0.8, t_s=0.6)
        b = sideband_blocks(mixed, np.full(7, 2e6))
        for i in range(7):
            single = params_simple(theta_m=float(theta[i]), epsilon=0.1, kappa=0.3,
                                   r_s=0.8, t_s=0.6)
            bs = sideband_blocks(single, np.array([2e6]))
            assert worst_rel(b.d_e[:, :, i:i + 1], bs.d_e) <= 1e-14
        west = rng.normal(size=7) * 1e8
        np.testing.assert_array_equal(
            classical_fields(mixed, PortVector(west, 0.0)).as_array(),
            classical_fields(mixed, PortVector(west, np.zeros(7))).as_array(),
        )

    @pytest.mark.parametrize("field, value", [
        ("theta_m", -0.1), ("theta_m", math.pi / 2 + 1e-9), ("epsilon", math.pi / 4),
        ("r_s", 0.5), ("tau_s", 0.0), ("tau_w", -1e-9),
    ])
    def test_one_out_of_range_entry_raises(self, field, value):
        good = vars(_random_params(np.random.default_rng(17), 8))
        bad = dict(good, **{field: good[field].copy()})
        bad[field][5] = value
        InterferometerParams(**good)
        with pytest.raises(ValueError):
            InterferometerParams(**bad)

    def test_float_set_and_one_point_arrays_share_the_factors(self):
        # np.cos and np.sin for floats and arrays alike: a float set is its (1,) batch
        sets = _random_params(np.random.default_rng(18), 200)
        for i in range(200):
            single = one_set(sets, i)
            batch = InterferometerParams(**{name: v[i:i + 1] for name, v in vars(sets).items()})
            pairs = [(single.r_m, batch.r_m), (single.t_m, batch.t_m),
                     *zip(_mixer(single), _mixer(batch))]
            for scalar, array in pairs:
                assert array.shape == (1,)
                assert np.asarray(scalar).tobytes() == array.tobytes()

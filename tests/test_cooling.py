import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_boltzmann

from msinoise.cooling import (
    MechanicalMode,
    _min_ratio,
    occupancy,
    occupancy_simplified,
    optimize_pump,
    pump_for_intracavity,
    thermal_occupation,
    thermal_spectra,
)
from msinoise.errors import (
    DegenerateFrequency,
    NonpositiveTemperature,
    UnreachableField,
    UnstableSystem,
)
from msinoise.lumped_mode import params_for_targets
from msinoise.radiation_pressure import force_transfer, noise_spectra
from msinoise.scattering import (
    InterferometerParams,
    IntracavityField,
    PortVector,
    classical_fields,
)

THETA = 0.15 * math.pi


def mode(n_t=1e4, omega_m=2.5e7, h=1e-12):
    return MechanicalMode(omega_m=omega_m, h_friction=h, n_thermal=n_t)


def cooling_params(delta_s=-2.5e7, p=1e-4):
    return params_for_targets(gamma_s=2.5e6, delta_s=delta_s, theta_m=THETA,
                              p=p, alpha=-0.5)


def random_cooling_cases(seed, count=4):
    """Red-detuned, resolved-sideband configs under both constraints, with
    budgets from thermal- to back-action-dominated.

    Yields (params, mode, budget, constraint, A, B): the occupancy pencil
    n = v^dag A v / v^dag B v built here with numpy products, independently
    of the entry formulas of `optimize_pump`.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        omega_m = rng.uniform(1e7, 4e7)
        prm = params_for_targets(
            gamma_s=0.1 * omega_m, delta_s=-omega_m * rng.uniform(0.5, 1.5),
            theta_m=rng.uniform(0.1, 0.4) * math.pi, p=10 ** rng.uniform(-5, -1),
            alpha=rng.uniform(-1.0, 1.0),
        )
        m = mode(n_t=10 ** rng.uniform(-2, 5), omega_m=omega_m)
        forces = [force_transfer(prm, sign * omega_m) for sign in (1, -1)]
        for constraint in ("intracavity", "injected"):
            fs = forces
            if constraint == "injected":
                w = np.column_stack([classical_fields(prm, port).as_array()
                                     for port in (PortVector(1, 0), PortVector(0, 1))])
                fs = [w.conj().T @ f for f in forces]
            p_pos, p_neg = (hbar**2 * prm.k_p**2 * (f @ f.conj().T) for f in fs)
            s_t_pos, s_t_neg = thermal_spectra(m)
            budget = s_t_neg / p_neg[0, 0].real * 10 ** rng.uniform(-2, 3)
            a = p_neg + s_t_neg / budget * np.eye(2)
            b = p_pos - p_neg + (s_t_pos - s_t_neg) / budget * np.eye(2)
            yield prm, m, budget, constraint, a, b


def red_detuned_cases(seed, count=16):
    """Resolved-sideband configs detuned red by omega_m, each with the
    intracavity energy of a 1 mW west pump as its budget.

    Yields (params, mode, budget).
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        omega_m = rng.uniform(1e7, 4e7)
        prm = params_for_targets(
            gamma_s=0.1 * omega_m, delta_s=-omega_m, theta_m=rng.uniform(0.1, 0.4) * math.pi,
            p=rng.uniform(5e-5, 2e-4), alpha=rng.uniform(-1.0, 0.0),
        )
        m = MechanicalMode(omega_m=omega_m, h_friction=1e-12,
                           n_thermal=10 ** rng.uniform(3, 5))
        pump = PortVector(math.sqrt(1e-3 / (hbar * prm.omega_p)), 0.0)
        e = classical_fields(prm, pump).as_array()
        yield prm, m, float(np.sum(np.abs(e) ** 2))


class TestThermalOccupation:
    def test_ground_state_limit(self):
        assert thermal_occupation(1e-3, 1e12) < 1e-30

    def test_unit_occupation_closed_form(self):
        temperature = 0.3
        omega = k_boltzmann * temperature * math.log(2.0) / hbar
        assert thermal_occupation(temperature, omega) == pytest.approx(1.0, rel=1e-12)

    def test_coth_and_bose_forms_agree(self):
        for omega in np.geomspace(1e3, 1e12, 40):
            n_bose = thermal_occupation(300.0, omega)
            x = hbar * omega / (2 * k_boltzmann * 300.0)
            n_coth = (1.0 / math.tanh(x) - 1.0) / 2.0
            assert abs(n_bose - n_coth) <= 1e-12 * max(n_bose, 1e-300)

    def test_rejects_bad_inputs(self):
        with pytest.raises(NonpositiveTemperature):
            thermal_occupation(0.0, 1e6)
        with pytest.raises(DegenerateFrequency):
            thermal_occupation(1.0, 0.0)

    def test_nan_temperature_is_refused(self):
        with pytest.raises(NonpositiveTemperature):
            thermal_occupation(math.nan, 1e6)

    def test_infinite_temperature_is_refused(self):
        with pytest.raises(ValueError, match="temperature = inf K must be finite"):
            thermal_occupation(math.inf, 1e6)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_is_refused(self, omega):
        with pytest.raises(ValueError, match=f"omega = {omega!r} rad/s must be finite"):
            thermal_occupation(300.0, omega)


class TestThermalSpectra:
    def test_ground_state_bath_has_no_antistokes(self):
        s_pos, s_neg = thermal_spectra(mode(n_t=0.0))
        assert s_neg == 0.0 and s_pos > 0.0

    def test_ratio_identity(self):
        m = mode(n_t=37.0)
        s_pos, s_neg = thermal_spectra(m)
        assert s_pos / s_neg == pytest.approx(1.0 / 37.0 + 1.0, rel=1e-12)

    def test_fdt_sum(self):
        m = mode(n_t=12.5)
        s_pos, s_neg = thermal_spectra(m)
        expected = hbar * m.omega_m * m.h_friction * (2 * 12.5 + 1)
        assert (s_pos + s_neg) / 2 == pytest.approx(expected, rel=1e-14)

    def test_temperature_input(self):
        m = MechanicalMode(omega_m=2 * math.pi * 1e6, h_friction=1e-12,
                           temperature=300.0)
        assert m.n_t == pytest.approx(
            thermal_occupation(300.0, m.omega_m), rel=1e-15
        )

    def test_exactly_one_bath_spec(self):
        with pytest.raises(ValueError):
            MechanicalMode(omega_m=1e6, h_friction=1e-12)
        with pytest.raises(ValueError):
            MechanicalMode(omega_m=1e6, h_friction=1e-12, temperature=1.0,
                           n_thermal=1.0)
        for temperature in (0.0, -5.0):  # caught here, not lazily by n_t
            with pytest.raises(ValueError):
                MechanicalMode(omega_m=1e6, h_friction=1e-12, temperature=temperature)

    @pytest.mark.parametrize("name", ["omega_m", "h_friction", "n_thermal"])
    def test_nan_is_refused(self, name):
        # each check states the condition that must hold, which NaN fails
        values = {"omega_m": 1e6, "h_friction": 1e-12, "n_thermal": 1.0, name: math.nan}
        with pytest.raises(ValueError, match=name):
            MechanicalMode(**values)

    @pytest.mark.parametrize("name", ["omega_m", "h_friction", "temperature", "n_thermal"])
    def test_infinity_is_refused(self, name):
        bath = "n_thermal" if name == "n_thermal" else "temperature"
        values = {"omega_m": 1e6, "h_friction": 1e-12, bath: 1.0, name: math.inf}
        with pytest.raises(ValueError, match=f"{name} = inf.* must be finite"):
            MechanicalMode(**values)


class TestOccupancy:
    def test_no_light_recovers_thermal_equilibrium(self):
        m = mode(n_t=123.456)
        result = occupancy(m, 0.0, 0.0)
        assert result.n_bar == pytest.approx(123.456, rel=1e-12)

    def test_strong_stokes_dominance_limit(self):
        m = mode(n_t=100.0)
        s_t_pos, s_t_neg = thermal_spectra(m)
        s_f_pos = 1e6 * s_t_pos
        result = occupancy(m, s_f_pos, 0.0)
        assert result.n_bar == pytest.approx(s_t_neg / s_f_pos, rel=1e-3)

    def test_both_forms_agree(self):
        m = mode(n_t=50.0)
        s_t_pos, s_t_neg = thermal_spectra(m)
        result = occupancy(m, 3.0 * s_t_neg, 0.2 * s_t_neg)
        assert result.n_bar == pytest.approx(result.n_bar_sym_form, rel=1e-10)

    def test_antidamping_raises(self):
        m = mode(n_t=10.0)
        # stronger anti-Stokes than Stokes: negative optical damping
        s = 2 * hbar * m.omega_m * m.h_friction
        with pytest.raises(UnstableSystem):
            occupancy(m, 0.0, 10.0 * s)

    @pytest.mark.parametrize("s_f_pos, s_f_neg", [(math.nan, math.nan), (1e-30, math.nan),
                                                  (math.nan, 0.0)])
    def test_nan_spectra_raise(self, s_f_pos, s_f_neg):
        # the stability test states the condition that must hold, which NaN fails
        with pytest.raises(UnstableSystem, match="anti-damping"):
            occupancy(mode(n_t=1.0), s_f_pos, s_f_neg)


class TestOccupancySimplified:
    def test_unit_occupancy(self):
        m = mode(n_t=7.0)
        _, s_t_neg = thermal_spectra(m)
        assert occupancy_simplified(m, s_t_neg) == pytest.approx(1.0, rel=1e-14)

    def test_inverse_proportionality(self):
        m = mode(n_t=7.0)
        assert occupancy_simplified(m, 2e-30) == pytest.approx(
            occupancy_simplified(m, 1e-30) / 2.0, rel=1e-14
        )

    def test_matches_full_form_in_regime(self):
        m = mode(n_t=1e4)
        s_t_pos, s_t_neg = thermal_spectra(m)
        result = occupancy(m, s_t_neg, s_t_neg / 400.0)
        assert result.flags.ok
        simple = occupancy_simplified(m, s_t_neg)
        assert abs(result.n_bar - simple) / result.n_bar <= 0.05


class TestOptimizePump:
    def test_symmetric_field_cools_best(self):
        prm = cooling_params()
        m = mode()
        f_pos = force_transfer(prm, m.omega_m)
        p11 = hbar**2 * prm.k_p**2 * float((f_pos @ f_pos.conj().T)[0, 0].real)
        budget = thermal_spectra(m)[1] / p11
        opt = optimize_pump(prm, m, budget)
        finite = opt.n_bar_grid[np.isfinite(opt.n_bar_grid)]
        assert opt.result.n_bar <= finite.min()
        e = opt.field.as_array()
        assert abs(e[1]) <= 1e-3 * abs(e[0])
        assert abs(e[0]) ** 2 + abs(e[1]) ** 2 == pytest.approx(budget, rel=1e-12)

    def test_grid_maximum_matches_top_eigenvector(self):
        """The Stokes spectrum is a quadratic form; its grid maximum must sit
        on the dominant eigenvector."""
        prm = cooling_params(p=0.02)
        m = mode()
        f_pos = force_transfer(prm, m.omega_m)
        p_mat = hbar**2 * prm.k_p**2 * (f_pos @ f_pos.conj().T)
        budget = 1e16
        opt = optimize_pump(prm, m, budget, grid_size=96)
        grid_max = opt.s_f_pos_grid.max()
        top_eig = float(np.linalg.eigvalsh(p_mat).max()) * budget
        spacing = math.pi / 2 / 95
        assert grid_max <= top_eig * (1 + 1e-12)
        assert grid_max >= top_eig * (1 - 4 * spacing)

    def test_all_antidamped_raises(self):
        # both cavities blue-detuned by omega_m: every pump split heats once
        # the mechanical friction is negligible
        omega_m = 2.5e7
        base = cooling_params(delta_s=+omega_m, p=1e-3)
        n = round((2 * base.omega_p * 1.1e-9 + THETA) / (2 * math.pi))
        tau_w = (2 * math.pi * n - THETA) / (2 * base.omega_p)
        tau_w = (2 * math.pi * n - THETA + 2 * omega_m * tau_w) / (2 * base.omega_p)
        prm = InterferometerParams(
            theta_m=THETA, epsilon=base.epsilon, kappa=base.kappa,
            tau_s=base.tau_s, tau_w=tau_w, r_s=base.r_s, t_s=base.t_s,
            r_w=0.99, t_w=math.sqrt(1 - 0.99**2), k_p=base.k_p,
        )
        m = MechanicalMode(omega_m=omega_m, h_friction=1e-30, n_thermal=1e4)
        with pytest.raises(UnstableSystem):
            optimize_pump(prm, m, 1e16)

    def test_injected_constraint_mode(self):
        prm = cooling_params()
        m = mode()
        opt = optimize_pump(prm, m, 1e16, grid_size=32,
                            constraint="injected")
        assert np.isfinite(opt.result.n_bar)

    def test_closed_form_not_above_dense_mesh(self):
        for prm, m, budget, constraint, _, _ in random_cooling_cases(5):
            opt = optimize_pump(prm, m, budget, grid_size=256, constraint=constraint)
            finite = opt.n_bar_grid[np.isfinite(opt.n_bar_grid)]
            assert opt.n_bar_grid.shape == (256, 256)
            assert opt.result.n_bar <= finite.min() * (1 + 1e-12)

    def test_optimum_is_the_top_generalised_eigenpair(self):
        for prm, m, budget, constraint, a, b in random_cooling_cases(6):
            opt = optimize_pump(prm, m, budget, grid_size=8, constraint=constraint)
            v = np.array([math.cos(opt.chi), math.sin(opt.chi) * np.exp(1j * opt.phi)])
            lam = 1.0 / opt.result.n_bar
            residual = np.linalg.norm((b - lam * a) @ v)
            assert residual <= 1e-12 * np.linalg.norm(b, 2) * np.linalg.norm(v)
            top = np.linalg.eigvals(np.linalg.solve(a, b)).real.max()
            assert lam == pytest.approx(top, rel=1e-10)

    def test_every_optimum_is_the_occupancy_of_its_field(self):
        """Under either constraint, the optimum's spectra and n_bar are those of
        `noise_spectra` at the intracavity field it reports, bit for bit: one
        force-noise form on one pair of +/-omega_m blocks."""
        cases = [(prm, m, budget, constraint) for seed in (5, 6, 7, 8)
                 for prm, m, budget, constraint, _, _ in random_cooling_cases(seed)]
        cases += [(*case, constraint) for seed in (1, 901) for case in red_detuned_cases(seed)
                  for constraint in ("intracavity", "injected")]
        assert len(cases) == 96
        for prm, m, budget, constraint in cases:
            opt = optimize_pump(prm, m, budget, grid_size=8, constraint=constraint)
            spec = noise_spectra(prm, opt.field, [m.omega_m])
            assert opt.result == occupancy(m, float(spec.s_tilde_pos[0]),
                                           float(spec.s_tilde_neg[0])), constraint

    @pytest.mark.parametrize("constraint, solves", [("intracavity", 0), ("injected", 1)])
    def test_one_carrier_solve_at_most(self, monkeypatch, constraint, solves):
        # the pump reaches the intracavity field through one matrix W, so the
        # optimum's field needs no carrier solve of its own
        from msinoise import cooling

        calls = []

        def counting(*args):
            calls.append(args)
            return classical_fields(*args)

        monkeypatch.setattr(cooling, "classical_fields", counting)
        optimize_pump(cooling_params(), mode(), 1e16, grid_size=8, constraint=constraint)
        assert len(calls) == solves

    def test_injected_field_is_the_carrier_solve_of_its_pump(self):
        cases = [(prm, m, budget) for seed in (5, 6, 7, 8)
                 for prm, m, budget, constraint, _, _ in random_cooling_cases(seed)
                 if constraint == "injected"]
        cases += list(red_detuned_cases(1))
        for prm, m, budget in cases:
            opt = optimize_pump(prm, m, budget, grid_size=8, constraint="injected")
            v = math.sqrt(budget) * np.array(
                [math.cos(opt.chi), math.sin(opt.chi) * np.exp(1j * opt.phi)])
            e = opt.field.as_array()
            reference = classical_fields(prm, PortVector(*v)).as_array()
            assert np.abs(e - reference).max() <= 1e-13 * np.abs(e).max()

    def test_no_thermal_noise_and_rank_deficient_optics(self):
        # closed west port: F(-omega_m) has one nonzero column, so P- and,
        # with n_T = 0, A are singular; the anti-Stokes noise can be nulled
        base = cooling_params()
        prm = InterferometerParams(
            theta_m=base.theta_m, epsilon=base.epsilon, kappa=base.kappa,
            tau_s=base.tau_s, tau_w=base.tau_w, r_s=base.r_s, t_s=base.t_s,
            r_w=1.0, t_w=0.0, k_p=base.k_p,
        )
        for constraint in ("intracavity", "injected"):
            opt = optimize_pump(prm, mode(n_t=0.0), 1e16, grid_size=32,
                                constraint=constraint)
            finite = opt.n_bar_grid[np.isfinite(opt.n_bar_grid)]
            assert 0.0 <= opt.result.n_bar <= 1e-12
            assert opt.result.n_bar <= finite.min()

    def test_singular_pencil_ratio(self):
        # A = diag(1, 0): ratio 0 on its null space when B is positive there
        ratio, v0, v1 = _min_ratio((1.0, 0.0, 0j), (-1.0, 1.0, 0j))
        assert ratio == 0.0 and v0 == 0 and v1 != 0
        ratio, v0, v1 = _min_ratio((0.0, 0.0, 0j), (1.0, 1.0, 0j))
        assert ratio == 0.0 and abs(v0) + abs(v1) > 0
        with pytest.raises(UnstableSystem):
            _min_ratio((1.0, 0.0, 0j), (1.0, -1.0, 0j))
        with pytest.raises(UnstableSystem):
            _min_ratio((1.0, 1.0, 0j), (-1.0, -2.0, 0.5j))

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            optimize_pump(cooling_params(), mode(), 0.0)

    def test_rejects_nan_budget(self):
        with pytest.raises(ValueError, match="energy_budget = nan"):
            optimize_pump(cooling_params(), mode(), math.nan)

    def test_rejects_infinite_budget(self):
        with pytest.raises(ValueError, match="energy_budget = inf must be finite"):
            optimize_pump(cooling_params(), mode(), math.inf)


class TestPumpForIntracavity:
    def test_zero_field_needs_no_drive(self):
        prm = cooling_params()
        a = pump_for_intracavity(prm, IntracavityField(0, 0))
        assert a.west == 0.0 and a.south == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(41)
        prm = cooling_params(p=0.02)
        for _ in range(20):
            want = IntracavityField(
                *(rng.normal(size=2) + 1j * rng.normal(size=2)) * 1e8
            )
            pump = pump_for_intracavity(prm, want)
            got = classical_fields(prm, pump)
            assert abs(got.e_plus - want.e_plus) <= 1e-12 * abs(want.e_plus)
            assert abs(got.e_minus - want.e_minus) <= 1e-12 * abs(want.e_minus)

    def test_symmetric_field_needs_no_south_drive(self):
        prm = InterferometerParams(
            theta_m=0.1, epsilon=0.0, kappa=0.0, tau_s=1e-9, tau_w=1.1e-9,
            r_s=0.9, t_s=math.sqrt(0.19), r_w=0.0, t_w=1.0,
            k_p=2 * math.pi / 1.064e-6,
        )
        pump = pump_for_intracavity(prm, IntracavityField(2e8, 0.0))
        assert abs(pump.south) <= 1e-12 * abs(pump.west)

    def test_closed_port_is_unreachable(self):
        prm = InterferometerParams(
            theta_m=0.1, epsilon=0.05, kappa=0.02, tau_s=1e-9, tau_w=1.1e-9,
            r_s=0.9, t_s=math.sqrt(0.19), r_w=1.0, t_w=0.0,
            k_p=2 * math.pi / 1.064e-6,
        )
        with pytest.raises(UnreachableField):
            pump_for_intracavity(prm, IntracavityField(2e8, 1e8))

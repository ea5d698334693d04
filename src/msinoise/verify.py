"""Seeded invariant suite: every structural identity the model must satisfy.

Each check returns an InvariantResult; `run_all` drives the fixed list.  The same
functions back the CLI `verify` subcommand and the acceptance test module, so there is
exactly one definition of every tolerance: a constant stated in its own check, which no
argument or input overrides.  Each random ensemble draws its N sets as (N, 1) fields
against an (N, K) sideband grid, so one kernel call broadcasts each set over its K
sidebands, and is evaluated once, by its conditioning screen; `run_all` shares one
between ``symmetry_g_f`` and ``unitarity``, then drops it.  Each check evaluates only
what it compares: each search grid takes the one-sided force noise from one kernel call,
``fano_minimum``'s five steered carriers as (5, 1) fields on one (5, K) grid;
``exact_modes`` reads the exact r_w = 0 pole and its kappa-derivative in closed form
from the factors of one kernel call per asymmetry and one for both coupling zeros, with
no finite-difference step; and ``golden_determinism`` makes the CSV text of the
reference sweep once, in memory, for the frozen golden, and compares its rerun bit for
bit, writing no file.  ``oracle_equivalence`` solves its screen's (N, 1) sets as drawn
at omega_p +/- Omega and omega_p in one call, factorizing each system once for both
its drives, and takes every closed form it compares, the spring K1 included, from one
kernel call over the +/-Omega pair; the packaged P1 configuration is parsed once per
process.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .algebra import dagger
from .config import RunConfig, load_config
from .cooling import (
    MechanicalMode, occupancy_simplified, optimize_pump, pump_for_intracavity, thermal_spectra,
)
from .lumped_mode import (
    TARGET_TAU_S, approx_fields, coupling_constants, fano_dip, fano_spectrum, fano_steering,
    from_exact, params_for_targets, reduction_errors,
)
from .outputs import _spectrum_columns, _spectrum_lines
from .radiation_pressure import (
    _force_entries, _noise_form, _spring_entries, _spring_form, noise_spectra,
)
from .scattering import (
    HBAR,
    InterferometerParams,
    IntracavityField,
    PortVector,
    _displacement_entries,
    _scattering_entries,
    classical_fields,
    oracle_solve,
    sideband_blocks,
)

__all__ = ["InvariantResult", "run_all", "CHECK_NAMES"]

DEFAULT_SEED = 20240915
_STRUCTURAL_SETS = 1000  # random sets of the symmetry/unitarity ensemble
_ORACLE_CASES = 200  # random cases of the oracle check

#: angles/rates of the reduced-model convergence configuration; chosen with
#: all trigonometric factors O(1) so no matrix entry is accidentally small
_CONV_THETA = 0.15 * math.pi
_CONV_ALPHA = -0.5
_CONV_GAMMA_S = 2.5e6   # rad/s at p = 0.02; scales with p^2
_CONV_DELTA_S = -2.0e6  # rad/s at p = 0.02; scales with p^2
_CONV_FIELD = IntracavityField(3e8 * np.exp(0.3j), 2.2e8 * np.exp(-1.1j))


@dataclass(frozen=True, slots=True)
class InvariantResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str
    runtime_s: float = 0.0  # wall time of the check, set by `run_all`

    def __post_init__(self):
        # plain Python scalars, which print and serialise alike, whatever
        # numpy scalar type a check computed them as
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "measured", float(self.measured))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name:<22} measured {self.measured:.3e}  "
            f"tol {self.tolerance:.3e}  {self.detail}"
        )


def _random_params(rng: np.random.Generator, size=None) -> InterferometerParams:
    """One random parameter set, or sets as array fields of shape ``size``."""
    r_s = rng.uniform(0.0, 0.995, size)
    r_w = rng.uniform(0.0, 0.995, size)
    return InterferometerParams(
        theta_m=rng.uniform(0.0, math.pi / 2, size),
        epsilon=rng.uniform(-0.7, 0.7, size),
        kappa=rng.uniform(-2.0, 2.0, size),
        tau_s=rng.uniform(0.5e-9, 2.0e-9, size),
        tau_w=rng.uniform(0.5e-9, 2.0e-9, size),
        r_s=r_s,
        t_s=np.sqrt(1.0 - r_s**2),
        r_w=r_w,
        t_w=np.sqrt(1.0 - r_w**2),
        k_p=rng.uniform(4.0e6, 8.0e6, size),
    )


def _well_conditioned_cases(rng, n_sets: int, n_omegas: int, floor: float = 1e-3):
    """``n_sets`` random sets with ``n_omegas`` sidebands each, redrawing only
    the sets with |det D_e| < ``floor`` at a sideband or the carrier, so
    oracle-vs-closed-form comparisons are not dominated by conditioning.
    Returns the sets as (n_sets, 1) fields, their (n_sets, n_omegas)
    sidebands and the checked blocks there, which broadcast each set over
    its sidebands; nothing is kept between calls (`run_all` shares a result).
    """
    params = _random_params(rng, (n_sets, 1))
    omegas = rng.uniform(-1.0e9, 1.0e9, size=(n_sets, n_omegas))
    while True:
        blocks = sideband_blocks(params, omegas)
        carrier = sideband_blocks(params, np.zeros((n_sets, 1))).d
        worst = np.minimum(np.abs(blocks.d).min(axis=1), np.abs(carrier[:, 0]))
        redo = np.flatnonzero(worst < floor)
        if redo.size == 0:
            return params, omegas, blocks.checked()
        fresh = _random_params(rng, (redo.size, 1))  # validated as it is drawn
        for name, column in vars(params).items():
            column[redo] = vars(fresh)[name]
        omegas[redo] = rng.uniform(-1.0e9, 1.0e9, size=(redo.size, n_omegas))


def _structural_cases(seed: int):
    """The ensemble of `check_symmetry` and `check_unitarity`, their default ``draw``."""
    return _well_conditioned_cases(np.random.default_rng(seed), _STRUCTURAL_SETS, 5)


def check_symmetry(seed: int, *, draw=_structural_cases) -> InvariantResult:
    """Displacement transfer equals the dagger of the force transfer."""
    tol = 1e-12
    params, _, b = draw(seed)
    f = _force_entries(b)
    g = _displacement_entries(b)
    dev = np.abs(g - dagger(f)).max(axis=(0, 1)) / np.abs(f).max(axis=(0, 1))
    worst = float(dev.max())
    return InvariantResult(
        "symmetry_g_f", worst <= tol, worst, tol,
        f"{_STRUCTURAL_SETS} random sets x 5 sidebands",
    )


def check_unitarity(seed: int, *, draw=_structural_cases) -> InvariantResult:
    """The two-port scattering matrix is unitary (lossless network).

    R^dagger R - 1 is formed entry by entry, independent of the BLAS kernel.
    """
    tol = 1e-10
    params, _, b = draw(seed)
    (r00, r01), (r10, r11) = _scattering_entries(params, b)
    col0 = r00.real**2 + r00.imag**2 + (r10.real**2 + r10.imag**2)
    col1 = r01.real**2 + r01.imag**2 + (r11.real**2 + r11.imag**2)
    cross = r00.conjugate() * r01 + r10.conjugate() * r11
    worst = max(float(np.abs(col0 - 1.0).max()), float(np.abs(col1 - 1.0).max()),
                float(np.abs(cross).max()))
    return InvariantResult(
        "unitarity", worst <= tol, worst, tol,
        f"{_STRUCTURAL_SETS} random sets x 5 sidebands",
    )


def _s_tilde_pos(params: InterferometerParams, field: IntracavityField, grid) -> np.ndarray:
    """S_tilde(+Omega) alone over ``grid``, N^2 s: the ``s_tilde_pos`` column of
    `noise_spectra`, bit for bit, from one kernel call without the -Omega
    blocks; raises OpticalSingularity at a singular sideband."""
    b = sideband_blocks(params, grid).checked()
    return _noise_form(params.k_p, field.as_array(), _force_entries(b))


def _rel_dev(value: np.ndarray, ref: np.ndarray) -> float:
    """Worst per-case deviation of (2, ...) ``value`` from ``ref``, relative to max |ref|."""
    return float((np.abs(value - ref).max(axis=0) / np.abs(ref).max(axis=0)).max())


def check_oracle(seed: int) -> InvariantResult:
    """Closed forms agree with the dense solve of the raw field equations.

    Each within 1e-10: R_ifo a and R (i k_p G E x) at +/-Omega, the carrier fields,
    and the optical spring K1.  The membrane feels the force hbar k_p E^dagger N e of the field e
    towards it, N = 2 R_m [[0, m*], [m, 0]], so a displacement x moving e by
    e(+/-Omega) gives K1 = -hbar k_p [E^dagger N e(+Omega) + (E^dagger N e(-Omega))*] / x
    with E = e_cl.  The (3, N, 1) cases omega_p +/- Omega and omega_p are factorized
    once, in one call, for both drives: the port drive a and the displacement x.
    """
    tol = 1e-10
    rng = np.random.default_rng(seed)
    params, omegas, _ = _well_conditioned_cases(rng, _ORACLE_CASES, 1)
    pair = (2, _ORACLE_CASES, 1)
    a = PortVector(*(rng.normal(size=pair) + 1j * rng.normal(size=pair)))
    e_cl = IntracavityField(*((rng.normal(size=pair) + 1j * rng.normal(size=pair)) * 1e8))
    x, e = 1e-15, e_cl.as_array()
    b = sideband_blocks(params, np.stack([omegas, -omegas])).checked()
    r = _scattering_entries(params, b)

    apply = "ij...,j...->i..."  # each (2, 2) matrix of a stack times its column

    # drive 0: the port inputs a alone; drive 1: the displacement x alone
    inputs = PortVector(*(np.stack([v, np.zeros_like(v)])[:, np.newaxis] for v in a.as_array()))
    cases = np.concatenate([b.omega, params.omega_p[np.newaxis]])
    sol = oracle_solve(params, cases, inputs, np.array([0.0, x]).reshape(2, 1, 1, 1), e_cl)
    port, moved, to_membrane = sol.b[:, 0, :2], sol.b[:, 1, :2], sol.e[:, 1, :2]
    g_e = np.einsum(apply, 1j * params.k_p * _displacement_entries(b), e)

    m = np.exp(1j * params.theta_m)
    force = 2 * params.r_m * (e[0].conj() * m.conj() * to_membrane[1]
                              + e[1].conj() * m * to_membrane[0])
    dense_k1 = -HBAR * params.k_p * (force[0] + force[1].conj()) / x
    k1 = _spring_form(params.k_p, e, _spring_entries(b))
    parts = {"R_ifo": _rel_dev(port, np.einsum(apply, r, a.as_array())),
             "G.E": _rel_dev(moved, np.einsum(apply, r, g_e * x)),
             "carrier": _rel_dev(sol.e[:, 0, 2], classical_fields(params, a).as_array()),
             "K1": float((np.abs(dense_k1 - k1) / np.abs(k1)).max())}
    worst = max(parts.values())
    return InvariantResult(
        "oracle_equivalence", worst <= tol, worst, tol,
        f"{_ORACLE_CASES} random cases incl. power recycling, +/-Omega: "
        + ", ".join(f"{name}={dev:.1e}" for name, dev in parts.items()),
    )


@functools.cache
def _p1_config() -> RunConfig:
    """The reference configuration P1, as packaged in ``data/p1.json``.

    Parsed once per process; every caller shares the result, so its grid
    is read-only.
    """
    with resources.as_file(resources.files("msinoise.data") / "p1.json") as path:
        cfg = load_config(path)
    cfg.grid.flags.writeable = False
    return cfg


def _conv_params(p: float) -> InterferometerParams:
    """The convergence configuration at asymmetry p, regime scaling held fixed."""
    scale = (p / 0.02) ** 2
    return params_for_targets(
        gamma_s=_CONV_GAMMA_S * scale,
        delta_s=_CONV_DELTA_S * scale,
        theta_m=_CONV_THETA,
        p=p,
        alpha=_CONV_ALPHA,
    )


def _convergence_errors(p: float) -> tuple[float, float, float]:
    params = _conv_params(p)
    lp = from_exact(params)
    grid = np.linspace(-5 * lp.gamma, 5 * lp.gamma, 41)
    errors = reduction_errors(params, _CONV_FIELD, grid)
    return tuple(float(err.max()) for err in errors)


def check_convergence(seed: int) -> InvariantResult:
    """Reduced model converges to the exact one as the asymmetry shrinks.

    With the regime scaling held fixed (gamma_s tau_s and delta_s tau_s
    proportional to p^2), the worst relative error over |Omega| <= 5 gamma
    must be <= 10 p at p = 0.02 for each of F, K and the force noise,
    and the combined worst error must fall by 0.25 +/- 50% per p-halving.
    """
    tol = 10.0 * 0.02
    p_values = (0.02, 0.01, 0.005)
    errors = {p: _convergence_errors(p) for p in p_values}
    worst_at_02 = max(errors[0.02])
    combined = [max(errors[p]) for p in p_values]
    ratios = [combined[i + 1] / combined[i] for i in range(2)]
    ratio_ok = all(0.125 <= r <= 0.375 for r in ratios)
    passed = worst_at_02 <= tol and ratio_ok
    detail = (
        f"err(F,K,S)@p=0.02 = ({errors[0.02][0]:.3e}, {errors[0.02][1]:.3e}, "
        f"{errors[0.02][2]:.3e}), halving ratios {ratios[0]:.2f}, {ratios[1]:.2f}"
    )
    return InvariantResult("lumped_convergence", passed, worst_at_02, tol, detail)


def check_canonical(seed: int) -> InvariantResult:
    """A symmetric field's exact noise and spring match the reduced ones, as
    `reduction_errors` measures them over |Omega| <= 5 gamma; its FWHM is 2 gamma."""
    p = 0.01
    tol = 10.0 * p
    params = _conv_params(p)
    lp = from_exact(params)
    field = IntracavityField(3e8, 0.0)

    grid = np.linspace(-5 * lp.gamma, 5 * lp.gamma, 41)
    _, err_k, err_s = reduction_errors(params, field, grid[grid != 0.0])
    err_s, err_k = float(err_s.max()), float(err_k.max())

    # FWHM of the exact spectrum against the canonical 2 gamma
    peak_grid = np.linspace(-lp.delta - 4 * lp.gamma, -lp.delta + 4 * lp.gamma, 4001)
    vals = _s_tilde_pos(params, field, peak_grid)
    peak = vals.max()
    above = vals >= peak / 2.0
    lo_i = int(np.argmax(above))
    hi_i = len(above) - 1 - int(np.argmax(above[::-1]))

    def _cross(i0, i1):
        x0, x1 = peak_grid[i0], peak_grid[i1]
        y0, y1 = vals[i0], vals[i1]
        return x0 + (peak / 2.0 - y0) * (x1 - x0) / (y1 - y0)

    fwhm = _cross(hi_i, hi_i + 1) - _cross(lo_i, lo_i - 1)
    err_w = abs(fwhm - 2 * lp.gamma) / (2 * lp.gamma)

    passed = err_s <= tol and err_k <= tol and err_w <= 0.01
    detail = f"err_S={err_s:.3e}, err_K={err_k:.3e}, FWHM dev {err_w:.3e} (tol 1e-2)"
    return InvariantResult(
        "canonical_limit", passed, max(err_s, err_k), tol, detail
    )


def check_fano(seed: int) -> InvariantResult:
    """The exact Fano dip lies at `fano_dip`, and a two-port carrier steers it.

    Bright-port-only pumping dips within 0.05 gamma of `fano_dip` of its reduced carrier
    (3 001 points over +/-1.5 gamma), where the reduced line shape is within 10 p.  The
    `fano_steering` carriers of the targets dip, dip - 0.7 gamma, dip + 0.5 gamma, 0 and
    gamma dip within 0.05 gamma of theirs (601 points each over +/-1.5 gamma), and the
    pump of the one aimed at the dip has |A_s/A_w| <= 1e-4."""
    tol, p = 0.05, 0.02
    gamma_s = p**2 / 50.0 / TARGET_TAU_S  # deep dip: gamma_m / gamma_s = 50
    params = params_for_targets(  # purely dissipative asymmetry, theta_m - alpha = pi / 2
        gamma_s=gamma_s, delta_s=0.15 * (gamma_s + p**2 / TARGET_TAU_S), theta_m=_CONV_THETA,
        p=p, alpha=_CONV_THETA - math.pi / 2.0)
    lp = from_exact(params)
    pump = PortVector(west=math.sqrt(1e16), south=0.0)
    field, reduced = classical_fields(params, pump), approx_fields(params, pump)

    dip = fano_dip(lp, reduced).real
    grid = np.linspace(dip - 1.5 * lp.gamma, dip + 1.5 * lp.gamma, 3001)
    s_exact = _s_tilde_pos(params, field, grid)
    # the reduced line shape of the reduced carrier tracks it too
    err_shape = float(np.max(np.abs(s_exact - fano_spectrum(lp, reduced, grid)) / s_exact))
    # the dark-south target, then the steered ones as (5, 1) fields, a grid row each
    targets = np.array([dip, dip, dip - 0.7 * lp.gamma, dip + 0.5 * lp.gamma, 0.0, lp.gamma])
    steered = IntracavityField(1e8, 1e8 * fano_steering(lp, targets[1:, np.newaxis]))
    rows = targets[1:, np.newaxis] + np.linspace(-1.5 * lp.gamma, 1.5 * lp.gamma, 601)
    s_rows = _s_tilde_pos(params, steered, rows)
    found = [grid[s_exact.argmin()], *rows[range(5), s_rows.argmin(axis=1)]]
    devs = (found - targets) / lp.gamma
    aimed = pump_for_intracavity(params, IntracavityField(1e8, steered.e_minus[0, 0]))
    ratio = abs(aimed.south / aimed.west)
    worst = float(np.abs(devs).max())
    passed = worst <= tol and err_shape <= 10.0 * p and ratio <= 1e-4
    detail = (f"argmin devs (dark, 5 steered) {', '.join(f'{d:+.1e}' for d in devs)} gamma, "
              f"line-shape err {err_shape:.3e}, steered |A_s/A_w| {ratio:.1e}")
    return InvariantResult("fano_minimum", passed, worst, tol, detail)


def check_fdt_kubo(seed: int) -> InvariantResult:
    """Thermal spectra satisfy FDT+Kubo; optical damping matches -Im K / Omega.

    The pair identities are checked at a small occupation: their difference
    form loses one digit per decade of n_T to cancellation, so n_T = O(1)
    is where a 1e-14 statement is meaningful.
    """
    tol = 1e-8
    fdt = kubo = 0.0
    for n_t in (0.0, 3.5, 11.0):
        mode = MechanicalMode(omega_m=2 * math.pi * 1.3e6, h_friction=2.4e-12,
                              n_thermal=n_t)
        s_pos, s_neg = thermal_spectra(mode)
        base = HBAR * mode.omega_m * mode.h_friction
        fdt = max(fdt, abs((s_pos + s_neg) / 2.0 - base * (2 * n_t + 1)) / (
            base * (2 * n_t + 1)
        ))
        kubo = max(kubo, abs(
            (s_pos - s_neg) / (2 * HBAR) - mode.omega_m * mode.h_friction
        ) / (mode.omega_m * mode.h_friction))
    pair_ok = fdt <= 1e-14 and kubo <= 1e-14

    cfg = _p1_config()
    params, field = cfg.params, classical_fields(cfg.params, cfg.pump)
    grid = np.linspace(2 * math.pi * 1e5, 2 * math.pi * 2e6, 20)
    spec = noise_spectra(params, field, grid)
    im_k = spec.k.imag
    worst = float(np.max(np.abs(spec.grid * spec.h_opt + im_k) / np.abs(im_k)))
    passed = pair_ok and worst <= tol
    detail = f"FDT dev {fdt:.1e}, Kubo dev {kubo:.1e}, optical route dev {worst:.3e}"
    return InvariantResult("fdt_kubo", passed, worst, tol, detail)


def check_cooling_optimum(seed: int) -> InvariantResult:
    """Fixed intracavity energy: symmetric pumping cools best."""
    tol = 1e-3
    params = params_for_targets(
        gamma_s=2.5e6,
        delta_s=-2.5e7,     # red-detuned by the mechanical frequency
        theta_m=_CONV_THETA,
        p=1e-4,
        alpha=_CONV_ALPHA,
    )
    mode = MechanicalMode(omega_m=2.5e7, h_friction=1e-12, n_thermal=1e4)

    # scale the budget so the resonant force noise matches the thermal one
    p11 = _s_tilde_pos(params, IntracavityField(1.0, 0.0), [mode.omega_m])[0]
    s_t_neg = thermal_spectra(mode)[1]
    budget = s_t_neg / p11

    opt = optimize_pump(params, mode, budget)
    finite = opt.n_bar_grid[np.isfinite(opt.n_bar_grid)]
    dominated = bool(opt.result.n_bar <= finite.min() + 1e-30)
    e = opt.field.as_array()
    ratio = abs(e[1]) / abs(e[0])

    simple = occupancy_simplified(mode, opt.result.s_f_pos)
    agreement = abs(opt.result.n_bar - simple) / opt.result.n_bar
    flags_ok = opt.result.flags.ok

    passed = dominated and ratio <= tol and flags_ok and agreement <= 0.05
    detail = (
        f"|E-/E+|={ratio:.2e}, grid-dominated={dominated}, "
        f"simplified dev {agreement:.3e} (flags ok={flags_ok}), "
        f"n_bar={opt.result.n_bar:.3f}"
    )
    return InvariantResult("cooling_optimum", passed, ratio, tol, detail)


def _exact_mode(params: InterferometerParams, b) -> tuple:
    """(N_s, Omega* + delta_s, g) of the exact r_w = 0 pole Omega* nearest the carrier,
    from the factors of its blocks ``b``: det D_e = 1 - rho_s N_s, N_s = C*^2 m* + S*^2 m,
    and by `from_exact`'s round trip 2 omega_p tau_s = 2 delta_s tau_s + theta_m (mod 2 pi)
    Omega* = i log(r_s N_s m) / (2 tau_s) - delta_s = -delta - i gamma.  As dC/dkappa = i S
    and dS/dkappa = i C, g = k_p dOmega*/dkappa = 2 k_p R_m C* S* / (tau_s N_s) in closed
    form: g_disp = Re g and g_diss_combo = Im g / sqrt(gamma_m)."""
    c, s, m, c_bar, s_bar, m_bar = b.factors
    n_s = c_bar**2 * m_bar + s_bar**2 * m
    offset = 1j * np.log(params.r_s * n_s * m) / (2 * params.tau_s)
    return n_s, offset, 2 * params.k_p * params.r_m * c_bar * s_bar / (params.tau_s * n_s)


def check_exact_modes(seed: int) -> InvariantResult:
    """The reduced record and its couplings are the exact r_w = 0 pole to O(p^2).

    At p = 0.02, 0.01, 0.005 of the convergence configuration the errors of gamma, delta
    (in gamma), g_disp and g_diss_combo against `from_exact` and `coupling_constants`,
    and the exact dispersive share |Re g|/|g| at theta_m - alpha = pi/2 and dissipative
    share |Im g|/|g| at theta_m = alpha, are <= 2x their p = 0.02 values when frozen and
    fall x0.25 (within 50%) per p-halving; Im g has the nonzero sign of g_diss_combo and
    det D_e = 1 - rho_s N_s within 4 eps for |Omega| <= 5 gamma.
    """
    tol = 9.0e-3
    p_values = np.array([0.02, 0.01, 0.005])
    errors, det_dev, signs_ok = [], 0.0, True
    for p in p_values:
        params = _conv_params(p)
        lp = from_exact(params)
        b = sideband_blocks(params, np.linspace(-5 * lp.gamma, 5 * lp.gamma, 101))
        n_s, offset, g = _exact_mode(params, b)
        det_dev = max(det_dev, float(np.abs(b.d - (1.0 - b.r_tilde[1] * n_s)).max()))
        reduced, combo = coupling_constants(lp), g.imag / math.sqrt(lp.gamma_m)
        signs_ok &= bool(np.sign(combo) == np.sign(reduced.g_diss_combo) != 0.0)
        errors.append([abs(-offset.imag / lp.gamma - 1), abs(offset.real + lp.delta_m) / lp.gamma,
                       abs(g.real / reduced.g_disp - 1), abs(combo / reduced.g_diss_combo - 1)])
    # the two zeros as rows, p as columns, of the last set's other fields
    alpha = np.array([[_CONV_THETA - math.pi / 2], [_CONV_THETA]])
    zeros = replace(params, epsilon=p_values * np.cos(alpha), kappa=p_values * np.sin(alpha))
    g = _exact_mode(zeros, sideband_blocks(zeros, 0.0))[2]
    shares = [np.abs(g[0].real), np.abs(g[1].imag)] / np.abs(g)
    curves = np.concatenate([np.array(errors).T, shares])  # (quantity, p)
    ratios = curves[:, 1:] / curves[:, :-1]
    bounds = 2 * np.array([4.50e-3, 3.98e-5, 1.07e-3, 1.60e-4, 1.30e-4, 1.93e-4])  # 2x frozen
    passed = (np.all(curves[:, 0] <= bounds) and np.all((ratios >= 0.125) & (ratios <= 0.375))
              and signs_ok and det_dev <= 4 * np.finfo(float).eps)
    at_002 = ", ".join(f"{e:.2e}" for e in curves[:, 0])
    detail = (f"err(gamma,delta,g_disp,combo), zero shares (disp,diss)@p=0.02 = ({at_002}), "
              f"halving ratios {ratios.min():.2f}-{ratios.max():.2f}, det dev {det_dev:.1e}, "
              f"signs ok={signs_ok}")
    return InvariantResult("exact_modes", passed, curves[0, 0], tol, detail)


def check_golden(seed: int) -> InvariantResult:
    """The reference sweep is bit-stable across runs and matches the frozen CSV.

    The first run of P1 is made into CSV text, the bytes `run_spectrum`
    writes to spectrum.csv, and compared with the frozen golden; the sidecar
    is not compared.  The rerun is not formatted: its seven printed columns
    are compared with the first run's bit for bit, which is as strict as
    comparing their text, since every value is finite and `repr` gives each
    double its own text.
    """
    cfg = _p1_config()
    golden = resources.files("msinoise.data") / "p1_spectrum_golden.csv"
    lines, spec, _ = _spectrum_lines(cfg)
    first = "".join(lines)
    again = _spectrum_lines(cfg)[1]
    stable = all(one.tobytes() == other.tobytes() for one, other in
                 zip(_spectrum_columns(spec), _spectrum_columns(again)))
    if golden.is_file():
        frozen_same = first.encode() == golden.read_bytes()
        frozen_note = "matches frozen golden" if frozen_same else "DIFFERS from frozen golden"
    else:
        frozen_same = False
        frozen_note = "frozen golden missing"
    passed = stable and frozen_same
    mismatches = float(not stable) + float(not frozen_same)
    detail = f"rerun identical={stable}, {frozen_note}"
    return InvariantResult("golden_determinism", passed, mismatches, 0.5, detail)


CHECK_NAMES = {
    "symmetry_g_f": check_symmetry,
    "unitarity": check_unitarity,
    "oracle_equivalence": check_oracle,
    "lumped_convergence": check_convergence,
    "canonical_limit": check_canonical,
    "fano_minimum": check_fano,
    "fdt_kubo": check_fdt_kubo,
    "cooling_optimum": check_cooling_optimum,
    "exact_modes": check_exact_modes,
    "golden_determinism": check_golden,
}


def run_all(seed: int = DEFAULT_SEED) -> list[InvariantResult]:
    """Run every invariant check, each at the tolerance it states."""
    draw = functools.lru_cache(maxsize=1)(_structural_cases)  # this call only
    results = []
    for name, fun in CHECK_NAMES.items():
        # symmetry_g_f draws the ensemble that unitarity reuses
        kwargs = {"draw": draw} if name in ("symmetry_g_f", "unitarity") else {}
        start = time.perf_counter()
        result = fun(seed, **kwargs)
        results.append(replace(result, runtime_s=time.perf_counter() - start))
        if name == "unitarity":
            draw.cache_clear()
    return results

"""Seeded invariant suite: every structural identity the model must satisfy.

Each check returns an InvariantResult; `run_all` drives the fixed list.
The same functions back the CLI `verify` subcommand and the acceptance
test module, so there is exactly one definition of every tolerance.
"""
from __future__ import annotations

import filecmp
import math
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .algebra import dagger
from .config import load_config
from .cooling import MechanicalMode, occupancy, occupancy_simplified, optimize_pump
from .lumped_mode import (
    canonical_spectra,
    coupling_constants,
    fano_spectrum,
    from_exact,
    params_for_targets,
    reduction_errors,
)
from .outputs import run_spectrum
from .radiation_pressure import _force_entries, force_transfer, noise_spectra
from .scattering import (
    HBAR,
    InterferometerParams,
    IntracavityField,
    PortVector,
    _displacement_entries,
    _scattering_entries,
    classical_fields,
    displacement_transfer,
    oracle_solve,
    scattering_matrix,
    sideband_blocks,
)

__all__ = ["InvariantResult", "run_all", "CHECK_NAMES"]

DEFAULT_SEED = 20240915

#: angles/rates of the reduced-model convergence configuration; chosen with
#: all trigonometric factors O(1) so no matrix entry is accidentally small
_CONV_THETA = 0.15 * math.pi
_CONV_ALPHA = -0.5
_CONV_GAMMA_S = 2.5e6   # rad/s at p = 0.02; scales with p^2
_CONV_DELTA_S = -2.0e6  # rad/s at p = 0.02; scales with p^2
_CONV_FIELD = IntracavityField(3e8 * np.exp(0.3j), 2.2e8 * np.exp(-1.1j))


@dataclass(frozen=True)
class InvariantResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name:<22} measured {self.measured:.3e}  "
            f"tol {self.tolerance:.3e}  {self.detail}"
        )


def _random_params(rng: np.random.Generator) -> InterferometerParams:
    r_s = rng.uniform(0.0, 0.995)
    r_w = rng.uniform(0.0, 0.995)
    return InterferometerParams(
        theta_m=rng.uniform(0.0, math.pi / 2),
        epsilon=rng.uniform(-0.7, 0.7),
        kappa=rng.uniform(-2.0, 2.0),
        tau_s=rng.uniform(0.5e-9, 2.0e-9),
        tau_w=rng.uniform(0.5e-9, 2.0e-9),
        r_s=r_s,
        t_s=math.sqrt(1.0 - r_s**2),
        r_w=r_w,
        t_w=math.sqrt(1.0 - r_w**2),
        k_p=rng.uniform(4.0e6, 8.0e6),
    )


def _well_conditioned_case(rng, n_omegas: int):
    """Random parameters plus sideband frequencies clear of resonances.

    Keeps |det D_e| >= 1e-3 at every sideband and at the carrier so
    oracle-vs-closed-form comparisons are not dominated by conditioning;
    resamples otherwise.
    """
    while True:
        params = _random_params(rng)
        omegas = rng.uniform(-1.0e9, 1.0e9, size=n_omegas)
        if np.abs(sideband_blocks(params, np.append(omegas, 0.0)).d).min() >= 1e-3:
            return params, omegas


def check_symmetry(seed: int, tol: float = 1e-12, n_sets: int = 1000) -> InvariantResult:
    """Displacement transfer equals the dagger of the force transfer."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_sets):
        params, omegas = _well_conditioned_case(rng, 5)
        b = sideband_blocks(params, omegas).checked()
        f = _force_entries(params, b)
        g = _displacement_entries(params, b)
        dev = np.abs(g - dagger(f)).max(axis=(0, 1)) / np.abs(f).max(axis=(0, 1))
        worst = max(worst, float(dev.max()))
    return InvariantResult(
        "symmetry_g_f", worst <= tol, worst, tol,
        f"{n_sets} random sets x 5 sidebands",
    )


def check_unitarity(seed: int, tol: float = 1e-10, n_sets: int = 1000) -> InvariantResult:
    """The two-port scattering matrix is unitary (lossless network).

    R^dagger R - 1 is formed entry by entry, independent of the BLAS kernel.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_sets):
        params, omegas = _well_conditioned_case(rng, 5)
        (r00, r01), (r10, r11) = _scattering_entries(
            params, sideband_blocks(params, omegas).checked()
        )
        col0 = r00.real**2 + r00.imag**2 + (r10.real**2 + r10.imag**2)
        col1 = r01.real**2 + r01.imag**2 + (r11.real**2 + r11.imag**2)
        cross = r00.conjugate() * r01 + r10.conjugate() * r11
        worst = max(worst, float(np.abs(col0 - 1.0).max()),
                    float(np.abs(col1 - 1.0).max()), float(np.abs(cross).max()))
    return InvariantResult(
        "unitarity", worst <= tol, worst, tol,
        f"{n_sets} random sets x 5 sidebands",
    )


def _rel_dev(value: np.ndarray, ref: np.ndarray) -> float:
    """Largest deviation of ``value`` from ``ref``, relative to the largest |ref|."""
    return float(np.abs(value - ref).max() / np.abs(ref).max())


def check_oracle(seed: int, tol: float = 1e-10, n_cases: int = 200) -> InvariantResult:
    """Closed forms agree with the dense solve of the raw field equations."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        params, omegas = _well_conditioned_case(rng, 1)
        omega = params.omega_p + omegas[0]
        a = PortVector(*(rng.normal(size=2) + 1j * rng.normal(size=2)))
        e_cl = IntracavityField(*((rng.normal(size=2) + 1j * rng.normal(size=2)) * 1e8))
        x = 1e-15

        sol = oracle_solve(params, omega, a, 0.0, e_cl)
        r = scattering_matrix(params, omegas[0])
        worst = max(worst, _rel_dev(sol.b, r @ a.as_array()))

        sol = oracle_solve(params, omega, PortVector(0, 0), x, e_cl)
        g = 1j * params.k_p * displacement_transfer(params, omegas[0])
        worst = max(worst, _rel_dev(sol.b, r @ (g @ e_cl.as_array() * x)))

        sol = oracle_solve(params, params.omega_p, a, 0.0, IntracavityField(0, 0))
        worst = max(worst, _rel_dev(sol.e, classical_fields(params, a).as_array()))
    return InvariantResult(
        "oracle_equivalence", worst <= tol, worst, tol,
        f"{n_cases} random cases incl. power recycling",
    )


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


def _convergence_errors(p: float, n_grid: int = 41) -> tuple[float, float, float]:
    params = _conv_params(p)
    lp = from_exact(params)
    grid = np.linspace(-5 * lp.gamma, 5 * lp.gamma, n_grid)
    errors = reduction_errors(params, lp, _CONV_FIELD, grid)
    return tuple(float(err.max()) for err in errors)


def check_convergence(seed: int, tol: float = 10.0) -> InvariantResult:
    """Reduced model converges to the exact one as the asymmetry shrinks.

    With the regime scaling held fixed (gamma_s tau_s and delta_s tau_s
    proportional to p^2), the worst relative error over |Omega| <= 5 gamma
    must be <= tol * p at p = 0.02 for each of F, K and the force noise,
    and the combined worst error must fall by 0.5 +/- 50% per p-halving.
    """
    p_values = (0.02, 0.01, 0.005)
    errors = {p: _convergence_errors(p) for p in p_values}
    cap = tol * 0.02
    worst_at_02 = max(errors[0.02])
    combined = [max(errors[p]) for p in p_values]
    ratios = [combined[i + 1] / combined[i] for i in range(2)]
    ratio_ok = all(0.25 <= r <= 0.75 for r in ratios)
    passed = worst_at_02 <= cap and ratio_ok
    detail = (
        f"err(F,K,S)@p=0.02 = ({errors[0.02][0]:.3e}, {errors[0.02][1]:.3e}, "
        f"{errors[0.02][2]:.3e}), halving ratios {ratios[0]:.2f}, {ratios[1]:.2f}"
    )
    return InvariantResult("lumped_convergence", passed, worst_at_02, cap, detail)


def check_canonical(seed: int, tol: float = 10.0) -> InvariantResult:
    """Symmetric pumping reproduces the canonical Lorentzian spectrum/spring."""
    p = 0.01
    params = _conv_params(p)
    lp = from_exact(params)
    field = IntracavityField(3e8, 0.0)
    k_p = params.k_p
    cap = tol * p

    grid = np.linspace(-5 * lp.gamma, 5 * lp.gamma, 41)
    grid = grid[grid != 0.0]
    exact = noise_spectra(params, field, grid)
    canon = canonical_spectra(lp, k_p, field.e_plus, grid)
    err_s = float(np.max(np.abs(exact.s_tilde_pos - canon.s_tilde_pos)
                         / canon.s_tilde_pos))
    err_k = float(np.max(np.abs(exact.k - canon.k) / np.abs(canon.k)))

    # FWHM of the exact spectrum against the canonical 2 gamma
    peak_grid = np.linspace(-lp.delta - 4 * lp.gamma, -lp.delta + 4 * lp.gamma, 4001)
    spec = noise_spectra(params, field, peak_grid)
    vals = spec.s_tilde_pos
    peak = vals.max()
    above = vals >= peak / 2.0
    lo_i = int(np.argmax(above))
    hi_i = len(above) - 1 - int(np.argmax(above[::-1]))

    def _cross(i0, i1):
        x0, x1 = spec.grid[i0], spec.grid[i1]
        y0, y1 = vals[i0], vals[i1]
        return x0 + (peak / 2.0 - y0) * (x1 - x0) / (y1 - y0)

    fwhm = _cross(hi_i, hi_i + 1) - _cross(lo_i, lo_i - 1)
    err_w = abs(fwhm - 2 * lp.gamma) / (2 * lp.gamma)

    passed = err_s <= cap and err_k <= cap and err_w <= 0.01
    detail = f"err_S={err_s:.3e}, err_K={err_k:.3e}, FWHM dev {err_w:.3e} (tol 1e-2)"
    return InvariantResult(
        "canonical_limit", passed, max(err_s, err_k), cap, detail
    )


def check_fano(seed: int, tol: float = 0.05) -> InvariantResult:
    """Bright-port-only pumping dips at Omega = -2 delta_s + 2 eps kap / tau_s."""
    p = 0.02
    tau_s = 1.0e-9
    gamma_s = p**2 / 50.0 / tau_s       # deep dip: gamma_m / gamma_s = 50
    theta = _CONV_THETA
    alpha = theta - math.pi / 2.0       # purely dissipative asymmetry
    gamma_total = gamma_s + p**2 / tau_s
    params = params_for_targets(
        gamma_s=gamma_s,
        delta_s=0.15 * gamma_total,
        theta_m=theta,
        p=p,
        alpha=alpha,
        tau_s=tau_s,
    )
    lp = from_exact(params)
    pump = PortVector(west=math.sqrt(1e16), south=0.0)
    field = classical_fields(params, pump)

    predicted = -2.0 * lp.delta_s + 2.0 * params.epsilon * params.kappa / tau_s
    grid = np.linspace(predicted - 1.5 * lp.gamma, predicted + 1.5 * lp.gamma, 3001)
    spec = noise_spectra(params, field, grid)
    found = float(spec.grid[np.argmin(spec.s_tilde_pos)])
    dev = abs(found - predicted) / lp.gamma

    # the closed-form line shape should also track the exact spectrum
    shape = fano_spectrum(lp, params.epsilon, params.kappa, params.k_p,
                          pump.west, spec.grid)
    err_shape = float(np.max(np.abs(spec.s_tilde_pos - shape) / spec.s_tilde_pos))

    passed = dev <= tol and err_shape <= 10.0 * p
    detail = f"argmin dev {dev:.3e} gamma, line-shape err {err_shape:.3e}"
    return InvariantResult("fano_minimum", passed, dev, tol, detail)


def check_fdt_kubo(seed: int, tol: float = 1e-8) -> InvariantResult:
    """Thermal spectra satisfy FDT+Kubo; optical damping matches -Im K / Omega.

    The pair identities are checked at a small occupation: their difference
    form loses one digit per decade of n_T to cancellation, so n_T = O(1)
    is where a 1e-14 statement is meaningful.
    """
    from .cooling import thermal_spectra
    from .reference import p1_params, p1_pump

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

    params = p1_params()
    field = classical_fields(params, p1_pump())
    grid = np.linspace(2 * math.pi * 1e5, 2 * math.pi * 2e6, 20)
    spec = noise_spectra(params, field, grid)
    im_k = spec.k.imag
    worst = float(np.max(np.abs(spec.grid * spec.h_opt + im_k) / np.abs(im_k)))
    passed = pair_ok and worst <= tol
    detail = f"FDT dev {fdt:.1e}, Kubo dev {kubo:.1e}, optical route dev {worst:.3e}"
    return InvariantResult("fdt_kubo", passed, worst, tol, detail)


def check_cooling_optimum(seed: int, tol: float = 1e-3) -> InvariantResult:
    """Fixed intracavity energy: symmetric pumping cools best."""
    params = params_for_targets(
        gamma_s=2.5e6,
        delta_s=-2.5e7,     # red-detuned by the mechanical frequency
        theta_m=_CONV_THETA,
        p=1e-4,
        alpha=_CONV_ALPHA,
    )
    mode = MechanicalMode(omega_m=2.5e7, h_friction=1e-12, n_thermal=1e4)

    # scale the budget so the resonant force noise matches the thermal one
    (f00, f01), _ = force_transfer(params, mode.omega_m)
    p11 = HBAR**2 * params.k_p**2 * float(
        f00.real**2 + f00.imag**2 + (f01.real**2 + f01.imag**2)
    )
    s_t_neg = 2.0 * HBAR * mode.omega_m * mode.h_friction * mode.n_t
    budget = s_t_neg / p11

    opt = optimize_pump(params, mode, budget)
    finite = opt.n_bar_grid[np.isfinite(opt.n_bar_grid)]
    dominated = bool(opt.result.n_bar <= finite.min() + 1e-30)
    e = opt.field.as_array()
    ratio = abs(e[1]) / abs(e[0])

    full = occupancy(mode, opt.result.s_f_pos, opt.result.s_f_neg)
    simple = occupancy_simplified(mode, opt.result.s_f_pos)
    agreement = abs(full.n_bar - simple) / full.n_bar
    flags_ok = full.flags.ok

    passed = dominated and ratio <= tol and flags_ok and agreement <= 0.05
    detail = (
        f"|E-/E+|={ratio:.2e}, grid-dominated={dominated}, "
        f"simplified dev {agreement:.3e} (flags ok={flags_ok}), "
        f"n_bar={opt.result.n_bar:.3f}"
    )
    return InvariantResult("cooling_optimum", passed, ratio, tol, detail)


def check_coupling_zeros(seed: int, tol: float = 1e-15) -> InvariantResult:
    """Coupling constants vanish at their structural zeros.

    Magnitudes are compared in natural units (the dimensionful prefactors
    2 k_p R_m p / tau_s and 2 k_p R_m / sqrt(tau_s) divided out).
    """
    from .lumped_mode import LumpedParams, asymmetry_rates

    theta = _CONV_THETA
    k_p = 2 * math.pi / 1.064e-6
    tau_s = 1e-9

    def lumped_at(p: float, alpha: float) -> LumpedParams:
        gamma_m, delta_m = asymmetry_rates(p, alpha, theta, tau_s)
        return LumpedParams(gamma_s=2.5e6, delta_s=-2e6, tau_s=tau_s, p=p,
                            alpha=alpha, theta_m=theta, gamma_m=gamma_m,
                            delta_m=delta_m)

    # dispersive zero: theta - alpha = pi/2
    lp1 = lumped_at(0.02, theta - math.pi / 2)
    c1 = coupling_constants(lp1, k_p)
    scale1 = 2 * k_p * lp1.r_m * lp1.p / lp1.tau_s
    disp_resid = abs(c1.g_disp) / scale1

    # dissipative zero: theta = alpha (the sign factor is exactly 0 there)
    lp2 = lumped_at(0.02, theta)
    c2 = coupling_constants(lp2, k_p)
    scale2 = 2 * k_p * lp2.r_m / math.sqrt(lp2.tau_s)
    diss_resid = abs(c2.g_diss_combo) / scale2

    # away from the zeros the dissipative magnitude is p-independent
    mags = []
    for p in (0.02, 0.01):
        lp = lumped_at(p, -0.5)
        mags.append(abs(coupling_constants(lp, k_p).g_diss_combo) / scale2)
    mag_dev = abs(mags[0] - 1.0) + abs(mags[1] - 1.0)

    worst = max(disp_resid, diss_resid)
    passed = worst <= tol and mag_dev <= 1e-12
    detail = (
        f"dispersive zero {disp_resid:.1e}, dissipative zero {diss_resid:.1e}, "
        f"magnitude dev {mag_dev:.1e}"
    )
    return InvariantResult("coupling_zeros", passed, worst, tol, detail)


def check_golden(seed: int, tol: float = 0.0) -> InvariantResult:
    """The reference sweep is bit-stable across runs and matches the frozen CSV."""
    with resources.as_file(
        resources.files("msinoise.data") / "p1.json"
    ) as cfg_path:
        cfg = load_config(cfg_path)
    golden = resources.files("msinoise.data") / "p1_spectrum_golden.csv"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        run_spectrum(cfg, tmp / "serial")
        run_spectrum(cfg, tmp / "again")
        stable = filecmp.cmp(tmp / "serial/spectrum.csv", tmp / "again/spectrum.csv",
                             shallow=False)
        if golden.is_file():
            frozen_same = (
                (tmp / "serial/spectrum.csv").read_bytes() == golden.read_bytes()
            )
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
    "coupling_zeros": check_coupling_zeros,
    "golden_determinism": check_golden,
}


def run_all(
    seed: int = DEFAULT_SEED,
    tol_overrides: dict | None = None,
) -> list[InvariantResult]:
    """Run every invariant check; tolerance overrides are keyed by name."""
    tol_overrides = tol_overrides or {}
    results = []
    for name, fun in CHECK_NAMES.items():
        if name in tol_overrides:
            results.append(fun(seed, tol=float(tol_overrides[name])))
        else:
            results.append(fun(seed))
    return results

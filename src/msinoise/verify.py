"""Seeded invariant suite: every structural identity the model must satisfy.

Each check returns an InvariantResult; `run_all` drives the fixed list.
The same functions back the CLI `verify` subcommand and the acceptance
test module, so there is exactly one definition of every tolerance.
Each random ensemble is evaluated once, by its conditioning screen; `run_all`
shares one between ``symmetry_g_f`` and ``unitarity``, then drops it.
"""
from __future__ import annotations

import filecmp
import functools
import math
import tempfile
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .algebra import dagger
from .config import RunConfig, load_config
from .cooling import MechanicalMode, occupancy, occupancy_simplified, optimize_pump
from .lumped_mode import (
    TARGET_TAU_S,
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


def _random_params(rng: np.random.Generator, size: int | None = None) -> InterferometerParams:
    """One random parameter set, or ``size`` sets as (size,) array fields."""
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


def _per_point(params: InterferometerParams, k: int) -> InterferometerParams:
    """Each of the (N,) sets in ``params`` repeated for its k sideband points."""
    return InterferometerParams(**{name: np.repeat(v, k) for name, v in vars(params).items()})


def _well_conditioned_cases(rng, n_sets: int, n_omegas: int, floor: float = 1e-3):
    """``n_sets`` random sets with ``n_omegas`` sidebands each, redrawing only
    the sets with |det D_e| < ``floor`` at a sideband or the carrier, so
    oracle-vs-closed-form comparisons are not dominated by conditioning.
    Returns the sets per sideband point, the flat sidebands and the checked
    blocks there; nothing is kept between calls (`run_all` shares a result).
    """
    params = _random_params(rng, n_sets)
    omegas = rng.uniform(-1.0e9, 1.0e9, size=(n_sets, n_omegas))
    while True:
        points = _per_point(params, n_omegas)
        blocks = sideband_blocks(points, omegas.ravel())
        carrier = sideband_blocks(params, np.zeros(n_sets)).d
        worst = np.minimum(np.abs(blocks.d).reshape(n_sets, n_omegas).min(axis=1),
                           np.abs(carrier))
        redo = np.flatnonzero(worst < floor)
        if redo.size == 0:
            return points, omegas.ravel(), blocks.checked()
        fresh = _random_params(rng, redo.size)  # validated as it is drawn
        for name, column in vars(params).items():
            column[redo] = vars(fresh)[name]
        omegas[redo] = rng.uniform(-1.0e9, 1.0e9, size=(redo.size, n_omegas))


def _structural_cases(seed: int):
    """The ensemble of `check_symmetry` and `check_unitarity`, their default ``draw``."""
    return _well_conditioned_cases(np.random.default_rng(seed), _STRUCTURAL_SETS, 5)


def check_symmetry(seed: int, tol: float = 1e-12, *, draw=_structural_cases) -> InvariantResult:
    """Displacement transfer equals the dagger of the force transfer."""
    params, _, b = draw(seed)
    f = _force_entries(params, b)
    g = _displacement_entries(params, b)
    dev = np.abs(g - dagger(f)).max(axis=(0, 1)) / np.abs(f).max(axis=(0, 1))
    worst = float(dev.max())
    return InvariantResult(
        "symmetry_g_f", worst <= tol, worst, tol,
        f"{_STRUCTURAL_SETS} random sets x 5 sidebands",
    )


def check_unitarity(seed: int, tol: float = 1e-10, *, draw=_structural_cases) -> InvariantResult:
    """The two-port scattering matrix is unitary (lossless network).

    R^dagger R - 1 is formed entry by entry, independent of the BLAS kernel.
    """
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


def _rel_dev(value: np.ndarray, ref: np.ndarray) -> float:
    """Worst per-case deviation of (2, N) ``value`` from ``ref``, relative to max |ref|."""
    return float((np.abs(value - ref).max(axis=0) / np.abs(ref).max(axis=0)).max())


def check_oracle(seed: int, tol: float = 1e-10) -> InvariantResult:
    """Closed forms agree with the dense solve of the raw field equations."""
    rng = np.random.default_rng(seed)
    params, _, b = _well_conditioned_cases(rng, _ORACLE_CASES, 1)
    pair = (2, _ORACLE_CASES)
    a = PortVector(*(rng.normal(size=pair) + 1j * rng.normal(size=pair)))
    e_cl = IntracavityField(*((rng.normal(size=pair) + 1j * rng.normal(size=pair)) * 1e8))
    x = 1e-15
    r = _scattering_entries(params, b)

    apply = "ijn,jn->in"  # each (2, 2) matrix of a stack times its column

    sol = oracle_solve(params, b.omega, a, 0.0, e_cl)
    worst = _rel_dev(sol.b, np.einsum(apply, r, a.as_array()))

    sol = oracle_solve(params, b.omega, PortVector(0, 0), x, e_cl)
    g = 1j * params.k_p * _displacement_entries(params, b)
    g_e = np.einsum(apply, g, e_cl.as_array())
    worst = max(worst, _rel_dev(sol.b, np.einsum(apply, r, g_e * x)))

    sol = oracle_solve(params, params.omega_p, a, 0.0, IntracavityField(0, 0))
    worst = max(worst, _rel_dev(sol.e, classical_fields(params, a).as_array()))
    return InvariantResult(
        "oracle_equivalence", worst <= tol, worst, tol,
        f"{_ORACLE_CASES} random cases incl. power recycling",
    )


def _p1_config() -> RunConfig:
    """The reference configuration P1, as packaged in ``data/p1.json``."""
    with resources.as_file(resources.files("msinoise.data") / "p1.json") as path:
        return load_config(path)


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
    gamma_s = p**2 / 50.0 / TARGET_TAU_S  # deep dip: gamma_m / gamma_s = 50
    theta = _CONV_THETA
    alpha = theta - math.pi / 2.0       # purely dissipative asymmetry
    gamma_total = gamma_s + p**2 / TARGET_TAU_S
    params = params_for_targets(
        gamma_s=gamma_s,
        delta_s=0.15 * gamma_total,
        theta_m=theta,
        p=p,
        alpha=alpha,
    )
    lp = from_exact(params)
    pump = PortVector(west=math.sqrt(1e16), south=0.0)
    field = classical_fields(params, pump)

    predicted = -2.0 * lp.delta_s + 2.0 * params.epsilon * params.kappa / params.tau_s
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
    cfg = _p1_config()
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
    draw = functools.lru_cache(maxsize=1)(_structural_cases)  # this call only
    results = []
    for name, fun in CHECK_NAMES.items():
        kwargs = {"tol": float(tol_overrides[name])} if name in tol_overrides else {}
        if name in ("symmetry_g_f", "unitarity"):  # drawn by the first
            kwargs["draw"] = draw
        start = time.perf_counter()
        result = fun(seed, **kwargs)
        results.append(replace(result, runtime_s=time.perf_counter() - start))
        if name == "unitarity":
            draw.cache_clear()
    return results

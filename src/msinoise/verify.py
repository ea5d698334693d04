"""Seeded invariant suite: every structural identity the model must satisfy.

Each check returns an InvariantResult; `run_all` drives the fixed list.
The same functions back the CLI `verify` subcommand and the acceptance
test module, so there is exactly one definition of every tolerance: a
constant stated in its own check, which no argument or input overrides.
Each random ensemble draws its N sets as (N, 1) fields against an (N, K)
sideband grid, so one kernel call broadcasts each set over its K sidebands,
and is evaluated once, by its conditioning screen; `run_all` shares one
between ``symmetry_g_f`` and ``unitarity``, then drops it.
Each check evaluates only what it compares: the search grids of
``canonical_limit`` and ``fano_minimum`` take the one-sided force noise,
in parts of ``radiation_pressure._CHUNK`` points like every sweep, and
``golden_determinism`` makes the CSV text of the reference sweep once,
in memory, for the frozen golden, and compares its rerun bit for bit,
writing no file.  ``oracle_equivalence`` solves its screen's (N, 1) sets
as drawn, factorizing each sideband system once for both its drives, and
the packaged P1 configuration is parsed once per process.
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
    MechanicalMode,
    occupancy_simplified,
    optimize_pump,
    thermal_spectra,
)
from .lumped_mode import (
    TARGET_TAU_S,
    LumpedParams,
    canonical_spectra,
    coupling_constants,
    fano_spectrum,
    from_exact,
    params_for_targets,
    reduction_errors,
)
from .outputs import _spectrum_columns, _spectrum_lines
from .radiation_pressure import _force_entries, _force_noise, noise_spectra
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


def _rel_dev(value: np.ndarray, ref: np.ndarray) -> float:
    """Worst per-case deviation of (2, ...) ``value`` from ``ref``, relative to max |ref|."""
    return float((np.abs(value - ref).max(axis=0) / np.abs(ref).max(axis=0)).max())


def check_oracle(seed: int) -> InvariantResult:
    """Closed forms agree with the dense solve of the raw field equations.

    The port drive and the displacement drive share their sideband systems,
    so they are solved as two right-hand sides of one factorization each;
    the carrier solve at omega_p has systems of its own.
    """
    tol = 1e-10
    rng = np.random.default_rng(seed)
    params, _, b = _well_conditioned_cases(rng, _ORACLE_CASES, 1)
    pair = (2, _ORACLE_CASES, 1)
    a = PortVector(*(rng.normal(size=pair) + 1j * rng.normal(size=pair)))
    e_cl = IntracavityField(*((rng.normal(size=pair) + 1j * rng.normal(size=pair)) * 1e8))
    x = 1e-15
    r = _scattering_entries(params, b)

    apply = "ij...,j...->i..."  # each (2, 2) matrix of a stack times its column

    # drive 0: the port inputs a alone; drive 1: the displacement x alone
    inputs = PortVector(*(np.stack([v, np.zeros_like(v)]) for v in a.as_array()))
    sol = oracle_solve(params, b.omega, inputs, np.array([0.0, x]).reshape(2, 1, 1), e_cl)
    port, moved = sol.b[:, 0], sol.b[:, 1]
    worst = _rel_dev(port, np.einsum(apply, r, a.as_array()))

    g = 1j * params.k_p * _displacement_entries(b)
    g_e = np.einsum(apply, g, e_cl.as_array())
    worst = max(worst, _rel_dev(moved, np.einsum(apply, r, g_e * x)))

    sol = oracle_solve(params, params.omega_p, a, 0.0, IntracavityField(0, 0))
    worst = max(worst, _rel_dev(sol.e, classical_fields(params, a).as_array()))
    return InvariantResult(
        "oracle_equivalence", worst <= tol, worst, tol,
        f"{_ORACLE_CASES} random cases incl. power recycling",
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
    errors = reduction_errors(params, lp, _CONV_FIELD, grid)
    return tuple(float(err.max()) for err in errors)


def check_convergence(seed: int) -> InvariantResult:
    """Reduced model converges to the exact one as the asymmetry shrinks.

    With the regime scaling held fixed (gamma_s tau_s and delta_s tau_s
    proportional to p^2), the worst relative error over |Omega| <= 5 gamma
    must be <= 10 p at p = 0.02 for each of F, K and the force noise,
    and the combined worst error must fall by 0.5 +/- 50% per p-halving.
    """
    tol = 10.0 * 0.02
    p_values = (0.02, 0.01, 0.005)
    errors = {p: _convergence_errors(p) for p in p_values}
    worst_at_02 = max(errors[0.02])
    combined = [max(errors[p]) for p in p_values]
    ratios = [combined[i + 1] / combined[i] for i in range(2)]
    ratio_ok = all(0.25 <= r <= 0.75 for r in ratios)
    passed = worst_at_02 <= tol and ratio_ok
    detail = (
        f"err(F,K,S)@p=0.02 = ({errors[0.02][0]:.3e}, {errors[0.02][1]:.3e}, "
        f"{errors[0.02][2]:.3e}), halving ratios {ratios[0]:.2f}, {ratios[1]:.2f}"
    )
    return InvariantResult("lumped_convergence", passed, worst_at_02, tol, detail)


def check_canonical(seed: int) -> InvariantResult:
    """Symmetric pumping reproduces the canonical Lorentzian spectrum/spring."""
    p = 0.01
    tol = 10.0 * p
    params = _conv_params(p)
    lp = from_exact(params)
    field = IntracavityField(3e8, 0.0)
    k_p = params.k_p

    grid = np.linspace(-5 * lp.gamma, 5 * lp.gamma, 41)
    grid = grid[grid != 0.0]
    exact = noise_spectra(params, field, grid)
    canon = canonical_spectra(lp, k_p, field.e_plus, grid)
    err_s = float(np.max(np.abs(exact.s_tilde_pos - canon.s_tilde_pos)
                         / canon.s_tilde_pos))
    err_k = float(np.max(np.abs(exact.k - canon.k) / np.abs(canon.k)))

    # FWHM of the exact spectrum against the canonical 2 gamma
    peak_grid = np.linspace(-lp.delta - 4 * lp.gamma, -lp.delta + 4 * lp.gamma, 4001)
    vals = _force_noise(params, field, peak_grid)
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
    """Bright-port-only pumping dips at Omega = -2 delta_s + 2 eps kap / tau_s."""
    tol = 0.05
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
    s_exact = _force_noise(params, field, grid)
    found = float(grid[np.argmin(s_exact)])
    dev = abs(found - predicted) / lp.gamma

    # the closed-form line shape should also track the exact spectrum
    shape = fano_spectrum(lp, params.epsilon, params.kappa, params.k_p,
                          pump.west, grid)
    err_shape = float(np.max(np.abs(s_exact - shape) / s_exact))

    passed = dev <= tol and err_shape <= 10.0 * p
    detail = f"argmin dev {dev:.3e} gamma, line-shape err {err_shape:.3e}"
    return InvariantResult("fano_minimum", passed, dev, tol, detail)


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
    p11 = _force_noise(params, IntracavityField(1.0, 0.0), [mode.omega_m])[0]
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


def check_coupling_zeros(seed: int) -> InvariantResult:
    """Coupling constants vanish at their structural zeros.

    Magnitudes are compared in natural units (the dimensionful prefactors
    2 k_p R_m p / tau_s and 2 k_p R_m / sqrt(tau_s) divided out).
    """
    tol = 1e-15
    theta = _CONV_THETA
    k_p = 2 * math.pi / 1.064e-6
    tau_s = 1e-9

    def lumped_at(p: float, alpha: float) -> LumpedParams:
        return LumpedParams(gamma_s=2.5e6, delta_s=-2e6, tau_s=tau_s, p=p,
                            alpha=alpha, theta_m=theta)

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
    "coupling_zeros": check_coupling_zeros,
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

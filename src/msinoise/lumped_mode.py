"""Small-asymmetry, high-finesse reduction of the interferometer.

For a weakly transmissive signal-recycling mirror tuned near resonance
and a small asymmetry p = sqrt(epsilon^2 + kappa^2), the interferometer
collapses to an effective single mode with bandwidth gamma and detuning
delta.  The asymmetry contributes its own bandwidth gamma_m (dissipative
coupling) and detuning shift delta_m (dispersive coupling); the leading
non-vanishing entries of the force and rigidity matrices take compact
closed forms, and the dark-port-unpumped spectrum acquires a Fano dip.

Validity of the reduction is reported, never enforced: probing its
breakdown deliberately is a supported use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import cc_close
from .errors import DegenerateFrequency
from .radiation_pressure import (
    _CHUNK, ForceNoiseSpectrum, _force_entries, _noise_form, _spring_entries, _spring_form,
    _static_spring,
)
from .scattering import (
    HBAR, SPEED_OF_LIGHT, InterferometerParams, IntracavityField, _real_grid, sideband_blocks,
)

__all__ = [
    "ValidityReport",
    "LumpedParams",
    "CouplingConstants",
    "asymmetry_polar",
    "asymmetry_rates",
    "from_exact",
    "params_for_targets",
    "coupling_constants",
    "lorentzians",
    "approx_force_transfer",
    "approx_rigidity_matrix",
    "approx_rigidity",
    "reduction_errors",
    "canonical_spectra",
    "fano_spectrum",
    "strip_propagation_phases",
]

#: smallness threshold for the validity flags
VALIDITY_THRESHOLD = 0.05

#: south path time of every `params_for_targets` configuration, s
TARGET_TAU_S = 1.0e-9


@dataclass(frozen=True)
class ValidityReport:
    """Soft validity flags for the lumped reduction (warnings, not errors)."""

    t_s_squared: float
    detuning_phase: float       # |delta_s| * tau_s
    p_squared: float
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.warnings


@dataclass(frozen=True)
class LumpedParams:
    """Effective single-mode parameters of the reduced interferometer.

    gamma_m and delta_m are derived from p, alpha, theta_m and tau_s, not stored.
    """

    gamma_s: float      # recycling-cavity half bandwidth, rad/s
    delta_s: float      # south detuning, rad/s
    tau_s: float        # s
    p: float            # asymmetry magnitude
    alpha: float        # asymmetry angle, rad
    theta_m: float      # membrane angle, rad
    validity: ValidityReport | None = None

    @property
    def gamma_m(self) -> float:  # asymmetry-induced bandwidth, rad/s
        return asymmetry_rates(self.p, self.alpha, self.theta_m, self.tau_s)[0]

    @property
    def delta_m(self) -> float:  # asymmetry-induced detuning, rad/s
        return asymmetry_rates(self.p, self.alpha, self.theta_m, self.tau_s)[1]

    @property
    def gamma(self) -> float:
        return self.gamma_s + self.gamma_m

    @property
    def delta(self) -> float:
        return self.delta_s + self.delta_m

    @property
    def r_m(self) -> float:
        return math.cos(self.theta_m)


@dataclass(frozen=True)
class CouplingConstants:
    """Dispersive coupling and the dissipative combination g_diss/sqrt(2 gamma_m).

    The dissipative combination (not bare g_diss) is what enters the
    coupling Hamiltonian; its magnitude 2 k_p R_m / sqrt(tau_s) is
    independent of the asymmetry magnitude.
    """

    g_disp: float
    g_diss_combo: float


def asymmetry_polar(epsilon: float, kappa: float) -> tuple[float, float]:
    """Polar form of the asymmetry: epsilon = p cos(alpha), kappa = p sin(alpha).

    alpha is set to 0 at p = 0, where it is undefined; every consumer
    multiplies it by p (or enters through gamma_m = delta_m = 0), so the
    choice is inert.  Raises OverflowError if p^2, which the reduced model
    is built on, exceeds the double range.
    """
    p = math.hypot(epsilon, kappa)
    if not math.isfinite(p * p):
        raise OverflowError(f"asymmetry p = hypot(epsilon = {epsilon!r}, kappa = {kappa!r}) "
                            f"= {p!r}: p^2 exceeds the double range")
    alpha = math.atan2(kappa, epsilon) if p > 0.0 else 0.0
    return p, alpha


def asymmetry_rates(
    p: float, alpha: float, theta_m: float, tau_s: float
) -> tuple[float, float]:
    """Asymmetry-induced bandwidth gamma_m and detuning shift delta_m.

    gamma_m = p^2 sin^2(theta_m - alpha) / tau_s is the dissipative
    contribution (always >= 0); delta_m = p^2 R_m sin(theta_m - 2 alpha)
    / tau_s the dispersive one, odd in its sine factor about
    theta_m = 2 alpha.
    """
    gamma_m = p**2 * math.sin(theta_m - alpha) ** 2 / tau_s
    delta_m = p**2 * math.cos(theta_m) * math.sin(theta_m - 2 * alpha) / tau_s
    return gamma_m, delta_m


def from_exact(params: InterferometerParams) -> LumpedParams:
    """Extract the effective mode parameters from an exact configuration.

    The south detuning is read off the round trip of the differential
    mode, 2 omega_p tau_s - theta_m = 2 delta_s tau_s (mod 2 pi), wrapped
    to (-pi, pi]; delta_s is therefore only defined modulo the free
    spectral range.  Out-of-regime configurations are flagged, not
    rejected.
    """
    gamma_s = params.t_s**2 / (4.0 * params.tau_s)
    round_trip = 2.0 * params.omega_p * params.tau_s - params.theta_m
    delta_s = float(np.angle(np.exp(1j * round_trip))) / (2.0 * params.tau_s)
    p, alpha = asymmetry_polar(params.epsilon, params.kappa)

    warnings = []
    t_s_sq = params.t_s**2
    det_phase = abs(delta_s) * params.tau_s
    # `not x <= threshold` also flags a NaN, e.g. delta_s where omega_p tau_s overflows
    if not t_s_sq <= VALIDITY_THRESHOLD:
        warnings.append(f"t_s^2 = {t_s_sq:.3g} exceeds {VALIDITY_THRESHOLD}")
    if not det_phase <= VALIDITY_THRESHOLD:
        warnings.append(f"|delta_s| tau_s = {det_phase:.3g} exceeds {VALIDITY_THRESHOLD}")
    if not p**2 <= VALIDITY_THRESHOLD:
        warnings.append(f"p^2 = {p**2:.3g} exceeds {VALIDITY_THRESHOLD}")
    if params.r_w != 0.0:
        warnings.append("power recycling present (r_w > 0); reduction assumes r_w = 0")
    report = ValidityReport(
        t_s_squared=t_s_sq,
        detuning_phase=det_phase,
        p_squared=p**2,
        warnings=tuple(warnings),
    )
    return LumpedParams(
        gamma_s=gamma_s,
        delta_s=delta_s,
        tau_s=params.tau_s,
        p=p,
        alpha=alpha,
        theta_m=params.theta_m,
        validity=report,
    )


def params_for_targets(
    gamma_s: float, delta_s: float, theta_m: float, p: float, alpha: float
) -> InterferometerParams:
    """Build an exact configuration hitting given effective-mode targets.

    Chooses t_s = sqrt(4 gamma_s tau_s) at tau_s = `TARGET_TAU_S` (tau_w =
    1.1 ns) and tunes the pump frequency so the differential-mode round trip
    satisfies 2 omega_p tau_s - theta_m = 2 delta_s tau_s exactly, on the
    free spectral range closest to 1064 nm.  Round-trips with `from_exact`
    by construction.
    """
    tau_s = TARGET_TAU_S
    t_s = math.sqrt(4.0 * gamma_s * tau_s)
    if not t_s < 1.0:
        raise ValueError(f"gamma_s = {gamma_s!r} needs t_s >= 1")
    omega_hint = 2.0 * math.pi * SPEED_OF_LIGHT / 1.064e-6
    n = round((omega_hint * tau_s - theta_m / 2.0 - delta_s * tau_s) / (2.0 * math.pi))
    omega_p = (2.0 * math.pi * n + theta_m / 2.0 + delta_s * tau_s) / tau_s
    return InterferometerParams(
        theta_m=theta_m,
        epsilon=p * math.cos(alpha),
        kappa=p * math.sin(alpha),
        tau_s=tau_s,
        tau_w=1.1e-9,
        r_s=math.sqrt(1.0 - t_s**2),
        t_s=t_s,
        r_w=0.0,
        t_w=1.0,
        k_p=omega_p / SPEED_OF_LIGHT,
    )


def coupling_constants(lp: LumpedParams, k_p: float) -> CouplingConstants:
    """Dispersive/dissipative coupling constants of the reduced mode.

    g_disp = 2 k_p R_m p cos(theta_m - alpha) / tau_s vanishes for a
    purely dissipative configuration (theta_m - alpha = pi/2); the
    dissipative combination vanishes at theta_m = alpha, where its sign
    is taken as 0 (it passes through zero continuously there).
    """
    g_disp = 2.0 * k_p * lp.r_m * lp.p * math.cos(lp.theta_m - lp.alpha) / lp.tau_s
    sign = float(np.sign(lp.theta_m - lp.alpha))
    g_diss_combo = 2.0 * k_p * lp.r_m * sign / math.sqrt(lp.tau_s)
    return CouplingConstants(g_disp=g_disp, g_diss_combo=g_diss_combo)


def lorentzians(lp: LumpedParams, big_omega) -> tuple[complex, complex]:
    """Resonance denominators ell = gamma - i(delta + Omega) and the
    recycling-cavity-only ell_s = gamma_s - i(delta_s + Omega)."""
    ell = lp.gamma - 1j * (lp.delta + big_omega)
    ell_s = lp.gamma_s - 1j * (lp.delta_s + big_omega)
    return ell, ell_s


def _approx_force_entries(lp: LumpedParams, big_omega: np.ndarray) -> np.ndarray:
    """Leading-order F of the reduced model at each Omega, shape (2, 2, N)."""
    ell, ell_s = lorentzians(lp, big_omega)
    th, al, p = lp.theta_m, lp.alpha, lp.p
    root = math.sqrt(lp.gamma_s * lp.tau_s)
    k = 2.0 * lp.r_m / (lp.tau_s * ell)
    f_10 = (lp.tau_s * ell_s + 0.5j * p**2 * math.sin(2 * al)) * np.exp(1j * th)
    return np.array([
        [k * (1j * p * math.sin(al - th)), k * (root * np.exp(-1j * th))],
        [k * f_10, k * (-root * p * np.exp(1j * (th - al)))],
    ])


def _approx_spring_entries(lp: LumpedParams, big_omega: np.ndarray) -> np.ndarray:
    """Leading-order K, conjugate-closed over a (2, ...) pair grid (+grid, -grid);
    shape (2, 2, ...) over the remaining axes, as `radiation_pressure._spring_entries`."""
    ell, ell_s = lorentzians(lp, big_omega)
    th, al, p = lp.theta_m, lp.alpha, lp.p
    eps = p * math.cos(al)
    k = -2j * lp.r_m / (lp.tau_s * ell)
    g_11 = (lp.tau_s * ell_s + eps**2) * np.exp(1j * th)
    gen = np.array([
        [k * lp.r_m, k * (-lp.r_m * p * np.exp(-1j * al))],
        [k * (-lp.r_m * p * np.exp(2j * (th - al))), k * g_11],
    ])
    return cc_close(gen[:, :, 0], gen[:, :, 1])


def approx_force_transfer(lp: LumpedParams, big_omega: float) -> np.ndarray:
    """Leading-order force transfer matrix of the reduced interferometer.

    Written in the phase-stripped port gauge: the single-pass propagation
    phases of the two ports are absorbed into the field references (see
    `strip_propagation_phases`).  Top row is O(1/p), bottom row O(1).
    """
    return _approx_force_entries(lp, _real_grid([big_omega]))[:, :, 0]


def approx_rigidity_matrix(lp: LumpedParams, big_omega: float) -> np.ndarray:
    """Leading-order rigidity matrix, conjugate-closed over +/-Omega."""
    return _approx_spring_entries(lp, _real_grid([[big_omega], [-big_omega]]))[:, :, 0]


def approx_rigidity(
    lp: LumpedParams,
    k_p: float,
    big_omega: float,
    field: IntracavityField,
) -> complex:
    """Scalar optical rigidity of the reduced model, N/m.

    For a purely symmetric field (e_minus = 0) this reduces algebraically
    to the canonical form
    4 hbar k_p^2 R_m^2 |E+|^2 delta / (tau_s ell(Omega) ell*(-Omega))
    (single power of hbar: the density |E|^2 is a photon flux).
    """
    k_mat = approx_rigidity_matrix(lp, big_omega)[:, :, np.newaxis]
    return complex(_spring_form(k_p, field.as_array(), k_mat)[0])


def reduction_errors(
    params: InterferometerParams,
    lp: LumpedParams,
    field: IntracavityField,
    grid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relative errors (err_F, err_K, err_S) of the reduced model at each Omega.

    err_F is the worst entry of F in the phase-stripped gauge (a matched
    exact zero counts as 0); err_K and err_S are those of the rigidity and
    the force noise at +Omega for ``field``.  Omega = 0 is allowed.  Raises
    OpticalSingularity if the exact optics is singular at any +/-Omega.
    Evaluated in parts of `_CHUNK` grid points, as `noise_spectra`, into
    three preallocated columns, so its temporaries stay the size of one part.
    """
    grid = _real_grid(grid)
    e = field.as_array()
    err_f, err_k, err_s = np.empty((3, grid.size))
    for lo in range(0, grid.size, _CHUNK):
        part = grid[lo:lo + _CHUNK]
        both = np.stack([part, -part])
        b = sideband_blocks(params, both).checked()
        f_exact = _force_entries(b)[:, :, 0]
        f_strip = f_exact * b.phases[np.newaxis, :, 0].conj()  # the +Omega phases
        f_ap = _approx_force_entries(lp, part)
        err = np.abs(f_strip - f_ap) / np.maximum(np.abs(f_strip), 1e-300)
        err_f[lo:lo + _CHUNK] = err.max(axis=(0, 1))
        k_exact = _spring_form(params.k_p, e, _spring_entries(b)) + _static_spring(params, e)
        k_ap = _spring_form(params.k_p, e, _approx_spring_entries(lp, both))
        s_exact = _noise_form(params.k_p, e, f_exact)
        s_ap = _noise_form(params.k_p, e, f_ap)
        err_k[lo:lo + _CHUNK] = np.abs(k_exact - k_ap) / np.abs(k_exact)
        err_s[lo:lo + _CHUNK] = np.abs(s_exact - s_ap) / s_exact
    return err_f, err_k, err_s


def canonical_spectra(lp: LumpedParams, k_p: float, e_plus: complex, grid) -> ForceNoiseSpectrum:
    """Canonical Lorentzian force noise for symmetric pumping (e_minus = 0).

    s_tilde(Omega) = 4 hbar^2 k_p^2 R_m^2 |E+|^2 gamma / (tau_s |ell|^2),
    peaked at Omega = -delta with full width at half maximum 2 gamma.
    The rigidity column carries the matching canonical spring.
    """
    grid = _real_grid(grid)
    if np.any(grid == 0.0):
        raise DegenerateFrequency("grid must not contain Omega = 0")
    amp = 4.0 * HBAR**2 * k_p**2 * lp.r_m**2 * abs(e_plus) ** 2 * lp.gamma / lp.tau_s
    ell_pos, ell_neg = lorentzians(lp, np.stack([grid, -grid]))[0]
    s_pos = amp / np.abs(ell_pos) ** 2
    s_neg = amp / np.abs(ell_neg) ** 2
    k_amp = 4.0 * HBAR * k_p**2 * lp.r_m**2 * abs(e_plus) ** 2 * lp.delta / lp.tau_s
    k = k_amp / (ell_pos * np.conj(ell_neg))
    return ForceNoiseSpectrum(grid=grid, s_tilde_pos=s_pos, s_tilde_neg=s_neg, k=k)


def fano_spectrum(
    lp: LumpedParams,
    epsilon: float,
    kappa: float,
    k_p: float,
    a_plus: complex,
    grid,
) -> np.ndarray:
    """Force noise for pumping through the bright port only (A_south = 0).

    The resonantly enhanced differential field interferes with the
    symmetric one and carves a Fano dip into the spectrum at
    Omega = -2 delta_s + 2 epsilon kappa / tau_s; the dip vanishes with
    gamma_m.  ``a_plus`` is the west-port pump amplitude; ell(0) in the
    prefactor is the resonance denominator at zero sideband frequency.
    """
    grid = _real_grid(grid)
    ell0, _ = lorentzians(lp, 0.0)
    try:  # a Python float, which raises where numpy would give inf
        ell0_sq = abs(ell0) ** 2
    except OverflowError:
        raise OverflowError(f"Fano prefactor |ell(0)|^2, ell(0) = {ell0!r}, exceeds the "
                            f"double range at tau_s = {lp.tau_s!r} s") from None
    ell, _ = lorentzians(lp, grid)
    pref = 4.0 * HBAR**2 * k_p**2 * lp.r_m**2 * abs(a_plus) ** 2 / (
        lp.tau_s * ell0_sq * np.abs(ell) ** 2
    )
    cross = 2.0 * epsilon * kappa / lp.tau_s
    dip = lp.gamma_m * (2.0 * lp.delta_s - cross + grid) ** 2
    floor = lp.gamma_s * (lp.gamma**2 + (lp.delta_s - lp.delta_m - cross) ** 2)
    return pref * (dip + floor)


def strip_propagation_phases(
    params: InterferometerParams,
    matrix: np.ndarray,
    big_omega,
) -> np.ndarray:
    """Remove the single-pass port phases from an exact transfer matrix.

    The reduced-model matrices reference the input fields at the
    recycling mirrors without their one-way propagation phase; exact
    matrices carry that phase on each column.  Scaling each column by the
    conjugated phase puts both in the same gauge, which is what entrywise
    exact-vs-reduced comparisons require.  Quadratic observables (spectra,
    rigidity) are blind to this gauge.  Takes a 2x2 matrix at one Omega or
    a (2, 2, N) stack at N values of Omega.
    """
    return matrix * sideband_blocks(params, big_omega).phases.conj().reshape(matrix.shape[1:])

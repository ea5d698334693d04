"""Small-asymmetry, high-finesse reduction of the interferometer.

For a weakly transmissive signal-recycling mirror tuned near resonance
and a small asymmetry p = sqrt(epsilon^2 + kappa^2), the interferometer
collapses to an effective single mode with bandwidth gamma and detuning
delta.  The asymmetry contributes its own bandwidth gamma_m (dissipative
coupling) and detuning shift delta_m (dispersive coupling).  One mode
response W = D_e^-1 T_tilde, at leading order, gives the force matrix and the
carrier of a pump through either port (`approx_fields`); K1 comes from the spring
generator K_g, not from W, and is leading-order right for any field, and the static
K2 is kept exact.  `approx_spectra` reads the force noise and K from both; at
e_minus = 0 they are the canonical ones.  W is in the phase-stripped port gauge,
the one-way port phases e^{i omega tau_j} absorbed into the port amplitudes; only
this module meets the exact gauge (`approx_fields` strips a pump, `reduction_errors` F).

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
    SPEED_OF_LIGHT, InterferometerParams, IntracavityField, PortVector, _one_point,
    _one_set, _real_grid, sideband_blocks,
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
    "approx_fields",
    "approx_spectra",
    "fano_spectrum",
    "fano_dip",
    "fano_steering",
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

    The one input of every reduced-model function, the pump wavenumber k_p
    included.  The asymmetry is stored in polar form (epsilon = p cos(alpha),
    kappa = p sin(alpha)); gamma_m and delta_m are derived, not stored.
    """

    gamma_s: float      # recycling-cavity half bandwidth, rad/s
    delta_s: float      # south detuning, rad/s
    tau_s: float        # s
    p: float            # asymmetry magnitude
    alpha: float        # asymmetry angle, rad
    theta_m: float      # membrane angle, rad
    k_p: float          # pump wavenumber, 1/m
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

    @property
    def t_m(self) -> float:
        return math.sin(self.theta_m)


@dataclass(frozen=True)
class CouplingConstants:
    """Dispersive coupling g_disp = -k_p d(delta_m)/d(kappa) and the dissipative
    combination g_diss / sqrt(gamma_m), g_diss = -k_p d(gamma_m)/d(kappa).

    The combination (not bare g_diss) enters the coupling Hamiltonian; its magnitude
    2 k_p R_m / sqrt(tau_s) is independent of the asymmetry magnitude.  Their exact check
    is `verify`'s ``exact_modes``: the same derivatives of the exact r_w = 0 pole.
    """

    g_disp: float
    g_diss_combo: float


def asymmetry_polar(epsilon: float, kappa: float) -> tuple[float, float]:
    """Polar form of the asymmetry: epsilon = p cos(alpha), kappa = p sin(alpha).

    alpha is set to 0 at p = 0, where it is undefined.  Every consumer but
    one multiplies it by p (or enters through gamma_m = delta_m = 0); the
    sign of `coupling_constants`' g_diss / sqrt(gamma_m), a 0/0 there, is
    that of its limit p -> 0+ along alpha = 0, sign(sin theta_m), not an
    inert choice.  Raises OverflowError if p^2, which the reduced model is
    built on, exceeds the double range.
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
    _one_set("from_exact", params)
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
        k_p=params.k_p,
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


def coupling_constants(lp: LumpedParams) -> CouplingConstants:
    """Dispersive/dissipative coupling constants of the reduced mode.

    g_disp = 2 k_p R_m p cos(theta_m - alpha) / tau_s vanishes for a purely dissipative
    configuration (theta_m - alpha = pi/2).  The dissipative combination has magnitude
    2 k_p R_m / sqrt(tau_s) and the sign of sin(theta_m - alpha): it jumps at theta_m =
    alpha (sign 0 there) and at theta_m - alpha = pi; only the bare g_diss, proportional
    to p sin(theta_m - alpha), passes through zero continuously.  At p = 0 the
    interferometer is purely dissipative (g_disp = 0) and the combination is its limit
    p -> 0+ along the alpha = 0 of `asymmetry_polar`; approached along another alpha it
    may take the other sign.  `verify`'s ``exact_modes`` checks both, and both zeros, on
    the exact optics: the kappa-derivative of the r_w = 0 pole agrees to O(p^2).
    """
    g_disp = 2.0 * lp.k_p * lp.r_m * lp.p * math.cos(lp.theta_m - lp.alpha) / lp.tau_s
    sign = float(np.sign(math.sin(lp.theta_m - lp.alpha)))
    g_diss_combo = 2.0 * lp.k_p * lp.r_m * sign / math.sqrt(lp.tau_s)
    return CouplingConstants(g_disp=g_disp, g_diss_combo=g_diss_combo)


def lorentzians(lp: LumpedParams, big_omega) -> tuple[complex, complex]:
    """Resonance denominators ell = gamma - i(delta + Omega) and the
    recycling-cavity-only ell_s = gamma_s - i(delta_s + Omega)."""
    ell = lp.gamma - 1j * (lp.delta + big_omega)
    ell_s = lp.gamma_s - 1j * (lp.delta_s + big_omega)
    return ell, ell_s


def _approx_mode_entries(lp: LumpedParams, big_omega: np.ndarray) -> np.ndarray:
    """Leading-order mode response W = D_e^-1 T_tilde of the reduced model at each
    Omega, shape (2, 2, N), in the phase-stripped port gauge: the intracavity
    (+, -) sideband or carrier per unit stripped port amplitude (west, south)."""
    ell, ell_s = lorentzians(lp, big_omega)
    th, al, p = lp.theta_m, lp.alpha, lp.p
    root = math.sqrt(lp.gamma_s * lp.tau_s)
    # every entry divides by tau_ell: a complex product with an unnamed array on
    # its right may round by the grid's length (see `sideband_blocks`)
    tau_ell = lp.tau_s * ell
    return np.array([
        [(lp.tau_s * ell_s + 0.5j * p**2 * math.sin(2 * al)) / tau_ell,
         -p * np.exp(-1j * al) * root / tau_ell],
        [1j * p * math.sin(al - th) * np.exp(1j * th) / tau_ell, root / tau_ell],
    ])


def _approx_force_entries(lp: LumpedParams, big_omega: np.ndarray) -> np.ndarray:
    """Leading-order F = 2 R_m [[0, m*], [m, 0]] W at each Omega, shape (2, 2, N):
    the identity `radiation_pressure._force_entries` spells out, on the reduced W."""
    w = _approx_mode_entries(lp, big_omega)
    m = 2.0 * lp.r_m * np.exp(1j * lp.theta_m)
    return np.array([m.conjugate() * w[1], m * w[0]])


def _approx_spring_entries(lp: LumpedParams, big_omega: np.ndarray) -> np.ndarray:
    """Leading-order K, conjugate-closed over a (2, ...) pair grid (+grid, -grid), shape
    (2, 2, ...) as `radiation_pressure._spring_entries`: the generator is the leading
    order of the exact K_g, rank one, k R_m u v^T with k = -2i R_m / (tau_s ell),
    u = (1, -p e^{i(2 theta_m - alpha)}) and v = (1, -p e^{-i alpha})."""
    ell, _ = lorentzians(lp, big_omega)
    k = -2j * lp.r_m / (lp.tau_s * ell)
    u = (1.0, -lp.p * np.exp(1j * (2 * lp.theta_m - lp.alpha)))
    v = (1.0, -lp.p * np.exp(-1j * lp.alpha))
    gen = np.array([[k * (lp.r_m * u_i * v_j) for v_j in v] for u_i in u])
    return cc_close(gen[:, :, 0], gen[:, :, 1])


def approx_force_transfer(lp: LumpedParams, big_omega: float) -> np.ndarray:
    """Leading-order force transfer matrix of the reduced interferometer at one Omega.

    Written in the phase-stripped port gauge: the single-pass propagation
    phases of the two ports are absorbed into the field references (see the
    module docstring).  Top row O(1/p), bottom row O(1); grids: `_approx_force_entries`.
    """
    return _approx_force_entries(lp, _one_point("approx_force_transfer", big_omega, lp))[:, :, 0]


def approx_rigidity_matrix(lp: LumpedParams, big_omega: float) -> np.ndarray:
    """Leading-order K1 at one Omega, closed over +/-Omega; grids: `_approx_spring_entries`."""
    grid = _one_point("approx_rigidity_matrix", big_omega, lp)
    return _approx_spring_entries(lp, np.stack([grid, -grid]))[:, :, 0]


def approx_rigidity(lp: LumpedParams, field: IntracavityField,
                    big_omega: float) -> tuple[complex, float]:
    """Scalar optical rigidity (K1, K2) of the reduced model at one Omega of one record
    and field, N/m: the ``k1`` entry and ``k2`` of `approx_spectra`, Omega = 0 allowed.

    For a purely symmetric field (e_minus = 0) K1 is the canonical spring
    4 hbar k_p^2 R_m^2 |E+|^2 delta / (tau_s ell(Omega) ell*(-Omega))
    (single power of hbar: the density |E|^2 is a photon flux).
    """
    _one_point("approx_rigidity", big_omega, lp, field)
    k_mat = approx_rigidity_matrix(lp, big_omega)[:, :, np.newaxis]
    e = field.as_array()
    return complex(_spring_form(lp.k_p, e, k_mat)[0]), float(_static_spring(lp, e))


def reduction_errors(
    params: InterferometerParams, field: IntracavityField, grid, *reduced: IntracavityField
) -> tuple[np.ndarray, ...]:
    """Relative errors (err_F, err_K, err_S, *err_S_reduced) of `from_exact(params)`.

    err_F is the worst entry of F in the phase-stripped gauge (a matched
    exact zero counts as 0); err_K and err_S are those of the rigidity and
    the force noise at +Omega for ``field``.  Both sides of err_K carry the
    exact static spring K2, which the reduction does not approximate, so it
    measures the reduced K1 alone.  Each ``reduced`` field r adds
    |S_tilde(+Omega) - S_r| / S_tilde(+Omega): the exact noise of ``field``
    against `fano_spectrum` of r, bit for bit.  Every error is normalised by
    the exact value.  Omega = 0 is allowed.  Raises OpticalSingularity if the
    exact optics is singular at any +/-Omega.  Evaluated in parts of `_CHUNK`
    grid points, as `noise_spectra`, into preallocated columns, so its
    temporaries stay the size of one part.
    """
    _one_set("reduction_errors", params, field, *reduced)
    grid = _real_grid(grid)
    lp = from_exact(params)
    e = field.as_array()
    k2 = _static_spring(params, e)
    errors = np.empty((3 + len(reduced), grid.size))
    for lo in range(0, grid.size, _CHUNK):
        part = grid[lo:lo + _CHUNK]
        both = np.stack([part, -part])
        b = sideband_blocks(params, both).checked()
        f_exact = _force_entries(b)[:, :, 0]
        f_strip = f_exact * b.phases[np.newaxis, :, 0].conj()  # the +Omega phases
        f_ap = _approx_force_entries(lp, part)
        err = np.abs(f_strip - f_ap) / np.maximum(np.abs(f_strip), 1e-300)
        k_exact = _spring_form(params.k_p, e, _spring_entries(b)) + k2
        k_ap = _spring_form(params.k_p, e, _approx_spring_entries(lp, both)) + k2
        s_exact = _noise_form(params.k_p, e, f_exact)
        s_ap = [_noise_form(params.k_p, r.as_array(), f_ap) for r in (field, *reduced)]
        errors[:, lo:lo + _CHUNK] = (
            err.max(axis=(0, 1)), np.abs(k_exact - k_ap) / np.abs(k_exact),
            *(np.abs(s_exact - s) / s_exact for s in s_ap),
        )
    return tuple(errors)


def approx_fields(params: InterferometerParams, pump: PortVector) -> IntracavityField:
    """The reduced twin of `classical_fields`: E = W(0) A of `from_exact(params)`, for
    the pump A stripped once of its carrier port phases e^{i omega_p tau_j}."""
    _one_set("approx_fields", params, pump)
    stripped = sideband_blocks(params, np.zeros(1)).phases[:, 0] * pump.as_array()
    w = _approx_mode_entries(from_exact(params), np.zeros(1))[:, :, 0]
    return IntracavityField(*(w * stripped).sum(axis=1).tolist())


def approx_spectra(lp: LumpedParams, field: IntracavityField, grid) -> ForceNoiseSpectrum:
    """Reduced-model force noise and rigidity over a sideband grid, as `noise_spectra`.

    S_tilde(+/-Omega) and K1 are the noise and spring forms of ``field`` on
    `_approx_force_entries` and `_approx_spring_entries` over (+grid, -grid);
    K2 is the exact static spring of the record, so ``k`` compares with the
    exact ``k`` as it stands.  Raises DegenerateFrequency at Omega = 0.  At
    e_minus = 0, S_tilde =
    4 hbar^2 k_p^2 R_m^2 |E+|^2 gamma / (tau_s |ell|^2), the canonical
    Lorentzian at -delta, 2 gamma wide.
    """
    _one_set("approx_spectra", lp, field)
    grid = _real_grid(grid)
    if np.any(grid == 0.0):
        raise DegenerateFrequency("grid must not contain Omega = 0")
    both, e = np.stack([grid, -grid]), field.as_array()
    s_pos, s_neg = _noise_form(lp.k_p, e, _approx_force_entries(lp, both))
    k1 = _spring_form(lp.k_p, e, _approx_spring_entries(lp, both))
    return ForceNoiseSpectrum(grid, s_pos, s_neg, k1, _static_spring(lp, e))


def fano_spectrum(lp: LumpedParams, field: IntracavityField, grid) -> np.ndarray:
    """One-sided force noise S_tilde(+Omega) of the reduced model over ``grid``, N^2 s.

    The ``s_tilde_pos`` of `approx_spectra`, bit for bit, without its -Omega half
    or K; Omega = 0 allowed.  On the carrier `approx_fields` of a pump through
    both ports, the resonant differential part interferes with the symmetric one
    into a Fano dip that vanishes with gamma_m, at `fano_dip`; a south pump moves it.
    """
    _one_set("fano_spectrum", lp, field)
    return _noise_form(lp.k_p, field.as_array(), _approx_force_entries(lp, _real_grid(grid)))


def _west_zero(lp: LumpedParams) -> tuple[complex, complex]:
    """(a, c): tau_s ell e_bar . F_ap[:, 0], affine in Omega, vanishes at a + c e_bar+ / e_bar-."""
    a = -lp.delta_s - 1j * lp.gamma_s + lp.p**2 * math.sin(2 * lp.alpha) / (2 * lp.tau_s)
    return a, lp.p * math.sin(lp.alpha - lp.theta_m) * np.exp(-1j * lp.theta_m) / lp.tau_s


def fano_dip(lp: LumpedParams, field: IntracavityField) -> complex:
    """Where ``field``'s west-column force e_bar . F_ap[:, 0] vanishes, the Fano dip of
    `fano_spectrum`: -delta_s - i gamma_s + p^2 sin(2 alpha) / (2 tau_s) + (e_bar+ / e_bar-)
    p sin(alpha - theta_m) e^{-i theta_m} / tau_s, real on a dark-south `approx_fields`
    carrier.  Raises ValueError at e_minus = 0, where the column has no zero."""
    _one_set("fano_dip", lp, field)
    if field.e_minus == 0:
        raise ValueError("fano_dip needs e_minus != 0: the west column has no zero")
    a, c = _west_zero(lp)
    return complex(a + np.conj(field.e_plus / field.e_minus) * c)


def fano_steering(lp: LumpedParams, omega0):
    """The e_minus / e_plus whose `fano_dip` is ``omega0``, conj(c / (omega0 - a)) of
    `_west_zero`, broadcast over ``omega0``.  Raises ValueError at p sin(alpha - theta_m) = 0."""
    _one_set("fano_steering", lp)
    if lp.p * math.sin(lp.alpha - lp.theta_m) == 0.0:
        raise ValueError("fano_steering needs p sin(alpha - theta_m) != 0: no dip to steer")
    a, c = _west_zero(lp)
    return np.conj(c / (omega0 - a))

"""Radiation-pressure back-action: force transfer, rigidity and noise spectra.

The fluctuating radiation-pressure force on the membrane is
F_fl = hbar k_p E^dagger F(Omega) a + (reflected-frequency conjugate),
and the displacement-proportional part defines the complex optical
rigidity K(Omega) = hbar k_p^2 E^dagger K_mat(Omega) E.  Re K acts as an
optical spring, -Im K / Omega as viscous optical damping.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import cc_close
from .errors import DegenerateFrequency, OpticalSingularity
from .scattering import (
    HBAR, InterferometerParams, IntracavityField, SidebandBlocks, sideband_blocks,
)

__all__ = [
    "RigidityBreakdown",
    "ForceNoiseSpectrum",
    "force_transfer",
    "rigidity_matrices",
    "rigidity",
    "noise_spectra",
    "optical_damping",
]

_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class RigidityBreakdown:
    """Optical rigidity split into its two physical parts, N/m.

    ``k1`` is the optical spring proper (cavity-field modulation by the
    moving membrane, frequency dependent and complex), ``k2`` the static
    attraction of the membrane into the standing-wave antinode (real,
    frequency independent, vanishing for a perfect mirror or a fully
    transparent membrane).
    """

    k1: complex
    k2: float

    @property
    def k(self) -> complex:
        return self.k1 + self.k2


@dataclass(frozen=True)
class ForceNoiseSpectrum:
    """Force-noise and back-action summary over a sideband grid.

    Spectra are stored at explicitly paired +/-Omega points: entry i holds
    the non-symmetrised density at +grid[i] and at -grid[i], so the
    symmetrised column never resamples.  Grid points where the optics is
    exactly singular are dropped and listed in ``skipped``.
    """

    grid: np.ndarray            # rad/s
    s_tilde_pos: np.ndarray     # N^2 s at +Omega
    s_tilde_neg: np.ndarray     # N^2 s at -Omega
    s_sym: np.ndarray           # N^2 s, (pos + neg)/2
    k: np.ndarray               # complex N/m
    h_opt: np.ndarray           # kg/s
    skipped: tuple = field(default_factory=tuple)


def _force_entries(params: InterferometerParams, b: SidebandBlocks) -> np.ndarray:
    """F = 2 R_m X (M Q - Q* R_breve) T_tilde / d, shape (2, 2, N)."""
    (c, s), m = b.mixer, b.membrane
    (rho_w, rho_s), (t_w, t_s) = b.r_tilde, b.t_tilde
    k = 2 * params.r_m / b.d
    return np.array([
        [k * (m.conjugate() * s - s.conjugate() * rho_s) * t_w,
         k * (m.conjugate() * c.conjugate() - c * rho_w) * t_s],
        [k * (m * c - c.conjugate() * rho_s) * t_w,
         k * (s * rho_w - m * s.conjugate()) * t_s],
    ])


def _spring_entries(params: InterferometerParams, b: SidebandBlocks) -> np.ndarray:
    """K1 = K_g(+Omega) + K_g(-Omega)^dagger from blocks over (+grid, -grid).

    K_g = -4i R_m^2 X (M Q R_tilde Q^T - r~_w r~_s 1) X / d is the
    one-sided generator; the result has shape (2, 2, N) for a grid of N.
    """
    (c, s), m = b.mixer, b.membrane
    rho_w, rho_s = b.r_tilde
    both = rho_w * rho_s
    cross = c * s * rho_w - (c * s).conjugate() * rho_s
    k = -4j * params.r_m**2 / b.d
    gen = np.array([
        [k * (m.conjugate() * (s * s * rho_w + c.conjugate() ** 2 * rho_s) - both),
         k * m.conjugate() * cross],
        [k * m * cross,
         k * (m * (c * c * rho_w + s.conjugate() ** 2 * rho_s) - both)],
    ])
    n = gen.shape[2] // 2
    return cc_close(gen[:, :, :n], gen[:, :, n:])


def _spring_form(k_p: float, e: np.ndarray, k: np.ndarray) -> np.ndarray:
    """hbar k_p^2 e^dagger K e for a (2, 2, N) stack K, N/m."""
    e_p, e_m = e
    q = e_p.conjugate() * (k[0, 0] * e_p + k[0, 1] * e_m) + e_m.conjugate() * (
        k[1, 0] * e_p + k[1, 1] * e_m
    )
    return HBAR * k_p**2 * q


def _static_spring(params: InterferometerParams, e: np.ndarray) -> float:
    """hbar k_p^2 e^dagger K2 e for the static part K2 = -4 R_m T_m Z, N/m."""
    power = e.real**2 + e.imag**2
    return HBAR * params.k_p**2 * (-4.0 * params.r_m * params.t_m * (power[0] - power[1]))


def _noise_form(k_p: float, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """hbar^2 k_p^2 |e^dagger F|^2 for a (2, 2, N) stack F, N^2 s."""
    row = (e.conj()[:, None, None] * f).sum(axis=0)
    return HBAR**2 * k_p**2 * (row.real**2 + row.imag**2).sum(axis=0)


def force_transfer(
    params: InterferometerParams,
    big_omega: float,
    det_tol: float | None = None,
) -> np.ndarray:
    """Input-field-to-force transfer matrix F at sideband frequency Omega.

    Satisfies F(Omega)^dagger = G(Omega) (the displacement transfer), the
    two-port form of the usual measurement/back-action reciprocity.
    """
    b = sideband_blocks(params, np.array([big_omega], dtype=float), det_tol).checked()
    return _force_entries(params, b)[:, :, 0]


def rigidity_matrices(
    params: InterferometerParams,
    big_omega: float,
    det_tol: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rigidity matrices (K1, K2, K1 + K2) at sideband frequency Omega.

    K1 needs the optics at both omega_p + Omega and omega_p - Omega (the
    conjugate closure); K2 = -4 R_m T_m Z is frequency independent.
    """
    b = sideband_blocks(params, np.array([big_omega, -big_omega], dtype=float), det_tol)
    k1 = _spring_entries(params, b.checked())[:, :, 0]
    k2 = -4.0 * params.r_m * params.t_m * _Z
    return k1, k2, k1 + k2


def rigidity(
    params: InterferometerParams,
    field_: IntracavityField,
    big_omega: float,
    det_tol: float | None = None,
) -> RigidityBreakdown:
    """Scalar optical rigidity for the given intracavity field, N/m."""
    k1_mat, _, _ = rigidity_matrices(params, big_omega, det_tol)
    e = field_.as_array()
    k1 = _spring_form(params.k_p, e, k1_mat[:, :, np.newaxis])
    return RigidityBreakdown(k1=complex(k1[0]), k2=float(_static_spring(params, e)))


def optical_damping(spectrum: ForceNoiseSpectrum) -> np.ndarray:
    """Optical damping H_opt from the +/-Omega spectral asymmetry, kg/s."""
    return _damping(spectrum.s_tilde_pos, spectrum.s_tilde_neg, spectrum.grid)


def _damping(s_pos: np.ndarray, s_neg: np.ndarray, grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if np.any(grid == 0.0):
        raise DegenerateFrequency("optical damping is undefined at Omega = 0")
    return (np.asarray(s_pos) - np.asarray(s_neg)) / (2.0 * HBAR * grid)


def noise_spectra(
    params: InterferometerParams,
    field_: IntracavityField,
    grid,
    det_tol: float | None = None,
) -> ForceNoiseSpectrum:
    """Radiation-pressure force noise over a sideband grid (vacuum inputs).

    For each Omega in ``grid`` evaluates the non-symmetrised densities at
    +/-Omega, the symmetrised density, the complex rigidity and the
    optical damping, all from one `sideband_blocks` call over +/-grid.
    Points where either sideband hits an exact optical singularity are
    skipped and reported, not interpolated.
    """
    grid = np.asarray(grid, dtype=float)
    n = grid.size
    b = sideband_blocks(params, np.concatenate([grid, -grid]), det_tol)
    e = field_.as_array()
    with np.errstate(divide="ignore", invalid="ignore"):
        k1 = _spring_form(params.k_p, e, _spring_entries(params, b))
        s_tilde = _noise_form(params.k_p, e, _force_entries(params, b))
    keep = (grid != 0.0) & ~b.singular[:n] & ~b.singular[n:]
    skipped = []
    for i in np.flatnonzero(~keep):
        if grid[i] == 0.0:
            reason = "zero sideband frequency (damping undefined)"
        else:
            j = i if b.singular[i] else n + i
            reason = str(OpticalSingularity(float(b.omega[j]), complex(b.d[j])))
        skipped.append((float(grid[i]), reason))
    s_pos, s_neg = s_tilde[:n][keep], s_tilde[n:][keep]
    return ForceNoiseSpectrum(
        grid=grid[keep],
        s_tilde_pos=s_pos,
        s_tilde_neg=s_neg,
        s_sym=(s_pos + s_neg) / 2.0,
        k=k1[keep] + _static_spring(params, e),
        h_opt=_damping(s_pos, s_neg, grid[keep]),
        skipped=tuple(skipped),
    )

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
]

_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: the one part size of every kernel pass over a grid: the calls of
#: `noise_spectra`, `_force_noise` and `lumped_mode.reduction_errors`, so a
#: pass holds the temporaries of one part, not of its grid.  Of 2**9, 2**10
#: and 2**11, measured on P1: 2**11 kept the 4 001-point sweep's peak RSS
#: 1.4 MB higher, and 2**9 took ~20 % longer per point on large grids, in
#: per-call overhead.  CSV text is made in parts of `outputs._ROWS` =
#: _CHUNK // 4 rows, not _CHUNK: its strings take ~3.4x the memory of the
#: values they print, held as Python floats.
_CHUNK = 2**10


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
    symmetrised density and the optical damping, which that pair fixes,
    are derived from it, never resampled or stored.  Grid points where the
    optics is exactly singular are dropped and listed in ``skipped``.
    """

    grid: np.ndarray            # rad/s
    s_tilde_pos: np.ndarray     # N^2 s at +Omega
    s_tilde_neg: np.ndarray     # N^2 s at -Omega
    k: np.ndarray               # complex N/m
    skipped: tuple = field(default_factory=tuple)

    @property
    def s_sym(self) -> np.ndarray:
        """Symmetrised density (S(+Omega) + S(-Omega)) / 2, N^2 s."""
        return (self.s_tilde_pos + self.s_tilde_neg) / 2.0

    @property
    def h_opt(self) -> np.ndarray:
        """Optical damping (S(+Omega) - S(-Omega)) / 2 hbar Omega, kg/s; none at Omega = 0."""
        if np.any(self.grid == 0.0):
            raise DegenerateFrequency("optical damping is undefined at Omega = 0")
        return (self.s_tilde_pos - self.s_tilde_neg) / (2.0 * HBAR * self.grid)


def _force_entries(b: SidebandBlocks) -> np.ndarray:
    """F = 2 R_m X (M Q - Q* R_breve) T_tilde / d, shape (2, 2, N)."""
    c, s, m, c_bar, s_bar, m_bar = b.factors
    (rho_w, rho_s), (t_w, t_s) = b.r_tilde, b.t_tilde
    k = 2 * m.real / b.d
    f_00 = m_bar * s - s_bar * rho_s
    f_01 = m_bar * c_bar - c * rho_w
    f_10 = m * c - c_bar * rho_s
    f_11 = s * rho_w - m * s_bar
    return np.array([[k * f_00 * t_w, k * f_01 * t_s], [k * f_10 * t_w, k * f_11 * t_s]])


def _spring_entries(b: SidebandBlocks) -> np.ndarray:
    """K1 = K_g(+Omega) + K_g(-Omega)^dagger from blocks over a (2, ...) pair grid.

    K_g = -4i R_m^2 X (M Q R_tilde Q^T - r~_w r~_s 1) X / d is the
    one-sided generator; the leading grid axis holds (+grid, -grid), and
    the result has shape (2, 2, ...) over the remaining axes.
    """
    c, s, m, c_bar, s_bar, m_bar = b.factors
    rho_w, rho_s = b.r_tilde
    both = rho_w * rho_s
    cross = c * s * rho_w - (c * s).conjugate() * rho_s
    k = -4j * m.real**2 / b.d
    q_00 = s * s * rho_w + c_bar ** 2 * rho_s
    q_11 = c * c * rho_w + s_bar ** 2 * rho_s
    g_00 = m_bar * q_00 - both
    g_11 = m * q_11 - both
    gen = np.array([[k * g_00, k * m_bar * cross], [k * m * cross, k * g_11]])
    return cc_close(gen[:, :, 0], gen[:, :, 1])


def _spring_form(k_p: float, e: np.ndarray, k: np.ndarray) -> np.ndarray:
    """hbar k_p^2 e^dagger K e for a (2, 2, ...) stack K, N/m."""
    e_p, e_m = e
    k_e_p = k[0, 0] * e_p + k[0, 1] * e_m
    k_e_m = k[1, 0] * e_p + k[1, 1] * e_m
    q = e_p.conjugate() * k_e_p + e_m.conjugate() * k_e_m
    return HBAR * k_p**2 * q


def _static_spring(params: InterferometerParams, e: np.ndarray) -> float:
    """hbar k_p^2 e^dagger K2 e for the static part K2 = -4 R_m T_m Z, N/m."""
    power = e.real**2 + e.imag**2
    return HBAR * params.k_p**2 * (-4.0 * params.r_m * params.t_m * (power[0] - power[1]))


def _noise_form(k_p: float, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """hbar^2 k_p^2 |e^dagger F|^2 for a (2, 2, ...) stack F, N^2 s."""
    e_bar = e.conj().reshape(2, *(1,) * (f.ndim - e.ndim), *e.shape[1:])
    row = (e_bar * f).sum(axis=0)
    return HBAR**2 * k_p**2 * (row.real**2 + row.imag**2).sum(axis=0)


def force_transfer(params: InterferometerParams, big_omega: float) -> np.ndarray:
    """Input-field-to-force transfer matrix F at sideband frequency Omega.

    Satisfies F(Omega)^dagger = G(Omega) (the displacement transfer), the
    two-port form of the usual measurement/back-action reciprocity.
    """
    b = sideband_blocks(params, np.array([big_omega], dtype=float)).checked()
    return _force_entries(b)[:, :, 0]


def rigidity_matrices(
    params: InterferometerParams, big_omega: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rigidity matrices (K1, K2, K1 + K2) at sideband frequency Omega.

    K1 needs the optics at both omega_p + Omega and omega_p - Omega (the
    conjugate closure); K2 = -4 R_m T_m Z is frequency independent.
    """
    b = sideband_blocks(params, np.array([[big_omega], [-big_omega]], dtype=float))
    k1 = _spring_entries(b.checked())[:, :, 0]
    k2 = -4.0 * params.r_m * params.t_m * _Z
    return k1, k2, k1 + k2


def rigidity(
    params: InterferometerParams,
    field_: IntracavityField,
    big_omega: float,
) -> RigidityBreakdown:
    """Scalar optical rigidity for the given intracavity field, N/m."""
    k1_mat, _, _ = rigidity_matrices(params, big_omega)
    e = field_.as_array()
    k1 = _spring_form(params.k_p, e, k1_mat[:, :, np.newaxis])
    return RigidityBreakdown(k1=complex(k1[0]), k2=float(_static_spring(params, e)))


def _force_noise(
    params: InterferometerParams, field_: IntracavityField, big_omega
) -> np.ndarray:
    """Force noise S_tilde at each sideband Omega of a 1-D grid alone, N^2 s.

    The ``s_tilde_pos`` column of `noise_spectra`, bit for bit, without
    its -Omega blocks, rigidity or damping, for callers that read nothing
    else.  Evaluated in parts of `_CHUNK` points, like `noise_spectra`;
    raises OpticalSingularity at the first singular point, not skipping it.
    """
    grid = np.asarray(big_omega, dtype=float)
    e = field_.as_array()
    s_tilde = np.empty(grid.size)
    for lo in range(0, grid.size, _CHUNK):
        b = sideband_blocks(params, grid[lo:lo + _CHUNK]).checked()
        s_tilde[lo:lo + _CHUNK] = _noise_form(params.k_p, e, _force_entries(b))
    return s_tilde


def noise_spectra(
    params: InterferometerParams,
    field_: IntracavityField,
    grid,
) -> ForceNoiseSpectrum:
    """Radiation-pressure force noise over a sideband grid (vacuum inputs).

    For each Omega in ``grid`` evaluates the non-symmetrised densities at
    +/-Omega and the complex rigidity, with one `sideband_blocks` call over
    the (2, m) pair grid (+part, -part) per part of at most `_CHUNK` grid
    points, so its temporaries stay the size of one part whatever the
    grid's; every value is the same as from one call over all of it.
    Points where either sideband hits an exact optical singularity are
    skipped and reported, not interpolated.  Numbers beyond double
    precision come out as inf or NaN without a warning, since skipping a
    singular point divides by ~0 on the way; callers refuse them.
    """
    grid = np.asarray(grid, dtype=float)
    n = grid.size
    s_pos, s_neg, k1 = np.empty(n), np.empty(n), np.empty(n, dtype=complex)
    keep = grid != 0.0
    skipped = []
    with np.errstate(all="ignore"):
        e = field_.as_array()
        for lo in range(0, n, _CHUNK):
            hi = lo + _CHUNK
            part = grid[lo:hi]
            b = sideband_blocks(params, np.stack([part, -part]))
            k1[lo:hi] = _spring_form(params.k_p, e, _spring_entries(b))
            s_pos[lo:hi], s_neg[lo:hi] = _noise_form(params.k_p, e, _force_entries(b))
            keep[lo:hi] &= ~b.singular.any(axis=0)
            for i in np.flatnonzero(~keep[lo:hi]):
                if part[i] == 0.0:
                    reason = "zero sideband frequency (damping undefined)"
                else:
                    j = int(np.argmax(b.singular[:, i])), i  # +Omega first
                    reason = str(OpticalSingularity(float(b.omega[j]), complex(b.d[j])))
                skipped.append((float(part[i]), reason))
        return ForceNoiseSpectrum(
            grid=grid[keep],
            s_tilde_pos=s_pos[keep],
            s_tilde_neg=s_neg[keep],
            k=k1[keep] + _static_spring(params, e),
            skipped=tuple(skipped),
        )

"""Radiation-pressure back-action: force transfer, rigidity and noise spectra.

The fluctuating radiation-pressure force on the membrane is
F_fl = hbar k_p E^dagger F(Omega) a + (reflected-frequency conjugate),
and the displacement-proportional part defines the complex optical
rigidity K(Omega) = hbar k_p^2 E^dagger (K1(Omega) + K2) E.  Re K acts as an
optical spring, -Im K / Omega as viscous optical damping.  Every K result of
either model is (K1, K2) or a record's ``k1`` and ``k2``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import cc_close
from .errors import DegenerateFrequency, OpticalSingularity
from .scattering import (
    HBAR, InterferometerParams, IntracavityField, SidebandBlocks, _one_point, _one_set, _real_grid,
    sideband_blocks,
)

__all__ = [
    "ForceNoiseSpectrum",
    "force_transfer",
    "rigidity_matrices",
    "rigidity",
    "noise_spectra",
]

_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: the one part size of the two grid passes, `noise_spectra` and
#: `lumped_mode.reduction_errors`, so a pass holds the temporaries of one
#: part, not of its grid.  Of 2**9, 2**10 and 2**11, measured on P1: 2**11
#: kept the 4 001-point sweep's peak RSS 1.4 MB higher, and 2**9 took ~20 %
#: longer per point on large grids, in per-call overhead.  CSV text is made
#: in parts of `outputs._ROWS` = _CHUNK // 4 rows, not _CHUNK: its strings
#: take ~3.4x the memory of the values they print, held as Python floats.
_CHUNK = 2**10


@dataclass(frozen=True)
class ForceNoiseSpectrum:
    """Force-noise and back-action summary over a sideband grid.

    Spectra are stored at explicitly paired +/-Omega points: entry i holds
    the non-symmetrised density at +grid[i] and at -grid[i], so the
    symmetrised density and the optical damping, which that pair fixes,
    are derived from it, never resampled or stored.  Grid points where the
    optics is exactly singular, and Omega = 0, are dropped and listed in
    ``skipped`` as (Omega, exception) pairs: the OpticalSingularity that
    `SidebandBlocks.checked` raises there, or a DegenerateFrequency.  K is
    stored as K1 per point and the static K2 once, and their sum derived.
    """

    grid: np.ndarray            # rad/s
    s_tilde_pos: np.ndarray     # N^2 s at +Omega
    s_tilde_neg: np.ndarray     # N^2 s at -Omega
    k1: np.ndarray              # complex N/m, the optical spring K1
    k2: float                   # N/m, the static spring K2
    skipped: tuple = ()

    @property
    def k(self) -> np.ndarray:
        """Total rigidity K1 + K2, complex N/m."""
        return self.k1 + self.k2

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


def _static_spring(record, e: np.ndarray) -> float:
    """hbar k_p^2 e^dagger K2 e for the static part K2 = -4 R_m T_m Z, N/m, of an exact
    `InterferometerParams` or a reduced `LumpedParams`: the reduction keeps K2 exact."""
    power = e.real**2 + e.imag**2
    return HBAR * record.k_p**2 * (-4.0 * record.r_m * record.t_m * (power[0] - power[1]))


def _noise_form(k_p: float, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """hbar^2 k_p^2 |e^dagger F|^2 for a (2, 2, ...) stack F, N^2 s."""
    e_bar = e.conj().reshape(2, *(1,) * (f.ndim - e.ndim), *e.shape[1:])
    row = (e_bar * f).sum(axis=0)
    return HBAR**2 * k_p**2 * (row.real**2 + row.imag**2).sum(axis=0)


def force_transfer(params: InterferometerParams, big_omega: float) -> np.ndarray:
    """Input-field-to-force transfer matrix F at one sideband frequency Omega of one set.

    Satisfies F(Omega)^dagger = G(Omega) (the displacement transfer), the
    two-port form of measurement/back-action reciprocity; grids and batches: `_force_entries`.
    """
    b = sideband_blocks(params, _one_point("force_transfer", big_omega, params)).checked()
    return _force_entries(b)[:, :, 0]


def rigidity_matrices(
    params: InterferometerParams, big_omega: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rigidity matrices (K1, K2) at one sideband frequency Omega of one set.

    K1 is the optical spring proper, the cavity field modulated by the moving
    membrane: complex and frequency dependent, it needs the optics at both
    omega_p + Omega and omega_p - Omega (the conjugate closure).
    K2 = -4 R_m T_m Z is the static attraction of the membrane into the
    standing-wave antinode: real, frequency independent, and zero for a
    perfect mirror or a fully transparent membrane.  Grids and batches:
    `_spring_entries` on `sideband_blocks` over +/-grid.
    """
    grid = _one_point("rigidity_matrices", big_omega, params)
    b = sideband_blocks(params, np.stack([grid, -grid])).checked()
    return _spring_entries(b)[:, :, 0], -4.0 * params.r_m * params.t_m * _Z


def rigidity(params: InterferometerParams, field: IntracavityField,
             big_omega: float) -> tuple[complex, float]:
    """Scalar optical rigidity (K1, K2) at one Omega of one set and field, N/m, the
    `rigidity_matrices` pair as forms of ``field``; grids: `noise_spectra`."""
    _one_point("rigidity", big_omega, params, field)
    k1_mat, _ = rigidity_matrices(params, big_omega)
    e = field.as_array()
    k1 = _spring_form(params.k_p, e, k1_mat[:, :, np.newaxis])
    return complex(k1[0]), float(_static_spring(params, e))


def noise_spectra(params: InterferometerParams, field: IntracavityField,
                  grid) -> ForceNoiseSpectrum:
    """Radiation-pressure force noise over a sideband grid (vacuum inputs).

    For each Omega in ``grid`` evaluates the non-symmetrised densities at
    +/-Omega and the rigidity (K1, K2), with one `sideband_blocks` call over
    the (2, m) pair grid (+part, -part) per part of at most `_CHUNK` grid
    points, so its temporaries stay the size of one part whatever the
    grid's; every value is the same as from one call over all of it.
    Points where either sideband hits an exact optical singularity, and
    Omega = 0, are skipped and reported with the exception each stands for,
    not interpolated.  Numbers beyond double precision come out as inf or
    NaN without a warning, since skipping a singular point divides by ~0 on
    the way; callers refuse them.
    """
    _one_set("noise_spectra", params, field)
    grid = _real_grid(grid)
    n = grid.size
    s_pos, s_neg, k1 = np.empty(n), np.empty(n), np.empty(n, dtype=complex)
    keep = grid != 0.0
    skipped = []
    with np.errstate(all="ignore"):
        e = field.as_array()
        for lo in range(0, n, _CHUNK):
            hi = lo + _CHUNK
            part = grid[lo:hi]
            b = sideband_blocks(params, np.stack([part, -part]))
            k1[lo:hi] = _spring_form(params.k_p, e, _spring_entries(b))
            s_pos[lo:hi], s_neg[lo:hi] = _noise_form(params.k_p, e, _force_entries(b))
            keep[lo:hi] &= ~b.singular.any(axis=0)
            for i in np.flatnonzero(~keep[lo:hi]):
                if part[i] == 0.0:
                    reason = DegenerateFrequency("zero sideband frequency (damping undefined)")
                else:
                    j = int(np.argmax(b.singular[:, i])), i  # +Omega first, as `checked`
                    reason = OpticalSingularity(float(b.omega[j]), complex(b.d[j]))
                skipped.append((float(part[i]), reason))
        return ForceNoiseSpectrum(
            grid=grid[keep],
            s_tilde_pos=s_pos[keep],
            s_tilde_neg=s_neg[keep],
            k1=k1[keep], k2=_static_spring(params, e),
            skipped=tuple(skipped),
        )

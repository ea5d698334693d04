"""Exact two-port optics of the recycled Michelson-Sagnac interferometer.

The interferometer is driven through two ports: "west" (behind the
power-recycling mirror) and "south" (behind the signal-recycling mirror,
the detection side).  Internally the fields are organised as common (+)
and differential (-) mode pairs; a membrane of amplitude reflectivity
cos(theta_m) closes both arms.  Everything below is an exact solution of
the single-bounce field equations, valid for any mirror reflectivities,
beamsplitter imbalance epsilon and D.C. dark-port offset kappa.

Amplitude normalisation: |amplitude|^2 is a photon flux in photons/s, so
force spectral densities come out in N^2 s with no extra factors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import det2, solve_dense
from .errors import OpticalSingularity

__all__ = [
    "DET_TOL",
    "InterferometerParams",
    "PortVector",
    "IntracavityField",
    "SidebandBlocks",
    "OracleFields",
    "mode_mixer",
    "sideband_blocks",
    "scattering_matrix",
    "displacement_transfer",
    "classical_fields",
    "oracle_solve",
]

# exact in the SI (CODATA 2018): c, h / 2 pi and k_B
SPEED_OF_LIGHT = 299792458.0
HBAR = 6.62607015e-34 / (2.0 * math.pi)
K_BOLTZMANN = 1.380649e-23

#: relative determinant floor: D_e is singular when |det D_e| <= DET_TOL (sum_ij |D_e,ij|)^2;
#: 1e-14 is ~45 roundings (eps = 2.2e-16) at that scale, so below it det D_e is
#: within a few dozen roundings of the 2x2 determinant and cannot be told from 0
DET_TOL = 1e-14


@dataclass(frozen=True)
class InterferometerParams:
    """Full geometric/optical description of the interferometer.

    A field may be an array of sets, broadcasting against the sideband grid:
    (N,) against an (N,) grid, or (N, 1) against an (N, K); see `sideband_blocks`.

    Parameters
    ----------
    theta_m : float or (N,) array
        Membrane angle, rad; amplitude reflectivity R_m = cos(theta_m),
        transmissivity T_m = sin(theta_m).
    epsilon : float or (N,) array
        Beamsplitter imbalance angle, rad (balanced splitter at 0).
    kappa : float or (N,) array
        Dimensionless D.C. membrane offset, kappa = k_p * X.
    tau_s, tau_w : float or (N,) array
        One-way light travel times to the signal (south) and power (west)
        recycling mirrors, s.
    r_s, t_s, r_w, t_w : float or (N,) array
        Amplitude reflectivity/transmissivity of the recycling mirrors;
        each pair must satisfy r^2 + t^2 = 1.
    k_p : float or (N,) array
        Pump wavenumber, 1/m.
    """

    theta_m: float
    epsilon: float
    kappa: float
    tau_s: float
    tau_w: float
    r_s: float
    t_s: float
    r_w: float
    t_w: float
    k_p: float

    def __post_init__(self):
        # each test is the condition that must hold, entrywise, so NaN fails it
        for name, r, t in (("s", self.r_s, self.t_s), ("w", self.r_w, self.t_w)):
            if not np.all(abs(r * r + t * t - 1.0) <= 1e-12):
                raise ValueError(f"r_{name}^2 + t_{name}^2 = {r * r + t * t!r} != 1")
            if not np.all((r >= 0) & (t >= 0)):
                raise ValueError(f"r_{name}, t_{name} must be non-negative")
        if not np.all((0.0 <= self.theta_m) & (self.theta_m <= math.pi / 2)):
            raise ValueError(f"theta_m = {self.theta_m!r} outside [0, pi/2]")
        if not np.all(abs(self.epsilon) < math.pi / 4):
            raise ValueError(f"|epsilon| = {abs(self.epsilon)!r} >= pi/4")
        if not np.all(np.isfinite(self.kappa)):
            raise ValueError(f"kappa = {self.kappa!r} must be finite")
        if not np.all((self.tau_s > 0) & (self.tau_w > 0) & (self.k_p > 0)):
            raise ValueError("tau_s, tau_w and k_p must be positive")
        if not np.all(np.isfinite(self.tau_s) & np.isfinite(self.tau_w) & np.isfinite(self.k_p)):
            raise ValueError("tau_s, tau_w and k_p must be finite")

    @property
    def r_m(self) -> float:
        return np.cos(self.theta_m)

    @property
    def t_m(self) -> float:
        return np.sin(self.theta_m)

    @property
    def omega_p(self) -> float:
        """Pump angular frequency, rad/s."""
        return SPEED_OF_LIGHT * self.k_p


@dataclass(frozen=True)
class PortVector:
    """Field amplitudes at the west (PRM) and south (SRM) ports, sqrt(photons/s)."""

    west: complex
    south: complex

    def as_array(self) -> np.ndarray:
        """(2,), or (2, N) when either amplitude is an (N,) array."""
        return np.array(np.broadcast_arrays(self.west, self.south), dtype=complex)


@dataclass(frozen=True)
class IntracavityField:
    """Classical common/differential intracavity amplitudes, sqrt(photons/s)."""

    e_plus: complex
    e_minus: complex

    def as_array(self) -> np.ndarray:
        """(2,), or (2, N) when either amplitude is an (N,) array."""
        return np.array(np.broadcast_arrays(self.e_plus, self.e_minus), dtype=complex)


@dataclass(frozen=True)
class SidebandBlocks:
    """Optical blocks shared by every sideband quantity, batched over Omega.

    The trailing axes ``...`` run over the grid: the broadcast shape of the
    sideband grid and the params fields, (N, K) for (N, 1) sets of K
    sidebands each.  Pairs are ordered (west, south).  ``factors`` holds
    C, S of `mode_mixer`, m = e^{i theta_m} and their conjugates.
    """

    omega: np.ndarray       # (...) absolute frequencies omega_p + Omega, rad/s
    phases: np.ndarray      # (2, ...) one-way phases e^{i omega tau}
    r_tilde: np.ndarray     # (2, ...) r e^{2 i omega tau}
    t_tilde: np.ndarray     # (2, ...) t e^{i omega tau}
    d_e: np.ndarray         # (2, 2, ...) mode matrix D_e
    d: np.ndarray           # (...) det D_e
    singular: np.ndarray    # (...) at or below the relative determinant floor
    factors: tuple          # (C, S, m, C*, S*, m*), each shaped as the params

    def checked(self) -> SidebandBlocks:
        """These blocks; raises OpticalSingularity at the first singular point."""
        if self.singular.any():
            i = int(np.argmax(self.singular))  # flat, over the grid's shape
            omega = np.broadcast_to(self.omega, self.d.shape).flat[i]
            raise OpticalSingularity(float(omega), complex(self.d.flat[i]))
        return self


@dataclass(frozen=True)
class OracleFields:
    """Raw internal fields from the brute-force solve of the port equations."""

    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray
    f: np.ndarray


def mode_mixer(params: InterferometerParams) -> np.ndarray:
    """Unitary mixing of common/differential modes by asymmetry.

    Combines the beamsplitter imbalance epsilon and the dark-port offset
    kappa into the 2x2 unitary [[C, -S*], [S, C*]] with
    C = cos(eps) cos(kap) + i sin(eps) sin(kap) and
    S = sin(eps) cos(kap) + i cos(eps) sin(kap); reduces to the identity
    for a symmetric interferometer.  A (2, 2, N) stack for array fields.
    """
    c, s = _mixer(params)
    return np.array([[c, -s.conjugate()], [s, c.conjugate()]])


def _mixer(params: InterferometerParams) -> tuple[complex, complex]:
    ce, se = np.cos(params.epsilon), np.sin(params.epsilon)
    ck, sk = np.cos(params.kappa), np.sin(params.kappa)
    return ce * ck + 1j * se * sk, se * ck + 1j * ce * sk


def sideband_blocks(params: InterferometerParams, big_omega) -> SidebandBlocks:
    """The shared optical blocks at omega_p + Omega for every Omega at once.

    ``params`` fields may be arrays that broadcast against ``big_omega``:
    (N,) fields put set i at Omega[i] of an (N,) grid, and (N, 1) fields
    give each set the K sidebands of its row of an (N, K) grid, with C, S
    and e^{i theta_m} computed once per set.  A quantity of the +/-Omega
    pair (spring, damping) takes np.stack([grid, -grid]): the pair is the
    leading axis, [0] at +Omega and [1] at -Omega, of a grid of any shape.
    D_e = Q^dagger - R_tilde Q^T M is written out entry by entry, so no result
    depends on a BLAS kernel.  A scalar Omega is a one-point grid, and a complex
    one raises TypeError (`_real_grid`).  Singular points are flagged in
    ``singular``, not raised; `SidebandBlocks.checked` raises for them.  Here
    and in the formulas on these blocks no complex product has an unnamed array
    on its right, so a point rounds the same in a batch of any length.
    """
    omega = params.omega_p + _real_grid(big_omega)
    phases = np.exp(1j * (_pair(params.tau_w, params.tau_s, omega) * omega))
    r_tilde = _pair(params.r_w, params.r_s, omega) * phases * phases
    t_tilde = _pair(params.t_w, params.t_s, omega) * phases
    c, s = _mixer(params)
    m = params.r_m + 1j * params.t_m  # e^{i theta_m}; m.real is exactly R_m
    c_bar, s_bar, m_bar = c.conjugate(), s.conjugate(), m.conjugate()
    c_m, s_m_bar, s_bar_m, c_bar_m_bar = c * m, s * m_bar, s_bar * m, c_bar * m_bar
    rho_w, rho_s = r_tilde
    d_e = np.array([
        [c_bar - rho_w * c_m, s_bar - rho_w * s_m_bar],
        [rho_s * s_bar_m - s, c - rho_s * c_bar_m_bar],
    ])
    d = det2(d_e)
    mag = np.abs(d_e)
    scale = mag[0, 0] + mag[0, 1] + mag[1, 0] + mag[1, 1]
    singular = np.abs(d) <= DET_TOL * scale * scale
    return SidebandBlocks(omega, phases, r_tilde, t_tilde, d_e, d, singular,
                          (c, s, m, c_bar, s_bar, m_bar))


def _real_grid(big_omega) -> np.ndarray:
    """``big_omega`` as a float array, a scalar as a one-point grid: numpy's
    array loops multiply complex numbers with FMA, and on an AVX-512 Xeon 44 %
    of random products round otherwise on its scalar path.  Complex raises TypeError."""
    grid = np.atleast_1d(big_omega)
    if grid.dtype.kind == "c":  # a cast to float would drop the imaginary part
        raise TypeError(f"sideband grid must be real, got {grid.dtype}")
    return grid.astype(float, copy=False)


def _pair(west, south, grid: np.ndarray) -> np.ndarray:
    """A (west, south) field pair, (2, ...), its trailing axes broadcasting against ``grid``."""
    pair = np.array(np.broadcast_arrays(west, south))
    return pair.reshape(2, *(1,) * (grid.ndim + 1 - pair.ndim), *pair.shape[1:])


def _scattering_entries(params: InterferometerParams, b: SidebandBlocks) -> np.ndarray:
    """R_ifo = -R + T_tilde (Q^T M Q - R_breve) T_tilde / d, shape (2, 2, N)."""
    c, s, m, c_bar, s_bar, m_bar = b.factors
    (rho_w, rho_s), (t_w, t_s) = b.r_tilde, b.t_tilde
    n_00 = (c * c * m + s * s * m_bar) - rho_s
    n_11 = (s_bar ** 2 * m + c_bar ** 2 * m_bar) - rho_w
    n_01 = s * c_bar * m_bar - c * s_bar * m
    return np.array([
        [-params.r_w + t_w * n_00 * t_w / b.d, t_w * n_01 * t_s / b.d],
        [t_s * n_01 * t_w / b.d, -params.r_s + t_s * n_11 * t_s / b.d],
    ])


def _displacement_entries(b: SidebandBlocks) -> np.ndarray:
    """G = 2 R_m T_tilde^dagger (Q^dagger M^dagger - R_breve^dagger Q^T) X / d*,
    shape (2, 2, N)."""
    c, s, m, c_bar, s_bar, m_bar = b.factors
    (rho_w, rho_s), (t_w, t_s) = b.r_tilde.conj(), b.t_tilde.conj()
    k = 2 * m.real / b.d.conj()
    return np.array([
        [k * t_w * (s_bar * m - rho_s * s), k * t_w * (c_bar * m_bar - rho_s * c)],
        [k * t_s * (c * m - rho_w * c_bar), k * t_s * (rho_w * s_bar - s * m_bar)],
    ])


def scattering_matrix(params: InterferometerParams, big_omega: float) -> np.ndarray:
    """Two-port output scattering matrix R_ifo at one sideband frequency Omega of one set.

    Lossless by construction (R_ifo^dagger R_ifo = 1); grids and batches: `_scattering_entries`.
    """
    b = sideband_blocks(params, _one_point("scattering_matrix", big_omega, params)).checked()
    return _scattering_entries(params, b)[:, :, 0]


def displacement_transfer(params: InterferometerParams, big_omega: float) -> np.ndarray:
    """Displacement-to-field transfer matrix G at one sideband frequency Omega of one set.

    All frequency-dependent blocks are evaluated at omega_p + Omega.  Vanishes for
    a fully transparent membrane.  Grids and batches: `_displacement_entries`.
    """
    b = sideband_blocks(params, _one_point("displacement_transfer", big_omega, params)).checked()
    return _displacement_entries(b)[:, :, 0]


def classical_fields(params: InterferometerParams, pump: PortVector) -> IntracavityField:
    """Steady-state intracavity amplitudes driven by the classical pump.

    E = adj(D_e) T_tilde A / det D_e at omega_p; the dressed transmissivity
    T_tilde carries the single-pass propagation phase of each port.  The
    2x2 products are broadcast sums, so no result depends on a BLAS kernel.
    With array params or pump amplitudes, of any broadcast shape such as
    (N,) or (N, 1), the amplitudes are arrays of that shape, and the
    inverse is self-checked for every set; a failed check names the set by
    its flat index, as `SidebandBlocks.checked` does.
    """
    shape = _batch_shape(params, pump.west, pump.south)
    b = sideband_blocks(params, np.zeros(shape)).checked()
    d_e, d = b.d_e, b.d
    adj = np.array([[d_e[1, 1], -d_e[0, 1]], [-d_e[1, 0], d_e[0, 0]]])
    off = (adj[:, :, None] * d_e).sum(axis=1) / d - np.eye(2).reshape(2, 2, *(1,) * d.ndim)
    residual = np.abs(off).max(axis=(0, 1))
    if residual.max() > 1e-12:
        i = int(np.argmax(residual))  # flat, over the sets' shape
        omega = np.broadcast_to(b.omega, d.shape).flat[i]
        raise ArithmeticError(
            "closed-form mode inverse failed its self-check; "
            f"|D| = {abs(d.flat[i]):.3e} at omega = {float(omega)!r}"
        )
    e = (adj * (b.t_tilde * _pair(*pump.as_array(), d))).sum(axis=1) / d
    return IntracavityField(*(e if shape else e[:, 0].tolist()))  # complex for floats


def _batch_shape(params: InterferometerParams, *values) -> tuple:
    """Broadcast shape of every params field and ``values``: () for scalars."""
    return np.broadcast(*vars(params).values(), *values).shape


def _one_set(caller: str, *records) -> None:
    """Refuse batched params (exact or reduced) or fields: views and grid passes take one set."""
    shape = np.broadcast(*(value for record in records for value in vars(record).values())).shape
    if shape:
        hint = "; evaluate batched sets with sideband_blocks"  # it evaluates exact sets only
        raise ValueError(f"{caller} takes one parameter set at a time, got sets of shape {shape}"
                         + (hint if isinstance(records[0], InterferometerParams) else ""))


def _one_point(caller: str, big_omega, *records) -> np.ndarray:
    """The one-point grid of a scalar view: one real Omega (0-d arrays too) of one set."""
    if np.ndim(big_omega) > 0:
        raise ValueError(f"{caller} takes one Omega, got an array of shape {np.shape(big_omega)}")
    _one_set(caller, *records)
    return _real_grid(big_omega)


def oracle_solve(
    params: InterferometerParams,
    omega: float,
    inputs: PortVector,
    x: float,
    field: IntracavityField,
) -> OracleFields:
    """Brute-force solution of the raw single-bounce field equations.

    Stacks the five coupled two-component relations (output, return,
    inward, towards-membrane, off-membrane) into one dense 10x10 system
    and solves it with pivoted elimination -- no closed-form inverse
    anywhere on this path, which makes it the independent oracle for
    `scattering_matrix`, `displacement_transfer` and `classical_fields`.

    The cases are the broadcast shape, of any rank, of the params fields
    and ``omega``, as in `sideband_blocks`; each of their systems is
    factorized once.  The drives ``inputs``, ``x`` and ``field`` broadcast
    against the cases or carry leading drive axes, solved as right-hand
    sides of the same factorization.  Each result is (2, *drives, *cases):
    (2,) for scalars, (2, k, N, 1) for k drives of (N, 1) sets.

    Parameters
    ----------
    inputs : PortVector
        Incident sideband amplitudes at the two ports.
    x : float or array
        Membrane displacement amplitude at this sideband, m, per case and
        per drive like the amplitudes.
    field : IntracavityField
        Classical intracavity amplitudes the displacement beats against.
    """
    cases = _batch_shape(params, omega)
    full = _batch_shape(params, omega, x, inputs.west, inputs.south, field.e_plus, field.e_minus)
    drives = full[:len(full) - len(cases)]
    q = mode_mixer(params)
    a = (np.exp(1j * omega * params.tau_w), np.exp(1j * omega * params.tau_s))
    m = (np.exp(1j * params.theta_m), np.exp(-1j * params.theta_m))
    r, t = (params.r_w, params.r_s), (params.t_w, params.t_s)
    a_in, e = inputs.as_array(), field.as_array()
    x_drive = 2j * params.k_p * params.r_m * x
    # the stack of 1 - couplings, built in place: 1 on the diagonal, and each
    # unknown (b, c, d, e, f) = its couplings to the others + its source;
    # R, T, M and A are diagonal, so each block is written entry by entry
    system = np.zeros((*cases, 10, 10), dtype=complex)
    system[..., range(10), range(10)] = 1.0
    sources = np.zeros((10, *full), dtype=complex)
    for i in range(2):
        system[..., i, 2 + i] -= t[i]                    # b = -R a + T c
        system[..., 4 + i, 2 + i] -= r[i]                # d = T a + R c
        system[..., 8 + i, 6 + i] -= m[i]                # f = M e + 2 i k_p R_m X E x
        for j in range(2):
            system[..., 2 + i, 8 + j] -= a[i] * q[j, i]  # c = A Q^T f
            system[..., 6 + i, 4 + j] -= q[i, j] * a[j]  # e = Q A d
        sources[i] = -r[i] * a_in[i]
        sources[4 + i] = t[i] * a_in[i]
        sources[8 + i] = x_drive * e[1 - i]              # X swaps the modes
    # the drives, one column each (one column without drives), of each case's system
    rhs = np.moveaxis(sources.reshape(10, math.prod(drives), *cases), (0, 1), (-2, -1))
    sol = np.moveaxis(solve_dense(system, rhs), (-2, -1), (0, 1))
    return OracleFields(*(sol[i:i + 2].reshape(2, *full) for i in range(0, 10, 2)))

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

from .algebra import dagger, det2, solve_dense
from .errors import OpticalSingularity

__all__ = [
    "DEFAULT_DET_TOL",
    "InterferometerParams",
    "PortVector",
    "IntracavityField",
    "PropagationMatrices",
    "SidebandBlocks",
    "OracleFields",
    "mode_mixer",
    "fixed_matrices",
    "mode_dynamics",
    "sideband_blocks",
    "scattering_matrix",
    "displacement_transfer",
    "classical_fields",
    "oracle_solve",
]

SPEED_OF_LIGHT = 299792458.0

#: relative determinant floor, singular when |det D_e| <= det_tol (sum_ij |D_e,ij|)^2;
#: applies to det_tol=None, i.e. unless the config sets tolerances.det_tol
DEFAULT_DET_TOL = 1e-14

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class InterferometerParams:
    """Full geometric/optical description of the interferometer.

    Parameters
    ----------
    theta_m : float
        Membrane angle, rad; amplitude reflectivity R_m = cos(theta_m),
        transmissivity T_m = sin(theta_m).
    epsilon : float
        Beamsplitter imbalance angle, rad (balanced splitter at 0).
    kappa : float
        Dimensionless D.C. membrane offset, kappa = k_p * X.
    tau_s, tau_w : float
        One-way light travel times to the signal (south) and power (west)
        recycling mirrors, s.
    r_s, t_s, r_w, t_w : float
        Amplitude reflectivity/transmissivity of the recycling mirrors;
        each pair must satisfy r^2 + t^2 = 1.
    k_p : float
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
        for name, r, t in (("s", self.r_s, self.t_s), ("w", self.r_w, self.t_w)):
            if abs(r * r + t * t - 1.0) > 1e-12:
                raise ValueError(
                    f"r_{name}^2 + t_{name}^2 = {r * r + t * t!r} != 1"
                )
            if r < 0 or t < 0:
                raise ValueError(f"r_{name}, t_{name} must be non-negative")
        if not 0.0 <= self.theta_m <= math.pi / 2:
            raise ValueError(f"theta_m = {self.theta_m!r} outside [0, pi/2]")
        if not abs(self.epsilon) < math.pi / 4:
            raise ValueError(f"|epsilon| = {abs(self.epsilon)!r} >= pi/4")
        if self.tau_s <= 0 or self.tau_w <= 0 or self.k_p <= 0:
            raise ValueError("tau_s, tau_w and k_p must be positive")

    @property
    def r_m(self) -> float:
        return math.cos(self.theta_m)

    @property
    def t_m(self) -> float:
        return math.sin(self.theta_m)

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
        return np.array([self.west, self.south], dtype=complex)


@dataclass(frozen=True)
class IntracavityField:
    """Classical common/differential intracavity amplitudes, sqrt(photons/s)."""

    e_plus: complex
    e_minus: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.e_plus, self.e_minus], dtype=complex)


@dataclass(frozen=True)
class PropagationMatrices:
    """The frequency-dependent diagonal building blocks at one omega."""

    a: np.ndarray          # one-way propagation phases diag(e^{iw tau_w}, e^{iw tau_s})
    m: np.ndarray          # membrane mode phases diag(e^{i theta}, e^{-i theta})
    r: np.ndarray          # recycling-mirror reflectivities diag(r_w, r_s)
    t: np.ndarray          # recycling-mirror transmissivities diag(t_w, t_s)
    r_tilde: np.ndarray    # round-trip-dressed reflectivities
    t_tilde: np.ndarray    # single-pass-dressed transmissivities
    r_breve: np.ndarray    # r_tilde with swapped diagonal


@dataclass(frozen=True)
class SidebandBlocks:
    """Optical blocks shared by every sideband quantity, batched over Omega.

    The last axis runs over the N sideband frequencies; pairs are ordered
    (west, south).
    """

    omega: np.ndarray       # (N,) absolute frequencies omega_p + Omega, rad/s
    phases: np.ndarray      # (2, N) one-way phases e^{i omega tau}
    r_tilde: np.ndarray     # (2, N) r e^{2 i omega tau}
    t_tilde: np.ndarray     # (2, N) t e^{i omega tau}
    d_e: np.ndarray         # (2, 2, N) mode matrix D_e
    d: np.ndarray           # (N,) det D_e
    singular: np.ndarray    # (N,) at or below the relative determinant floor
    mixer: tuple[complex, complex]  # (C, S) of mode_mixer
    membrane: complex               # e^{i theta_m}

    def checked(self) -> SidebandBlocks:
        """These blocks; raises OpticalSingularity at the first singular point."""
        if self.singular.any():
            i = int(np.argmax(self.singular))
            raise OpticalSingularity(float(self.omega[i]), complex(self.d[i]))
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
    for a symmetric interferometer.
    """
    c, s = _mixer(params)
    return np.array([[c, -s.conjugate()], [s, c.conjugate()]])


def _mixer(params: InterferometerParams) -> tuple[complex, complex]:
    ce, se = math.cos(params.epsilon), math.sin(params.epsilon)
    ck, sk = math.cos(params.kappa), math.sin(params.kappa)
    return ce * ck + 1j * se * sk, se * ck + 1j * ce * sk


def fixed_matrices(params: InterferometerParams, omega: float) -> PropagationMatrices:
    """Assemble the diagonal propagation/mirror matrices at frequency omega."""
    phase_w = np.exp(1j * omega * params.tau_w)
    phase_s = np.exp(1j * omega * params.tau_s)
    a = np.diag([phase_w, phase_s])
    m = np.diag([np.exp(1j * params.theta_m), np.exp(-1j * params.theta_m)])
    r = np.diag([params.r_w, params.r_s]).astype(complex)
    t = np.diag([params.t_w, params.t_s]).astype(complex)
    r_tilde = np.diag([params.r_w * phase_w**2, params.r_s * phase_s**2])
    t_tilde = np.diag([params.t_w * phase_w, params.t_s * phase_s])
    r_breve = np.diag([r_tilde[1, 1], r_tilde[0, 0]])
    return PropagationMatrices(a, m, r, t, r_tilde, t_tilde, r_breve)


def mode_dynamics(
    params: InterferometerParams,
    omega: float,
    det_tol: float | None = None,
) -> tuple[np.ndarray, np.ndarray, complex]:
    """Optical mode dynamics matrix D_e, its closed-form inverse, and det.

    D_e = Q^dagger - R_tilde Q^T M encodes one round trip of the coupled
    common/differential modes; its inverse is the resonant enhancement.

    Raises
    ------
    OpticalSingularity
        When ``|det D_e|`` falls below the (relative) determinant floor,
        i.e. the configuration sits on an exactly degenerate resonance.
    """
    q = mode_mixer(params)
    p = fixed_matrices(params, omega)
    d_e = dagger(q) - p.r_tilde @ q.T @ p.m
    d = det2(d_e)
    tol = DEFAULT_DET_TOL if det_tol is None else det_tol
    scale = float(np.abs(d_e).sum())  # O(1) for these unitary-built blocks
    if abs(d) <= tol * scale * scale:
        raise OpticalSingularity(omega, d)
    d_e_inv = (q - dagger(p.m) @ q.conj() @ p.r_breve) / d
    if np.abs(d_e_inv @ d_e - np.eye(2)).max() > 1e-12:
        raise ArithmeticError(
            "closed-form mode inverse failed its self-check; "
            f"|D| = {abs(d):.3e} at omega = {omega!r}"
        )
    return d_e, d_e_inv, d


def sideband_blocks(
    params: InterferometerParams,
    big_omega,
    det_tol: float | None = None,
) -> SidebandBlocks:
    """The shared optical blocks at omega_p + Omega for every Omega at once.

    D_e = Q^dagger - R_tilde Q^T M is written out entry by entry, so no
    result depends on a BLAS kernel.  Singular points are flagged in
    ``singular``, not raised; `SidebandBlocks.checked` raises for them.
    Pass a 1-D array even for one point: elementwise array loops round
    the same for any length, numpy's 0-d scalar arithmetic does not.
    """
    omega = params.omega_p + np.asarray(big_omega, dtype=float)
    phases = np.exp(1j * (np.array([[params.tau_w], [params.tau_s]]) * omega))
    r_tilde = np.array([[params.r_w], [params.r_s]]) * phases * phases
    t_tilde = np.array([[params.t_w], [params.t_s]]) * phases
    c, s = _mixer(params)
    m = complex(math.cos(params.theta_m), math.sin(params.theta_m))
    rho_w, rho_s = r_tilde
    d_e = np.array([
        [c.conjugate() - rho_w * (c * m), s.conjugate() - rho_w * (s * m.conjugate())],
        [rho_s * (s.conjugate() * m) - s, c - rho_s * (c.conjugate() * m.conjugate())],
    ])
    d = det2(d_e)
    tol = DEFAULT_DET_TOL if det_tol is None else det_tol
    mag = np.abs(d_e)
    scale = mag[0, 0] + mag[0, 1] + mag[1, 0] + mag[1, 1]
    singular = np.abs(d) <= tol * scale * scale
    return SidebandBlocks(omega, phases, r_tilde, t_tilde, d_e, d, singular, (c, s), m)


def scattering_matrix(
    params: InterferometerParams,
    omega: float,
    det_tol: float | None = None,
) -> np.ndarray:
    """Two-port output scattering matrix R_ifo(omega).

    Lossless by construction: R_ifo^dagger R_ifo = 1 for any parameters.
    Written entry by entry as -R + T_tilde (Q^T M Q - R_breve) T_tilde / d.
    omega - omega_p + omega_p is exactly omega within a factor 2 of omega_p.
    """
    b = sideband_blocks(params, np.array([omega - params.omega_p]), det_tol).checked()
    (c, s), m = b.mixer, b.membrane
    (rho_w, rho_s), (t_w, t_s) = b.r_tilde, b.t_tilde
    n_00 = (c * c * m + s * s * m.conjugate()) - rho_s
    n_11 = (s.conjugate() ** 2 * m + c.conjugate() ** 2 * m.conjugate()) - rho_w
    n_01 = s * c.conjugate() * m.conjugate() - c * s.conjugate() * m
    return np.array([
        [-params.r_w + t_w * n_00 * t_w / b.d, t_w * n_01 * t_s / b.d],
        [t_s * n_01 * t_w / b.d, -params.r_s + t_s * n_11 * t_s / b.d],
    ])[:, :, 0]


def displacement_transfer(
    params: InterferometerParams,
    big_omega: float,
    det_tol: float | None = None,
) -> np.ndarray:
    """Displacement-to-field transfer matrix G at sideband frequency Omega.

    All frequency-dependent blocks are evaluated at the absolute frequency
    omega_p + Omega.  Vanishes for a fully transparent membrane.  Written
    entry by entry as 2 R_m T_tilde^dagger (Q^dagger M^dagger -
    R_breve^dagger Q^T) X / d*.
    """
    b = sideband_blocks(params, np.array([big_omega], dtype=float), det_tol).checked()
    (c, s), m = b.mixer, b.membrane
    (rho_w, rho_s), (t_w, t_s) = b.r_tilde.conj(), b.t_tilde.conj()
    k = 2 * params.r_m / b.d.conj()
    return np.array([
        [k * t_w * (s.conjugate() * m - rho_s * s),
         k * t_w * (c.conjugate() * m.conjugate() - rho_s * c)],
        [k * t_s * (c * m - rho_w * c.conjugate()),
         k * t_s * (rho_w * s.conjugate() - s * m.conjugate())],
    ])[:, :, 0]


def classical_fields(
    params: InterferometerParams,
    pump: PortVector,
    det_tol: float | None = None,
) -> IntracavityField:
    """Steady-state intracavity amplitudes driven by the classical pump.

    E = adj(D_e) T_tilde A / det D_e at omega_p; the dressed transmissivity
    T_tilde carries the single-pass propagation phase of each port.  The
    2x2 products are broadcast sums, so no result depends on a BLAS kernel.
    """
    b = sideband_blocks(params, np.zeros(1), det_tol).checked()
    d_e, d = b.d_e[:, :, 0], b.d[0]
    adj = np.array([[d_e[1, 1], -d_e[0, 1]], [-d_e[1, 0], d_e[0, 0]]])
    residual = np.abs((adj[:, :, None] * d_e).sum(axis=1) / d - np.eye(2)).max()
    if residual > 1e-12:
        raise ArithmeticError(
            "closed-form mode inverse failed its self-check; "
            f"|D| = {abs(d):.3e} at omega = {params.omega_p!r}"
        )
    e = (adj * (b.t_tilde[:, 0] * pump.as_array())).sum(axis=1) / d
    return IntracavityField(complex(e[0]), complex(e[1]))


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

    Parameters
    ----------
    inputs : PortVector
        Incident sideband amplitudes at the two ports.
    x : float
        Membrane displacement amplitude at this sideband, m.
    field : IntracavityField
        Classical intracavity amplitudes the displacement beats against.
    """
    q = mode_mixer(params)
    p = fixed_matrices(params, omega)
    ident = np.eye(2, dtype=complex)
    a_in = inputs.as_array()
    e_cl = field.as_array()

    sl = {name: slice(2 * i, 2 * i + 2) for i, name in enumerate("bcdef")}
    sys = np.zeros((10, 10), dtype=complex)
    rhs = np.zeros(10, dtype=complex)

    # b = -R a + T c
    sys[sl["b"], sl["b"]] = ident
    sys[sl["b"], sl["c"]] = -p.t
    rhs[sl["b"]] = -p.r @ a_in
    # c = A Q^T f
    sys[sl["c"], sl["c"]] = ident
    sys[sl["c"], sl["f"]] = -p.a @ q.T
    # d = T a + R c
    sys[sl["d"], sl["d"]] = ident
    sys[sl["d"], sl["c"]] = -p.r
    rhs[sl["d"]] = p.t @ a_in
    # e = Q A d
    sys[sl["e"], sl["e"]] = ident
    sys[sl["e"], sl["d"]] = -q @ p.a
    # f = M e + 2 i k_p R_m X E x   (membrane bounce + displacement source)
    sys[sl["f"], sl["f"]] = ident
    sys[sl["f"], sl["e"]] = -p.m
    rhs[sl["f"]] = 2j * params.k_p * params.r_m * (_X @ e_cl) * x

    sol = solve_dense(sys, rhs)
    return OracleFields(*(sol[sl[name]] for name in "bcdef"))

"""Optical cooling: thermal baths, steady-state occupancy, pump optimisation.

Fluctuation-dissipation fixes the thermal force spectra of the mechanical
bath; the radiation-pressure spectra of the optical bath are supplied by
the exact two-port model.  Their spectral asymmetries set the steady-state
phonon number, and the pump split between the common and differential
optical modes is the tuning knob the optimiser sweeps.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFrequency,
    NonpositiveTemperature,
    UnreachableField,
    UnstableSystem,
)
from .radiation_pressure import _force_entries, _noise_form
from .scattering import (
    HBAR,
    K_BOLTZMANN,
    InterferometerParams,
    IntracavityField,
    PortVector,
    classical_fields,
    sideband_blocks,
)

__all__ = [
    "MechanicalMode",
    "RegimeFlags",
    "CoolingResult",
    "PumpOptimum",
    "thermal_occupation",
    "thermal_spectra",
    "occupancy",
    "occupancy_simplified",
    "optimize_pump",
    "pump_for_intracavity",
]

#: margin each simplifying inequality needs for the one-line occupancy
REGIME_MARGIN = 10.0


def thermal_occupation(temperature: float, omega: float) -> float:
    """Bose occupation n_T = 1 / (exp(hbar|Omega|/kT) - 1).

    Algebraically identical to the coth form 2 n_T + 1 =
    coth(hbar|Omega| / 2kT).
    """
    if not temperature > 0.0:
        raise NonpositiveTemperature(f"temperature {temperature!r} K")
    if omega == 0.0:
        raise DegenerateFrequency("thermal occupation diverges at Omega = 0")
    x = HBAR * abs(omega) / (K_BOLTZMANN * temperature)
    if x > 700.0:  # expm1 overflows; the Boltzmann tail is exact to doubles
        return math.exp(-x)
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class MechanicalMode:
    """Mechanical oscillator coupled to its native heat bath.

    ``omega_m`` is the effective resonance frequency with any optical
    spring shift already absorbed.  The bath is given either as a
    temperature or directly as an occupation number.
    """

    omega_m: float          # rad/s
    h_friction: float       # kg/s
    temperature: float | None = None
    n_thermal: float | None = None

    def __post_init__(self):
        if not self.omega_m > 0.0:
            raise ValueError(f"omega_m = {self.omega_m!r} must be positive")
        if not self.h_friction > 0.0:
            raise ValueError(f"h_friction = {self.h_friction!r} must be positive")
        if (self.temperature is None) == (self.n_thermal is None):
            raise ValueError("give exactly one of temperature, n_thermal")
        if self.temperature is not None and not self.temperature > 0.0:
            raise ValueError(f"temperature = {self.temperature!r} K must be positive")
        if self.n_thermal is not None and not self.n_thermal >= 0.0:
            raise ValueError(f"n_thermal = {self.n_thermal!r} must be >= 0")

    @property
    def n_t(self) -> float:
        if self.n_thermal is not None:
            return self.n_thermal
        return thermal_occupation(self.temperature, self.omega_m)


def thermal_spectra(mode: MechanicalMode) -> tuple[float, float]:
    """Non-symmetrised thermal force spectra at +/-omega_m, N^2 s.

    s(+) = 2 hbar omega_m H (n_T + 1), s(-) = 2 hbar omega_m H n_T: the
    unique pair whose symmetrised sum satisfies fluctuation-dissipation
    and whose difference satisfies the Kubo relation for friction H.
    """
    base = 2.0 * HBAR * mode.omega_m * mode.h_friction
    n_t = mode.n_t
    return base * (n_t + 1.0), base * n_t


@dataclass(frozen=True)
class RegimeFlags:
    """Margins of the simplifying inequalities behind the one-line occupancy.

    Each margin is "how many times over" the inequality holds; a margin of
    at least `REGIME_MARGIN` on all three justifies
    n ~= s_thermal(-) / s_force(+).
    """

    thermal_asymmetry: float    # s_t(+-) / (s_t(+) - s_t(-))
    force_asymmetry: float      # s_f(+) / s_f(-)
    weak_backaction: float      # s_t(-) / s_f(-)

    @property
    def ok(self) -> bool:
        return (
            self.thermal_asymmetry >= REGIME_MARGIN
            and self.force_asymmetry >= REGIME_MARGIN
            and self.weak_backaction >= REGIME_MARGIN
        )


@dataclass(frozen=True)
class CoolingResult:
    """Steady-state phonon number with its spectral breakdown."""

    n_bar: float
    n_bar_sym_form: float   # same number via the symmetrised-density route
    s_t_pos: float
    s_t_neg: float
    s_f_pos: float
    s_f_neg: float
    h_opt: float
    flags: RegimeFlags


def _flags(s_t_pos, s_t_neg, s_f_pos, s_f_neg) -> RegimeFlags:
    def ratio(num, den):
        if den <= 0.0:
            return math.inf
        return num / den

    return RegimeFlags(
        thermal_asymmetry=ratio(s_t_neg, s_t_pos - s_t_neg),
        force_asymmetry=ratio(s_f_pos, s_f_neg),
        weak_backaction=ratio(s_t_neg, s_f_neg),
    )


def occupancy(mode: MechanicalMode, s_f_pos: float, s_f_neg: float) -> CoolingResult:
    """Steady-state phonon number from thermal plus optical spectra.

    1/n + 1 = [s_t(+) + s_f(+)] / [s_t(-) + s_f(-)], with both spectra
    taken at the mechanical resonance.  The symmetrised-density form
    (2n + 1 = (S_t + S_f) / (hbar omega_m (H + H_opt))) is evaluated as a
    cross-check; the two are algebraically identical.

    Raises
    ------
    UnstableSystem
        When the total damping H + H_opt is not positive (optical
        anti-damping exceeds the mechanical friction).
    """
    s_t_pos, s_t_neg = thermal_spectra(mode)
    h_opt = (s_f_pos - s_f_neg) / (2.0 * HBAR * mode.omega_m)
    if mode.h_friction + h_opt <= 0.0:
        raise UnstableSystem(
            f"H + H_opt = {mode.h_friction + h_opt!r} kg/s <= 0 "
            "(optical anti-damping)"
        )
    num = s_t_neg + s_f_neg
    den = (s_t_pos + s_f_pos) - num
    n_bar = num / den
    s_t_sym = (s_t_pos + s_t_neg) / 2.0
    s_f_sym = (s_f_pos + s_f_neg) / 2.0
    two_n_plus_1 = (s_t_sym + s_f_sym) / (
        HBAR * mode.omega_m * (mode.h_friction + h_opt)
    )
    return CoolingResult(
        n_bar=n_bar,
        n_bar_sym_form=(two_n_plus_1 - 1.0) / 2.0,
        s_t_pos=s_t_pos,
        s_t_neg=s_t_neg,
        s_f_pos=s_f_pos,
        s_f_neg=s_f_neg,
        h_opt=h_opt,
        flags=_flags(s_t_pos, s_t_neg, s_f_pos, s_f_neg),
    )


def occupancy_simplified(mode: MechanicalMode, s_f_pos: float) -> float:
    """One-line occupancy n = s_thermal(-) / s_force(+).

    Valid when the regime flags of `occupancy` pass: small thermal
    asymmetry, strongly asymmetric force noise, anti-Stokes force noise
    far below thermal.  Callers probing regime breakdown get the raw
    number regardless; consult `CoolingResult.flags` for the margins.
    """
    _, s_t_neg = thermal_spectra(mode)
    return s_t_neg / s_f_pos


@dataclass(frozen=True)
class PumpOptimum:
    """Result of the fixed-energy pump optimisation."""

    field: IntracavityField
    chi: float
    phi: float
    result: CoolingResult
    chi_grid: np.ndarray
    phi_grid: np.ndarray
    n_bar_grid: np.ndarray      # inf where anti-damped
    s_f_pos_grid: np.ndarray
    s_f_neg_grid: np.ndarray


def _min_ratio(a, b) -> tuple[float, complex, complex]:
    """min of v^dag A v / v^dag B v over v^dag B v > 0, and its v.

    A (positive semidefinite) and B are Hermitian 2x2 as (x00, x11, x01).
    The minimum is 1/lambda_max of det(B - lambda A) = 0, taken as
    2 det A / (c + sqrt(c^2 - 4 det A det B)) with c the linear
    coefficient; v spans the null space of A - min B.  A singular A gives
    0 on its null space, which `optimize_pump` reaches only without
    thermal anti-Stokes noise, where B = P+ + ((s_t+ - s_t-) / E) 1 > 0.
    Raises UnstableSystem if lambda_max <= 0, or if B is not positive on
    the null space of a singular A.
    """
    # a common scale leaves ratio and v unchanged; it keeps the fourth
    # powers below from underflowing
    scale = a[0] + a[1] + abs(b[0]) + abs(b[1])
    a00, a11, a01 = (x / scale for x in a)
    b00, b11, b01 = (x / scale for x in b)
    det_a = a00 * a11 - (a01.real**2 + a01.imag**2)
    det_b = b00 * b11 - (b01.real**2 + b01.imag**2)
    c = a00 * b11 + a11 * b00 - 2.0 * (a01 * b01.conjugate()).real
    ratio = 0.0
    if det_a > 0.0:
        root_sum = c + math.sqrt(max(c * c - 4.0 * det_a * det_b, 0.0))
        if root_sum <= 0.0:
            raise UnstableSystem("every pump split is anti-damped")
        ratio = 2.0 * det_a / root_sum
    m00, m11, m01 = a00 - ratio * b00, a11 - ratio * b11, a01 - ratio * b01
    # null vector of the rank <= 1 matrix M from its larger diagonal entry
    v0, v1 = (m01, -m00) if abs(m00) >= abs(m11) else (-m11, m01.conjugate())
    if v0 == v1 == 0.0:  # M = 0: every v is optimal
        v0 = 1.0
    b_form = (b00 * abs(v0) ** 2 + b11 * abs(v1) ** 2
              + 2.0 * (v0.conjugate() * b01 * v1).real)
    if det_a <= 0.0 and b_form <= 0.0:
        raise UnstableSystem("every pump split is anti-damped")
    return ratio, v0, v1


def optimize_pump(
    params: InterferometerParams,
    mode: MechanicalMode,
    energy_budget: float,
    grid_size: int = 64,
    constraint: str = "intracavity",
) -> PumpOptimum:
    """Minimise the phonon number over the pump split at fixed energy.

    With the pump e = sqrt(E) v, v = (cos chi, sin chi e^{i phi}) and
    E = energy_budget, the force spectra at +/-omega_m are `_noise_form`,
    hbar^2 k_p^2 |e^dag F|^2, on the +/-omega_m blocks of `noise_spectra`:
    every optimum's ``result`` is bit for bit `occupancy` of its field.  As
    E v^dag P+- v, P = hbar^2 k_p^2 F F^dag (built only for this pencil),
    they give n = v^dag A v / v^dag B v with A = P- + (s_t- / E) 1 and
    B = P+ - P- + ((s_t+ - s_t-) / E) 1.  1/n is a generalised Rayleigh
    quotient of B against A: the minimum n is 1/lambda_max of
    det(B - lambda A) = 0, the optimal split its eigenvector, both in
    closed form from the 2x2 entries.  With ``constraint="injected"`` v
    holds the port amplitudes (fixed injected flux |A_w|^2 + |A_s|^2) and
    the pencil and landscape take W^dag F, W = D_e^{-1} T_tilde from one
    `classical_fields` call on the two unit port drives; the intracavity
    optimum does not carry over.

    ``grid_size`` only sets the resolution of the returned landscape (n,
    inf where anti-damped, and the force spectra on a grid_size^2 mesh of
    (chi, phi)) for plotting; the optimum does not use it.

    Raises
    ------
    UnstableSystem
        If every pump split is anti-damped.
    """
    if not energy_budget > 0.0:
        raise ValueError(f"energy_budget = {energy_budget!r} must be positive")
    if constraint not in ("intracavity", "injected"):
        raise ValueError(f"unknown constraint {constraint!r}")

    blocks = sideband_blocks(params, np.array([[mode.omega_m], [-mode.omega_m]])).checked()
    f = wf = _force_entries(blocks)  # (2, 2, pair, 1): the +/-omega_m blocks of `noise_spectra`
    if constraint == "injected":
        # W: column j is the intracavity field of a unit drive at port j
        w = classical_fields(params, PortVector(*np.eye(2))).as_array()
        wf = (w.conj().reshape(2, 2, 1, 1, 1) * f[:, np.newaxis]).sum(axis=0)  # W^dagger F
    # P+- = hbar^2 k_p^2 F F^dagger as (p00, p11, p01), the pencil's only input
    g = (HBAR**2 * params.k_p**2 * (wf[:, np.newaxis] * wf.conj()).sum(axis=2)[..., 0]).tolist()
    p_pos, p_neg = ((g[0][0][i].real, g[1][1][i].real, g[0][1][i]) for i in (0, 1))

    s_t_pos, s_t_neg = thermal_spectra(mode)
    root = math.sqrt(energy_budget)

    def pump(chi, phi):  # sqrt(E) (cos chi, sin chi e^{i phi}) over chi, phi broadcast
        return root * np.array(np.broadcast_arrays(np.cos(chi), np.sin(chi) * np.exp(1j * phi)))

    chi_grid = np.linspace(0.0, math.pi / 2.0, grid_size)
    phi_grid = np.linspace(0.0, 2.0 * math.pi, grid_size, endpoint=False)
    s_f_pos_grid, s_f_neg_grid = _noise_form(
        params.k_p, pump(chi_grid[:, np.newaxis], phi_grid), wf[..., np.newaxis])
    num = s_t_neg + s_f_neg_grid
    den = (s_t_pos + s_f_pos_grid) - num
    n_grid = np.where(den > 0.0, num / np.maximum(den, 1e-300), np.inf)

    t_neg, t_diff = s_t_neg / energy_budget, (s_t_pos - s_t_neg) / energy_budget
    _, v0, v1 = _min_ratio(
        (p_neg[0] + t_neg, p_neg[1] + t_neg, p_neg[2]),
        (p_pos[0] - p_neg[0] + t_diff, p_pos[1] - p_neg[1] + t_diff,
         p_pos[2] - p_neg[2]),
    )
    best_chi = math.atan2(abs(v1), abs(v0))
    best_phi = cmath.phase(v1 * v0.conjugate()) % (2.0 * math.pi)

    e = pump(best_chi, best_phi)
    if constraint == "injected":
        field = classical_fields(params, PortVector(*e.tolist()))
    else:
        field = IntracavityField(*e.tolist())
    result = occupancy(mode, *_noise_form(params.k_p, field.as_array(), f)[:, 0].tolist())
    return PumpOptimum(
        field=field,
        chi=best_chi,
        phi=best_phi,
        result=result,
        chi_grid=chi_grid,
        phi_grid=phi_grid,
        n_bar_grid=n_grid,
        s_f_pos_grid=s_f_pos_grid,
        s_f_neg_grid=s_f_neg_grid,
    )


def pump_for_intracavity(params: InterferometerParams, field: IntracavityField) -> PortVector:
    """Port amplitudes that sustain a requested intracavity field.

    Inverts the classical steady state: A = T_tilde^{-1} D_e E at the pump
    frequency, written entry by entry on the carrier `sideband_blocks`.
    Round-trips with `classical_fields` whenever both ports are open.

    Raises
    ------
    UnreachableField
        If a port with zero transmissivity would have to carry drive.
    """
    b = sideband_blocks(params, np.zeros(1)).checked()
    d_e = b.d_e[:, :, 0]
    needed = d_e[:, 0] * field.e_plus + d_e[:, 1] * field.e_minus
    amplitudes = []
    for idx, port in ((0, "west"), (1, "south")):
        t = b.t_tilde[idx, 0]
        if abs(t) == 0.0:
            if abs(needed[idx]) > 0.0:
                raise UnreachableField(
                    f"{port} port is closed (t = 0) but needs drive "
                    f"{needed[idx]!r}"
                )
            amplitudes.append(0.0 + 0.0j)
        else:
            amplitudes.append(needed[idx] / t)
    return PortVector(west=amplitudes[0], south=amplitudes[1])

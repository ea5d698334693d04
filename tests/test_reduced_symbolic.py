"""Symbolic oracle for the reduced model: D_e expanded in sympy.

The reduced model's resonance ell(Omega) = gamma - i(delta + Omega), with
the asymmetry rates gamma_m and delta_m of `lumped_mode.asymmetry_rates`,
and its mode response W are hand-typed.  Here D_e at r_w = 0 is
transcribed into sympy entry by entry, as `scattering.sideband_blocks`
forms it, its determinant tied to the kernel's ``d`` at random points, and
expanded with epsilon, kappa and t_s of order lambda and
x = (delta_s + Omega) tau_s of order lambda^2.  The lambda^2 coefficient of
det D_e must be 2 tau_s ell(Omega), and the leading coefficient of each
entry of adj(D_e) diag(1, t_s), the stripped D_e^-1 T_tilde times det D_e,
must be 2 tau_s ell(Omega) W.  The exact force matrix is that response
times 2 R_m [[0, m*], [m, 0]], which ties W to the force noise.
"""
import math
from pathlib import Path

import numpy as np
import sympy as sp

import msinoise
from msinoise.lumped_mode import (
    LumpedParams, _approx_mode_entries, asymmetry_polar, from_exact, lorentzians,
)
from msinoise.radiation_pressure import _force_entries
from msinoise.scattering import InterferometerParams, sideband_blocks
from msinoise.verify import _conv_params, _random_params

EPS, KAP, THETA = sp.symbols("epsilon kappa theta_m", real=True)
RHO_S = sp.Symbol("rho_s")  # r_s e^{2 i omega tau_s}, the kernel's r_tilde[1]
LAM, T_S, X = sp.symbols("lambda t_s x", real=True)


def d_e_matrix(eps, kap, theta, rho_s):
    """D_e at r_w = 0 (rho_w = 0), with D_e = Q^dagger - R_tilde Q^T M
    written entry by entry as `sideband_blocks` writes it."""
    c = sp.cos(eps) * sp.cos(kap) + sp.I * sp.sin(eps) * sp.sin(kap)
    s = sp.sin(eps) * sp.cos(kap) + sp.I * sp.cos(eps) * sp.sin(kap)
    m = sp.exp(sp.I * theta)
    c_bar, s_bar, m_bar = (sp.conjugate(z) for z in (c, s, m))
    return sp.Matrix([[c_bar, s_bar], [rho_s * s_bar * m - s, c - rho_s * c_bar * m_bar]])


D_E = d_e_matrix(EPS, KAP, THETA, RHO_S)
DET = D_E.det()
# delta_s tau_s = omega_p tau_s - theta_m / 2 (mod pi), as `from_exact`
# reads it, so e^{2 i omega tau_s} = e^{i theta_m} e^{2 i x}
SCALED_RHO_S = sp.sqrt(1 - (LAM * T_S) ** 2) * sp.exp(sp.I * THETA) * sp.exp(2 * sp.I * LAM**2 * X)
SCALING = {RHO_S: SCALED_RHO_S, EPS: LAM * EPS, KAP: LAM * KAP}


def order(expr, k):
    """The lambda^k coefficient of ``expr``."""
    return expr.diff(LAM, k).subs(LAM, 0) / math.factorial(k)


def random_record(rng):
    """Random small-asymmetry point: the unscaled symbols and their record."""
    eps, kap, theta = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0, 1.5)
    tau_s, t_s = rng.uniform(1e-10, 1e-8), rng.uniform(0.0, 0.3)
    delta_s, big_omega = rng.uniform(-1e8, 1e8, 2)
    p, alpha = asymmetry_polar(eps, kap)
    # gamma_s = t_s^2 / 4 tau_s as `from_exact` sets it; gamma_m and delta_m
    # come from `asymmetry_rates`, through the record's gamma and delta
    lp = LumpedParams(gamma_s=t_s**2 / (4.0 * tau_s), delta_s=delta_s, tau_s=tau_s, p=p,
                      alpha=alpha, theta_m=theta, k_p=1.0)
    return (eps, kap, theta, t_s, (delta_s + big_omega) * tau_s), lp, big_omega


def test_transcription_is_the_kernel_determinant():
    det = sp.lambdify((EPS, KAP, THETA, RHO_S), DET, "numpy")
    rng = np.random.default_rng(29)
    n = 24
    t_s = rng.uniform(0.0, 1.0, n)
    params = InterferometerParams(
        theta_m=rng.uniform(0.0, math.pi / 2, n), epsilon=rng.uniform(-0.7, 0.7, n),
        kappa=rng.uniform(-3.0, 3.0, n), tau_s=rng.uniform(1e-10, 1e-8, n),
        tau_w=rng.uniform(1e-10, 1e-8, n), r_s=np.sqrt(1.0 - t_s**2), t_s=t_s,
        r_w=np.zeros(n), t_w=np.ones(n), k_p=rng.uniform(5e6, 1e7, n),
    )
    b = sideband_blocks(params, rng.uniform(-1e9, 1e9, n))
    symbolic = det(params.epsilon, params.kappa, params.theta_m, b.r_tilde[1])
    assert np.abs(symbolic - b.d).max() <= 1e-12


def test_leading_order_is_twice_tau_s_ell():
    scaled = DET.subs(SCALING)
    orders = [order(scaled, k) for k in range(3)]
    assert [sp.simplify(o) for o in orders[:2]] == [0, 0]
    second = sp.lambdify((EPS, KAP, THETA, T_S, X), orders[2], "numpy")

    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(24):
        point, lp, big_omega = random_record(rng)
        ell, _ = lorentzians(lp, big_omega)
        twice_tau_ell = 2.0 * lp.tau_s * ell
        worst = max(worst, abs(second(*point) - twice_tau_ell) / abs(twice_tau_ell))
    assert worst <= 1e-12


def test_force_is_twice_r_m_swap_times_the_mode_response():
    # F = 2 R_m [[0, m*], [m, 0]] adj(D_e) T_tilde / d, with power recycling too
    rng = np.random.default_rng(31)
    n = 200
    params = _random_params(rng, n)
    b = sideband_blocks(params, rng.uniform(-1e9, 1e9, n))
    d_e = b.d_e
    adj = np.array([[d_e[1, 1], -d_e[0, 1]], [-d_e[1, 0], d_e[0, 0]]])
    w = adj * b.t_tilde[np.newaxis] / b.d
    m = np.exp(1j * params.theta_m)
    swap = np.array([[np.zeros(n), m.conj()], [m, np.zeros(n)]])
    f = 2.0 * params.r_m * np.einsum("ijn,jkn->ikn", swap, w)
    exact = _force_entries(b)
    assert (np.abs(f - exact).max(axis=(0, 1)) / np.abs(exact).max(axis=(0, 1))).max() <= 1e-12


def test_mode_response_is_the_leading_order_of_the_stripped_inverse():
    # adj(D_e) diag(1, t_s) = d D_e^-1 T_tilde without the port phases; the
    # top row starts at lambda^2, the bottom row at lambda
    scaled = (D_E.adjugate() * sp.diag(1, LAM * T_S)).subs(SCALING)
    leading = {}
    for i, j in np.ndindex(2, 2):
        first = 2 - i
        assert [sp.simplify(order(scaled[i, j], k)) for k in range(first)] == [0] * first
        leading[i, j] = sp.lambdify((EPS, KAP, THETA, T_S, X), order(scaled[i, j], first), "numpy")

    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(24):
        point, lp, big_omega = random_record(rng)
        ell, _ = lorentzians(lp, big_omega)
        expected = 2.0 * lp.tau_s * ell * _approx_mode_entries(lp, np.array([big_omega]))[:, :, 0]
        for (i, j), coefficient in leading.items():
            worst = max(worst, abs(coefficient(*point) - expected[i, j]) / abs(expected[i, j]))
    assert worst <= 1e-12


def test_kernel_determinant_approaches_twice_tau_s_ell():
    # numeric backstop on the convergence configuration: the next order is
    # lambda^4, so the relative gap falls as p^2, x0.25 per halving of p
    gaps = []
    for p in (0.02, 0.01, 0.005):
        params = _conv_params(p)
        lp = from_exact(params)
        grid = np.linspace(-5 * lp.gamma, 5 * lp.gamma, 41)
        ell, _ = lorentzians(lp, grid)
        gaps.append(np.abs(sideband_blocks(params, grid).d / (2.0 * lp.tau_s * ell) - 1).max())
    ratios = [gaps[1] / gaps[0], gaps[2] / gaps[1]]
    assert gaps[0] <= 0.05
    assert all(0.125 <= ratio <= 0.375 for ratio in ratios), (gaps, ratios)


def test_the_package_does_not_import_sympy():
    # sympy is a test dependency: the install needs numpy alone
    package = Path(msinoise.__file__).parent
    assert not [path.name for path in package.glob("*.py") if "sympy" in path.read_text()]

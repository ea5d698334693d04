"""Symbolic oracle for the reduced model: det D_e expanded in sympy.

The reduced model's resonance ell(Omega) = gamma - i(delta + Omega), with
the asymmetry rates gamma_m and delta_m of `lumped_mode.asymmetry_rates`,
is hand-typed.  Here det D_e at r_w = 0 is transcribed into sympy entry by
entry, as `scattering.sideband_blocks` forms D_e, tied to the kernel's
``d`` at random points, and expanded with epsilon, kappa and t_s of order
lambda and x = (delta_s + Omega) tau_s of order lambda^2.  Its lambda^2
coefficient must be 2 tau_s ell(Omega).
"""
import math
from pathlib import Path

import numpy as np
import sympy as sp

import msinoise
from msinoise.lumped_mode import (
    LumpedParams, asymmetry_polar, from_exact, lorentzians,
)
from msinoise.scattering import InterferometerParams, sideband_blocks
from msinoise.verify import _conv_params

EPS, KAP, THETA = sp.symbols("epsilon kappa theta_m", real=True)
RHO_S = sp.Symbol("rho_s")  # r_s e^{2 i omega tau_s}, the kernel's r_tilde[1]
LAM, T_S, X = sp.symbols("lambda t_s x", real=True)


def det_d_e(eps, kap, theta, rho_s):
    """det D_e at r_w = 0 (rho_w = 0), with D_e = Q^dagger - R_tilde Q^T M
    written entry by entry as `sideband_blocks` writes it."""
    c = sp.cos(eps) * sp.cos(kap) + sp.I * sp.sin(eps) * sp.sin(kap)
    s = sp.sin(eps) * sp.cos(kap) + sp.I * sp.cos(eps) * sp.sin(kap)
    m = sp.exp(sp.I * theta)
    c_bar, s_bar, m_bar = (sp.conjugate(z) for z in (c, s, m))
    d_e = sp.Matrix([[c_bar, s_bar], [rho_s * s_bar * m - s, c - rho_s * c_bar * m_bar]])
    return d_e.det()


DET = det_d_e(EPS, KAP, THETA, RHO_S)


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
    # delta_s tau_s = omega_p tau_s - theta_m / 2 (mod pi), as `from_exact`
    # reads it, so e^{2 i omega tau_s} = e^{i theta_m} e^{2 i x}
    rho_s = sp.sqrt(1 - (LAM * T_S) ** 2) * sp.exp(sp.I * THETA) * sp.exp(2 * sp.I * LAM**2 * X)
    scaled = DET.subs({RHO_S: rho_s, EPS: LAM * EPS, KAP: LAM * KAP})
    orders = [scaled.diff(LAM, k).subs(LAM, 0) / math.factorial(k) for k in range(3)]
    assert [sp.simplify(order) for order in orders[:2]] == [0, 0]
    second = sp.lambdify((EPS, KAP, THETA, T_S, X), orders[2], "numpy")

    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(24):
        eps, kap, theta = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0, 1.5)
        tau_s, t_s = rng.uniform(1e-10, 1e-8), rng.uniform(0.0, 0.3)
        delta_s, big_omega = rng.uniform(-1e8, 1e8, 2)
        p, alpha = asymmetry_polar(eps, kap)
        # gamma_s = t_s^2 / 4 tau_s as `from_exact` sets it; gamma_m and delta_m
        # come from `asymmetry_rates`, through the record's gamma and delta
        lp = LumpedParams(gamma_s=t_s**2 / (4.0 * tau_s), delta_s=delta_s, tau_s=tau_s, p=p,
                          alpha=alpha, theta_m=theta, k_p=1.0)
        ell, _ = lorentzians(lp, big_omega)
        coefficient = second(eps, kap, theta, t_s, (delta_s + big_omega) * tau_s)
        worst = max(worst, abs(coefficient - 2.0 * tau_s * ell) / abs(2.0 * tau_s * ell))
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

"""Symbolic oracle for the reduced model: D_e and the spring expanded in sympy.

The reduced model's resonance ell(Omega) = gamma - i(delta + Omega), with
the asymmetry rates gamma_m and delta_m of `lumped_mode.asymmetry_rates`,
its mode response W and its spring are hand-typed.  Here D_e and the
one-sided spring generator K_g are transcribed into sympy entry by entry,
as `scattering.sideband_blocks` and `radiation_pressure._spring_entries`
form them, tied to the kernel at random points, and at r_w = 0 expanded
with epsilon, kappa and t_s of order lambda and x = (delta_s + Omega) tau_s
of order lambda^2.  The lambda^2 coefficient of det D_e must be
2 tau_s ell(Omega), and the leading coefficient of each entry of
adj(D_e) diag(1, t_s), the stripped D_e^-1 T_tilde times det D_e, must be
2 tau_s ell(Omega) W.  The exact force matrix is that response times
2 R_m [[0, m*], [m, 0]], which ties W to the force noise.  The leading
order of each entry of K_g, closed over +/-Omega, is the reduced spring.  At
e_minus = 0 the force row and the leading K_g[0, 0] give the canonical
Lorentzian and spring, and the spring's low-frequency Taylor coefficients,
which are thereby derived, not typed.
"""
import functools
import math
from pathlib import Path

import numpy as np
import sympy as sp

import msinoise
from msinoise.algebra import cc_close
from msinoise.lumped_mode import (
    LumpedParams, _approx_force_entries, _approx_mode_entries, _approx_spring_entries,
    approx_rigidity, asymmetry_polar, coupling_constants, from_exact, lorentzians,
)
from msinoise.radiation_pressure import _force_entries, _spring_entries
from msinoise.scattering import HBAR, InterferometerParams, IntracavityField, sideband_blocks
from msinoise.verify import _CONV_FIELD, _conv_params, _random_params

EPS, KAP, THETA = sp.symbols("epsilon kappa theta_m", real=True)
RHO_W = sp.Symbol("rho_w")  # r_w e^{2 i omega tau_w}, the kernel's r_tilde[0]
RHO_S = sp.Symbol("rho_s")  # r_s e^{2 i omega tau_s}, the kernel's r_tilde[1]
LAM, T_S, X = sp.symbols("lambda t_s x", real=True)
Y = sp.Symbol("y", real=True)  # (delta_s - Omega) tau_s, x at -Omega
R_M = sp.cos(THETA)


def mixer(eps, kap, theta):
    """C, S, m = e^{i theta_m} and their conjugates, as the kernel's ``factors``."""
    c = sp.cos(eps) * sp.cos(kap) + sp.I * sp.sin(eps) * sp.sin(kap)
    s = sp.sin(eps) * sp.cos(kap) + sp.I * sp.cos(eps) * sp.sin(kap)
    m = sp.exp(sp.I * theta)
    return c, s, m, *(sp.conjugate(z) for z in (c, s, m))


def d_e_matrix(eps, kap, theta, rho_w, rho_s):
    """D_e = Q^dagger - R_tilde Q^T M written entry by entry as `sideband_blocks` writes it."""
    c, s, m, c_bar, s_bar, m_bar = mixer(eps, kap, theta)
    return sp.Matrix([[c_bar - rho_w * c * m, s_bar - rho_w * s * m_bar],
                      [rho_s * s_bar * m - s, c - rho_s * c_bar * m_bar]])


def spring_numerator(eps, kap, theta, rho_w, rho_s):
    """d K_g / (-4i R_m^2), K_g = -4i R_m^2 X (M Q R_tilde Q^T - rho_w rho_s 1) X / d
    the one-sided spring generator, entry by entry as `_spring_entries` forms it."""
    c, s, m, c_bar, s_bar, m_bar = mixer(eps, kap, theta)
    both = rho_w * rho_s
    cross = c * s * rho_w - sp.conjugate(c * s) * rho_s
    q_00 = s * s * rho_w + c_bar**2 * rho_s
    q_11 = c * c * rho_w + s_bar**2 * rho_s
    return sp.Matrix([[m_bar * q_00 - both, m_bar * cross], [m * cross, m * q_11 - both]])


D_E = d_e_matrix(EPS, KAP, THETA, 0, RHO_S)  # at r_w = 0, as the reduction
DET = D_E.det()
# delta_s tau_s = omega_p tau_s - theta_m / 2 (mod pi), as `from_exact`
# reads it, so e^{2 i omega tau_s} = e^{i theta_m} e^{2 i x}
SCALED_RHO_S = sp.sqrt(1 - (LAM * T_S) ** 2) * sp.exp(sp.I * THETA) * sp.exp(2 * sp.I * LAM**2 * X)
SCALING = {RHO_S: SCALED_RHO_S, EPS: LAM * EPS, KAP: LAM * KAP}
# tau_s gamma = t_s^2 / 4 + p^2 sin^2(theta_m - alpha) and tau_s delta_m =
# p^2 R_m sin(theta_m - 2 alpha), in the unscaled symbols
TAU_GAMMA = T_S**2 / 4 + (EPS * sp.sin(THETA) - KAP * R_M) ** 2
TAU_DELTA_M = R_M * (sp.sin(THETA) * (EPS**2 - KAP**2) - 2 * EPS * KAP * R_M)


def tau_ell(x):
    """tau_s ell = tau_s gamma - i (x + tau_s delta_m) at x = (delta_s + Omega) tau_s."""
    return TAU_GAMMA - sp.I * (x + TAU_DELTA_M)


def order(expr, k):
    """The lambda^k coefficient of ``expr``."""
    return expr.diff(LAM, k).subs(LAM, 0) / math.factorial(k)


@functools.cache
def det_orders():
    """The lambda^0 to lambda^2 coefficients of det D_e."""
    scaled = DET.subs(SCALING)
    return tuple(order(scaled, k) for k in range(3))


@functools.cache
def spring_numerator_orders():
    """N of `spring_numerator` at r_w = 0, scaled, and its lambda^(i + j) coefficients."""
    scaled = spring_numerator(EPS, KAP, THETA, 0, RHO_S).subs(SCALING)
    return scaled, sp.Matrix(2, 2, lambda i, j: order(scaled[i, j], i + j))


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
    orders = det_orders()
    assert [sp.simplify(o) for o in orders[:2]] == [0, 0]
    assert sp.simplify(sp.expand_complex(orders[2] - 2 * tau_ell(X))) == 0
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


def test_record_rates_are_the_symbolic_rates():
    # tau_ell's rates are the record's: gamma_s from t_s, gamma_m and delta_m
    # from `asymmetry_rates`
    rates = sp.lambdify((EPS, KAP, THETA, T_S), (TAU_GAMMA, TAU_DELTA_M), "numpy")
    rng = np.random.default_rng(33)
    for _ in range(24):
        (eps, kap, theta, t_s, _), lp, _ = random_record(rng)
        tau_gamma, tau_delta_m = rates(eps, kap, theta, t_s)
        assert abs(tau_gamma - lp.tau_s * lp.gamma) <= 1e-12 * lp.tau_s * lp.gamma
        assert abs(tau_delta_m - lp.tau_s * lp.delta_m) <= 1e-12 * lp.tau_s * lp.gamma


def test_couplings_are_kappa_derivatives_of_the_rates():
    # g_disp = -k_p d(delta_m)/d(kappa) and g_diss = -k_p d(gamma_m)/d(kappa) =
    # 2 k_p R_m p sin(theta_m - alpha) / tau_s, symbolically in the polar form
    radius, angle = sp.symbols("p alpha", real=True)
    polar = {EPS: radius * sp.cos(angle), KAP: radius * sp.sin(angle)}
    d_delta, d_gamma = TAU_DELTA_M.diff(KAP), TAU_GAMMA.diff(KAP)
    for derivative, form in ((d_delta, sp.cos), (d_gamma, sp.sin)):
        residual = -derivative.subs(polar) - 2 * R_M * radius * form(THETA - angle)
        assert sp.simplify(sp.expand_trig(residual)) == 0
    # `coupling_constants` is g_disp and g_diss / sqrt(gamma_m), also where
    # alpha < theta_m - pi, so that theta_m - alpha > pi
    rates = sp.lambdify((EPS, KAP, THETA), (-d_delta, -d_gamma, TAU_GAMMA.subs(T_S, 0)), "numpy")
    rng = np.random.default_rng(37)
    worst, wrapped = 0.0, 0
    for i in range(48):
        theta, tau_s, k_p = rng.uniform(0.05, 1.5), rng.uniform(1e-10, 1e-8), rng.uniform(5e6, 1e7)
        low, high = (-math.pi, theta - math.pi) if i % 2 else (theta - math.pi, math.pi)
        size, drawn = rng.uniform(1e-3, 0.3), rng.uniform(low, high)
        eps, kap = size * math.cos(drawn), size * math.sin(drawn)
        p, alpha = asymmetry_polar(eps, kap)
        wrapped += theta - alpha > math.pi
        couplings = coupling_constants(LumpedParams(
            gamma_s=1e6, delta_s=0.0, tau_s=tau_s, p=p, alpha=alpha, theta_m=theta, k_p=k_p))
        tau_d_delta, tau_d_gamma, tau_gamma_m = rates(eps, kap, theta)
        g_disp = k_p * tau_d_delta / tau_s
        combo = k_p * (tau_d_gamma / tau_s) / math.sqrt(tau_gamma_m / tau_s)
        worst = max(worst, abs(couplings.g_disp - g_disp) / abs(g_disp),
                    abs(couplings.g_diss_combo - combo) / abs(combo))
    assert wrapped == 24
    assert worst <= 1e-12


def test_spring_transcription_is_the_kernel_generator():
    # K1 = K_g(+Omega) + K_g(-Omega)^dagger, with power recycling too
    d = d_e_matrix(EPS, KAP, THETA, RHO_W, RHO_S).det()
    k_g = -4 * sp.I * R_M**2 * spring_numerator(EPS, KAP, THETA, RHO_W, RHO_S) / d
    generator = sp.lambdify((EPS, KAP, THETA, RHO_W, RHO_S), k_g, "numpy")
    rng = np.random.default_rng(34)
    n = 200
    params = _random_params(rng, n)
    grid = rng.uniform(-1e9, 1e9, n)
    b = sideband_blocks(params, np.stack([grid, -grid]))
    gen = np.array(generator(params.epsilon, params.kappa, params.theta_m, *b.r_tilde))
    exact = _spring_entries(b)
    closed = cc_close(gen[:, :, 0], gen[:, :, 1])
    assert (np.abs(closed - exact).max(axis=(0, 1)) / np.abs(exact).max(axis=(0, 1))).max() <= 1e-12


def test_spring_leading_order_is_the_reduced_spring_in_every_entry():
    # K_g = -4i R_m^2 N / d at r_w = 0, and d starts at lambda^2: entry (i, j)
    # of N starts at lambda^(i + j), so K_g at lambda^(i + j - 2).  Each entry's
    # leading order, closed over +/-Omega, is `_approx_spring_entries`'
    scaled, leading_n = spring_numerator_orders()
    for i, j in np.ndindex(2, 2):
        assert [sp.simplify(order(scaled[i, j], k)) for k in range(i + j)] == [0] * (i + j)
    assert sp.simplify(leading_n[0, 0]) == 1
    generator = -4 * sp.I * R_M**2 * leading_n / det_orders()[2]
    leading = sp.lambdify((EPS, KAP, THETA, T_S, X), generator, "numpy")

    rng = np.random.default_rng(35)
    worst = 0.0
    for _ in range(24):
        (eps, kap, theta, t_s, x), lp, big_omega = random_record(rng)
        x_neg = (lp.delta_s - big_omega) * lp.tau_s
        closed = cc_close(np.array(leading(eps, kap, theta, t_s, x)),
                          np.array(leading(eps, kap, theta, t_s, x_neg)))
        reduced = _approx_spring_entries(lp, np.array([[big_omega], [-big_omega]]))[:, :, 0]
        worst = max(worst, (np.abs(closed - reduced) / np.abs(reduced)).max())
    assert worst <= 1e-12


def test_symmetric_mode_gives_the_canonical_lorentzian_and_spring():
    # at e_minus = 0 the force row is 2 R_m m* W[1, :], and tau_s ell W[1, :]
    # is the lambda coefficient of the bottom row of adj(D_e) diag(1, t_s) over
    # 2: its power is tau_s gamma, so sum_j |F[0, j]|^2 = 4 R_m^2 gamma / (tau_s |ell|^2)
    scaled = (D_E.adjugate() * sp.diag(1, LAM * T_S)).subs(SCALING)
    row = [sp.expand_complex(order(scaled[1, j], 1)) for j in range(2)]
    assert sp.simplify(sum(sp.re(a) ** 2 + sp.im(a) ** 2 for a in row) - 4 * TAU_GAMMA) == 0
    # the leading K_g[0, 0] = -2i R_m^2 / tau_s ell, closed over +/-Omega, is
    # 4 R_m^2 delta / (tau_s ell(Omega) ell*(-Omega)); tau_s delta = (x + y) / 2 + tau_s delta_m
    closed = -2 * sp.I * R_M**2 / tau_ell(X) + sp.conjugate(-2 * sp.I * R_M**2 / tau_ell(Y))
    spring = 4 * R_M**2 * ((X + Y) / 2 + TAU_DELTA_M) / (tau_ell(X) * sp.conjugate(tau_ell(Y)))
    assert sp.simplify(closed - spring) == 0

    rng = np.random.default_rng(36)
    worst = 0.0
    for _ in range(24):
        _, lp, big_omega = random_record(rng)
        ell, _ = lorentzians(lp, np.array([big_omega, -big_omega]))
        force = _approx_force_entries(lp, np.array([big_omega]))[0, :, 0]
        lorentzian = 4 * lp.r_m**2 * lp.gamma / (lp.tau_s * abs(ell[0]) ** 2)
        k = _approx_spring_entries(lp, np.array([[big_omega], [-big_omega]]))[0, 0, 0]
        canonical_k = 4 * lp.r_m**2 * lp.delta / (lp.tau_s * ell[0] * ell[1].conjugate())
        worst = max(worst, abs(np.sum(np.abs(force) ** 2) - lorentzian) / lorentzian,
                    abs(k - canonical_k) / abs(canonical_k))
    assert worst <= 1e-12


def test_low_frequency_spring_series():
    # the closed leading generator is g(Omega) + g(-Omega)^dagger with
    # g = -4i R_m^2 n / (2 tau_s ell), n the leading N above, so for any field
    # e^dagger K e / (hbar k_p^2) = c(Omega) a + conj(c(-Omega) a) with
    # c = -2i R_m^2 / (tau_s ell) and a = e^dagger n e.  Its Taylor series at
    # Omega = 0 is K_0 - i Omega H_0 - m_opt Omega^2
    gam, tau = sp.symbols("gamma tau_s", positive=True)
    dlt, om, a_re, a_im, power = sp.symbols("delta Omega a_re a_im E2", real=True)

    def c(w):
        return -2 * sp.I * R_M**2 / (tau * (gam - sp.I * (dlt + w)))

    a = a_re + sp.I * a_im
    spring = c(om) * a + sp.conjugate(c(-om) * a)
    taylor = [sp.diff(spring, om, n).subs(om, 0) / math.factorial(n) for n in range(3)]
    series = (taylor[0], sp.I * taylor[1], -taylor[2])  # K_0, H_0, m_opt

    # at e_minus = 0, a = |E+|^2 n[0, 0] = |E+|^2; K_a = 4 R_m^2 |E+|^2 delta / tau_s
    k_a = 4 * R_M**2 * power * dlt / tau
    pole = gam**2 + dlt**2
    inertia = (3 * gam**2 - dlt**2) / pole**3  # m_opt / K_a
    expected = (k_a / pole, -2 * gam * k_a / pole**2, k_a * inertia)
    for term, form in zip(series, expected):
        assert sp.simplify(term.subs({a_re: power, a_im: 0}) - form) == 0
    # so the optical inertia changes sign at |delta| = sqrt(3) gamma
    assert inertia.subs(dlt, sp.sqrt(3) * gam) == 0
    assert [inertia.subs({gam: 1, dlt: d}) > 0 for d in (-1.74, -1.73, 1.73, 1.74)] == [
        False, True, True, False]

    # on the reduced model at Omega = 1e-3 gamma: K_0 is K(0), H_0 is -Im K / Omega
    # and m_opt is -(Re K - K_0) / Omega^2, the last two up to O(Omega^2 / (gamma^2
    # + delta^2)), measured 7.1e-7 and 3.4e-7 relative for both fields
    numerator = sp.lambdify((EPS, KAP, THETA), spring_numerator_orders()[1], "numpy")
    coefficients = sp.lambdify((gam, dlt, tau, THETA, a_re, a_im), series, "numpy")
    params = _conv_params(0.02)
    lp = from_exact(params)
    n = np.array(numerator(params.epsilon, params.kappa, params.theta_m))
    big_omega = 1e-3 * lp.gamma
    for field in (IntracavityField(3e8, 0.0), _CONV_FIELD):
        e = field.as_array()
        amp = e.conj() @ n @ e
        scale = HBAR * lp.k_p**2
        k_0, h_0, m_opt = (scale * coefficient for coefficient in coefficients(
            lp.gamma, lp.delta, lp.tau_s, lp.theta_m, amp.real, amp.imag))
        static, _ = approx_rigidity(lp, field, 0.0)
        k, _ = approx_rigidity(lp, field, big_omega)
        assert abs(static - k_0) <= 1e-14 * abs(k_0)
        assert abs(-k.imag / big_omega - h_0) <= 1e-6 * abs(h_0)
        assert abs(-(k.real - static.real) / big_omega**2 - m_opt) <= 1e-6 * abs(m_opt)


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

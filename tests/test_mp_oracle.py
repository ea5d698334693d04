"""A 40-digit oracle: `oracle_solve`'s dense field equations in mpmath.

`mp_oracle_solve` ports the float oracle's 10x10 system entry by entry, but
takes the two one-way phases (omega tau_w, omega tau_s) as mp numbers.  Fed
the float's own rounded phases fl(omega tau), it must agree with the float
`oracle_solve` to the float's conditioning: that pins the port.  Fed exact
phases, (omega_p + Omega) tau at 40 digits, it has no ulp-of-omega_p
quantisation of small Omega, which the float oracle shares with the kernel
(so `oracle_equivalence` cannot see it); no gate on that difference is here.
"""
import numpy as np
from mpmath import mp

from msinoise.scattering import InterferometerParams, IntracavityField, PortVector, oracle_solve
from msinoise.verify import DEFAULT_SEED, _ORACLE_CASES, _well_conditioned_cases

DPS = 40
CASES = 50  # of oracle_equivalence's draw; ~10 ms each


def mp_oracle_solve(params: InterferometerParams, phases, inputs: PortVector, x: float,
                    field: IntracavityField) -> mp.matrix:
    """The unknowns (b, c, d, e, f), stacked as 10 rows, of one set's system at
    `DPS` digits, for the one-way phases (phi_w, phi_s) as mp numbers.

    Every float input enters exactly; the mixer, the membrane phases and R_m
    are formed from them at 40 digits, as `oracle_solve` forms them in floats.
    """
    with mp.workdps(DPS):
        theta, eps, kap = (mp.mpf(float(v)) for v in (params.theta_m, params.epsilon,
                                                       params.kappa))
        c = mp.mpc(mp.cos(eps) * mp.cos(kap), mp.sin(eps) * mp.sin(kap))
        s = mp.mpc(mp.sin(eps) * mp.cos(kap), mp.cos(eps) * mp.sin(kap))
        q = ((c, -mp.conj(s)), (s, mp.conj(c)))
        a = tuple(mp.expj(phi) for phi in phases)
        m = (mp.expj(theta), mp.expj(-theta))
        r = (mp.mpf(float(params.r_w)), mp.mpf(float(params.r_s)))
        t = (mp.mpf(float(params.t_w)), mp.mpf(float(params.t_s)))
        a_in = (mp.mpc(complex(inputs.west)), mp.mpc(complex(inputs.south)))
        e = (mp.mpc(complex(field.e_plus)), mp.mpc(complex(field.e_minus)))
        x_drive = mp.mpc(0, 2) * mp.mpf(float(params.k_p)) * mp.cos(theta) * mp.mpf(x)
        system, sources = mp.eye(10), mp.matrix(10, 1)
        for i in range(2):
            system[i, 2 + i] -= t[i]                    # b = -R a + T c
            system[4 + i, 2 + i] -= r[i]                # d = T a + R c
            system[8 + i, 6 + i] -= m[i]                # f = M e + 2 i k_p R_m X E x
            for j in range(2):
                system[2 + i, 8 + j] -= a[i] * q[j][i]  # c = A Q^T f
                system[6 + i, 4 + j] -= q[i][j] * a[j]  # e = Q A d
            sources[i] = -r[i] * a_in[i]
            sources[4 + i] = t[i] * a_in[i]
            sources[8 + i] = x_drive * e[1 - i]         # X swaps the modes
        return mp.lu_solve(system, sources)


def one_set(sets: InterferometerParams, i: int) -> InterferometerParams:
    return InterferometerParams(**{name: float(v.flat[i]) for name, v in vars(sets).items()})


def test_matches_the_float_oracle_on_its_own_rounded_phases():
    # oracle_equivalence's well-conditioned draw, one port drive and one
    # displacement drive per case as one right-hand side
    rng = np.random.default_rng(DEFAULT_SEED)
    sets, omegas, _ = _well_conditioned_cases(rng, _ORACLE_CASES, 1)
    drives = rng.normal(size=(CASES, 4)) + 1j * rng.normal(size=(CASES, 4))
    x = 1e-15
    worst = 0.0
    for i in range(CASES):
        params = one_set(sets, i)
        omega = params.omega_p + float(omegas[i, 0])
        inputs = PortVector(drives[i, 0], drives[i, 1])
        field = IntracavityField(drives[i, 2] * 1e8, drives[i, 3] * 1e8)
        sol = oracle_solve(params, omega, inputs, x, field)
        fl = np.concatenate([sol.b, sol.c, sol.d, sol.e, sol.f])
        phases = (mp.mpf(omega * params.tau_w), mp.mpf(omega * params.tau_s))
        ref = np.array(mp_oracle_solve(params, phases, inputs, x, field).tolist(),
                       dtype=complex).ravel()
        worst = max(worst, float(np.abs(fl - ref).max() / np.abs(ref).max()))
    assert worst <= 1e-12, worst


def test_reduces_to_a_bare_mirror_pair_without_the_membrane_or_the_mixer():
    # theta_m = 0 (R_m = 1, M = 1) and no asymmetry: each mode sees only its own
    # recycling mirror, so the reflected port field is the closed form
    # b_j = (-r_j + t_j^2 z_j / (1 - r_j z_j)) a_in,j, z_j the round-trip phase
    params = InterferometerParams(theta_m=0.0, epsilon=0.0, kappa=0.0, tau_s=1e-9,
                                  tau_w=1.1e-9, r_s=0.6, t_s=0.8, r_w=0.28, t_w=0.96,
                                  k_p=5.9e6)
    phases = (mp.mpf("0.3"), mp.mpf("1.7"))
    sol = mp_oracle_solve(params, phases, PortVector(1.0, 1.0), 0.0, IntracavityField(0, 0))
    with mp.workdps(DPS):
        for j, (r, t) in enumerate(((params.r_w, params.t_w), (params.r_s, params.t_s))):
            r, t, z = mp.mpf(r), mp.mpf(t), mp.expj(2 * phases[j])
            expected = -r + t**2 * z / (1 - r * z)
            assert abs(sol[j] - expected) <= mp.mpf(10) ** (5 - DPS)

"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Every tolerance is pinned here through the shared verification suite, so
the CLI `verify` subcommand and this module can never drift apart.
"""
import time

import pytest

from msinoise.verify import (
    DEFAULT_SEED,
    check_canonical,
    check_convergence,
    check_cooling_optimum,
    check_coupling_zeros,
    check_fano,
    check_fdt_kubo,
    check_golden,
    check_oracle,
    check_symmetry,
    check_unitarity,
)


def _assert(result, runtime=None):
    line = result.line()
    if runtime is not None:
        line += f"  [{runtime:.2f} s]"
    print(line)
    assert result.passed, line


def test_criterion_01_symmetry_of_transfer_matrices():
    """G(Omega) = F(Omega)^dagger, 1000 seeded sets x 5 sidebands, <= 1e-12."""
    start = time.monotonic()
    result = check_symmetry(DEFAULT_SEED, tol=1e-12)
    elapsed = time.monotonic() - start
    _assert(result, elapsed)
    assert elapsed < 5.0


def test_criterion_02_losslessness():
    """R_ifo^dagger R_ifo = 1 entrywise <= 1e-10 over the same ensemble."""
    _assert(check_unitarity(DEFAULT_SEED, tol=1e-10))


def test_criterion_03_oracle_equivalence():
    """Closed forms match the dense solve <= 1e-10 on 200 cases incl. r_w > 0."""
    _assert(check_oracle(DEFAULT_SEED, tol=1e-10))


def test_criterion_04_lumped_convergence():
    """Reduced-model error <= 10 p at p = 0.02 and halves (within 50%) per
    p-halving, regime scaling held fixed, |Omega| <= 5 gamma."""
    _assert(check_convergence(DEFAULT_SEED, tol=10.0))


def test_criterion_05_canonical_limit():
    """Symmetric field: spectrum and spring match the canonical forms to
    10 p; the Lorentzian FWHM equals 2 gamma within 1%."""
    _assert(check_canonical(DEFAULT_SEED, tol=10.0))


def test_criterion_06_fano_minimum():
    """Dark south port: the exact spectrum dips within 0.05 gamma of
    -2 delta_s + 2 eps kappa / tau_s."""
    _assert(check_fano(DEFAULT_SEED, tol=0.05))


def test_criterion_07_fdt_kubo_consistency():
    """Thermal pair satisfies FDT and Kubo to 1e-14; optical damping from the
    spectral asymmetry equals -Im K / Omega to 1e-8 at 20 reference points."""
    _assert(check_fdt_kubo(DEFAULT_SEED, tol=1e-8))


def test_criterion_08_cooling_optimum():
    """Fixed intracavity energy: the optimum dominates the sampled landscape,
    is symmetric to |E-/E+| <= 1e-3 and matches the simplified occupancy
    within 5% when the regime margins exceed 10."""
    _assert(check_cooling_optimum(DEFAULT_SEED, tol=1e-3))


def test_criterion_09_coupling_constant_zeros():
    """g_disp vanishes at theta - alpha = pi/2, the dissipative combination
    at theta = alpha; residuals <= 1e-15 in natural units."""
    _assert(check_coupling_zeros(DEFAULT_SEED, tol=1e-15))


def test_criterion_10_golden_determinism():
    """The reference sweep reproduces the frozen CSV bit-identically across
    reruns."""
    _assert(check_golden(DEFAULT_SEED))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))

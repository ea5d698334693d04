"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Every tolerance is pinned here: each test runs the check that the CLI
`verify` subcommand runs and asserts the tolerance it reports, so the two
can never drift apart and a loosened constant fails here.
"""
import ast
import time
from pathlib import Path

import pytest

from msinoise.verify import (
    CHECK_NAMES,
    DEFAULT_SEED,
    check_canonical,
    check_convergence,
    check_cooling_optimum,
    check_exact_modes,
    check_fano,
    check_fdt_kubo,
    check_golden,
    check_oracle,
    check_symmetry,
    check_unitarity,
)


def _assert(result, tolerance, runtime=None):
    line = result.line()
    if runtime is not None:
        line += f"  [{runtime:.2f} s]"
    print(line)
    assert result.passed, line
    assert result.tolerance == tolerance, line


def test_criterion_01_symmetry_of_transfer_matrices():
    """G(Omega) = F(Omega)^dagger, 1000 seeded sets x 5 sidebands, <= 1e-12."""
    start = time.monotonic()
    result = check_symmetry(DEFAULT_SEED)
    elapsed = time.monotonic() - start
    _assert(result, 1e-12, elapsed)
    assert elapsed < 5.0


def test_criterion_02_losslessness():
    """R_ifo^dagger R_ifo = 1 entrywise <= 1e-10 over the same ensemble."""
    _assert(check_unitarity(DEFAULT_SEED), 1e-10)


def test_criterion_03_oracle_equivalence():
    """Closed forms match the dense solve <= 1e-10 on 200 cases incl. r_w > 0: R_ifo,
    R G E and the spring K1 at +/-Omega, and the carrier fields."""
    _assert(check_oracle(DEFAULT_SEED), 1e-10)


def test_criterion_04_lumped_convergence():
    """Reduced-model error <= 10 p at p = 0.02 and falls x0.25 (within 50%) per
    p-halving, regime scaling held fixed, |Omega| <= 5 gamma."""
    _assert(check_convergence(DEFAULT_SEED), 0.2)


def test_criterion_05_canonical_limit():
    """Symmetric field: spectrum and spring match the canonical forms to
    10 p; the Lorentzian FWHM equals 2 gamma within 1%."""
    _assert(check_canonical(DEFAULT_SEED), 0.1)


def test_criterion_06_fano_minimum():
    """Dark south port: the exact spectrum dips within 0.05 gamma of `fano_dip`,
    the reduced line shape within 10 p; a two-port `fano_steering` carrier moves
    the exact dip within 0.05 gamma of each of five targets, and the one aimed
    at the dark-south dip needs |A_s/A_w| <= 1e-4."""
    _assert(check_fano(DEFAULT_SEED), 0.05)


def test_criterion_07_fdt_kubo_consistency():
    """Thermal pair satisfies FDT and Kubo to 1e-14; optical damping from the
    spectral asymmetry equals -Im K / Omega to 1e-8 at 20 reference points."""
    _assert(check_fdt_kubo(DEFAULT_SEED), 1e-8)


def test_criterion_08_cooling_optimum():
    """Fixed intracavity energy: the optimum dominates the sampled landscape,
    is symmetric to |E-/E+| <= 1e-3 and matches the simplified occupancy
    within 5% when the regime margins exceed 10."""
    _assert(check_cooling_optimum(DEFAULT_SEED), 1e-3)


def test_criterion_09_exact_modes():
    """The exact r_w = 0 pole and its closed-form kappa-derivative give gamma,
    delta, g_disp and g_diss_combo of the reduced record to O(p^2): errors
    <= 2x their p = 0.02 values (gamma's 9.0e-3) falling x0.25 (within 50%)
    per p-halving, g_diss_combo's sign, det D_e = 1 - rho_s N_s to 4 eps, and
    both coupling zeros on the exact optics, each share O(p^2)."""
    _assert(check_exact_modes(DEFAULT_SEED), 9.0e-3)


def test_criterion_10_golden_determinism():
    """The reference sweep reproduces the frozen CSV bit-identically across
    reruns."""
    _assert(check_golden(DEFAULT_SEED), 0.5)


def test_every_invariant_is_asserted_here():
    """Each function of `verify.CHECK_NAMES` is called in this module, so a
    renamed or added invariant cannot go unasserted."""
    tree = ast.parse(Path(__file__).read_text())
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    missing = {fun.__name__ for fun in CHECK_NAMES.values()} - called
    assert not missing, sorted(missing)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))

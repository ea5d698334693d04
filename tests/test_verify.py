"""The verify ensembles: masked resampling, batched evaluation, result types."""
import dataclasses
import itertools
import math

import numpy as np
import pytest

from msinoise import radiation_pressure, scattering, verify
from msinoise.algebra import solve_dense
from msinoise.config import load_config
from msinoise.radiation_pressure import _force_entries, _spring_entries, noise_spectra
from msinoise.scattering import (
    InterferometerParams, IntracavityField, _displacement_entries, _scattering_entries,
    sideband_blocks,
)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every `sideband_blocks` call made through the verify module."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sideband_blocks(*args, **kwargs)

    monkeypatch.setattr(verify, "sideband_blocks", counting)
    return calls


def test_resampler_redraws_only_the_sets_below_the_floor(kernel_calls):
    # at the real 1e-3 floor no set of 200 000 was rejected, so use a floor
    # that rejects about a fifth of the sets at 5 sidebands plus the carrier
    floor, n_sets, n_omegas = 0.3, 200, 5
    params, omegas, blocks = verify._well_conditioned_cases(
        np.random.default_rng(21), n_sets, n_omegas, floor=floor)
    # two kernel calls per round (sidebands, carriers), so some were redrawn
    assert len(kernel_calls) >= 4
    assert params.theta_m.shape == (n_sets, 1) and omegas.shape == (n_sets, n_omegas)
    for grid in (omegas, np.zeros_like(omegas)):
        assert np.abs(sideband_blocks(params, grid).d).min() >= floor
    fresh = sideband_blocks(params, omegas)
    assert blocks.d.shape == (n_sets, n_omegas)
    np.testing.assert_array_equal(blocks.d, fresh.d)
    np.testing.assert_array_equal(blocks.d_e, fresh.d_e)

    rng = np.random.default_rng(21)
    first = verify._random_params(rng, (n_sets, 1))
    first_omegas = rng.uniform(-1.0e9, 1.0e9, size=(n_sets, n_omegas))
    d = sideband_blocks(first, first_omegas).d
    carrier = sideband_blocks(first, np.zeros((n_sets, 1))).d
    kept = np.minimum(np.abs(d).min(axis=1), np.abs(carrier[:, 0])) >= floor
    assert 0 < kept.sum() < n_sets
    np.testing.assert_array_equal(params.theta_m[:, 0] == first.theta_m[:, 0], kept)
    np.testing.assert_array_equal(omegas[kept], first_omegas[kept])


def test_broadcast_ensemble_equals_per_point_evaluation():
    """Each (N, 1) set broadcast over its K sidebands gives the bits of the
    same set repeated for every point of the flat (N K,) grid."""
    params, omegas, b = verify._structural_cases(verify.DEFAULT_SEED)
    k = omegas.shape[1]
    points = InterferometerParams(**{name: np.repeat(v, k) for name, v in vars(params).items()})
    flat = sideband_blocks(points, omegas.ravel())
    for broadcast, per_point in (
        (_force_entries(b), _force_entries(flat)),
        (_displacement_entries(b), _displacement_entries(flat)),
        (_scattering_entries(params, b), _scattering_entries(points, flat)),
    ):
        assert broadcast.shape == (2, 2, *omegas.shape)
        assert broadcast.reshape(per_point.shape).tobytes() == per_point.tobytes()


@pytest.mark.parametrize("check, calls", [
    # the resampler's sidebands and carriers
    (verify.check_symmetry, 2), (verify.check_unitarity, 2),
    # and oracle_equivalence's one call over the +/-Omega pair
    (verify.check_oracle, 3),
], ids=["check_symmetry", "check_unitarity", "check_oracle"])
def test_ensemble_check_evaluates_all_sets_in_few_kernel_calls(kernel_calls, check, calls):
    assert check(verify.DEFAULT_SEED).passed
    assert len(kernel_calls) == calls


def test_run_all_evaluates_each_ensemble_once(kernel_calls):
    seed = 5
    first = verify.run_all(seed)
    # one draw (sidebands, carriers) shared by symmetry_g_f and unitarity, one
    # for oracle_equivalence and its one call over the +/-Omega pair, one call per
    # one-sided S_tilde(+Omega) grid of canonical_limit, fano_minimum (its dark-south
    # grid and its steered rows) and cooling_optimum, and exact_modes' grid at each of
    # its three asymmetries and its one call for both coupling zeros
    assert len(kernel_calls) == 2 + 3 + 4 + 4
    again = verify.run_all(seed)
    assert len(kernel_calls) == 2 * 13  # nothing drawn is kept between runs
    standalone = [check(seed).measured for check in verify.CHECK_NAMES.values()]
    for results in (first, again):
        assert [repr(r.measured) for r in results] == [repr(m) for m in standalone]


@pytest.mark.parametrize("check, points", [
    # 40 nonzero points at +/-Omega, then the one-sided 4 001-point peak grid
    (verify.check_canonical, [80, 4001]),
    # the carriers of the classical field and the port phases of the reduced one, the
    # one-sided 3 001-point grid, the five steered rows of 601 points, then the carrier
    # of the pump of the steered field aimed at the dip
    (verify.check_fano, [1, 1, 3001, 5 * 601, 1]),
], ids=["check_canonical", "check_fano"])
def test_search_grids_evaluate_only_the_sidebands_they_read(kernel_grids, check, points):
    assert check(verify.DEFAULT_SEED).passed
    assert [grid.size for grid in kernel_grids] == points  # one call per search grid


@pytest.mark.parametrize("check, sizes", [(verify.check_canonical, [4001]),
                                          (verify.check_fano, [3001, 5 * 601])])
def test_one_sided_search_grid_equals_noise_spectra(monkeypatch, check, sizes):
    calls, s_tilde_pos = [], verify._s_tilde_pos

    def recording(params, field, grid):
        calls.append((params, field, grid))
        return s_tilde_pos(params, field, grid)

    monkeypatch.setattr(verify, "_s_tilde_pos", recording)
    assert check(verify.DEFAULT_SEED).passed
    assert [grid.size for _, _, grid in calls] == sizes
    for params, field, grid in calls:
        # a row of the grid per field: fano_minimum's steered (5, 1) fields; the row
        # steered to Omega = 0 holds it, which noise_spectra skips
        rows, fields = np.atleast_2d(grid), field.as_array().reshape(2, -1).T
        values = s_tilde_pos(params, field, grid).reshape(rows.shape)
        for row, value, e in zip(rows, values, fields):
            kept = row != 0.0
            np.testing.assert_array_equal(
                value[kept], noise_spectra(params, IntracavityField(*e), row[kept]).s_tilde_pos)


#: the stored spectrum.csv columns, as fields (and parts) of the spectrum; S_sym,
#: H_opt and K = K1 + K2 are derived from them, so they cannot change on their own
SPECTRUM_COLUMNS = ("grid", "s_tilde_pos", "s_tilde_neg", "k1.real", "k1.imag")


def one_ulp_up(spec, column):
    """``spec`` with one value of a spectrum.csv column moved up by one ulp."""
    name, _, part = column.partition(".")
    values = getattr(spec, name).copy()
    target = getattr(values, part) if part else values
    target[100] = np.nextafter(target[100], np.inf)
    return dataclasses.replace(spec, **{name: values})


@pytest.mark.parametrize("run, column, detail", [
    # the rerun is compared with the first run bit for bit, not as text
    *((2, column, "rerun identical=False, matches frozen golden")
      for column in SPECTRUM_COLUMNS),
    # the first run's text is compared with the frozen golden
    (1, None, "rerun identical=True, DIFFERS from frozen golden"),
], ids=[*(f"rerun-{column}" for column in SPECTRUM_COLUMNS), "text"])
def test_golden_check_fails_on_changed_text(monkeypatch, run, column, detail):
    spectrum_lines, runs = verify._spectrum_lines, itertools.count(1)

    def altered(cfg):
        lines, spec, field = spectrum_lines(cfg)
        if next(runs) == run:
            if column is None:
                lines = itertools.chain(lines, ["1.0,2.0,3.0,4.0,5.0,6.0,7.0\n"])
            else:
                spec = one_ulp_up(spec, column)
        return lines, spec, field

    monkeypatch.setattr(verify, "_spectrum_lines", altered)
    result = verify.check_golden(verify.DEFAULT_SEED)
    assert (result.passed, result.measured, result.detail) == (False, 1.0, detail)
    assert next(runs) == 3  # both runs made


def test_oracle_check_factorizes_each_system_once(monkeypatch):
    shapes = []

    def counting(a, y):
        shapes.append((a.shape, y.shape))
        return solve_dense(a, y)

    monkeypatch.setattr(scattering, "solve_dense", counting)
    assert verify.check_oracle(verify.DEFAULT_SEED).passed
    cases = verify._ORACLE_CASES
    # the systems at omega_p + Omega, omega_p - Omega and omega_p of the screen's (N, 1)
    # sets as drawn, in one call for the port and the displacement drive
    assert shapes == [((3, cases, 1, 10, 10), (3, cases, 1, 10, 2))]


def conjugate_closed_spring(b):
    """`_spring_entries` with the +/-Omega closure's dagger replaced by a plain conjugate."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(radiation_pressure, "cc_close", lambda pos, neg: pos + neg.conj())
        return _spring_entries(b)


@pytest.mark.parametrize("wrong", [
    lambda b: _spring_entries(b).swapaxes(0, 1),
    conjugate_closed_spring,
], ids=["transposed", "conjugate-closure"])
def test_oracle_equivalence_fails_a_wrong_spring_formula(monkeypatch, wrong):
    monkeypatch.setattr(verify, "_spring_entries", wrong)
    result = verify.check_oracle(verify.DEFAULT_SEED)
    parts = dict(part.split("=") for part in result.detail.split(": ")[1].split(", "))
    assert not result.passed and parts.keys() == {"R_ifo", "G.E", "carrier", "K1"}
    assert [name for name, dev in parts.items() if float(dev) > 1e-10] == ["K1"], result.detail


@pytest.mark.parametrize("wrong", [
    lambda lp, c: dataclasses.replace(c, g_diss_combo=-c.g_diss_combo),
    lambda lp, c: dataclasses.replace(
        c, g_disp=2 * lp.k_p * lp.r_m * lp.p * math.sin(lp.theta_m - lp.alpha) / lp.tau_s),
], ids=["dissipative-sign-flipped", "dispersive-sin-for-cos"])
def test_exact_modes_fails_a_wrong_coupling_formula(monkeypatch, wrong):
    coupling_constants = verify.coupling_constants
    monkeypatch.setattr(verify, "coupling_constants", lambda lp: wrong(lp, coupling_constants(lp)))
    assert not verify.check_exact_modes(verify.DEFAULT_SEED).passed


@pytest.mark.parametrize("wrong", [
    np.conj,  # conj[...] dropped
    lambda ratio: -ratio,  # the sign of its p sin(alpha - theta_m) flipped
], ids=["conj-dropped", "coupling-sign-flipped"])
def test_fano_minimum_fails_a_wrong_steering_formula(monkeypatch, wrong):
    steering = verify.fano_steering
    monkeypatch.setattr(verify, "fano_steering", lambda lp, omega0: wrong(steering(lp, omega0)))
    assert not verify.check_fano(verify.DEFAULT_SEED).passed


def test_p1_is_read_once_and_shared_read_only(monkeypatch):
    reads = []

    def counting(path):
        reads.append(path)
        return load_config(path)

    verify._p1_config.cache_clear()
    monkeypatch.setattr(verify, "load_config", counting)
    for _ in range(2):
        verify.run_all()
    assert len(reads) == 1
    with pytest.raises(ValueError):
        verify._p1_config().grid[0] = 0.0


def test_results_are_python_scalars():
    for result in verify.run_all():
        assert type(result.measured) is float and type(result.passed) is bool, result
        assert type(result.tolerance) is float and result.runtime_s > 0.0, result

"""The verify ensembles: masked resampling, batched evaluation, result types."""
import dataclasses
import itertools
import sys

import numpy as np
import pytest

from msinoise import scattering, verify
from msinoise.algebra import solve_dense
from msinoise.config import load_config
from msinoise.radiation_pressure import _force_entries, _force_noise, noise_spectra
from msinoise.scattering import (
    InterferometerParams, _displacement_entries, _scattering_entries, sideband_blocks,
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


@pytest.fixture
def kernel_points(monkeypatch):
    """The sideband count of every call through any msinoise binding of `sideband_blocks`."""
    points = []

    def counting(params, big_omega):
        points.append(np.size(big_omega))
        return sideband_blocks(params, big_omega)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "msinoise" and (
                getattr(module, "sideband_blocks", None) is sideband_blocks):
            monkeypatch.setattr(module, "sideband_blocks", counting)
    return points


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


@pytest.mark.parametrize(
    "check", [verify.check_symmetry, verify.check_unitarity, verify.check_oracle])
def test_ensemble_check_evaluates_all_sets_in_few_kernel_calls(kernel_calls, check):
    assert check(verify.DEFAULT_SEED).passed
    assert len(kernel_calls) == 2  # the resampler's sidebands and carriers


def test_run_all_evaluates_each_ensemble_once(kernel_calls):
    seed = 5
    first = verify.run_all(seed)
    # one draw shared by symmetry_g_f and unitarity, one for oracle_equivalence
    assert len(kernel_calls) == 4
    again = verify.run_all(seed)
    assert len(kernel_calls) == 8  # nothing drawn is kept between runs
    standalone = [check(seed).measured for check in verify.CHECK_NAMES.values()]
    for results in (first, again):
        assert [repr(r.measured) for r in results] == [repr(m) for m in standalone]


@pytest.mark.parametrize("check, points", [
    # 40 nonzero points at +/-Omega, then the one-sided 4 001-point peak grid
    (verify.check_canonical, 80 + 4001),
    # the carrier of the classical field, then the one-sided 3 001-point grid
    (verify.check_fano, 1 + 3001),
])
def test_search_grids_evaluate_only_the_sidebands_they_read(kernel_points, check, points):
    assert check(verify.DEFAULT_SEED).passed
    assert sum(kernel_points) == points


@pytest.mark.parametrize("check, size", [(verify.check_canonical, 4001),
                                         (verify.check_fano, 3001)])
def test_one_sided_search_grid_equals_noise_spectra(monkeypatch, check, size):
    calls = []

    def recording(params, field, big_omega):
        calls.append((params, field, big_omega))
        return _force_noise(params, field, big_omega)

    monkeypatch.setattr(verify, "_force_noise", recording)
    assert check(verify.DEFAULT_SEED).passed
    [(params, field, grid)] = calls
    assert len(grid) == size
    np.testing.assert_array_equal(_force_noise(params, field, grid),
                                  noise_spectra(params, field, grid).s_tilde_pos)


#: the stored spectrum.csv columns, as fields (and parts) of the spectrum; S_sym
#: and H_opt are derived from them, so they cannot change on their own
SPECTRUM_COLUMNS = ("grid", "s_tilde_pos", "s_tilde_neg", "k.real", "k.imag")


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
    # the sideband systems for the port and the displacement drive, then
    # the carrier systems for the port drive, each for the screen's (N, 1) sets as drawn
    assert shapes == [((cases, 1, 10, 10), (cases, 1, 10, 2)),
                      ((cases, 1, 10, 10), (cases, 1, 10, 1))]


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

"""The verify ensembles: masked resampling, batched evaluation, result types."""
import numpy as np
import pytest

from msinoise import verify
from msinoise.scattering import sideband_blocks


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
    assert omegas.shape == params.theta_m.shape == (n_sets * n_omegas,)
    for grid in (omegas, np.zeros_like(omegas)):
        assert np.abs(sideband_blocks(params, grid).d).min() >= floor
    fresh = sideband_blocks(params, omegas)
    np.testing.assert_array_equal(blocks.d, fresh.d)
    np.testing.assert_array_equal(blocks.d_e, fresh.d_e)

    rng = np.random.default_rng(21)
    first = verify._random_params(rng, n_sets)
    first_omegas = rng.uniform(-1.0e9, 1.0e9, size=(n_sets, n_omegas))
    d = sideband_blocks(verify._per_point(first, n_omegas), first_omegas.ravel()).d
    carrier = sideband_blocks(first, np.zeros(n_sets)).d
    kept = np.minimum(np.abs(d).reshape(n_sets, -1).min(axis=1),
                      np.abs(carrier)) >= floor
    assert 0 < kept.sum() < n_sets
    per_set = params.theta_m.reshape(n_sets, n_omegas)[:, 0]
    np.testing.assert_array_equal(per_set == first.theta_m, kept)
    np.testing.assert_array_equal(omegas.reshape(n_sets, -1)[kept], first_omegas[kept])


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


def test_results_are_python_scalars():
    for result in verify.run_all():
        assert type(result.measured) is float and type(result.passed) is bool, result
        assert type(result.tolerance) is float and result.runtime_s > 0.0, result

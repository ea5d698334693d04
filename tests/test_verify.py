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
    params, omegas = verify._well_conditioned_cases(
        np.random.default_rng(21), n_sets, n_omegas, floor=floor)
    assert len(kernel_calls) >= 2  # one check per round, so some were redrawn
    assert omegas.shape == params.theta_m.shape == (n_sets * n_omegas,)
    for grid in (omegas, np.zeros_like(omegas)):
        assert np.abs(sideband_blocks(params, grid).d).min() >= floor

    rng = np.random.default_rng(21)
    first = verify._random_params(rng, n_sets)
    first_omegas = rng.uniform(-1.0e9, 1.0e9, size=(n_sets, n_omegas))
    grid = np.append(first_omegas, np.zeros((n_sets, 1)), axis=1).ravel()
    d = sideband_blocks(verify._per_point(first, n_omegas + 1), grid).d
    kept = np.abs(d).reshape(n_sets, -1).min(axis=1) >= floor
    assert 0 < kept.sum() < n_sets
    per_set = params.theta_m.reshape(n_sets, n_omegas)[:, 0]
    np.testing.assert_array_equal(per_set == first.theta_m, kept)
    np.testing.assert_array_equal(omegas.reshape(n_sets, -1)[kept], first_omegas[kept])


@pytest.mark.parametrize(
    "check", [verify.check_symmetry, verify.check_unitarity, verify.check_oracle])
def test_ensemble_check_evaluates_all_sets_in_few_kernel_calls(kernel_calls, check):
    assert check(verify.DEFAULT_SEED).passed
    assert 1 <= len(kernel_calls) <= 3


def test_results_are_python_scalars():
    for result in verify.run_all():
        assert type(result.measured) is float and type(result.passed) is bool, result
        assert type(result.tolerance) is float and result.runtime_s > 0.0, result

import numpy as np
import pytest

from msinoise.scattering import sideband_blocks
from msinoise.verify import _p1_config


@pytest.fixture
def p1():
    return _p1_config().params


@pytest.fixture
def p1_drive():
    return _p1_config().pump


def clear_of_resonance(params, big_omega: float, floor: float = 1e-3) -> bool:
    """True when the mode determinant is comfortably non-singular."""
    blocks = sideband_blocks(params, np.array([big_omega, -big_omega, 0.0]))
    return np.abs(blocks.d).min() >= floor

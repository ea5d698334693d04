import numpy as np
import pytest

from msinoise.reference import p1_params, p1_pump
from msinoise.scattering import sideband_blocks


@pytest.fixture
def p1():
    return p1_params()


@pytest.fixture
def p1_drive():
    return p1_pump()


def clear_of_resonance(params, big_omega: float, floor: float = 1e-3) -> bool:
    """True when the mode determinant is comfortably non-singular."""
    blocks = sideband_blocks(params, np.array([big_omega, -big_omega, 0.0]))
    return np.abs(blocks.d).min() >= floor

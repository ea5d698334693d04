import sys

import numpy as np
import pytest

from msinoise.scattering import sideband_blocks
from msinoise.verify import _p1_config


@pytest.fixture
def kernel_grids(monkeypatch):
    """The sideband grid of every call through any msinoise binding of `sideband_blocks`."""
    grids = []

    def recording(params, big_omega):
        grids.append(np.asarray(big_omega))
        return sideband_blocks(params, big_omega)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "msinoise" and (
                getattr(module, "sideband_blocks", None) is sideband_blocks):
            monkeypatch.setattr(module, "sideband_blocks", recording)
    return grids


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

"""Every configuration key reaches an output.

For each key a configuration may hold (bar ``schema``), two configurations
that differ only in that key's value must give different science outputs
of `spectrum` and `cooling --optimize`.  A key that changes no output is a
knob that does nothing, and fails here.
"""
import copy
import json
import math

import pytest

from msinoise.config import _KEYS, parse_config
from msinoise.lumped_mode import params_for_targets
from msinoise.outputs import run_cooling, run_spectrum
from msinoise.scattering import SPEED_OF_LIGHT

_PARAMS = params_for_targets(gamma_s=2.5e6, delta_s=-2.5e7, theta_m=0.15 * math.pi,
                             p=1e-4, alpha=-0.5)

#: red-detuned and well damped, so each probed value below stays stable
BASE = {
    "schema": 1,
    "interferometer": {
        "wavelength_m": 2 * math.pi / _PARAMS.k_p,
        "tau_s_s": _PARAMS.tau_s,
        "tau_w_s": _PARAMS.tau_w,
        "t_s": _PARAMS.t_s,
        "r_w": _PARAMS.r_w,
        "theta_m_rad": _PARAMS.theta_m,
        "epsilon_rad": _PARAMS.epsilon,
        "kappa": _PARAMS.kappa,
    },
    # both ports pumped, so a port's phase is not a global phase
    "pump": {"west": {"power_w": 1e-3, "phase_rad": 0.0}, "south": {"power_w": 1e-4}},
    "sweep": {"start_rad_s": 1e6, "stop_rad_s": 2e6, "points": 3},
    "mechanical": {"omega_m_rad_s": 2.5e7, "h_friction_kg_s": 1e-12, "n_thermal": 1e4},
    "optimize": {"energy_budget": 1e16, "constraint": "intracavity"},
}

#: the keys each key replaces in its section when set
_REPLACES = {
    "r_s": ("t_s",), "t_s": ("r_s",), "r_w": ("t_w",), "t_w": ("r_w",),
    "tau_s_s": ("l_s_m",), "l_s_m": ("tau_s_s",),
    "tau_w_s": ("l_w_m",), "l_w_m": ("tau_w_s",),
    "temperature_k": ("n_thermal",), "n_thermal": ("temperature_k",),
    "power_w": ("amplitude",), "phase_rad": ("amplitude",),
    "amplitude": ("power_w", "phase_rad"),
}

_TAU_S, _TAU_W, _C = _PARAMS.tau_s, _PARAMS.tau_w, SPEED_OF_LIGHT

#: key path -> two values; a 1e-12 relative step of a length, time or wavelength
#: moves the round-trip phase 2 omega_p tau by ~4e-6 rad, keeping the detuning red
PROBES = {
    "interferometer.wavelength_m": (BASE["interferometer"]["wavelength_m"],
                                    BASE["interferometer"]["wavelength_m"] * (1 + 1e-12)),
    "interferometer.theta_m_rad": (_PARAMS.theta_m, _PARAMS.theta_m + 1e-3),
    "interferometer.epsilon_rad": (_PARAMS.epsilon, _PARAMS.epsilon + 1e-3),
    "interferometer.kappa": (_PARAMS.kappa, _PARAMS.kappa + 1e-3),
    "interferometer.r_s": (_PARAMS.r_s, _PARAMS.r_s * (1 - 1e-6)),
    "interferometer.t_s": (_PARAMS.t_s, _PARAMS.t_s * (1 + 1e-3)),
    "interferometer.r_w": (0.0, 0.1),
    "interferometer.t_w": (1.0, 0.99),
    "interferometer.tau_s_s": (_TAU_S, _TAU_S * (1 + 1e-12)),
    "interferometer.l_s_m": (_TAU_S * _C, _TAU_S * _C * (1 + 1e-12)),
    "interferometer.tau_w_s": (_TAU_W, _TAU_W * (1 + 1e-12)),
    "interferometer.l_w_m": (_TAU_W * _C, _TAU_W * _C * (1 + 1e-12)),
    "pump.west": ({"power_w": 1e-3}, {"power_w": 2e-3}),
    "pump.south": ({"power_w": 1e-4}, {"power_w": 2e-4}),
    "pump.west.power_w": (1e-3, 2e-3),
    "pump.west.phase_rad": (0.0, 0.5),
    "pump.west.amplitude": ([2e7, 0.0], [2e7, 1e7]),
    "sweep.start_rad_s": (1e6, 1.5e6),
    "sweep.stop_rad_s": (2e6, 3e6),
    "sweep.points": (3, 4),
    "sweep.spacing": ("linear", "log"),
    "mechanical.omega_m_rad_s": (2.5e7, 2.4e7),
    "mechanical.h_friction_kg_s": (1e-12, 2e-12),
    "mechanical.temperature_k": (4.0, 300.0),
    "mechanical.n_thermal": (1e4, 2e4),
    "optimize.energy_budget": (1e16, 2e16),
    "optimize.constraint": ("intracavity", "injected"),
}

#: every key of every section, and the keys of a pump port
KEYS = [f"{section}.{key}" for section, keys in _KEYS.items() if section != "<root>"
        for key in keys] + [f"pump.west.{key}" for key in ("power_w", "phase_rad", "amplitude")]


def _with(path: str, value) -> dict:
    """BASE with the key at ``path`` set to ``value`` and the keys it replaces removed."""
    raw = copy.deepcopy(BASE)
    *parents, key = path.split(".")
    section = raw
    for name in parents:
        section = section[name]
    for other in _REPLACES.get(key, ()):
        section.pop(other, None)
    section[key] = value
    return raw


def _science(raw: dict, out) -> dict:
    """Every file `spectrum` and `cooling --optimize` write, less the config echo."""
    cfg = parse_config(raw)
    run_spectrum(cfg, out)
    run_cooling(cfg, out, optimize=True)
    files = {path.name: path.read_text() for path in out.iterdir()}
    for name in ("spectrum.json", "cooling.json"):
        sidecar = json.loads(files[name])
        del sidecar["config"], sidecar["config_sha256"]
        files[name] = sidecar
    return files


def test_every_root_key_but_the_schema_is_a_section():
    assert set(_KEYS["<root>"]) - set(_KEYS) == {"schema"}


@pytest.mark.parametrize("path", KEYS)
def test_key_changes_an_output(tmp_path, path):
    assert path in PROBES, f"no probe values for {path}"
    first, second = PROBES[path]
    assert _science(_with(path, first), tmp_path / "a") != _science(
        _with(path, second), tmp_path / "b")

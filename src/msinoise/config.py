"""Run configuration: JSON with SI units only.

Lengths are in meters (converted to one-way times with the exact speed of
light), powers in watts, frequencies in rad/s.  Each pump port takes
either power + phase or a raw complex amplitude, never both.  This module
is the one reader of user JSON, for every subcommand.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cooling import MechanicalMode
from .errors import ConfigError
from .scattering import HBAR, K_BOLTZMANN, SPEED_OF_LIGHT, InterferometerParams, PortVector

__all__ = ["RunConfig", "parse_config", "load_config", "config_digest"]

SCHEMA_VERSION = 1

#: largest sweep, checked before the grid is allocated
MAX_POINTS = 1_000_000

#: every key a section may hold
_KEYS = {
    "<root>": ("schema", "interferometer", "pump", "sweep", "mechanical", "optimize"),
    "interferometer": ("wavelength_m", "theta_m_rad", "epsilon_rad", "kappa", "r_s",
                       "t_s", "r_w", "t_w", "tau_s_s", "l_s_m", "tau_w_s", "l_w_m"),
    "pump": ("west", "south"),
    "sweep": ("start_rad_s", "stop_rad_s", "points", "spacing"),
    "mechanical": ("omega_m_rad_s", "h_friction_kg_s", "temperature_k", "n_thermal"),
    "optimize": ("energy_budget", "constraint"),
}


@dataclass(frozen=True)
class RunConfig:
    params: InterferometerParams
    pump: PortVector
    grid: np.ndarray
    mechanical: MechanicalMode | None
    energy_budget: float | None
    optimize_constraint: str
    echo: dict


def _get(section: dict, key: str, path: str, required=True, default=None):
    if key not in section:
        if required:
            raise ConfigError(f"{path}.{key}", "missing")
        return default
    return section[key]


def _known_keys(section: dict, path: str, keys=None) -> None:
    """Reject the first key (sorted) not in ``keys``, by default ``_KEYS[path]``."""
    unknown = sorted(set(section) - set(keys or _KEYS[path]))
    if unknown:
        field = unknown[0] if path == "<root>" else f"{path}.{unknown[0]}"
        raise ConfigError(field, "unknown key")


def _is_finite_number(value) -> bool:
    """JSON numbers only (not bools), and not NaN or +/-Infinity."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _section(parent: dict, name: str, required=True) -> dict:
    """The object ``parent[name]`` with its keys checked; {} if optional and absent."""
    section = _get(parent, name, "<root>", required, default={})
    if not isinstance(section, dict):
        raise ConfigError(name, "must be an object")
    _known_keys(section, name)
    return section


def _number(section: dict, key: str, path: str, required=True, default=None):
    if key not in section and not required:
        return default
    value = _get(section, key, path)
    if not _is_finite_number(value):
        raise ConfigError(f"{path}.{key}", f"expected a finite number, got {value!r}")
    return float(value)


def _mirror_pair(section: dict, name: str, path: str) -> tuple[float, float]:
    """Resolve (r, t) from whichever of r_<name>/t_<name> is present."""
    r_key, t_key = f"r_{name}", f"t_{name}"
    has_r, has_t = r_key in section, t_key in section
    if not has_r and not has_t:
        raise ConfigError(f"{path}.{r_key}", f"need {r_key} or {t_key}")
    if has_r and has_t:
        r = _number(section, r_key, path)
        t = _number(section, t_key, path)
    elif has_r:
        r = _number(section, r_key, path)
        if not 0.0 <= r <= 1.0:
            raise ConfigError(f"{path}.{r_key}", f"{r!r} outside [0, 1]")
        t = math.sqrt(1.0 - r * r)
    else:
        t = _number(section, t_key, path)
        if not 0.0 <= t <= 1.0:
            raise ConfigError(f"{path}.{t_key}", f"{t!r} outside [0, 1]")
        r = math.sqrt(1.0 - t * t)
    return r, t


def _path_time(section: dict, name: str, path: str) -> float:
    tau_key, length_key = f"tau_{name}_s", f"l_{name}_m"
    has_tau, has_len = tau_key in section, length_key in section
    if has_tau == has_len:
        raise ConfigError(f"{path}.{tau_key}", f"give exactly one of {tau_key}, {length_key}")
    if has_tau:
        return _number(section, tau_key, path)
    return _number(section, length_key, path) / SPEED_OF_LIGHT


def _port_amplitude(section: dict, path: str, omega_p: float) -> complex:
    has_power = "power_w" in section
    has_amp = "amplitude" in section
    if has_power == has_amp:
        raise ConfigError(path, "give exactly one of power_w(+phase_rad), amplitude")
    # phase_rad goes only with power_w; next to an amplitude it would be ignored
    _known_keys(section, path, ("power_w", "phase_rad") if has_power else ("amplitude",))
    if has_power:
        power = _number(section, "power_w", path)
        if power < 0.0:
            raise ConfigError(f"{path}.power_w", f"{power!r} is negative")
        phase = _number(section, "phase_rad", path, required=False, default=0.0)
        return math.sqrt(power / (HBAR * omega_p)) * np.exp(1j * phase)
    amp = _get(section, "amplitude", path)
    if (
        not isinstance(amp, (list, tuple))
        or len(amp) != 2
        or not all(_is_finite_number(v) for v in amp)
    ):
        raise ConfigError(f"{path}.amplitude", "expected [re, im] of finite numbers")
    return complex(amp[0], amp[1])


def _sweep_grid(section: dict, path: str) -> np.ndarray:
    start = _number(section, "start_rad_s", path)
    stop = _number(section, "stop_rad_s", path)
    points = _get(section, "points", path)
    if type(points) is not int or not 2 <= points <= MAX_POINTS:  # bool excluded
        raise ConfigError(f"{path}.points",
                          f"need an integer in [2, {MAX_POINTS}], got {points!r}")
    spacing = _get(section, "spacing", path, required=False, default="linear")
    if spacing == "linear":
        if not math.isfinite(stop - start):  # linspace's step would overflow, a point to NaN
            raise ConfigError(f"{path}.stop_rad_s", f"stop - start = {stop - start!r} overflows")
        return np.linspace(start, stop, points)
    if spacing == "log":
        if start <= 0.0 or stop <= 0.0:
            raise ConfigError(f"{path}.spacing", "log spacing needs positive bounds")
        return np.geomspace(start, stop, points)
    raise ConfigError(f"{path}.spacing", f"unknown spacing {spacing!r}")


def parse_config(raw: dict) -> RunConfig:
    """Validate a configuration dict and build the domain objects."""
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "top level must be an object")
    _known_keys(raw, "<root>")
    schema = raw.get("schema", SCHEMA_VERSION)
    if type(schema) is not int or schema != SCHEMA_VERSION:  # not true, not 1.0
        raise ConfigError("schema", f"unsupported schema {schema!r}")

    ifo = _section(raw, "interferometer")
    wavelength = _number(ifo, "wavelength_m", "interferometer")
    if wavelength <= 0.0:
        raise ConfigError("interferometer.wavelength_m", f"{wavelength!r} <= 0")
    k_p = 2.0 * math.pi / wavelength
    # the model squares k_p and divides by the photon energy hbar omega_p
    if not (math.isfinite(k_p * k_p) and HBAR * (SPEED_OF_LIGHT * k_p) > 0.0):
        raise ConfigError("interferometer.wavelength_m",
                          f"{wavelength!r} puts k_p^2 or hbar omega_p beyond double precision")
    r_s, t_s = _mirror_pair(ifo, "s", "interferometer")
    r_w, t_w = _mirror_pair(ifo, "w", "interferometer")
    try:
        params = InterferometerParams(
            theta_m=_number(ifo, "theta_m_rad", "interferometer"),
            epsilon=_number(ifo, "epsilon_rad", "interferometer"),
            kappa=_number(ifo, "kappa", "interferometer"),
            tau_s=_path_time(ifo, "s", "interferometer"),
            tau_w=_path_time(ifo, "w", "interferometer"),
            r_s=r_s,
            t_s=t_s,
            r_w=r_w,
            t_w=t_w,
            k_p=k_p,
        )
    except ValueError as exc:
        raise ConfigError("interferometer", str(exc)) from exc

    pump_sec = _section(raw, "pump")
    ports = {}
    for port in ("west", "south"):
        sec = _get(pump_sec, port, "pump", required=False, default={"power_w": 0.0})
        if not isinstance(sec, dict):
            raise ConfigError(f"pump.{port}", "must be an object")
        ports[port] = _port_amplitude(sec, f"pump.{port}", params.omega_p)
    pump = PortVector(west=ports["west"], south=ports["south"])

    grid = _sweep_grid(_section(raw, "sweep"), "sweep")

    mech = None
    if "mechanical" in raw:
        sec = _section(raw, "mechanical")
        try:
            mech = MechanicalMode(
                omega_m=_number(sec, "omega_m_rad_s", "mechanical"),
                h_friction=_number(sec, "h_friction_kg_s", "mechanical"),
                temperature=_number(sec, "temperature_k", "mechanical", required=False),
                n_thermal=_number(sec, "n_thermal", "mechanical", required=False),
            )
        except ValueError as exc:
            raise ConfigError("mechanical", str(exc)) from exc
        if not HBAR * mech.omega_m > 0.0:  # the occupancy divides by 2 hbar omega_m
            raise ConfigError("mechanical.omega_m_rad_s",
                              f"{mech.omega_m!r} makes hbar omega_m underflow to 0")
        # the Bose occupation divides by expm1(hbar omega_m / k_B T)
        if mech.temperature is not None and not (
                HBAR * mech.omega_m / (K_BOLTZMANN * mech.temperature) > 0.0):
            raise ConfigError("mechanical.temperature_k", f"{mech.temperature!r} makes "
                              "hbar omega_m / k_B T underflow to 0")

    opt_sec = _section(raw, "optimize", required=False)
    energy_budget = _number(opt_sec, "energy_budget", "optimize", required=False)
    if energy_budget is not None and energy_budget <= 0.0:
        raise ConfigError("optimize.energy_budget", f"{energy_budget!r} is not positive")
    constraint = opt_sec.get("constraint", "intracavity")
    if constraint not in ("intracavity", "injected"):
        raise ConfigError("optimize.constraint", f"unknown constraint {constraint!r}")

    return RunConfig(
        params=params,
        pump=pump,
        grid=grid,
        mechanical=mech,
        energy_budget=energy_budget,
        optimize_constraint=constraint,
        echo=raw,
    )


def _read_json(path: str | Path):
    """The JSON value in file ``path``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse a JSON configuration file."""
    return parse_config(_read_json(path))


def config_digest(echo: dict) -> str:
    """Stable hash of the configuration echo (for output provenance)."""
    import hashlib

    canonical = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()

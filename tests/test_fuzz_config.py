"""Fuzz `msinoise spectrum`, `compare` and `cooling --optimize` over mutated
configuration dicts.

Whatever the configuration, a command either refuses it (exit 2), reports
singular optics (exit 3) or, for `cooling`, an anti-damped mode (exit 4),
and writes no file, or it exits 0 having written only finite numbers.  The
search is derandomized, so every run tries the same examples.
"""
import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from msinoise.cli import main

BASE = {
    "schema": 1,
    "interferometer": {
        "wavelength_m": 1.064e-6,
        "tau_s_s": 1.0e-9,
        "tau_w_s": 1.1e-9,
        "t_s": 0.1,
        "r_w": 0.0,
        "theta_m_rad": 0.47123889803846897,
        "epsilon_rad": 0.02,
        "kappa": 0.01,
    },
    "pump": {
        "west": {"amplitude": [1e8, 0.0]},
        "south": {"power_w": 0.0, "phase_rad": 0.0},
    },
    "sweep": {"start_rad_s": 1e8, "stop_rad_s": 2e9, "points": 5, "spacing": "linear"},
}

#: (section path, key) of every leaf the mutations may touch
LEAVES = [
    ((), "schema"),
    *((("interferometer",), key) for key in BASE["interferometer"]),
    *((("interferometer",), key) for key in ("r_s", "t_w", "l_s_m", "l_w_m")),
    (("pump", "west"), "amplitude"),
    (("pump", "west"), "power_w"),
    (("pump", "south"), "power_w"),
    (("pump", "south"), "phase_rad"),
    *((("sweep",), key) for key in BASE["sweep"]),
]

#: BASE with the blocks `cooling --optimize` reads, and the leaves they add
FULL_BASE = {
    **BASE,
    "mechanical": {"omega_m_rad_s": 2.5e7, "h_friction_kg_s": 1e-14, "temperature_k": 4.0},
    "optimize": {"constraint": "intracavity"},
}
FULL_LEAVES = [
    *LEAVES,
    *((("mechanical",), key) for key in ("omega_m_rad_s", "h_friction_kg_s",
                                         "temperature_k", "n_thermal", "mass_kg")),
    (("optimize",), "energy_budget"),
    (("optimize",), "constraint"),
]

finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(
    st.floats(),  # NaN and +/-Infinity included; json writes them as literals
    st.floats(min_value=-10.0, max_value=10.0),
    finite.map(lambda x: x * 1e-9),
    st.integers(),
    st.sampled_from([0, -0.0, 1, 2, 10**400, 5e-324, 1.7976931348623157e308]),
)
values = st.one_of(
    numbers,
    st.lists(numbers, min_size=2, max_size=2),  # an [re, im] amplitude
    st.lists(numbers, max_size=3),
    st.sampled_from([None, True, "linear", "log", "", {}]),
)

#: decades to scale a number by; the extremes are where double precision ends
exponents = st.one_of(st.integers(-320, 308), st.sampled_from([-320, -310, 160, 200, 308]))


def _typo(key: str, draw) -> str:
    """A near miss of ``key``: one character changed case, dropped or doubled."""
    i = draw(st.integers(0, len(key) - 1))
    kind = draw(st.sampled_from(["case", "drop", "double"]))
    if kind == "case":
        return key[:i] + key[i].swapcase() + key[i + 1:]
    if kind == "drop":
        return key[:i] + key[i + 1:]
    return key[:i] + key[i] * 2 + key[i + 1:]


def _scaled(value, factor: float):
    """``value`` times ``factor``, entry by entry for an [re, im] pair."""
    if isinstance(value, list):
        return [_scaled(v, factor) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value) * factor
        except OverflowError:  # an integer beyond the float range
            return value
    return value


@st.composite
def configs(draw, base=BASE, leaves=LEAVES):
    raw = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 4))):
        path, key = draw(st.sampled_from(leaves))
        section = raw
        for name in path:
            section = section.setdefault(name, {})
            if not isinstance(section, dict):
                break
        if not isinstance(section, dict):
            continue
        action = draw(st.sampled_from(["set", "set", "scale", "scale", "delete", "typo",
                                       "points"]))
        if action == "set":
            section[key] = draw(values)
        elif action == "scale":  # stays finite, reaches overflow and underflow
            section[key] = _scaled(section.get(key), 10.0 ** draw(exponents))
        elif action == "delete":
            section.pop(key, None)
        elif action == "typo":
            section[_typo(key, draw)] = section.pop(key, draw(values))
        else:
            raw["sweep"]["points"] = draw(st.integers(-2, 6))
    return raw


def _with(path: tuple, key: str, value, base=BASE) -> dict:
    """``base`` with one leaf replaced."""
    raw = json.loads(json.dumps(base))
    section = raw
    for name in path:
        section = section[name]
    section[key] = value
    return raw


def _all_finite(path: Path) -> bool:
    with path.open() as fh:
        rows = list(csv.reader(fh))[1:]
    return all(math.isfinite(float(cell)) for row in rows for cell in row)


@settings(derandomize=True, database=None, max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=configs())
# found by the search: NaN damping at a subnormal Omega, an overflowing
# force noise, float ranges exceeded while parsing or in the sidecar, and
# omega_p tau_s overflowing in the blocks (1e294) or only in delta_s (1e293)
@example(raw=_with(("sweep",), "start_rad_s", 1e-312))
@example(raw=_with(("pump", "west"), "amplitude", [1e200, 0.0]))
@example(raw=_with(("interferometer",), "wavelength_m", 1.064e302))
@example(raw=_with(("interferometer",), "kappa", 1e158))
@example(raw=_with(("interferometer",), "tau_s_s", 1e294))
@example(raw=_with(("interferometer",), "tau_s_s", 1e293))
def test_spectrum_refuses_or_writes_finite_rows(raw):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(raw))
        rc = main(["spectrum", "--config", str(cfg), "--out", str(Path(tmp) / "out")])
        assert rc in (0, 2, 3)
        assert rc == 0 or not (Path(tmp) / "out").exists()
        if rc == 0:
            assert _all_finite(Path(tmp) / "out" / "spectrum.csv")


def _run(command: str, raw: dict, tmp: str, *flags: str) -> int:
    cfg = Path(tmp) / "cfg.json"
    cfg.write_text(json.dumps(raw))
    return main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out"), *flags])


@pytest.mark.parametrize("command, raw, flags", [
    ("spectrum", BASE, []),
    ("compare", FULL_BASE, []),
    ("cooling", FULL_BASE, ["--optimize"]),
])
def test_unmutated_base_exits_0(tmp_path, command, raw, flags):
    """Each base the mutations start from runs clean, so the fuzz reaches exit 0."""
    assert _run(command, raw, str(tmp_path), *flags) == 0


@settings(derandomize=True, database=None, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=configs(FULL_BASE, FULL_LEAVES))
# a vanishing tau_s: gamma / tau_s overflows, the reduced forms do not
@example(raw=_with(("interferometer",), "tau_s_s", 1e-300, FULL_BASE))
def test_compare_refuses_or_writes_finite_errors(raw):
    with tempfile.TemporaryDirectory() as tmp:
        rc = _run("compare", raw, tmp)
        assert rc in (0, 2, 3)
        assert rc == 0 or not (Path(tmp) / "out").exists()
        if rc == 0:
            with (Path(tmp) / "out" / "compare.csv").open() as fh:
                rows = list(csv.DictReader(fh))
            assert all(math.isfinite(float(value)) for row in rows for value in row.values())


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(raw=configs(FULL_BASE, FULL_LEAVES))
# a budget of zero, given or derived from an unpumped configuration, and
# (found by the search) a force noise that overflows to a NaN occupancy
@example(raw=_with(("optimize",), "energy_budget", 0, FULL_BASE))
@example(raw=_with(("pump",), "west", {"power_w": 0.0}, FULL_BASE))
@example(raw=_with(("pump", "west"), "amplitude", [1e168, 0.0], FULL_BASE))
def test_cooling_optimize_refuses_or_writes_finite_occupancy(raw):
    with tempfile.TemporaryDirectory() as tmp:
        rc = _run("cooling", raw, tmp, "--optimize")
        assert rc in (0, 2, 3, 4)
        assert rc == 0 or not (Path(tmp) / "out").exists()
        if rc == 0:
            constants = []  # the regime flags may be Infinity, nothing may be NaN
            text = (Path(tmp) / "out" / "cooling.json").read_text()
            report = json.loads(text, parse_constant=lambda c: constants.append(c) or float(c))
            assert "NaN" not in constants
            n_bars = (report["report"]["n_bar"], report["report"]["optimum"]["n_bar"])
            assert all(math.isfinite(n) for n in n_bars)

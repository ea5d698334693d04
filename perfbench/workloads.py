"""The three seeded workloads, their timed bodies and their output checks.

Each workload turns a seed into msinoise config dicts (the only input the
program sees), runs a timed body on them, and afterwards checks what the
body produced against a reference that does not share the code path being
timed.  A check returns one pass flag per checked operation, whether the
outputs are correct, and notes naming what failed.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.constants import hbar

from msinoise import config, outputs, verify
from msinoise.config import parse_config
from msinoise.cooling import occupancy
from msinoise.errors import MsiNoiseError
from msinoise.lumped_mode import params_for_targets
from msinoise.radiation_pressure import noise_spectra
from msinoise.scattering import IntracavityField, PortVector, oracle_solve

#: traced functions, by msinoise module
LAYERS = {
    "config": ("parse_config",),
    "scattering": (
        "mode_mixer", "fixed_matrices", "mode_dynamics", "scattering_matrix",
        "displacement_transfer", "classical_fields", "oracle_solve",
    ),
    "radiation_pressure": (
        "force_transfer", "rigidity_matrices", "rigidity", "noise_spectra",
    ),
    "lumped_mode": (
        "from_exact", "approx_force_transfer", "approx_rigidity",
        "canonical_spectra", "fano_spectrum", "strip_propagation_phases",
    ),
    "cooling": ("optimize_pump", "occupancy", "thermal_spectra"),
    "algebra": ("solve_dense",),
    "outputs": ("run_spectrum", "run_compare", "run_cooling"),
    "verify": (
        "check_symmetry", "check_unitarity", "check_oracle", "check_convergence",
        "check_canonical", "check_fano", "check_fdt_kubo",
        "check_cooling_optimum", "check_coupling_zeros", "check_golden",
    ),
}
TARGETS = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)
# Timed bodies call through the module attributes (config.parse_config, ...)
# so that the traced run sees them; checks use plain imports.

#: tolerances of the verify invariants the sweep rows are held to
ORACLE_TOL = 1e-10       # oracle_equivalence
FDT_TOL = 1e-8           # fdt_kubo, optical route
OCCUPANCY_TOL = 1e-9
#: the optimum and the landscape evaluate one formula on a scalar and on a
#: mesh, so they may round differently in the last bits
LANDSCAPE_SLACK = 1e-12

SWEEP_POINTS = 4001
SWEEP_SAMPLE = 100
COOLING_CONFIGS = 32


def outcome_counts(outcomes) -> tuple[int, int]:
    """(attempted, failed) for a sequence of per-operation pass flags."""
    outcomes = list(outcomes)
    return len(outcomes), sum(1 for ok in outcomes if not ok)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _oracle_s_tilde(params, field: IntracavityField, big_omega: float) -> float:
    """S~(Omega) from the dense field-equation solve alone.

    Unit port inputs give the columns of R_ifo; a displacement x with no
    input gives b = R_ifo (i k_p G E x), so S~ = hbar^2 k_p^2 |R^dag b|^2
    / (k_p x)^2.
    """
    omega = params.omega_p + big_omega
    dark = IntracavityField(0.0, 0.0)
    r_ifo = np.column_stack([
        oracle_solve(params, omega, PortVector(1.0, 0.0), 0.0, dark).b,
        oracle_solve(params, omega, PortVector(0.0, 1.0), 0.0, dark).b,
    ])
    x = 1e-15
    b = oracle_solve(params, omega, PortVector(0.0, 0.0), x, field).b
    g_e = r_ifo.conj().T @ b
    return hbar**2 * params.k_p**2 * float(np.vdot(g_e, g_e).real) / (params.k_p * x) ** 2


class Sweep:
    """P1 over its own linear range, densified; one parameter set, many Omega."""

    name = "sweep"
    modules = ("msinoise.outputs",)

    def __init__(self, seed: int, src: Path, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        raw = json.loads((src / "msinoise" / "data" / "p1.json").read_text())
        sweep = raw["sweep"]
        step = (sweep["stop_rad_s"] - sweep["start_rad_s"]) / (SWEEP_POINTS - 1)
        # the seed moves the grid inside P1's range; the point count is fixed
        shift = float(np.random.default_rng(seed).uniform())
        sweep.update(
            start_rad_s=sweep["start_rad_s"] + shift * step,
            stop_rad_s=sweep["stop_rad_s"] - (1.0 - shift) * step,
            points=SWEEP_POINTS,
            spacing="linear",
        )
        self.configs = [raw]

    def run(self):
        return outputs.run_spectrum(config.parse_config(self.configs[0]), self.out_dir)

    def rows(self, result) -> int:
        return result["rows"]

    def check(self, results) -> tuple[list[bool], bool, list[str]]:
        cfg = parse_config(self.configs[0])
        params = cfg.params
        field = IntracavityField(*oracle_solve(
            params, params.omega_p, cfg.pump, 0.0, IntracavityField(0.0, 0.0)
        ).e)
        table = np.loadtxt(self.out_dir / "spectrum.csv", delimiter=",",
                           skiprows=1, ndmin=2)
        by_omega = {float(row[0]): row for row in table}
        rng = np.random.default_rng([self.seed, 1])
        sample = rng.choice(len(cfg.grid), size=SWEEP_SAMPLE, replace=False)
        outcomes, notes = [], []
        for big_omega in cfg.grid[np.sort(sample)]:
            row = by_omega.get(float(big_omega))
            if row is None or not np.all(np.isfinite(row)):
                outcomes.append(False)
                notes.append(f"Omega={big_omega!r}: row missing or non-finite")
                continue
            _, s_pos, s_neg, _, _, im_k, h_opt = row
            err_pos = _rel(s_pos, _oracle_s_tilde(params, field, big_omega))
            err_neg = _rel(s_neg, _oracle_s_tilde(params, field, -big_omega))
            err_fdt = abs(big_omega * h_opt + im_k) / abs(im_k)
            ok = max(err_pos, err_neg) <= ORACLE_TOL and err_fdt <= FDT_TOL
            outcomes.append(ok)
            if not ok:
                notes.append(
                    f"Omega={big_omega!r}: oracle err {max(err_pos, err_neg):.2e}, "
                    f"fdt err {err_fdt:.2e}"
                )
        return outcomes, all(outcomes), notes


class Cooling:
    """Red-detuned, stable ensemble through the pump optimiser."""

    name = "cooling"
    modules = ("msinoise.outputs",)

    def __init__(self, seed: int, src: Path, out_dir: Path):
        rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        self.configs = []
        for i in range(COOLING_CONFIGS):
            omega_m = rng.uniform(1.0e7, 4.0e7)
            theta_m = rng.uniform(0.1 * math.pi, 0.4 * math.pi)
            alpha = rng.uniform(-1.0, 0.0)
            p = rng.uniform(5e-5, 2e-4)
            n_thermal = 10.0 ** rng.uniform(3.0, 5.0)
            # resolved sidebands, detuned red by the mechanical frequency
            params = params_for_targets(
                gamma_s=0.1 * omega_m, delta_s=-omega_m, theta_m=theta_m,
                p=p, alpha=alpha,
            )
            self.configs.append({
                "schema": 1,
                "interferometer": {
                    "wavelength_m": 2.0 * math.pi / params.k_p,
                    "tau_s_s": params.tau_s,
                    "tau_w_s": params.tau_w,
                    "t_s": params.t_s,
                    "r_w": params.r_w,
                    "theta_m_rad": params.theta_m,
                    "epsilon_rad": params.epsilon,
                    "kappa": params.kappa,
                },
                "pump": {"west": {"power_w": 1.0e-3}, "south": {"power_w": 0.0}},
                "sweep": {"start_rad_s": 1.0e6, "stop_rad_s": 2.0e6, "points": 2},
                "mechanical": {
                    "omega_m_rad_s": omega_m,
                    "h_friction_kg_s": 1.0e-12,
                    "n_thermal": n_thermal,
                },
                "optimize": {"constraint": "injected" if i % 2 else "intracavity"},
            })

    def _dir(self, i: int) -> Path:
        return self.out_dir / f"config{i:02d}"

    def run(self):
        reports = []
        for i, raw in enumerate(self.configs):
            try:
                cfg = config.parse_config(raw)
                reports.append(outputs.run_cooling(cfg, self._dir(i), optimize=True))
            except MsiNoiseError as exc:
                reports.append(exc)
        return reports

    def rows(self, result) -> int:
        return 0

    def check(self, results) -> tuple[list[bool], bool, list[str]]:
        outcomes, notes = [], []
        for i, report in enumerate(results[-1]):
            ok = not isinstance(report, Exception) and self._check_one(i, report)
            outcomes.append(ok)
            if not ok:
                notes.append(f"config{i:02d}: {report!r}"[:200])
        return outcomes, all(outcomes), notes

    def _check_one(self, i: int, report: dict) -> bool:
        cfg = parse_config(self.configs[i])
        opt = report["optimum"]
        field = IntracavityField(complex(*opt["e_plus"]), complex(*opt["e_minus"]))
        spec = noise_spectra(cfg.params, field, [cfg.mechanical.omega_m])
        if spec.skipped:
            return False
        n_bar = occupancy(cfg.mechanical, float(spec.s_tilde_pos[0]),
                          float(spec.s_tilde_neg[0])).n_bar
        landscape = np.loadtxt(self._dir(i) / "landscape.csv", delimiter=",",
                               skiprows=1, usecols=2)
        finite = landscape[np.isfinite(landscape)]
        return bool(
            math.isfinite(opt["n_bar"])
            and finite.size > 0
            and _rel(opt["n_bar"], n_bar) <= OCCUPANCY_TOL
            and opt["n_bar"] <= finite.min() * (1.0 + LANDSCAPE_SLACK)
        )


class Ensemble:
    """The verify suite: thousands of random sets at 1-5 Omega, dense oracle."""

    name = "ensemble"
    modules = ("msinoise.verify",)

    def __init__(self, seed: int, src: Path, out_dir: Path):
        self.seed = seed
        self.configs = [json.loads((src / "msinoise" / "data" / "p1.json").read_text())]

    def run(self):
        return verify.run_all(self.seed)

    def rows(self, result) -> int:
        return 0

    def check(self, results) -> tuple[list[bool], bool, list[str]]:
        """Each invariant is one operation, failing when verify says so.

        The suite checks itself, so the benchmark's own check is that every
        repetition of the same seed returns the same verdicts and values.
        """
        verdicts = [
            [(r.name, r.passed, r.measured) for r in rep] for rep in results
        ]
        consistent = all(v == verdicts[0] for v in verdicts) and all(
            math.isfinite(measured) for _, _, measured in verdicts[0]
        )
        notes = [r.line() for r in results[-1] if not r.passed]
        if not consistent:
            notes.append("verdicts or measured values differ between repetitions")
        return [passed for _, passed, _ in verdicts[-1]], consistent, notes


WORKLOADS = {w.name: w for w in (Sweep, Cooling, Ensemble)}

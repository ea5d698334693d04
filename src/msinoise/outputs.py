"""CSV/JSON emission for sweeps, comparisons and cooling reports.

Numbers are written in shortest round-trip decimal form and outputs carry
no timestamps, so identical configurations produce bit-identical files.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, config_digest
from .cooling import occupancy, optimize_pump
from .errors import ConfigError, OpticalSingularity
from .lumped_mode import (
    canonical_spectra,
    coupling_constants,
    fano_spectrum,
    from_exact,
    reduction_errors,
)
from .radiation_pressure import noise_spectra
from .scattering import classical_fields

SPECTRUM_HEADER = "Omega,S_tilde_pos,S_tilde_neg,S_sym,Re_K,Im_K,H_opt"
COMPARE_HEADER = "Omega,err_F,err_K,err_S_tilde,err_S_canonical,err_S_fano"
LANDSCAPE_HEADER = "chi,phi,n_bar,s_f_pos,s_f_neg"


def _fmt(values: np.ndarray):
    """Lazy shortest decimals that round-trip to the same doubles, in C order."""
    return map(repr, values.ravel().tolist())


def _write_csv(path: Path, header: str, columns) -> None:
    """Write one row per position of the lazily formatted string columns."""
    with path.open("w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*columns))


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {obj!r}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"
    )


def _sidecar(cfg: RunConfig, kind: str, **extra) -> dict:
    lumped = from_exact(cfg.params)
    payload = {
        "schema": 1,
        "kind": kind,
        "version": __version__,
        "config": cfg.echo,
        "config_sha256": config_digest(cfg.echo),
        "validity_warnings": list(lumped.validity.warnings),
    }
    payload.update(extra)
    return payload


def _skipped(spec) -> list[dict]:
    return [{"omega": omega, "reason": reason} for omega, reason in spec.skipped]


def _refuse_non_finite(what: str, grid: np.ndarray, columns) -> None:
    """Raise ConfigError at the first Omega where any column is not finite."""
    finite = np.logical_and.reduce([np.isfinite(column) for column in columns])
    if not finite.all():
        omega = float(grid[~finite][0])
        raise ConfigError("<root>", f"the {what} is not finite at Omega = {omega!r} rad/s")


def _summary(cfg: RunConfig, spec) -> dict:
    return {"rows": len(spec.grid), "skipped": len(spec.skipped), "total": len(cfg.grid)}


def run_spectrum(cfg: RunConfig, out_dir: Path) -> dict:
    """Force-noise sweep -> spectrum.csv + spectrum.json; returns summary.

    Raises ConfigError, and writes nothing, if any row would not be finite:
    the configuration then lies beyond what double precision can carry.
    """
    field = classical_fields(cfg.params, cfg.pump, cfg.det_tol)
    e = field.as_array()
    spec = noise_spectra(cfg.params, field, cfg.grid, cfg.det_tol)
    columns = (spec.grid, spec.s_tilde_pos, spec.s_tilde_neg, spec.s_sym,
               spec.k.real, spec.k.imag, spec.h_opt)
    _refuse_non_finite("spectrum", spec.grid, columns)
    sidecar = _sidecar(
        cfg,
        "spectrum",
        skipped=_skipped(spec),
        field={"e_plus": [e[0].real, e[0].imag], "e_minus": [e[1].real, e[1].imag]},
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "spectrum.csv", SPECTRUM_HEADER, map(_fmt, columns))
    _write_json(out_dir / "spectrum.json", sidecar)
    return _summary(cfg, spec)


def run_compare(cfg: RunConfig, out_dir: Path) -> dict:
    """Exact vs reduced-model sweep -> compare.csv + compare.json.

    Relative-error columns: force transfer matrix (entrywise, in the
    phase-stripped gauge), scalar rigidity, force noise via the reduced
    matrix, the canonical Lorentzian (using the symmetric field only) and,
    when the south port is unpumped, the Fano line shape (NaN otherwise).

    Raises ConfigError, and writes nothing, if any error that applies is
    not finite, e.g. relative errors of an unpumped (all-zero) spectrum.
    """
    params = cfg.params
    field = classical_fields(params, cfg.pump, cfg.det_tol)
    lp = from_exact(params)
    dark_south = cfg.pump.south == 0
    k_p = params.k_p
    spec = noise_spectra(params, field, cfg.grid, cfg.det_tol)

    err_f, err_k, err_s = reduction_errors(params, lp, field, spec.grid, cfg.det_tol)
    s_exact = spec.s_tilde_pos
    s_can = canonical_spectra(lp, k_p, field.e_plus, spec.grid).s_tilde_pos
    # an unpumped spectrum makes these 0/0, which _refuse_non_finite refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        if dark_south:
            s_fano = fano_spectrum(lp, params.epsilon, params.kappa, k_p, cfg.pump.west,
                                   spec.grid)
            err_fano = np.abs(s_exact - s_fano) / s_exact
        else:
            err_fano = np.full(len(spec.grid), np.nan)
        columns = (spec.grid, err_f, err_k, err_s, np.abs(s_exact - s_can) / s_exact, err_fano)
    _refuse_non_finite("comparison", spec.grid, columns if dark_south else columns[:-1])
    couplings = coupling_constants(lp, k_p)
    sidecar = _sidecar(
        cfg,
        "compare",
        skipped=_skipped(spec),
        fano_applicable=dark_south,
        lumped={
            "gamma_s": lp.gamma_s,
            "delta_s": lp.delta_s,
            "gamma_m": lp.gamma_m,
            "delta_m": lp.delta_m,
            "gamma": lp.gamma,
            "delta": lp.delta,
            "p": lp.p,
            "alpha": lp.alpha,
            "g_disp": couplings.g_disp,
            "g_diss_combo": couplings.g_diss_combo,
        },
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "compare.csv", COMPARE_HEADER, map(_fmt, columns))
    _write_json(out_dir / "compare.json", sidecar)
    return _summary(cfg, spec)


def run_cooling(cfg: RunConfig, out_dir: Path, optimize: bool = False) -> dict:
    """Occupancy report -> cooling.json (+ landscape.csv with optimisation).

    Raises UnstableSystem for anti-damped configurations; the CLI maps
    that to its own exit code.  Raises ConfigError if a number of the
    report is not finite.  Every result and the sidecar are computed
    before the first file is written, so an error leaves no partial output.
    """
    mode = cfg.mechanical
    field = classical_fields(cfg.params, cfg.pump, cfg.det_tol)
    spec = noise_spectra(cfg.params, field, [mode.omega_m], cfg.det_tol)
    if spec.skipped:
        raise OpticalSingularity(cfg.params.omega_p + mode.omega_m, 0.0)
    result = occupancy(mode, float(spec.s_tilde_pos[0]), float(spec.s_tilde_neg[0]))

    report = {
        "n_bar": result.n_bar,
        "n_bar_sym_form": result.n_bar_sym_form,
        "n_thermal": mode.n_t,
        "s_t_pos": result.s_t_pos,
        "s_t_neg": result.s_t_neg,
        "s_f_pos": result.s_f_pos,
        "s_f_neg": result.s_f_neg,
        "h_opt": result.h_opt,
        "h_friction": mode.h_friction,
        "rigidity": {"re": spec.k[0].real, "im": spec.k[0].imag},
        "regime_flags": {
            "thermal_asymmetry": result.flags.thermal_asymmetry,
            "force_asymmetry": result.flags.force_asymmetry,
            "weak_backaction": result.flags.weak_backaction,
            "ok": result.flags.ok,
        },
    }

    if optimize:
        e = field.as_array()
        budget = cfg.energy_budget
        if budget is None:
            budget = float(np.abs(e[0]) ** 2 + np.abs(e[1]) ** 2)
            if not budget > 0.0:
                raise ConfigError("optimize.energy_budget", "the pump carries no energy")
        opt = optimize_pump(
            cfg.params,
            mode,
            budget,
            constraint=cfg.optimize_constraint,
            det_tol=cfg.det_tol,
        )
        e_opt = opt.field.as_array()
        report["optimum"] = {
            "chi": opt.chi,
            "phi": opt.phi,
            "n_bar": opt.result.n_bar,
            "energy_budget": budget,
            "constraint": cfg.optimize_constraint,
            "e_plus": [e_opt[0].real, e_opt[0].imag],
            "e_minus": [e_opt[1].real, e_opt[1].imag],
        }

    try:  # strict JSON has no NaN or Infinity; only the regime margins may be infinite
        json.dumps({**report, "regime_flags": None}, allow_nan=False, default=_json_default)
    except ValueError as exc:
        raise ConfigError("<root>", "the cooling report is not finite") from exc
    sidecar = _sidecar(cfg, "cooling", report=report)
    out_dir.mkdir(parents=True, exist_ok=True)
    if optimize:
        phi_text = list(_fmt(opt.phi_grid))
        chi_phi = (f"{chi},{phi}" for chi in _fmt(opt.chi_grid) for phi in phi_text)
        _write_csv(
            out_dir / "landscape.csv",
            LANDSCAPE_HEADER,
            [chi_phi, *map(_fmt, (opt.n_bar_grid, opt.s_f_pos_grid, opt.s_f_neg_grid))],
        )
    _write_json(out_dir / "cooling.json", sidecar)
    return report

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
from .errors import ConfigError, SingularSweep
from .lumped_mode import (
    canonical_spectra,
    coupling_constants,
    fano_spectrum,
    from_exact,
    reduction_errors,
)
from .radiation_pressure import _CHUNK, noise_spectra
from .scattering import classical_fields, sideband_blocks

SPECTRUM_HEADER = "Omega,S_tilde_pos,S_tilde_neg,S_sym,Re_K,Im_K,H_opt"
COMPARE_HEADER = "Omega,err_F,err_K,err_S_tilde,err_S_canonical,err_S_fano"
LANDSCAPE_HEADER = "chi,phi,n_bar,s_f_pos,s_f_neg"


#: rows per text part of a CSV.  A part's cell strings and joined text take
#: ~3.4x the memory of its values as Python floats, so parts of a quarter
#: of the kernel's part size peak below one kernel part held as floats.
_ROWS = _CHUNK // 4


def _fmt(values: np.ndarray) -> list[str]:
    """Shortest decimals that round-trip to the same doubles."""
    return list(map(repr, values.tolist()))


def _csv_text(header: str, columns):
    """The text of a CSV, lazily: the header line, then `_ROWS` rows at a time.

    A column is a 1-D array of doubles, formatted by `_fmt` one part at a
    time, or a list of its cell strings.  A part is one join of its cells
    and separators, laid out row by row, so a writer takes one string per
    part, not one per row.
    """
    yield header + "\n"
    size, width = len(columns[0]), 2 * len(columns)
    for lo in range(0, size, _ROWS):
        rows, n = slice(lo, lo + _ROWS), min(_ROWS, size - lo)
        text = [","] * (width * n)  # cell, separator, cell, separator, ...
        text[width - 1::width] = ["\n"] * n  # ... the last of each row a newline
        for j, column in enumerate(columns):
            text[2 * j::width] = column[rows] if isinstance(column, list) else _fmt(column[rows])
        yield "".join(text)


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {obj!r}")


def _json_lines(payload: dict) -> tuple[str]:
    return (json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n",)


def _write(out_dir: Path, files: dict) -> None:
    """Make ``out_dir`` and write the {name: strings} files in order; a write
    that fails part-way removes every file it opened, then re-raises."""
    out_dir.mkdir(parents=True, exist_ok=True)
    opened = []
    try:
        for name, text in files.items():
            path = out_dir / name
            with path.open("w") as fh:
                opened.append(path)
                fh.writelines(text)
    except OSError:
        for path in opened:
            path.unlink(missing_ok=True)
        raise


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


def _refuse_non_finite(what: str, grid: np.ndarray, columns) -> None:
    """Raise ConfigError at the first Omega where any column is not finite."""
    finite = np.logical_and.reduce([np.isfinite(column) for column in columns])
    if not finite.all():
        omega = float(grid[~finite][0])
        raise ConfigError("<root>", f"the {what} is not finite at Omega = {omega!r} rad/s")


def _write_sweep(cfg: RunConfig, out_dir: Path, kind: str, text, spec, **extra) -> dict:
    """Refuse the sweep or write <kind>.csv and <kind>.json; returns {"rows": n}.

    Raises SingularSweep if over 10 % of the grid is optically singular (Omega = 0
    is skipped, not singular) and ConfigError if no row is left.
    """
    skipped = [{"omega": omega, "reason": reason} for omega, reason in spec.skipped]
    sidecar = _sidecar(cfg, kind, skipped=skipped, **extra)  # may overflow: ahead of the rules
    singular, total = sum(entry["omega"] != 0.0 for entry in skipped), len(cfg.grid)
    if singular > 0.10 * total:
        raise SingularSweep(f"{singular} of {total} grid points were singular")
    if len(spec.grid) == 0:
        raise ConfigError("sweep", "every grid point is Omega = 0, where the damping is undefined")
    _write(out_dir, {f"{kind}.csv": text, f"{kind}.json": _json_lines(sidecar)})
    return {"rows": len(spec.grid)}


def _spectrum_columns(spec) -> tuple:
    """The seven columns of spectrum.csv, in SPECTRUM_HEADER order."""
    return (spec.grid, spec.s_tilde_pos, spec.s_tilde_neg, spec.s_sym,
            spec.k.real, spec.k.imag, spec.h_opt)


def _spectrum_lines(cfg: RunConfig):
    """The text of spectrum.csv, lazily, with the spectrum and field it shows.

    Raises ConfigError if any row would not be finite: the configuration
    then lies beyond what double precision can carry.
    """
    field = classical_fields(cfg.params, cfg.pump)
    spec = noise_spectra(cfg.params, field, cfg.grid)
    columns = _spectrum_columns(spec)
    _refuse_non_finite("spectrum", spec.grid, columns)
    return _csv_text(SPECTRUM_HEADER, columns), spec, field


def run_spectrum(cfg: RunConfig, out_dir: Path) -> dict:
    """Force-noise sweep -> spectrum.csv + spectrum.json; returns {"rows": n}.

    Raises ConfigError if any row would not be finite or none is left, and
    SingularSweep over 10 % singular points; either way it writes nothing.
    """
    text, spec, field = _spectrum_lines(cfg)
    e = field.as_array()
    return _write_sweep(
        cfg, out_dir, "spectrum", text, spec,
        field={"e_plus": [e[0].real, e[0].imag], "e_minus": [e[1].real, e[1].imag]},
    )


def run_compare(cfg: RunConfig, out_dir: Path) -> dict:
    """Exact vs reduced-model sweep -> compare.csv + compare.json.

    Relative-error columns: force transfer matrix (entrywise, in the
    phase-stripped gauge), scalar rigidity, force noise via the reduced
    matrix, the canonical Lorentzian (using the symmetric field only) and,
    when the south port is unpumped, the Fano line shape (NaN otherwise).
    The last two are filled in `_CHUNK`-point parts, like the kernel passes.

    Raises ConfigError if the spectrum or any error that applies is not
    finite (e.g. relative errors of an unpumped, all-zero spectrum) or no row
    is left, and SingularSweep over 10 % singular points; either way it
    writes nothing.
    """
    params = cfg.params
    field = classical_fields(params, cfg.pump)
    lp = from_exact(params)
    dark_south = cfg.pump.south == 0
    k_p = params.k_p
    spec = noise_spectra(params, field, cfg.grid)
    _refuse_non_finite("spectrum", spec.grid, (spec.s_tilde_pos, spec.s_tilde_neg, spec.k))

    grid = spec.grid
    err_f, err_k, err_s = reduction_errors(params, lp, field, grid)
    err_can, err_fano = np.empty(grid.size), np.full(grid.size, np.nan)
    for lo in range(0, grid.size, _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        s_exact = spec.s_tilde_pos[rows]
        s_can = canonical_spectra(lp, k_p, field.e_plus, grid[rows]).s_tilde_pos
        err_can[rows] = np.abs(s_exact - s_can) / s_exact
        if dark_south:
            s_fano = fano_spectrum(lp, params.epsilon, params.kappa, k_p, cfg.pump.west,
                                   grid[rows])
            err_fano[rows] = np.abs(s_exact - s_fano) / s_exact
    columns = (grid, err_f, err_k, err_s, err_can, err_fano)
    _refuse_non_finite("comparison", grid, columns if dark_south else columns[:-1])
    couplings = coupling_constants(lp, k_p)
    return _write_sweep(
        cfg, out_dir, "compare", _csv_text(COMPARE_HEADER, columns), spec,
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


def run_cooling(cfg: RunConfig, out_dir: Path, optimize: bool = False) -> dict:
    """Occupancy report -> cooling.json (+ landscape.csv with optimisation).

    Raises UnstableSystem for anti-damped configurations, OpticalSingularity
    at a singular +/-omega_m sideband (the CLI maps each to its exit code)
    and ConfigError if there is no mechanical block or the spectrum at
    omega_m or a number of the report is not finite.  Every result and the
    sidecar are computed before the first file is written, and `_write`
    removes what it opened if a write fails, so an error leaves no output.
    """
    mode = cfg.mechanical
    if mode is None:
        raise ConfigError("mechanical", "cooling needs a mechanical block")
    field = classical_fields(cfg.params, cfg.pump)
    spec = noise_spectra(cfg.params, field, [mode.omega_m])
    if spec.skipped:  # raises the singular sideband's own OpticalSingularity
        sideband_blocks(cfg.params, np.array([[mode.omega_m], [-mode.omega_m]])).checked()
    _refuse_non_finite("spectrum", spec.grid, (spec.s_tilde_pos, spec.s_tilde_neg, spec.k))
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
        budget = cfg.energy_budget
        if budget is None:  # the configured pump's own, in the constraint's variables
            e = (field if cfg.optimize_constraint == "intracavity" else cfg.pump).as_array()
            budget = float(np.abs(e[0]) ** 2 + np.abs(e[1]) ** 2)
            if not budget > 0.0:
                raise ConfigError("optimize.energy_budget", "the pump carries no energy")
        opt = optimize_pump(
            cfg.params,
            mode,
            budget,
            constraint=cfg.optimize_constraint,
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
    files = {}
    if optimize:
        phi_text = _fmt(opt.phi_grid)
        chi_text = [text for text in _fmt(opt.chi_grid) for _ in phi_text]  # the mesh in C order
        grids = (opt.n_bar_grid, opt.s_f_pos_grid, opt.s_f_neg_grid)
        files["landscape.csv"] = _csv_text(
            LANDSCAPE_HEADER, [chi_text, phi_text * opt.chi_grid.size, *map(np.ravel, grids)])
    files["cooling.json"] = _json_lines(_sidecar(cfg, "cooling", report=report))
    _write(out_dir, files)
    return report

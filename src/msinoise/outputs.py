"""CSV/JSON emission for sweeps, comparisons and cooling reports.

Numbers are written in shortest round-trip decimal form and outputs carry
no timestamps, so identical configurations produce bit-identical files.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, config_digest
from .cooling import occupancy, optimize_pump
from .errors import ConfigError, OpticalSingularity, SingularSweep
from .lumped_mode import (
    approx_fields,
    coupling_constants,
    from_exact,
    reduction_errors,
)
from .radiation_pressure import _CHUNK, noise_spectra
from .scattering import IntracavityField, classical_fields

SPECTRUM_HEADER = "Omega,S_tilde_pos,S_tilde_neg,S_sym,Re_K,Im_K,H_opt"
COMPARE_HEADER = "Omega,err_F,err_K,err_S_tilde,err_S_canonical,err_S_fano"
LANDSCAPE_HEADER = "chi,phi,n_bar"


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


def _json_lines(payload: dict) -> tuple[str]:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n",)


def _write(out_dir: Path, files: dict, remove: tuple = ()) -> None:
    """Make ``out_dir``, write the {name: strings} files in order, then remove
    any file named in ``remove`` that an earlier run left there; a write or
    removal that fails part-way removes every file it opened, then re-raises.

    Each file is overwritten in place and then trimmed to what was written,
    not truncated on open.  ext4 and XFS take a truncating open of a file
    with data as a replace: they flush the file when it is closed, and the
    next truncation of it waits for that flush to reach the disk, so every
    rerun into the same directory would block once per file.  A run killed
    mid-write therefore leaves the new head over the old tail of a file,
    beside the previous run's sidecar, where a truncating open left a
    truncated file.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    opened = []
    try:
        for name, text in files.items():
            path = out_dir / name
            with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
                opened.append(path)
                fh.writelines(text)
                fh.truncate()
        for name in remove:
            (out_dir / name).unlink(missing_ok=True)
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

    The sidecar lists each skipped point with the text of its exception.  Raises
    SingularSweep if over 10 % of the grid is optically singular (Omega = 0 is
    skipped, not singular) and ConfigError if no row is left.
    """
    skipped = [{"omega": omega, "reason": str(reason)} for omega, reason in spec.skipped]
    sidecar = _sidecar(cfg, kind, skipped=skipped, **extra)  # may overflow: ahead of the rules
    singular = sum(isinstance(reason, OpticalSingularity) for _, reason in spec.skipped)
    total = len(cfg.grid)
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

    Relative-error columns, all from one `reduction_errors` pass: force
    transfer matrix (entrywise, in the phase-stripped gauge), scalar rigidity,
    force noise via the reduced matrix, then the reduced noise of the
    symmetric field alone (e_minus = 0) and of the pump's reduced carrier
    `approx_fields` (the Fano line shape).  compare.json's ``lumped`` block
    is the `from_exact` record's rates and angles and its `coupling_constants`.

    Raises ConfigError if the spectrum or any error is not finite (e.g.
    relative errors of an unpumped, all-zero spectrum) or no row is left,
    and SingularSweep over 10 % singular points; either way it writes nothing.
    """
    params = cfg.params
    field = classical_fields(params, cfg.pump)
    symmetric, carrier = IntracavityField(field.e_plus, 0.0), approx_fields(params, cfg.pump)
    spec = noise_spectra(params, field, cfg.grid)
    _refuse_non_finite("spectrum", spec.grid, (spec.s_tilde_pos, spec.s_tilde_neg, spec.k))
    columns = (spec.grid, *reduction_errors(params, field, spec.grid, symmetric, carrier))
    _refuse_non_finite("comparison", spec.grid, columns)
    lp = from_exact(params)
    rates = ("gamma_s", "delta_s", "gamma_m", "delta_m", "gamma", "delta", "p", "alpha")
    lumped = {name: getattr(lp, name) for name in rates}
    return _write_sweep(cfg, out_dir, "compare", _csv_text(COMPARE_HEADER, columns), spec,
                        lumped={**lumped, **asdict(coupling_constants(lp))})


def run_cooling(cfg: RunConfig, out_dir: Path, optimize: bool = False) -> dict:
    """Occupancy report -> cooling.json (+ landscape.csv with optimisation).

    The report, also returned, is the `CoolingResult` at omega_m with its flags (and
    ``ok``) as ``regime_flags``, n_thermal, H, the rigidity and any optimum; its
    leaves are Python bools, floats and strings.  With ``optimize``, landscape.csv
    holds n on the (chi, phi) mesh of `optimize_pump`, and cooling.json gains,
    next to the report, ``force_pencil``: P+- of the optimiser, per unit energy
    budget E, as {"pos": [p00, p11, re p01, im p01], "neg": [...]}.  The mesh's
    force spectra are s_f+-(chi, phi) = E [p00 cos^2 chi + p11 sin^2 chi
    + 2 cos chi sin chi Re(p01 e^{i phi})].  Without ``optimize``, any
    landscape.csv an earlier run left in ``out_dir`` is removed once
    cooling.json is written, so no landscape sits beside a report it is not of.

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
    if spec.skipped:  # the singular sideband's own OpticalSingularity
        raise spec.skipped[0][1]
    _refuse_non_finite("spectrum", spec.grid, (spec.s_tilde_pos, spec.s_tilde_neg, spec.k))
    result = occupancy(mode, float(spec.s_tilde_pos[0]), float(spec.s_tilde_neg[0]))

    report = {
        **asdict(result),
        "n_thermal": mode.n_t,
        "h_friction": mode.h_friction,
        "rigidity": {"re": float(spec.k[0].real), "im": float(spec.k[0].imag)},
    }
    report["regime_flags"] = {**report.pop("flags"), "ok": result.flags.ok}

    extra = {}
    if optimize:
        budget = cfg.energy_budget
        if budget is None:  # the configured pump's own, in the constraint's variables
            e = (field if cfg.optimize_constraint == "intracavity" else cfg.pump).as_array()
            budget = float(np.abs(e[0]) ** 2 + np.abs(e[1]) ** 2)
            if not budget > 0.0:
                raise ConfigError("optimize.energy_budget", "the pump carries no energy")
        opt = optimize_pump(cfg.params, mode, budget, constraint=cfg.optimize_constraint)
        report["optimum"] = {
            "chi": opt.chi,
            "phi": opt.phi,
            "n_bar": opt.result.n_bar,
            "energy_budget": budget,
            "constraint": cfg.optimize_constraint,
            "e_plus": [opt.field.e_plus.real, opt.field.e_plus.imag],
            "e_minus": [opt.field.e_minus.real, opt.field.e_minus.imag],
        }
        extra["force_pencil"] = {
            name: [p00, p11, p01.real, p01.imag]
            for name, (p00, p11, p01) in (("pos", opt.p_pos), ("neg", opt.p_neg))}

    try:  # strict JSON has no NaN or Infinity; only the regime margins may be infinite
        json.dumps({**report, "regime_flags": None, **extra}, allow_nan=False)
    except ValueError as exc:
        raise ConfigError("<root>", "the cooling report is not finite") from exc
    files = {}
    if optimize:
        phi_text = _fmt(opt.phi_grid)
        chi_text = [text for text in _fmt(opt.chi_grid) for _ in phi_text]  # the mesh in C order
        files["landscape.csv"] = _csv_text(
            LANDSCAPE_HEADER, [chi_text, phi_text * opt.chi_grid.size, opt.n_bar_grid.ravel()])
    files["cooling.json"] = _json_lines(_sidecar(cfg, "cooling", report=report, **extra))
    _write(out_dir, files, remove=() if optimize else ("landscape.csv",))
    return report

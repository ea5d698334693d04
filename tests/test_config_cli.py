import collections
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import msinoise
from msinoise.cli import main
from msinoise.config import load_config, parse_config
from msinoise.cooling import CoolingResult, RegimeFlags, occupancy
from msinoise.errors import ConfigError, OpticalSingularity
from msinoise.lumped_mode import coupling_constants, from_exact, params_for_targets
from msinoise.outputs import _ROWS, run_cooling
from msinoise.radiation_pressure import noise_spectra
from msinoise.scattering import (
    InterferometerParams, IntracavityField, classical_fields, sideband_blocks,
)

P1_CONFIG = {
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
        "south": {"power_w": 0.0},
    },
    "sweep": {"start_rad_s": 1e8, "stop_rad_s": 2e9, "points": 41},
}


#: the error line of a spectrum refused at a sideband frequency (%r rad/s)
NOT_FINITE = "config field '<root>': the spectrum is not finite at Omega = %r rad/s"


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def config_for_params(params, sweep, pump=None, **extra):
    cfg = {
        "schema": 1,
        "interferometer": {
            "wavelength_m": 2 * math.pi / params.k_p,
            "tau_s_s": params.tau_s,
            "tau_w_s": params.tau_w,
            "t_s": params.t_s,
            "r_w": params.r_w,
            "theta_m_rad": params.theta_m,
            "epsilon_rad": params.epsilon,
            "kappa": params.kappa,
        },
        "pump": pump or {"west": {"amplitude": [1e8, 0.0]},
                         "south": {"power_w": 0.0}},
        "sweep": sweep,
    }
    cfg.update(extra)
    return cfg


class TestConfigParsing:
    def test_p1_round_trip(self):
        cfg = parse_config(P1_CONFIG)
        assert cfg.params == InterferometerParams(
            theta_m=0.15 * math.pi, epsilon=0.02, kappa=0.01,
            tau_s=1e-9, tau_w=1.1e-9, t_s=0.1, r_s=math.sqrt(0.99),
            r_w=0.0, t_w=1.0, k_p=2 * math.pi / 1.064e-6,
        )
        assert cfg.pump.west == 1e8 and cfg.pump.south == 0.0
        assert len(cfg.grid) == 41

    def test_length_inputs_converted_with_exact_c(self):
        raw = json.loads(json.dumps(P1_CONFIG))
        del raw["interferometer"]["tau_s_s"]
        raw["interferometer"]["l_s_m"] = 0.299792458  # c * 1 ns
        cfg = parse_config(raw)
        assert cfg.params.tau_s == pytest.approx(1.0e-9, rel=1e-15)

    def test_power_to_amplitude(self):
        from scipy.constants import hbar

        raw = json.loads(json.dumps(P1_CONFIG))
        raw["pump"]["west"] = {"power_w": 1.0e-3, "phase_rad": 0.5}
        cfg = parse_config(raw)
        expected = math.sqrt(1.0e-3 / (hbar * cfg.params.omega_p))
        assert abs(cfg.pump.west) == pytest.approx(expected, rel=1e-12)
        assert np.angle(cfg.pump.west) == pytest.approx(0.5, rel=1e-12)

    def test_missing_field_is_named(self):
        raw = json.loads(json.dumps(P1_CONFIG))
        del raw["interferometer"]["kappa"]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "kappa" in str(err.value)

    def test_both_power_and_amplitude_rejected(self):
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["pump"]["west"] = {"power_w": 1.0, "amplitude": [1.0, 0.0]}
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "pump.west" in str(err.value)

    def test_single_point_sweep_rejected(self):
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["sweep"]["points"] = 1
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "points" in str(err.value)

    @pytest.mark.parametrize("section, key", [
        ("interferometer", "t_S"),
        (None, "sweepp"),
        ("sweep", "step"),
        ("pump", "east"),
        (None, "tolerances"),
        (None, "verify_tolerances"),
        ("optimize", "constrant"),
    ])
    def test_unknown_key_exits_2(self, tmp_path, capsys, section, key):
        raw = json.loads(json.dumps(P1_CONFIG))
        (raw if section is None else raw.setdefault(section, {}))[key] = 1
        cfg = write_config(tmp_path, raw)
        rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        field = key if section is None else f"{section}.{key}"
        assert f"'{field}'" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    def test_unknown_key_in_port_or_mechanical_block_exits_2(self, tmp_path, capsys):
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["pump"]["west"]["phase_rad"] = 0.5  # ignored next to an amplitude
        cfg = write_config(tmp_path, raw)
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "'pump.west.phase_rad'" in capsys.readouterr().err
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["mechanical"] = {"omega_m_rad_s": 2.5e7, "h_friction_kg_s": 1e-12,
                             "n_thermal": 1e4, "temprature_k": 4.0}
        cfg = write_config(tmp_path, raw)
        assert main(["cooling", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "'mechanical.temprature_k'" in capsys.readouterr().err
        assert not (tmp_path / "cooling.json").exists()

    def test_oversized_sweep_exits_2_before_the_grid_is_built(self, tmp_path, capsys):
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["sweep"]["points"] = 10**9  # 8 GB of grid if it were allocated
        cfg = write_config(tmp_path, raw)
        rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "sweep.points" in capsys.readouterr().err
        raw["sweep"]["points"] = 1_000_000
        assert len(parse_config(raw).grid) == 1_000_000

    def test_negative_power_rejected(self):
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["pump"]["south"] = {"power_w": -1.0}
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "power_w" in str(err.value)

    def test_overflowing_linear_span_exits_2_before_the_grid_is_built(self, tmp_path, capsys):
        # np.linspace stepped by stop - start = inf: a RuntimeWarning and a
        # grid of [nan, 1e308] from finite bounds
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["sweep"] = {"start_rad_s": -1e308, "stop_rad_s": 1e308, "points": 2}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="^config field 'sweep.stop_rad_s': "):
                parse_config(raw)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
        assert "'sweep.stop_rad_s'" in capsys.readouterr().err
        assert not out.exists()
        raw["sweep"] = {"start_rad_s": -8e307, "stop_rad_s": 8e307, "points": 3}
        assert parse_config(raw).grid.tolist() == [-8e307, 0.0, 8e307]


class TestSpectrumCommand:
    def test_deterministic_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, P1_CONFIG)
        for sub in ("a", "b"):
            rc = main(["spectrum", "--config", str(cfg),
                       "--out", str(tmp_path / sub)])
            assert rc == 0
        ref = (tmp_path / "a/spectrum.csv").read_bytes()
        assert (tmp_path / "b/spectrum.csv").read_bytes() == ref
        ref_json = (tmp_path / "a/spectrum.json").read_bytes()
        assert (tmp_path / "b/spectrum.json").read_bytes() == ref_json

    def test_packaged_p1_writes_the_frozen_golden(self, tmp_path):
        data = Path(msinoise.__file__).parent / "data"
        assert main(["spectrum", "--config", str(data / "p1.json"),
                     "--out", str(tmp_path)]) == 0
        golden = (data / "p1_spectrum_golden.csv").read_bytes()
        assert (tmp_path / "spectrum.csv").read_bytes() == golden

    def test_csv_round_trips_to_full_precision(self, tmp_path):
        cfg = write_config(tmp_path, P1_CONFIG)
        assert main(["spectrum", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        cfg_obj = load_config(cfg)
        from msinoise.radiation_pressure import noise_spectra
        from msinoise.scattering import classical_fields

        field = classical_fields(cfg_obj.params, cfg_obj.pump)
        with open(tmp_path / "spectrum.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 41
        omegas = [float(r["Omega"]) for r in rows]
        assert omegas == sorted(omegas)
        for row in (rows[0], rows[17], rows[-1]):
            omega = float(row["Omega"])
            spec = noise_spectra(cfg_obj.params, field, [omega])
            assert float(row["S_tilde_pos"]) == spec.s_tilde_pos[0]
            assert float(row["Re_K"]) == spec.k[0].real
            assert float(row["H_opt"]) == spec.h_opt[0]

    def test_long_column_formats_as_one(self):
        """A column longer than a kernel part reads like repr of each value."""
        from msinoise import outputs

        values = np.random.default_rng(0).standard_normal(2 * outputs._CHUNK + 3)
        assert list(outputs._fmt(values)) == [repr(v) for v in values.tolist()]
        assert list(outputs._fmt(values[:0])) == []

    def test_zero_pump_zero_columns(self, tmp_path):
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["pump"] = {"west": {"power_w": 0.0}, "south": {"power_w": 0.0}}
        cfg = write_config(tmp_path, raw)
        assert main(["spectrum", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "spectrum.csv") as fh:
            for row in csv.DictReader(fh):
                for col in ("S_tilde_pos", "S_tilde_neg", "S_sym",
                            "Re_K", "Im_K", "H_opt"):
                    assert float(row[col]) == 0.0

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        raw = json.loads(json.dumps(P1_CONFIG))
        del raw["interferometer"]["wavelength_m"]
        cfg = write_config(tmp_path, raw)
        rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "wavelength_m" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("interferometer", "kappa", math.nan),
        ("interferometer", "tau_s_s", math.inf),
        ("sweep", "start_rad_s", math.nan),
        ("pump", "west", {"amplitude": [math.nan, 0.0]}),
        ("pump", "west", {"power_w": math.inf}),
        # finite, but k_p^2 overflows or the photon energy hbar omega_p underflows
        ("interferometer", "wavelength_m", 1e-300),
        ("interferometer", "wavelength_m", 1e300),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, section, key, value):
        raw = json.loads(json.dumps(P1_CONFIG))
        raw.setdefault(section, {})[key] = value
        cfg = write_config(tmp_path, raw)  # json writes NaN / Infinity literals
        rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert f"{section}." in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    def test_identical_under_every_openblas_kernel(self, tmp_path):
        """No output bit, and no BLAS-free verify measurement, may depend on
        the BLAS kernel the CPU selects."""
        data = Path(msinoise.__file__).parent / "data" / "p1.json"
        src = str(Path(msinoise.__file__).parent.parent)
        cooling = json.loads(TestCoolingCommand.cooling_config(
            tmp_path, delta_s=-2.5e7, h_friction=1e-14).read_text())
        configs = {"spectrum": ["spectrum", data], "compare": ["compare", data]}
        for constraint in ("intracavity", "injected"):
            cooling["optimize"] = {"constraint": constraint}
            path = write_config(tmp_path, cooling, f"{constraint}.json")
            configs[constraint] = ["cooling", path, "--optimize"]
        files = ("spectrum/spectrum.csv", "compare/compare.csv",
                 "intracavity/landscape.csv", "intracavity/cooling.json",
                 "injected/landscape.csv", "injected/cooling.json")
        # oracle_equivalence is left out: its oracle is a LAPACK solve
        code = ("import json, sys\nfrom msinoise import verify\n"
                "from msinoise.cli import main\n"
                "if max(main(args) for args in json.loads(sys.argv[1])):\n"
                "    sys.exit(1)\n"
                "checks = (verify.check_unitarity, verify.check_convergence,\n"
                "          verify.check_cooling_optimum)\n"
                "print([repr(float(c(verify.DEFAULT_SEED).measured)) for c in checks])")
        outputs = []
        for coretype in (None, "Haswell", "Prescott"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            out = tmp_path / (coretype or "default")
            runs = [[command, "--config", str(path), "--out", str(out / name), *flags]
                    for name, (command, path, *flags) in configs.items()]
            done = subprocess.run(
                [sys.executable, "-c", code, json.dumps(runs)],
                env=env, check=True, capture_output=True, text=True, timeout=120,
            )
            measured = done.stdout.strip().splitlines()[-1]
            outputs.append(([(out / name).read_bytes() for name in files], measured))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @staticmethod
    def half_singular_config(tmp_path):
        # unit SRM reflectivity; omega_p + Omega = 0 exactly at one of the
        # two grid points, so half the sweep is singular
        from msinoise.scattering import SPEED_OF_LIGHT

        omega_p = SPEED_OF_LIGHT * 2 * math.pi  # wavelength of exactly 1 m
        raw = {
            "schema": 1,
            "interferometer": {
                "wavelength_m": 1.0, "tau_s_s": 1.0, "tau_w_s": 1.0,
                "t_s": 0.0, "r_w": 0.0, "theta_m_rad": 0.0,
                "epsilon_rad": 0.0, "kappa": 0.0,
            },
            "pump": {"west": {"amplitude": [1e4, 0.0]},
                     "south": {"power_w": 0.0}},
            "sweep": {"start_rad_s": -omega_p, "stop_rad_s": -omega_p + 1.0,
                      "points": 2},
        }
        return write_config(tmp_path, raw)

    def test_mostly_singular_grid_exits_3(self, tmp_path, capsys):
        cfg = self.half_singular_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["spectrum", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == "error: 1 of 2 grid points were singular\n"
        assert not out.exists()

    def test_half_singular_compare_exits_2_on_the_comparison(self, tmp_path, capsys):
        # the comparison at the remaining point is refused ahead of the 10 % rule
        cfg = self.half_singular_config(tmp_path)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
        assert "the comparison is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "compare"])
    def test_zero_sideband_is_skipped_not_singular(self, tmp_path, command):
        # one of three points is Omega = 0: skipped for its undefined damping,
        # but no optical singularity, so it does not count toward the 10 % rule
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["sweep"] = {"start_rad_s": -1e6, "stop_rad_s": 1e6, "points": 3}
        cfg = write_config(tmp_path, raw)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        with open(tmp_path / f"{command}.csv") as fh:
            assert [float(row["Omega"]) for row in csv.DictReader(fh)] == [-1e6, 1e6]
        sidecar = json.loads((tmp_path / f"{command}.json").read_text())
        assert [entry["omega"] for entry in sidecar["skipped"]] == [0.0]

    @pytest.mark.parametrize("command", ["spectrum", "compare"])
    def test_sweep_of_zero_alone_exits_2(self, tmp_path, capsys, command):
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["sweep"] = {"start_rad_s": 0.0, "stop_rad_s": 0.0, "points": 2}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Omega = 0" in err and "singular" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "compare"])
    def test_overflowing_sidecar_of_a_zero_sweep_exits_2(self, tmp_path, capsys, command):
        # the sidecar's overflow is reported, as it was before the sweep rules
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["interferometer"]["kappa"] = 1e158
        raw["sweep"] = {"start_rad_s": 0.0, "stop_rad_s": 0.0, "points": 2}
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
        assert "double-precision range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "compare"])
    def test_overflowing_asymmetry_is_named(self, tmp_path, capsys, command):
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["interferometer"]["kappa"] = 1e300  # p^2 overflows
        out = tmp_path / "out"
        with warnings.catch_warnings():
            # outside pytest a warning is printed to stderr ahead of the error
            warnings.simplefilter("error")
            rc = main([command, "--config", str(write_config(tmp_path, raw)),
                       "--out", str(out)])
        assert rc == 2
        [line] = capsys.readouterr().err.splitlines()
        assert "kappa = 1e+300" in line and "p^2 exceeds the double range" in line, line
        assert not out.exists()


class TestCsvText:
    """`outputs._csv_text` against the row-by-row text it replaced."""

    @pytest.mark.parametrize("rows", [1, _ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 5])
    def test_parts_equal_one_line_per_row(self, rows):
        from msinoise import outputs

        values = np.random.default_rng(rows).standard_normal((5, rows))
        special = [math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-05, 5e-324]
        values.ravel()[:len(special)] = special[:values.size]
        pair = np.empty(rows, dtype=complex)
        pair.real, pair.imag = values[3], values[4]
        # text and float columns mixed; the last two are strided views
        columns = [outputs._fmt(values[0]), values[1], outputs._fmt(values[2]),
                   pair.real, pair.imag]
        expected = "a,b,c,d,e\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in zip(*values.tolist()))
        assert "".join(outputs._csv_text("a,b,c,d,e", columns)) == expected

    def test_streamed_text_holds_less_than_one_kernel_part_of_floats(self):
        from msinoise import outputs

        raw = json.loads(json.dumps(P1_CONFIG))
        raw["sweep"]["points"] = 3 * outputs._CHUNK + 5
        _, spec, _ = outputs._spectrum_lines(parse_config(raw))
        columns = outputs._spectrum_columns(spec)
        text = outputs._csv_text(outputs.SPECTRUM_HEADER, columns)
        tracemalloc.start()
        try:
            collections.deque(text, maxlen=0)  # each part dropped as the next is built
            streamed = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            held = [column[:outputs._CHUNK].tolist() for column in columns]
            floats = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        # 2^8-row text parts peak at ~0.86x one 2^10-point part of the seven
        # columns as Python floats; the per-row lines they replaced at ~1.01x
        assert streamed <= floats, streamed / floats


class TestCompareCommand:
    def test_symmetric_config_tracks_canonical(self, tmp_path):
        params = params_for_targets(gamma_s=2.5e6, delta_s=-2.0e6,
                                    theta_m=0.15 * math.pi, p=0.0, alpha=0.0)
        lp = from_exact(params)
        sweep = {"start_rad_s": -5 * lp.gamma, "stop_rad_s": 5 * lp.gamma,
                 "points": 40}
        cfg = write_config(tmp_path, config_for_params(params, sweep))
        assert main(["compare", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "compare.csv") as fh:
            errs = [float(row["err_S_canonical"]) for row in csv.DictReader(fh)]
        assert max(errs) <= 2.0 * lp.gamma * lp.tau_s
        sidecar = json.loads((tmp_path / "compare.json").read_text())
        lumped = sidecar["lumped"]
        assert sorted(lumped) == ["alpha", "delta", "delta_m", "delta_s", "g_disp",
                                  "g_diss_combo", "gamma", "gamma_m", "gamma_s", "p"]
        assert lumped["gamma_s"] == pytest.approx(2.5e6, rel=1e-6)
        # the symmetric interferometer is purely dissipative
        assert (lumped["p"], lumped["g_disp"]) == (0.0, 0.0)
        assert lumped["g_diss_combo"] == coupling_constants(lp).g_diss_combo > 0.0
        assert sidecar["validity_warnings"] == []

    @pytest.mark.parametrize("command, change", [
        ("compare", {}),  # P1 detuning is out of regime
        ("spectrum", {"tau_s_s": 1e293}),  # 2 omega_p tau_s overflows: delta_s is NaN
        # gamma / tau_s overflows, but the reduced forms divide each entry by tau_s ell
        ("compare", {"tau_s_s": 1e-300}),
    ])
    def test_out_of_regime_config_warns_but_succeeds(self, tmp_path, command, change):
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["interferometer"].update(change)
        cfg = write_config(tmp_path, raw)
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        sidecar = json.loads((tmp_path / f"{command}.json").read_text())
        assert any("delta_s" in w for w in sidecar["validity_warnings"])

    def test_unpumped_config_exits_2_and_writes_nothing(self, tmp_path, capsys):
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["pump"]["west"] = {"power_w": 0.0}  # every relative error is 0/0
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            # outside pytest a warning is printed to stderr ahead of the error
            warnings.simplefilter("error")
            rc = main(["compare", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: config field '<root>': the comparison is not finite "
            "at Omega = 100000000.0 rad/s"
        ]
        assert not out.exists()

    def test_model_columns_in_parts_equal_one_whole_grid_call(self, tmp_path):
        from msinoise import outputs
        from msinoise.lumped_mode import approx_fields, approx_spectra, fano_spectrum
        from msinoise.radiation_pressure import noise_spectra
        from msinoise.scattering import classical_fields

        raw = json.loads(json.dumps(P1_CONFIG))
        raw["sweep"]["points"] = 3 * outputs._CHUNK + 5
        path = write_config(tmp_path, raw)
        assert main(["compare", "--config", str(path), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "compare.csv") as fh:
            rows = list(csv.DictReader(fh))
        cfg = load_config(path)
        params, lp = cfg.params, from_exact(cfg.params)
        field = classical_fields(params, cfg.pump)
        spec = noise_spectra(params, field, cfg.grid)
        s = spec.s_tilde_pos
        s_can = approx_spectra(lp, IntracavityField(field.e_plus, 0.0), spec.grid).s_tilde_pos
        s_fano = fano_spectrum(lp, approx_fields(params, cfg.pump), spec.grid)
        for column, model in (("err_S_canonical", s_can), ("err_S_fano", s_fano)):
            written = np.array([float(row[column]) for row in rows])
            assert written.tobytes() == (np.abs(s - model) / s).tobytes(), column

    def test_pumped_south_port_fills_the_fano_column(self, tmp_path):
        # the reduced carrier takes a pump through both ports, so the column
        # holds the error of the line shape of the configured pump's carrier
        from msinoise.lumped_mode import approx_fields, fano_spectrum

        raw = json.loads(json.dumps(P1_CONFIG))
        raw["pump"]["south"] = {"amplitude": [1e6, 0.0]}
        path = write_config(tmp_path, raw)
        assert main(["compare", "--config", str(path), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "compare.csv") as fh:
            rows = list(csv.DictReader(fh))
        cfg = load_config(path)
        spec = noise_spectra(cfg.params, classical_fields(cfg.params, cfg.pump), cfg.grid)
        s = spec.s_tilde_pos
        s_fano = fano_spectrum(from_exact(cfg.params), approx_fields(cfg.params, cfg.pump),
                               spec.grid)
        written = np.array([float(row["err_S_fano"]) for row in rows])
        assert np.isfinite(written).all()
        assert written.tobytes() == (np.abs(s - s_fano) / s).tobytes()
        assert all(math.isfinite(float(row["err_K"])) for row in rows)
        sidecar = json.loads((tmp_path / "compare.json").read_text())
        assert "fano_applicable" not in sidecar


class TestCoolingCommand:
    @staticmethod
    def cooling_config(tmp_path, delta_s, h_friction, points=2):
        params = params_for_targets(gamma_s=2.5e6, delta_s=delta_s,
                                    theta_m=0.15 * math.pi, p=1e-4,
                                    alpha=-0.5)
        sweep = {"start_rad_s": 1e6, "stop_rad_s": 2e6, "points": points}
        raw = config_for_params(
            params, sweep,
            mechanical={"omega_m_rad_s": 2.5e7, "h_friction_kg_s": h_friction,
                        "n_thermal": 1e4},
        )
        return write_config(tmp_path, raw)

    def test_zero_pump_recovers_thermal_occupation(self, tmp_path):
        cfg_path = self.cooling_config(tmp_path, delta_s=-2.5e7,
                                       h_friction=1e-12)
        raw = json.loads(cfg_path.read_text())
        raw["pump"] = {"west": {"power_w": 0.0}, "south": {"power_w": 0.0}}
        cfg_path.write_text(json.dumps(raw))
        assert main(["cooling", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        # the difference form of the occupancy carries an eps*n_t rounding
        report = json.loads((tmp_path / "cooling.json").read_text())["report"]
        assert report["n_bar"] == pytest.approx(1e4, rel=1e-11)

    def test_report_is_the_cooling_result(self, tmp_path):
        # the CoolingResult's fields, its flags as regime_flags, and the bath and rigidity
        cfg_path = self.cooling_config(tmp_path, delta_s=-2.5e7, h_friction=1e-14)
        assert main(["cooling", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "cooling.json").read_text())["report"]
        names = [f.name for f in fields(CoolingResult) if f.name != "flags"]
        assert set(report) == {*names, "n_thermal", "h_friction", "rigidity", "regime_flags"}
        flags = [f.name for f in fields(RegimeFlags)]
        assert set(report["regime_flags"]) == {*flags, "ok"}
        cfg = load_config(cfg_path)
        spec = noise_spectra(cfg.params, classical_fields(cfg.params, cfg.pump),
                             [cfg.mechanical.omega_m])
        result = occupancy(cfg.mechanical, float(spec.s_tilde_pos[0]),
                           float(spec.s_tilde_neg[0]))
        assert [report[name] for name in names] == [getattr(result, name) for name in names]
        assert [report["regime_flags"][name] for name in flags] == [
            getattr(result.flags, name) for name in flags]
        assert report["regime_flags"]["ok"] is result.flags.ok
        assert report["n_thermal"] == cfg.mechanical.n_t
        assert report["h_friction"] == cfg.mechanical.h_friction
        assert report["rigidity"] == {"re": spec.k[0].real, "im": spec.k[0].imag}

    def test_cooling_reduces_occupancy(self, tmp_path):
        cfg_path = self.cooling_config(tmp_path, delta_s=-2.5e7,
                                       h_friction=1e-14)
        assert main(["cooling", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "cooling.json").read_text())["report"]
        assert report["n_bar"] < 1e4
        assert report["h_opt"] > 0.0

    def test_antidamped_exits_4(self, tmp_path, capsys):
        cfg_path = self.cooling_config(tmp_path, delta_s=+2.5e7,
                                       h_friction=1e-20)
        rc = main(["cooling", "--config", str(cfg_path),
                   "--out", str(tmp_path)])
        assert rc == 4
        assert "anti-damping" in capsys.readouterr().err

    def test_optimize_writes_landscape(self, tmp_path):
        cfg_path = self.cooling_config(tmp_path, delta_s=-2.5e7,
                                       h_friction=1e-14)
        assert main(["cooling", "--config", str(cfg_path),
                     "--out", str(tmp_path), "--optimize"]) == 0
        report = json.loads((tmp_path / "cooling.json").read_text())["report"]
        opt = report["optimum"]
        assert opt["n_bar"] <= report["n_bar"] * (1 + 1e-12)
        e_plus = complex(*opt["e_plus"])
        e_minus = complex(*opt["e_minus"])
        assert abs(e_minus) <= 1e-3 * abs(e_plus)
        with open(tmp_path / "landscape.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64 * 64
        # power-recycled and injected with no budget: the budget is the pump's own flux
        raw = json.loads(cfg_path.read_text())
        raw["interferometer"]["r_w"] = 0.9
        raw["pump"]["south"] = {"power_w": 1e-4}
        raw["optimize"] = {"constraint": "injected"}
        cfg = parse_config(raw)
        report = run_cooling(cfg, tmp_path / "injected", optimize=True)
        assert report["optimum"]["n_bar"] <= report["n_bar"] * (1 + 1e-12)
        a = cfg.pump.as_array()
        assert report["optimum"]["energy_budget"] == float(np.abs(a[0]) ** 2 + np.abs(a[1]) ** 2)

    def optimized_runs(self, tmp_path):
        """(cfg, output directory, report, `optimize_pump` result) per constraint."""
        from msinoise.cooling import optimize_pump

        path = self.cooling_config(tmp_path, delta_s=-2.5e7, h_friction=1e-14)
        for constraint in ("intracavity", "injected"):
            raw = json.loads(path.read_text())
            raw["optimize"] = {"constraint": constraint}
            cfg = parse_config(raw)
            report = run_cooling(cfg, tmp_path / constraint, optimize=True)
            opt = optimize_pump(cfg.params, cfg.mechanical,
                                report["optimum"]["energy_budget"], constraint=constraint)
            yield cfg, tmp_path / constraint, report, opt

    def test_landscape_is_chi_major_and_exact(self, tmp_path):
        from msinoise.outputs import LANDSCAPE_HEADER

        assert LANDSCAPE_HEADER == "chi,phi,n_bar"
        for cfg, out, _, opt in self.optimized_runs(tmp_path):
            # the f-string per row that the part writer replaced
            expected = LANDSCAPE_HEADER + "\n" + "".join(
                f"{chi!r},{phi!r},{n!r}\n"
                for chi, n_row in zip(opt.chi_grid.tolist(), opt.n_bar_grid.tolist())
                for phi, n in zip(opt.phi_grid.tolist(), n_row)
            )
            assert (out / "landscape.csv").read_text() == expected, cfg.optimize_constraint

    def test_force_pencil_gives_the_mesh_spectra(self, tmp_path):
        """cooling.json's force_pencil is P+- of the optimiser per unit budget E:
        E [p00 cos^2 chi + p11 sin^2 chi + 2 cos chi sin chi Re(p01 e^{i phi})] is
        the mesh's s_f+-.  The error is scaled by E (p00 + p11), not by s_f, because
        the form cancels near the Fano zero."""
        for cfg, out, report, opt in self.optimized_runs(tmp_path):
            pencil = json.loads((out / "cooling.json").read_text())["force_pencil"]
            budget = report["optimum"]["energy_budget"]
            c, s = np.cos(opt.chi_grid)[:, np.newaxis], np.sin(opt.chi_grid)[:, np.newaxis]
            for name, kept, mesh in (("pos", opt.p_pos, opt.s_f_pos_grid),
                                     ("neg", opt.p_neg, opt.s_f_neg_grid)):
                p00, p11, re01, im01 = pencil[name]
                assert pencil[name] == [kept[0], kept[1], kept[2].real, kept[2].imag]
                form = budget * (p00 * c**2 + p11 * s**2 + 2.0 * c * s * (
                    re01 * np.cos(opt.phi_grid) - im01 * np.sin(opt.phi_grid)))
                error = np.abs(form - mesh).max() / (budget * (p00 + p11))
                assert error <= 1e-12, (cfg.optimize_constraint, name, error)

    def test_report_is_python_scalars_and_the_sidecar_report(self, tmp_path):
        def leaves(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                return [leaf for child in node for leaf in leaves(child)]
            return [node]

        for _, out, report, _ in self.optimized_runs(tmp_path):
            assert {type(leaf) for leaf in leaves(report)} <= {bool, int, float, str}
            assert report == json.loads((out / "cooling.json").read_text())["report"]

    def test_overflowing_sidecar_exits_2_and_writes_nothing(self, tmp_path, capsys):
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["interferometer"]["kappa"] = 1e158  # from_exact overflows in the sidecar
        raw["mechanical"] = {"omega_m_rad_s": 2.5e7, "h_friction_kg_s": 1e-14,
                             "n_thermal": 1e4}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["cooling", "--config", str(cfg), "--out", str(out), "--optimize"])
        assert rc == 2
        assert "double-precision range" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("section, value, flags, expected", [
        ("mechanical", {"omega_m_rad_s": 2.5e7, "h_friction_kg_s": 1e-14,
                        "temperature_k": 0.0}, [], "'mechanical': temperature"),
        ("mechanical", {"omega_m_rad_s": 2.5e7, "h_friction_kg_s": 1e-14,
                        "temperature_k": -5.0}, [], "'mechanical': temperature"),
        ("optimize", {"energy_budget": 0.0}, ["--optimize"], "'optimize.energy_budget'"),
        ("optimize", {"energy_budget": -1.0}, ["--optimize"], "'optimize.energy_budget'"),
        # unpumped and no budget given: the derived budget is zero
        ("pump", {"west": {"power_w": 0.0}}, ["--optimize"], "'optimize.energy_budget'"),
        # an overflowing force noise would make n_bar NaN
        ("pump", {"west": {"amplitude": [1e168, 0.0]}}, [], "not finite"),
        ("schema", True, [], "'schema': unsupported schema True"),
        ("sweep", [], [], "'sweep': must be an object"),
        ("pump", {"west": 5}, [], "'pump.west': must be an object"),
        ("sweep", {"start_rad_s": 0.0, "stop_rad_s": 1e6, "points": 2, "spacing": "log"}, [],
         "'sweep.spacing': log spacing needs positive bounds"),
        ("interferometer", {**P1_CONFIG["interferometer"], "r_s": -0.6, "t_s": 0.8}, [],
         "'interferometer': r_s, t_s must be non-negative"),
        ("mechanical", {"omega_m_rad_s": 2.5e7, "h_friction_kg_s": 1e-14,
                        "n_thermal": -1.0}, [], "'mechanical': n_thermal"),
        # the phonon energy hbar omega_m underflows to 0
        ("mechanical", {"omega_m_rad_s": 1e-300, "h_friction_kg_s": 1e-14,
                        "n_thermal": 1e4}, [], "'mechanical.omega_m_rad_s'"),
        # the phonon ratio hbar omega_m / k_B T underflows to 0
        ("mechanical", {"omega_m_rad_s": 1e-20, "h_friction_kg_s": 1e-14,
                        "temperature_k": 1e300}, [], "'mechanical.temperature_k'"),
        # a finite spectrum, but the thermal spectra overflow
        ("mechanical", {"omega_m_rad_s": 2.5e7, "h_friction_kg_s": 1e300,
                        "temperature_k": 1e300}, [], "the cooling report is not finite"),
    ])
    def test_bad_bath_or_budget_exits_2_and_writes_nothing(
        self, tmp_path, capsys, section, value, flags, expected
    ):
        cfg_path = self.cooling_config(tmp_path, delta_s=-2.5e7, h_friction=1e-14)
        raw = json.loads(cfg_path.read_text())
        raw[section] = value
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["cooling", "--config", str(cfg_path), "--out", str(out), *flags]) == 2
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, section, change, error", [
        # |E|^2 overflows
        ("spectrum", [], "pump", {"west": {"amplitude": [1e168, 0.0]}}, NOT_FINITE % 1e8),
        ("cooling", [], "pump", {"west": {"amplitude": [1e168, 0.0]}}, NOT_FINITE % 2.5e7),
        ("cooling", ["--optimize"], "pump", {"west": {"amplitude": [1e168, 0.0]}},
         NOT_FINITE % 2.5e7),
        ("compare", [], "pump", {"west": {"amplitude": [1e168, 0.0]}}, NOT_FINITE % 1e8),
        # omega_p tau_s overflows in the optical blocks
        ("spectrum", [], "interferometer", {"tau_s_s": 1e294}, NOT_FINITE % 1e8),
    ], ids=["spectrum", "cooling", "cooling-optimize", "compare", "spectrum-tau_s-1e294"])
    def test_overflowing_force_noise_prints_only_the_error(
        self, tmp_path, capsys, command, flags, section, change, error
    ):
        raw = json.loads(json.dumps(P1_CONFIG))
        raw[section].update(change)
        raw["mechanical"] = {"omega_m_rad_s": 2.5e7, "h_friction_kg_s": 1e-14,
                             "n_thermal": 1e4}
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            # outside pytest a warning is printed to stderr ahead of the error
            warnings.simplefilter("error")
            rc = main([command, "--config", str(cfg), "--out", str(out), *flags])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
        assert not out.exists()

    def test_singular_lower_sideband_exits_3_and_names_it(self, tmp_path, capsys):
        # closed south mirror and no asymmetry: D_e is singular at omega = 0,
        # the lower sideband when omega_m = omega_p
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["interferometer"].update(t_s=0.0, theta_m_rad=0.0, epsilon_rad=0.0, kappa=0.0)
        omega_p = parse_config(raw).params.omega_p
        raw["mechanical"] = {"omega_m_rad_s": omega_p, "h_friction_kg_s": 1e-14,
                             "n_thermal": 1e4}
        out = tmp_path / "out"
        rc = main(["cooling", "--config", str(write_config(tmp_path, raw)),
                   "--out", str(out)])
        assert rc == 3
        assert "singular at omega = 0.0 rad/s" in capsys.readouterr().err
        assert not out.exists()

    def test_singular_sideband_is_raised_from_the_one_kernel_call(
            self, tmp_path, capsys, kernel_grids):
        # the exception noise_spectra recorded is the one the CLI reports:
        # its text is that of checking the +/-omega_m blocks, and they are
        # evaluated once
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["interferometer"].update(t_s=0.0, theta_m_rad=0.0, epsilon_rad=0.0, kappa=0.0)
        params = parse_config(raw).params
        omega_m = params.omega_p
        raw["mechanical"] = {"omega_m_rad_s": omega_m, "h_friction_kg_s": 1e-14,
                             "n_thermal": 1e4}
        pair = [[omega_m], [-omega_m]]
        with pytest.raises(OpticalSingularity) as expected:
            sideband_blocks(params, pair).checked()
        del kernel_grids[:]
        out = tmp_path / "out"
        rc = main(["cooling", "--config", str(write_config(tmp_path, raw)),
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert sum(np.array_equal(grid, pair) for grid in kernel_grids) == 1
        assert not out.exists()

    def test_missing_mechanical_block_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, P1_CONFIG)
        rc = main(["cooling", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "mechanical" in capsys.readouterr().err

    def test_run_cooling_without_mechanical_block_raises_and_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="'mechanical'"):
            run_cooling(parse_config(P1_CONFIG), out, optimize=True)
        assert not out.exists()

    def test_plain_rerun_removes_the_landscape_of_an_optimised_run(self, tmp_path):
        cfg_path = self.cooling_config(tmp_path, delta_s=-2.5e7, h_friction=1e-14)
        out = tmp_path / "out"
        assert main(["cooling", "--config", str(cfg_path), "--out", str(out), "--optimize"]) == 0
        assert (out / "landscape.csv").exists()
        raw = json.loads(cfg_path.read_text())
        raw["mechanical"]["n_thermal"] = 5e3
        cfg_path.write_text(json.dumps(raw))
        assert main(["cooling", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert [path.name for path in out.iterdir()] == ["cooling.json"]
        report = json.loads((out / "cooling.json").read_text())["report"]
        assert report["n_thermal"] == 5e3 and "optimum" not in report

    def test_landscape_that_cannot_be_removed_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "landscape.csv").mkdir(parents=True)
        cfg_path = self.cooling_config(tmp_path, delta_s=-2.5e7, h_friction=1e-14)
        assert main(["cooling", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "landscape.csv" in capsys.readouterr().err
        assert [path.name for path in out.iterdir()] == ["landscape.csv"]


def test_import_leaves_scipy_linalg_unloaded():
    """Importing scipy.linalg costs ~7 MB of resident memory; no path needs it."""
    src = str(Path(msinoise.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, msinoise, msinoise.cli\n"
            "sys.exit('scipy.linalg' in sys.modules)")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_import_loads_no_scipy():
    """The physical constants are exact SI values: importing scipy for them
    roughly doubles the interpreter's start-up time and memory."""
    src = str(Path(msinoise.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, msinoise, msinoise.cli, msinoise.outputs, msinoise.verify\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_import_loads_no_submodule():
    """The package re-exports nothing: each public name is imported from the
    module that defines it, so ``import msinoise`` loads none of them."""
    src = str(Path(msinoise.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, msinoise\n"
            "print(sorted(m for m in sys.modules if m.startswith('msinoise.')),"
            " msinoise.__version__)")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[] 0.1.0"


def test_every_public_name_resolves():
    """Each name of the package's and of every module's ``__all__`` exists."""
    import importlib
    import pkgutil

    modules = [msinoise, *(importlib.import_module(f"msinoise.{info.name}")
                           for info in pkgutil.iter_modules(msinoise.__path__))]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], module.__name__


class TestVerifyCommand:
    def test_default_suite_passes_and_repeats(self, tmp_path, capsys):
        import time

        start = time.monotonic()
        assert main(["verify"]) == 0
        elapsed = time.monotonic() - start
        first = capsys.readouterr().out
        assert elapsed < 30.0
        assert first.count("PASS") == 10 and "FAIL" not in first
        assert main(["verify"]) == 0
        assert capsys.readouterr().out == first  # same seed, same table

    def test_failing_check_exits_1_and_names_invariant(self, monkeypatch, capsys):
        from msinoise import verify

        def failing(seed, **kwargs):
            return verify.InvariantResult("unitarity", False, 1.0, 1e-10, "forced")

        monkeypatch.setitem(verify.CHECK_NAMES, "unitarity", failing)
        assert main(["verify"]) == 1
        out = capsys.readouterr()
        assert "FAIL" in out.out and "unitarity" in out.err

    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_seed_that_is_not_a_non_negative_integer_exits_2(self, capsys, seed):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--seed", seed])
        assert exit_.value.code == 2
        assert "--seed: need a non-negative integer" in capsys.readouterr().err

    def test_verify_takes_no_config(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--config", "x.json"])
        assert exit_.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_json_lists_every_check(self, capsys):
        from msinoise.verify import CHECK_NAMES

        assert main(["verify", "--json"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in results] == list(CHECK_NAMES)
        for r in results:
            assert {"name", "passed", "measured", "tolerance", "runtime_s"} <= r.keys()
            assert r["passed"] is True and r["measured"] <= r["tolerance"]
            assert r["runtime_s"] > 0.0


@pytest.mark.parametrize("command", ["spectrum"])
@pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100_000, None],
                         ids=["not-utf8", "nested-too-deep", "missing"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_bytes(content)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "'<file>'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["spectrum", "cooling"])
def test_out_that_is_a_file_exits_2_with_one_line(tmp_path, capsys, command):
    raw = json.loads(json.dumps(P1_CONFIG))
    raw["mechanical"] = {"omega_m_rad_s": 2.5e7, "h_friction_kg_s": 1e-14, "n_thermal": 1e4}
    out = tmp_path / "taken"
    out.write_text("kept\n")
    rc = main([command, "--config", str(write_config(tmp_path, raw)), "--out", str(out)])
    assert rc == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and str(out) in line
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("command, written, blocked", [
    ("spectrum", "spectrum.csv", "spectrum.json"),
    ("compare", "compare.csv", "compare.json"),
    ("cooling", "landscape.csv", "cooling.json"),
])
def test_write_that_fails_part_way_leaves_no_file(tmp_path, capsys, command, written, blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)  # the second file cannot be opened
    if command == "cooling":
        cfg = TestCoolingCommand.cooling_config(tmp_path, delta_s=-2.5e7, h_friction=1e-14)
        args = ["cooling", "--config", str(cfg), "--out", str(out), "--optimize"]
    else:
        args = [command, "--config", str(write_config(tmp_path, P1_CONFIG)), "--out", str(out)]
    assert main(args) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and blocked in line
    assert not (out / written).exists()
    assert [path.name for path in out.iterdir()] == [blocked]


def command_args(tmp_path, command):
    """The arguments of ``command`` on P1 (with a mechanical block for cooling)."""
    if command == "cooling":
        cfg = TestCoolingCommand.cooling_config(tmp_path, delta_s=-2.5e7, h_friction=1e-14)
        return ["cooling", "--config", str(cfg), "--optimize"]
    return [command, "--config", str(write_config(tmp_path, P1_CONFIG))]


def written(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("prefill", ["longer junk", "the same run"])
@pytest.mark.parametrize("command", ["spectrum", "compare", "cooling"])
def test_rewrite_writes_the_bytes_of_a_fresh_run(tmp_path, command, prefill):
    args = command_args(tmp_path, command)
    assert main([*args, "--out", str(tmp_path / "fresh")]) == 0
    fresh = written(tmp_path / "fresh")
    out = tmp_path / "out"
    if prefill == "the same run":
        assert main([*args, "--out", str(out)]) == 0
    else:
        out.mkdir()
        for name, data in fresh.items():
            (out / name).write_bytes(b"junk,\n" * len(data))  # six times the run's length
    assert main([*args, "--out", str(out)]) == 0
    assert written(out) == fresh


@pytest.mark.parametrize("command", ["spectrum", "compare", "cooling"])
def test_rewrites_open_no_file_with_o_trunc(tmp_path, monkeypatch, command):
    # a truncating open of a file with data makes ext4 and XFS flush it on close,
    # and the next truncation of it waits for that flush
    args = command_args(tmp_path, command)
    flags, os_open = [], os.open

    def recording_open(path, flag, *rest, **kwargs):
        flags.append(flag)
        return os_open(path, flag, *rest, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    for _ in range(2):
        assert main([*args, "--out", str(tmp_path / "out")]) == 0
    assert flags
    assert not [flag for flag in flags if flag & os.O_TRUNC]

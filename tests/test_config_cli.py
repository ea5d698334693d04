import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import msinoise
from msinoise.cli import main
from msinoise.config import load_config, load_tolerances, parse_config
from msinoise.errors import ConfigError
from msinoise.lumped_mode import from_exact, params_for_targets
from msinoise.scattering import InterferometerParams

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
        ("tolerances", "det_toll"),
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
        ("tolerances", "det_tol", -1.0),
        ("tolerances", "det_tol", 0.25),  # |det| <= (sum |D_ij|)^2 / 4: all singular
        ("tolerances", "det_tol", 1.0),
        ("tolerances", "det_tol", None),  # null is not an absent key
    ])
    def test_non_finite_number_or_negative_det_tol_exits_2(
        self, tmp_path, capsys, section, key, value
    ):
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

    def test_mostly_singular_grid_exits_3(self, tmp_path, capsys):
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
        cfg = write_config(tmp_path, raw)
        rc = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert "singular" in capsys.readouterr().err


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
        assert sidecar["lumped"]["gamma_s"] == pytest.approx(2.5e6, rel=1e-6)
        assert sidecar["validity_warnings"] == []
        assert sidecar["fano_applicable"] is True

    def test_out_of_regime_config_warns_but_succeeds(self, tmp_path):
        cfg = write_config(tmp_path, P1_CONFIG)  # P1 detuning is out of regime
        assert main(["compare", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        sidecar = json.loads((tmp_path / "compare.json").read_text())
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

    def test_pumped_south_port_leaves_fano_column_nan(self, tmp_path):
        raw = json.loads(json.dumps(P1_CONFIG))
        raw["pump"]["south"] = {"amplitude": [1e6, 0.0]}
        cfg = write_config(tmp_path, raw)
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "compare.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(math.isnan(float(row["err_S_fano"])) for row in rows)
        assert all(math.isfinite(float(row["err_K"])) for row in rows)
        sidecar = json.loads((tmp_path / "compare.json").read_text())
        assert sidecar["fano_applicable"] is False


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

    def test_landscape_is_chi_major_and_exact(self, tmp_path):
        from msinoise.cooling import optimize_pump
        from msinoise.outputs import LANDSCAPE_HEADER, run_cooling

        cfg = load_config(self.cooling_config(tmp_path, delta_s=-2.5e7,
                                              h_friction=1e-14))
        report = run_cooling(cfg, tmp_path, optimize=True)
        opt = optimize_pump(cfg.params, cfg.mechanical,
                            report["optimum"]["energy_budget"])
        # the row-by-row reference the column writer replaced
        expected = [LANDSCAPE_HEADER] + [
            ",".join(repr(float(v)) for v in (
                chi, phi, opt.n_bar_grid[i, j], opt.s_f_pos_grid[i, j],
                opt.s_f_neg_grid[i, j],
            ))
            for i, chi in enumerate(opt.chi_grid)
            for j, phi in enumerate(opt.phi_grid)
        ]
        assert (tmp_path / "landscape.csv").read_text() == "\n".join(expected) + "\n"

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow on the way
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

    def test_missing_mechanical_block_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, P1_CONFIG)
        rc = main(["cooling", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "mechanical" in capsys.readouterr().err


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

    def test_corrupted_tolerance_fails_and_names_invariant(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"verify_tolerances": {"unitarity": 1e-20}}, "tols.json"
        )
        rc = main(["verify", "--config", str(cfg)])
        assert rc == 1
        out = capsys.readouterr()
        assert "FAIL" in out.out and "unitarity" in out.err

    @pytest.mark.parametrize("raw, field", [
        ({"verify_tolerances": {"unitarity": "x"}}, "verify_tolerances.unitarity"),
        ([1, 2], "<root>"),
        ({"verify_tolerances": {"unitarit": 1e-3}}, "verify_tolerances.unitarit"),
        ({"verify_tolerances": {"unitarity": True}}, "verify_tolerances.unitarity"),
        ({"verify_tolerances": {"unitarity": -1}}, "verify_tolerances.unitarity"),
        ({"verify_tolerances": {"unitarity": math.nan}}, "verify_tolerances.unitarity"),
        ({"verify_tolerances": [1e-3]}, "verify_tolerances"),
        ({"verify_tolerance": {"unitarity": 1e-3}}, "verify_tolerance"),
    ])
    def test_malformed_tolerances_exit_2_before_any_check(self, tmp_path, capsys,
                                                          raw, field):
        cfg = write_config(tmp_path, raw, "tols.json")
        assert main(["verify", "--config", str(cfg)]) == 2
        out = capsys.readouterr()
        assert f"'{field}'" in out.err and out.out == ""

    def test_run_config_carries_tolerances_for_verify(self, tmp_path):
        from msinoise.verify import CHECK_NAMES

        raw = dict(P1_CONFIG, verify_tolerances={"unitarity": 1, "fano_minimum": 0.05})
        parse_config(raw)  # a run configuration may hold verify's tolerances
        tolerances = load_tolerances(write_config(tmp_path, raw), CHECK_NAMES)
        assert tolerances == {"unitarity": 1.0, "fano_minimum": 0.05}
        assert type(tolerances["unitarity"]) is float

    def test_json_lists_every_check(self, capsys):
        from msinoise.verify import CHECK_NAMES

        assert main(["verify", "--json"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in results] == list(CHECK_NAMES)
        for r in results:
            assert {"name", "passed", "measured", "tolerance", "runtime_s"} <= r.keys()
            assert r["passed"] is True and r["measured"] <= r["tolerance"]
            assert r["runtime_s"] > 0.0


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100_000, None],
                         ids=["not-utf8", "nested-too-deep", "missing"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_bytes(content)
    extra = [] if command == "verify" else ["--out", str(tmp_path / "out")]
    assert main([command, "--config", str(path), *extra]) == 2
    assert "'<file>'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

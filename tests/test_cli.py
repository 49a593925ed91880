import hashlib
import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spinsqueeze
from spinsqueeze import propagator
from spinsqueeze.cli import DEFAULTS, _sha256, parse_config, run_scenario, write_run_csv
from spinsqueeze.diagnostics import RunRecord, squeezing_columns
from spinsqueeze.dicke import make_css
from spinsqueeze.protocols import (
    NoiseModel,
    build_modulated_drive,
    build_repeated_pulse,
    reference_runs,
    run_monte_carlo,
)
from spinsqueeze.schedule import DrivenSegment


def run_cli(argv):
    cfg = parse_config(argv)
    status = run_scenario(cfg)
    return cfg, status


def test_cli_import_leaves_the_ode_solver_out():
    # scipy.integrate pulls in scipy.optimize; only the test-only 2^N oracle needs it
    src = os.path.dirname(os.path.dirname(spinsqueeze.__file__))
    code = "import sys, spinsqueeze.cli; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_scenarios_leave_scipy_special_out(tmp_path):
    # J0 and the CSS binomials are numpy code: the CLI and every scenario load scipy.linalg alone
    src = os.path.dirname(os.path.dirname(spinsqueeze.__file__))
    runs = [["oat", "--n", "20"], ["tact", "--n", "20"], ["sweep", "--model", "tact", "--n-list", "10,12,14"],
            ["pulses", "--n", "20", "--freeze"], ["noise", "--n", "20", "--realizations", "4"],
            ["drive", "--n", "20", "--freeze", "--samples", "20"],
            ["husimi", "--state", str(tmp_path / "5" / "frozen_state.json"), "--grid", "16x32"]]
    code = (
        "import json, sys\n"
        "from spinsqueeze import cli\n"
        "seen = ['scipy.special' in sys.modules]\n"
        "for k, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    assert cli.run_scenario(cli.parse_config(argv + ['--out-dir', sys.argv[2] + f'/{k}'])) == 0, argv\n"
        "    seen.append('scipy.special' in sys.modules)\n"
        "print(seen)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs), str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str([False] * (len(runs) + 1))


class TestParseConfig:
    def test_paper_defaults_pulses(self):
        cfg = parse_config(["pulses", "--n", "1250", "--nc", "50", "--freeze"])
        assert cfg.scenario == "pulses"
        assert (cfg.n, cfg.nc, cfg.freeze, cfg.seed) == (1250, 50, True, 42)

    def test_drive_defaults_n(self):
        cfg = parse_config(["drive", "--omega-over-chi", "6.2832e4"])
        assert cfg.n == 1250
        assert cfg.omega_over_chi == pytest.approx(6.2832e4)
        assert cfg.omega0_over_omega == pytest.approx(0.9057)
        assert cfg.phase == pytest.approx(-np.pi / 2)

    def test_sweep_list(self):
        cfg = parse_config(["sweep", "--n-list", "100,200,400,800,1600", "--model", "oat"])
        assert cfg.n_values() == [100, 200, 400, 800, 1600]

    def test_config_file_merge_and_override(self, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"n": 64, "nc": 7, "seed": 9}))
        cfg = parse_config(["pulses", "--config", str(conf), "--nc", "11"])
        assert cfg.n == 64
        assert cfg.nc == 11  # flag wins
        assert cfg.seed == 9

    def test_unknown_config_key_rejected(self, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"frobnicate": 1}))
        with pytest.raises(SystemExit):
            parse_config(["pulses", "--config", str(conf)])

    def test_invalid_n_named_in_error(self, capsys):
        with pytest.raises(SystemExit):
            parse_config(["oat", "--n", "1"])
        assert "n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario,values",
        [
            ("pulses", {"freeze": "no"}),
            ("pulses", {"freeze": 1}),
            ("pulses", {"n": "abc"}),
            ("pulses", {"n": 40.5}),
            ("pulses", {"n": True}),
            ("noise", {"eta": "0.1"}),
            ("sweep", {"model": "xyz"}),
            ("sweep", {"n_list": [100, 200, 400]}),
        ],
    )
    def test_config_value_of_wrong_type_named(self, tmp_path, capsys, scenario, values):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps(values))
        with pytest.raises(SystemExit) as exc:
            parse_config([scenario, "--config", str(conf)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"config key {next(iter(values))}:" in err
        assert "Traceback" not in err

    def test_config_values_take_their_flag_types(self, tmp_path):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"n": 40.0, "chi_hz": 5, "freeze": False}))
        cfg = parse_config(["pulses", "--config", str(conf)])
        assert (cfg.n, cfg.freeze) == (40, False)
        assert type(cfg.n) is int and type(cfg.chi_hz) is float
        conf.write_text(json.dumps({"chi_hz": None, "freeze": True}))
        cfg = parse_config(["pulses", "--config", str(conf)])
        assert cfg.chi_hz is None and cfg.freeze is True

    @pytest.mark.parametrize(
        "scenario,key,value",
        [
            ("sweep", "n_list", "a,b,c"),
            ("sweep", "n_list", "0,2,3"),
            ("sweep", "n_list", "1,2,3"),
            ("sweep", "n_list", "100,100,100"),
            ("sweep", "n_list", "100,200,100"),
            ("sweep", "n_list", "40,40,60,80"),
            ("husimi", "grid", "12"),
            ("husimi", "grid", "axb"),
            ("husimi", "grid", "16x32x2"),
            ("husimi", "grid", "8x64"),
            # numbers past their bounds are named the same way
            ("pulses", "chi_hz", 0.0),
            ("pulses", "nc", 0),
            ("noise", "realizations", 0),
            ("drive", "omega_over_chi", 0.0),
            ("drive", "omega0_over_omega", -0.5),
            ("drive", "steps_per_period", 8),
            ("pulses", "samples", 8),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_malformed_list_or_grid_named(self, tmp_path, capsys, scenario, key, value, source):
        argv = [scenario, "--state", "s.json"] if scenario == "husimi" else [scenario]
        if source == "flag":
            argv += ["--" + key.replace("_", "-"), str(value)]
        else:
            conf = tmp_path / "c.json"
            conf.write_text(json.dumps({key: value}))
            argv += ["--config", str(conf)]
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"field {key}:" in err
        assert "Traceback" not in err

    def test_cli_defaults_match_builder_defaults(self):
        # each setting the CLI shares with a builder has one default value
        cli_keys = {"nc": "n_periods", "samples": "n_samples", "omega_over_chi": "omega_over_chi",
                    "omega0_over_omega": "omega0_over_omega", "phase": "phase",
                    "steps_per_period": "steps_per_period", "freeze": "freeze"}
        builders = (build_repeated_pulse, build_modulated_drive, reference_runs, DrivenSegment)
        seen = set()
        for fn in builders:
            params = inspect.signature(fn).parameters
            for key, name in cli_keys.items():
                if name in params:
                    assert params[name].default == DEFAULTS[key], (fn.__name__, name)
                    seen.add(key)
        assert seen == set(cli_keys)

    def test_husimi_needs_state(self):
        with pytest.raises(SystemExit):
            parse_config(["husimi"])

    def test_eta_validation(self):
        with pytest.raises(SystemExit):
            parse_config(["noise", "--eta", "-0.1"])

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["noise", "--eta", "nan"], "eta"),
            (["pulses", "--chi-hz", "inf"], "chi_hz"),
            (["drive", "--phase", "inf"], "phase"),
        ],
    )
    def test_non_finite_flag_named(self, capsys, argv, key):
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2
        assert f"field {key}: must be finite" in capsys.readouterr().err

    def test_non_finite_config_value_named(self, tmp_path, capsys):
        conf = tmp_path / "c.json"
        conf.write_text('{"eta": NaN}')  # a literal json.loads accepts
        with pytest.raises(SystemExit) as exc:
            parse_config(["noise", "--config", str(conf)])
        assert exc.value.code == 2
        assert "field eta: must be finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["noise", "pulses"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_named(self, tmp_path, capsys, scenario, source):
        argv = [scenario, "--n", "4", "--nc", "2", "--samples", "16"]
        if source == "flag":
            argv += ["--seed", "-1"]
        else:
            conf = tmp_path / "c.json"
            conf.write_text(json.dumps({"seed": -1}))
            argv += ["--config", str(conf)]
        with pytest.raises(SystemExit) as exc:
            parse_config(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "field seed: must be nonnegative" in err
        assert "Traceback" not in err


class TestScenarios:
    def test_oat_small_run(self, tmp_path):
        cfg, status = run_cli(["oat", "--n", "64", "--out-dir", str(tmp_path), "--samples", "200"])
        assert status == 0
        csv = (tmp_path / "oat_run.csv").read_text().splitlines()
        assert csv[0] == "chi_t,xi2,xi2_db,jx,jy,jz,theta_min"
        assert len(csv) == 201
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["n"] == 64
        assert "oat_run.csv" in manifest["artifacts"]

    def test_oat_n1250_minimum_near_formula(self, tmp_path):
        _, status = run_cli(["oat", "--n", "1250", "--out-dir", str(tmp_path)])
        assert status == 0
        rows = (tmp_path / "oat_run.csv").read_text().splitlines()[1:]
        data = np.array([[float(x) for x in r.split(",")] for r in rows])
        t_min = data[np.argmin(data[:, 1]), 0]
        assert abs(t_min - 1.16e-2) <= 0.15 * 1.16e-2

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["noise", "--n", "40", "--nc", "8", "--realizations", "5",
                 "--out-dir", str(a), "--samples", "64", "--seed", "42"])
        run_cli(["noise", "--n", "40", "--nc", "8", "--realizations", "5",
                 "--out-dir", str(b), "--samples", "64", "--seed", "42"])
        for name in ("noise_mean.csv", "noise_realizations.csv", "oat_limit.csv", "tact_limit.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma["artifacts"] == mb["artifacts"]

    def test_noise_csvs_hold_the_records(self, tmp_path):
        _, status = run_cli(["noise", "--n", "40", "--nc", "8", "--realizations", "20", "--eta", "0.01",
                             "--seed", "7", "--samples", "64", "--out-dir", str(tmp_path)])
        assert status == 0
        bundle = build_repeated_pulse(40, 8)
        mc = run_monte_carlo(bundle.schedule, bundle.initial_state, NoiseModel(0.01, seed=7), 20)
        reps = [rec.report for rec in mc.records]
        mean = np.loadtxt(tmp_path / "noise_mean.csv", delimiter=",", skiprows=1)
        assert np.array_equal(mean[:, 0], mc.records[0].times())
        assert np.array_equal(mean[:, 1], np.mean([rep.xi2 for rep in reps], axis=0))
        assert np.array_equal(mean[:, 2], 10.0 * np.log10(mean[:, 1]))
        assert np.array_equal(mean[:, 3:6].T, np.mean([rep.mean_spin for rep in reps], axis=0))
        assert np.array_equal(mean[:, 6], np.mean([rep.theta_min for rep in reps], axis=0))
        rows = np.loadtxt(tmp_path / "noise_realizations.csv", delimiter=",", skiprows=1)
        count = len(mc.records[0].times())
        assert rows.shape == (20 * count, 3)
        for i, rec in enumerate(mc.records):
            part = rows[i * count : (i + 1) * count]
            assert np.array_equal(part[:, 0], np.full(count, i))
            assert np.array_equal(part[:, 1], rec.times())
            assert np.array_equal(part[:, 2], rec.xi2())

    def test_pulses_csv_holds_the_record(self, tmp_path):
        _, status = run_cli(["pulses", "--n", "40", "--nc", "10", "--freeze", "--samples", "64",
                             "--out-dir", str(tmp_path)])
        assert status == 0
        record = build_repeated_pulse(40, 10, freeze=True).record
        run = np.loadtxt(tmp_path / "pulses_run.csv", delimiter=",", skiprows=1)
        assert np.array_equal(run[:, 0], record.times())
        assert np.array_equal(run[:, 1], record.xi2())
        assert np.array_equal(run[:, 2], 10.0 * np.log10(record.xi2()))
        assert np.array_equal(run[:, 3:6].T, record.report.mean_spin)
        assert np.array_equal(run[:, 6], record.report.theta_min)

    def test_zero_xi2_is_minus_infinity_db(self, tmp_path):
        # N = 2 can reach a zero minimal variance; its dB is written as -inf, with no warning
        rep = squeezing_columns(2, np.repeat(make_css(2, np.pi / 2, 0).amplitudes[:, None], 2, axis=1))
        write_run_csv(tmp_path / "run.csv", RunRecord([0.0, 0.1], replace(rep, xi2=np.array([0.0, 0.5]))))
        db = [row.split(",")[2] for row in (tmp_path / "run.csv").read_text().splitlines()[1:]]
        assert db[0] == "-inf" and float(db[1]) == pytest.approx(10 * np.log10(0.5), rel=1e-15)

    def test_pulses_unit_report_paper_values(self, tmp_path):
        _, status = run_cli([
            "pulses", "--n", "1250", "--nc", "50", "--chi-hz", "0.063",
            "--out-dir", str(tmp_path), "--samples", "64",
        ])
        assert status == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        unit = manifest["unit_report"]
        assert unit["t_c_seconds"] == pytest.approx(500e-6, rel=0.05)
        assert unit["delta_t_seconds"] == pytest.approx(170e-6, rel=0.05)
        assert unit["t_opt_seconds"] == pytest.approx(25e-3, rel=0.05)
        csv = (tmp_path / "pulses_run.csv").read_text().splitlines()
        assert csv[0].endswith(",t_seconds")

    def test_drive_unit_report_drive_frequencies(self, tmp_path):
        _, status = run_cli([
            "drive", "--n", "10", "--omega-over-chi", "200", "--omega0-over-omega", "0.9",
            "--chi-hz", "0.5", "--out-dir", str(tmp_path), "--samples", "16",
        ])
        assert status == 0
        unit = json.loads((tmp_path / "manifest.json").read_text())["unit_report"]
        assert unit["omega_hz"] == pytest.approx(100.0, rel=1e-15)
        assert unit["omega0_hz"] == pytest.approx(90.0, rel=1e-15)

    def test_pulses_freeze_snapshot(self, tmp_path):
        _, status = run_cli([
            "pulses", "--n", "48", "--nc", "10", "--freeze",
            "--out-dir", str(tmp_path), "--samples", "64",
        ])
        assert status == 0
        snap = json.loads((tmp_path / "frozen_state.json").read_text())
        assert snap["N"] == 48
        assert len(snap["amplitudes"]) == 49
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "frozen_state.json" in manifest["artifacts"]
        assert manifest["protocol"]["freeze_time"] > 0

    def test_drive_manifest_has_doubling(self, tmp_path):
        _, status = run_cli([
            "drive", "--n", "24", "--omega-over-chi", str(2 * np.pi * 2000),
            "--out-dir", str(tmp_path), "--samples", "64",
        ])
        assert status == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        dbl = manifest["convergence"]["doubling"]
        assert dbl["steps_per_period"] == 64
        assert dbl["terminal_fidelity_gap"] < 1e-6
        assert abs(dbl["norm_drift"]) < 1e-9 and abs(dbl["doubled_norm_drift"]) < 1e-9
        assert (tmp_path / "drive_effective.csv").exists()

    def test_drive_freeze_runs_two_drive_chains(self, tmp_path, monkeypatch):
        # the pass (also the check's spp-64 run) and the check's spp-128 run
        engines = []
        init = propagator.DrivenEngine.__init__
        monkeypatch.setattr(
            propagator.DrivenEngine, "__init__", lambda eng, *a, **k: engines.append(a) or init(eng, *a, **k)
        )
        _, status = run_cli(["drive", "--n", "60", "--freeze", "--samples", "32", "--out-dir", str(tmp_path)])
        assert status == 0
        assert len(engines) == 2

    @pytest.mark.parametrize(
        "source,freeze,phase",
        [
            pytest.param("flag", True, 1e300, id="flag"),
            pytest.param("config", True, 1e300, id="config"),
            pytest.param("flag", False, 1e300, id="flag-unfrozen"),
            pytest.param("config", False, 1e300, id="config-unfrozen"),
            pytest.param("flag", True, 1e17, id="flag-1e17"),
        ],
    )
    def test_huge_drive_phase_is_one_named_error(self, tmp_path, capsys, source, freeze, phase):
        # far out, drive zeros cancel to rounding: lost from an unfrozen run's samples at 1e300,
        # collapsed into duplicate sample times at 1e17, gone from the freeze window at 1e300
        argv = ["drive", "--n", "24", "--samples", "16", "--out-dir", str(tmp_path / "o")]
        argv += ["--freeze"] if freeze else []
        if source == "flag":
            argv += ["--phase", repr(phase)]
        else:
            conf = tmp_path / "c.json"
            conf.write_text(json.dumps({"phase": phase}))
            argv += ["--config", str(conf)]
        _, status = run_cli(argv)
        assert status == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"spinsqueeze: phase {phase} lies outside [-2pi, 2pi]")

    @pytest.mark.parametrize("omega", [1e12, 1e300])
    @pytest.mark.parametrize("freeze", [True, False], ids=["frozen", "unfrozen"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_oversized_drive_is_one_named_error(self, tmp_path, capsys, source, freeze, omega):
        # the drive zeros are counted before they are listed: 1e12 would list terabytes, 1e300 overflows
        argv = ["drive", "--n", "24", "--samples", "16", "--out-dir", str(tmp_path / "o")]
        argv += ["--freeze"] if freeze else []
        if source == "flag":
            argv += ["--omega-over-chi", repr(omega)]
        else:
            conf = tmp_path / "c.json"
            conf.write_text(json.dumps({"omega_over_chi": omega}))
            argv += ["--config", str(conf)]
        _, status = run_cli(argv)
        assert status == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"spinsqueeze: omega/chi = {omega:g} puts ")
        assert "drive zeros" in err and "Traceback" not in err

    def test_sweep_fit_in_manifest(self, tmp_path):
        _, status = run_cli([
            "sweep", "--n-list", "40,80,160", "--model", "tact",
            "--out-dir", str(tmp_path), "--samples", "300",
        ])
        assert status == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert -1.3 < manifest["scaling_fit"]["exponent"] < -0.7
        rows = (tmp_path / "sweep_tact.csv").read_text().splitlines()
        assert rows[0] == "N,chi_t_opt,xi2_min"
        assert len(rows) == 4

    def test_husimi_row_count(self, tmp_path):
        state = make_css(20, 1.2, 0.7)
        path = tmp_path / "state.json"
        state.save(path)
        out = tmp_path / "h"
        _, status = run_cli(["husimi", "--state", str(path), "--grid", "128x256",
                             "--out-dir", str(out)])
        assert status == 0
        rows = (out / "husimi.csv").read_text().splitlines()
        assert rows[0] == "theta,phi,q"
        assert len(rows) - 1 == 128 * 256
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["normalization_check"] == pytest.approx(1.0, abs=1e-3)

    def test_oversized_husimi_grid_is_one_named_error(self, tmp_path, capsys):
        # numpy would refuse the grid's 80 GB of angles at once; the memory check comes before them
        path = tmp_path / "state.json"
        make_css(20, 1.2, 0.7).save(path)
        _, status = run_cli(["husimi", "--state", str(path), "--grid", "16x10000000000",
                             "--out-dir", str(tmp_path / "h")])
        err = capsys.readouterr().err
        assert status == 1
        assert err.count("\n") == 1 and err.startswith("spinsqueeze: N = 40 needs ")
        assert "GiB of Husimi grid" in err

    def test_manifest_hash_reads_in_blocks(self, tmp_path, monkeypatch):
        # the digest of a file read a block at a time, never as one bytes object
        rng = np.random.default_rng(3)
        monkeypatch.setattr(Path, "read_bytes", None)
        for size in (0, 1, 1 << 16, 3 * (1 << 16) + 5):
            data = rng.bytes(size)
            path = tmp_path / f"a{size}.bin"
            with open(path, "wb") as fh:
                fh.write(data)
            assert _sha256(path) == hashlib.sha256(data).hexdigest()

    def test_missing_state_file_is_runtime_error(self, tmp_path, capsys):
        cfg = parse_config(["husimi", "--state", str(tmp_path / "nope.json"),
                            "--out-dir", str(tmp_path)])
        assert run_scenario(cfg) == 1
        assert "spinsqueeze:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,named",
        [
            ('{"N": 2, "j": 1.0, "basis": "Jz-descending"}', "'amplitudes'"),
            ('{"j": 1.0, "basis": "Jz-descending", "amplitudes": [[1, 0], [0, 0], [0, 0]]}', "'N'"),
            ('{"N": 2, "j": 1.0, "basis": "Jz-descending", "amplitudes": [1, 0, 0]}', "'amplitudes'"),
            ("not json at all", "is not JSON"),
            ("[1, 2]", "JSON object"),
            ('{"N": 2, "j": 1.0, "basis": "Jz-descending", "amplitudes": [[NaN, 0], [0, 0], [0, 0]]}',
             "norm"),
            ('{"N": 2.5, "j": 1.0, "basis": "Jz-descending", "amplitudes": [[1, 0], [0, 0], [0, 0]]}',
             "field 'N' is malformed"),
            ('{"N": true, "j": 0.5, "basis": "Jz-descending", "amplitudes": [[1, 0], [0, 0]]}',
             "field 'N' is malformed"),
        ],
        ids=["no-amplitudes", "no-N", "bad-amplitudes", "not-json", "not-object", "nan-amplitude",
             "fractional-N", "boolean-N"],
    )
    def test_malformed_snapshot_is_one_named_error(self, tmp_path, capsys, text, named):
        path = tmp_path / "state.json"
        path.write_text(text)
        cfg = parse_config(["husimi", "--state", str(path), "--out-dir", str(tmp_path / "o")])
        assert run_scenario(cfg) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("spinsqueeze: snapshot ")
        assert str(path) in err and named in err

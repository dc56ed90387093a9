"""The command line: simulate from a preset or a config file, its exit
codes and seeds, the --decompose companion CSV, and characterize-hpa."""

import numpy as np
import pytest

from mcmccdma.analysis import parse_csv
from mcmccdma.cli import main


def _write_tiny_config(tmp_path, **extra):
    lines = {
        "name": "cli-tiny", "users": "1", "substreams": "1", "carriers": "1",
        "walsh_order": "1", "pn_length": "7", "oversampling": "4",
        "ebn0_grid": "0", "min_errors": "100", "symbols_per_block": "16",
        "master_seed": "7",
    }
    lines.update(extra)
    path = tmp_path / "tiny.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


class TestCli:
    def test_simulate_success(self, tmp_path):
        cfg = _write_tiny_config(tmp_path)
        out = tmp_path / "results.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = parse_csv(out)
        assert rows[0].scenario == "cli-tiny"
        assert rows[0].seed == 7

    def test_cli_seed_beats_config_and_env(self, tmp_path, monkeypatch):
        cfg = _write_tiny_config(tmp_path)
        out = tmp_path / "r.csv"
        monkeypatch.setenv("SIM_SEED", "1234")
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", "555"]) == 0
        assert parse_csv(out)[0].seed == 555

    def test_env_seed_beats_config(self, tmp_path, monkeypatch):
        cfg = _write_tiny_config(tmp_path)
        out = tmp_path / "r.csv"
        monkeypatch.setenv("SIM_SEED", "1234")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert parse_csv(out)[0].seed == 1234

    def test_workers_env(self, tmp_path, monkeypatch):
        cfg = _write_tiny_config(tmp_path)
        ref = tmp_path / "a.csv"
        par = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(ref)]) == 0
        monkeypatch.setenv("SIM_WORKERS", "4")
        assert main(["simulate", "--config", str(cfg), "--out", str(par)]) == 0
        assert ref.read_bytes() == par.read_bytes()

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_bad_key_is_config_error(self, tmp_path, capsys):
        cfg = _write_tiny_config(tmp_path, hyperdrive="on")
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "error" in capsys.readouterr().err

    def test_retired_power_key_is_config_error(self, tmp_path, capsys):
        # the branch power cancelled from every output and is no key any more
        cfg = _write_tiny_config(tmp_path, power="1")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: unknown configuration key 'power'" in capsys.readouterr().err
        assert not out.exists()

    def test_retired_min_bits_key_is_config_error(self, tmp_path, capsys):
        # every block decides the same bits, so min_blocks is the one floor
        cfg = _write_tiny_config(tmp_path, min_bits="131072")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: unknown configuration key 'min_bits'" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_decay_is_config_error(self, tmp_path, capsys):
        cfg = _write_tiny_config(tmp_path, decay_db="nan")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "decay_db" in capsys.readouterr().err

    @pytest.mark.parametrize("pn_length", ["8", "8191"])
    def test_bad_pn_length_is_config_error(self, tmp_path, capsys, pn_length):
        cfg = _write_tiny_config(tmp_path, pn_length=pn_length)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: pn_length must be an m-sequence length" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys, monkeypatch):
        cfg = _write_tiny_config(tmp_path)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", "-1"]) == 1
        assert "error: master_seed must be nonnegative" in capsys.readouterr().err
        monkeypatch.setenv("SIM_SEED", "-1")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: master_seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("max_bits", "0"), ("min_blocks", "-1")])
    def test_unusable_stopping_budget_is_config_error(self, tmp_path, capsys, key, value):
        cfg = _write_tiny_config(tmp_path, **{key: value})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("ebn0_grid", "4000"), ("ebn0_grid", "0,-4000"),
                                            ("ibo_db", "4000"), ("ibo_db", "-4000")])
    def test_db_value_beyond_bound_is_config_error(self, tmp_path, capsys, key, value):
        cfg = _write_tiny_config(tmp_path, hpa_mode="saleh_pd", **{key: value})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: {key} must lie within +-300 dB" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preset_is_config_error(self):
        assert main(["simulate", "--preset", "fig99"]) == 1

    def test_no_source_is_config_error(self):
        assert main(["simulate"]) == 1

    def test_usage_error_exit_code(self):
        assert main(["simulate", "--no-such-flag"]) == 1
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_decompose_writes_companion(self, tmp_path):
        cfg = _write_tiny_config(tmp_path, users="2", substreams="2",
                                 carriers="2", walsh_order="4", pn_length="15")
        out = tmp_path / "d.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--decompose"]) == 0
        companion = tmp_path / "d.csv.decomposition.csv"
        text = companion.read_text()
        assert text.splitlines()[0] == "scenario,ebn0_db,component,value"
        assert "multi_user" in text
        assert "total_interference" in text

    def test_decompose_rejects_nonlinear(self, tmp_path):
        cfg = _write_tiny_config(tmp_path, hpa_mode="saleh")
        assert main(["simulate", "--config", str(cfg), "--decompose",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_characterize_hpa_default_params(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["characterize-hpa", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("level,amam_output,ampm_rad,predistorted_input,"
                            "cascade_output,cascade_phase_rad")
        assert len(lines) == 302
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_characterize_hpa_param_file(self, tmp_path):
        params = tmp_path / "amp.cfg"
        params.write_text("alpha_am = 2.0\nbeta_am = 1.0\n")
        out = tmp_path / "c.csv"
        assert main(["characterize-hpa", "--params", str(params),
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        levels = np.array([float(r.split(",")[0]) for r in rows])
        assert levels[-1] == pytest.approx(1.5)   # 1.5 / sqrt(beta_am)

    def test_characterize_hpa_nonfinite_param(self, tmp_path, capsys):
        params = tmp_path / "amp.cfg"
        params.write_text("alpha_am = nan\n")
        assert main(["characterize-hpa", "--params", str(params),
                     "--out", str(tmp_path / "c.csv")]) == 1
        assert "error: alpha_am must be finite" in capsys.readouterr().err

    def test_nonfinite_saleh_param_is_config_error(self, tmp_path, capsys):
        cfg = _write_tiny_config(tmp_path, hpa_mode="saleh", alpha_am="inf")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: alpha_am must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("hpa_mode, key, value", [
        ("saleh", "beta_am", "1e-320"),
        ("saleh_pd", "alpha_am", "1e-300"),
        ("saleh", "alpha_am", "1e-300"),
        ("saleh_pd", "alpha_am", "4e169"),
    ])
    def test_degenerate_saturation_power_is_config_error(self, tmp_path, capsys, hpa_mode,
                                                         key, value):
        cfg = _write_tiny_config(tmp_path, hpa_mode=hpa_mode, **{key: value})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: " in err and "saturation input and output powers" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("hpa_mode, key, value, message", [
        ("saleh", "beta_am", "1e-300", "gives no finite positive input scale"),
        ("saleh_pd", "alpha_am", "1e150", "gives the predistorter no finite positive input scale"),
    ])
    def test_drive_without_finite_scale_is_config_error(self, tmp_path, capsys, hpa_mode, key,
                                                       value, message):
        """A back-off that puts the tube's input scale or the limiter's g
        out of the float range is rejected with the scenario, not in the
        run's setup."""
        cfg = _write_tiny_config(tmp_path, hpa_mode=hpa_mode, ibo_db="-300", **{key: value})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_limiter_drive_in_round_off_is_config_error(self, tmp_path, capsys):
        """At -300 dB the limiter's g lifts the round-off of the linear
        waveform to about A_sat, so the scenario is rejected when it is
        built, with one error line."""
        cfg = _write_tiny_config(tmp_path, hpa_mode="saleh_pd", ibo_db="-300")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "round-off" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("keys", [
        dict(hpa_mode="saleh", alpha_am="1e-150", beta_am="1", ebn0_grid="300"),
        dict(hpa_mode="saleh_pd", alpha_am="1e-150", beta_am="1", ebn0_grid="300"),
        dict(hpa_mode="saleh", alpha_am="1e-150", beta_am="1", ibo_db="-300", ebn0_grid="0"),
        dict(hpa_mode="saleh", alpha_am="1e-100", beta_am="1e100", ibo_db="300",
             ebn0_grid="300"),
    ], ids=["saleh-300db", "saleh_pd-300db", "saleh-eb-zero", "saleh-eb-zero-300db"])
    def test_point_without_noise_level_is_config_error(self, tmp_path, capsys, keys):
        """A calibrated Eb that leaves an Eb/N0 point no finite positive
        noise density (n0 underflows, or Eb is 0) is rejected at the run's
        setup with one error line, before any block."""
        cfg = _write_tiny_config(tmp_path, **keys)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scenario 'cli-tiny', Eb/N0 point 0: ")
        assert "positive noise density" in err and err.count("\n") == 1
        assert not out.exists()

    def test_characterize_hpa_unknown_key(self, tmp_path):
        params = tmp_path / "amp.cfg"
        params.write_text("users = 5\n")
        assert main(["characterize-hpa", "--params", str(params),
                     "--out", str(tmp_path / "c.csv")]) == 1

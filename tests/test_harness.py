"""Monte Carlo harness, CSV emission, presets, config files, CLI."""

import dataclasses

import numpy as np
import pytest

from mcmccdma.analysis import BerRecord, binomial_ci95
from mcmccdma.cli import main
from mcmccdma import harness
from mcmccdma.config import ConfigError, load_config, scenario_from_keys
from mcmccdma.harness import (
    CSV_HEADER,
    Scenario,
    emit_csv,
    measure_variances,
    parse_csv,
    preset,
    run_scenario,
    scenario_echo,
)
from mcmccdma.txchain import LinkConfig

TINY = Scenario(
    name="tiny",
    config=LinkConfig(users=1, substreams=1, carriers=1, walsh_order=1,
                      pn_length=7, oversampling=4),
    ebn0_grid=(0.0,), min_errors=100, symbols_per_block=16, master_seed=99)


class TestScenarioValidation:
    def test_comma_in_name_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY, name="a,b")

    def test_bad_hpa_mode(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY, hpa_mode="clipper")

    def test_small_min_errors_needs_override(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY, min_errors=10)
        ok = dataclasses.replace(TINY, min_errors=10, allow_small_min_errors=True)
        assert ok.min_errors == 10

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY, ebn0_grid=())

    def test_too_many_paths(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY, paths=8)   # 8 chips delay = full symbol

    @pytest.mark.parametrize("field, value", [
        ("decay_db", float("nan")),
        ("ibo_db", float("inf")),
        ("ebn0_grid", (0.0, float("nan"))),
        ("ebn0_grid", (float("-inf"),)),
    ])
    def test_nonfinite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(TINY, **{field: value})


class TestRunScenario:
    def test_deterministic(self):
        a = run_scenario(TINY)
        b = run_scenario(TINY)
        assert a.records == b.records

    def test_seed_changes_outcome(self):
        a = run_scenario(TINY)
        b = run_scenario(dataclasses.replace(TINY, master_seed=100))
        assert a.records != b.records

    def test_worker_invariance(self):
        seq = run_scenario(TINY, workers=1)
        par = run_scenario(TINY, workers=4)
        assert seq.records == par.records

    def test_record_contents(self):
        rep = run_scenario(TINY)
        assert len(rep.records) == 1
        r = rep.records[0]
        assert r.scenario == "tiny"
        assert r.source == "monte-carlo"
        assert r.seed == 99
        assert r.ibo_db is None            # linear chain has no back-off
        assert r.errors >= TINY.min_errors
        assert not r.censored
        # 0 dB BPSK: expect about 7.9% error rate
        assert 0.05 < r.ber < 0.11

    def test_zero_noise_zero_errors(self):
        sc = dataclasses.replace(
            TINY, noise_enabled=False, min_errors=1, max_bits=500,
            allow_small_min_errors=True)
        rep = run_scenario(sc)
        assert rep.records[0].errors == 0
        assert rep.records[0].ber == 0.0
        assert rep.records[0].censored

    def test_censored_when_bits_exhausted(self):
        sc = dataclasses.replace(TINY, ebn0_grid=(9.0,), max_bits=2000)
        rep = run_scenario(sc)
        r = rep.records[0]
        assert r.censored
        assert r.errors < sc.min_errors

    def test_point_runtimes_recorded(self):
        rep = run_scenario(TINY)
        assert len(rep.point_seconds) == 1
        assert rep.point_seconds[0] > 0

    def test_multipoint_grid(self):
        sc = dataclasses.replace(TINY, ebn0_grid=(0.0, 4.0))
        rep = run_scenario(sc)
        assert [r.ebn0_db for r in rep.records] == [0.0, 4.0]
        assert rep.records[0].ber > rep.records[1].ber


def _csv_bytes(scenario, workers, path):
    emit_csv(run_scenario(scenario, workers=workers), path)
    return path.read_bytes()


# Two waves of four blocks at one sweep point.
_POOLED = dict(ebn0_grid=(4.0,), blocks_per_wave=4, max_bits=2 * 4 * 16 * 4)


@pytest.mark.parametrize("scenario", [
    dataclasses.replace(
        TINY, name="tiny-saleh-pd", hpa_mode="saleh_pd", ibo_db=5.0,
        config=LinkConfig(users=2, substreams=2, carriers=2, walsh_order=4,
                          pn_length=15, oversampling=4), **_POOLED),
    dataclasses.replace(
        TINY, name="tiny-3-path", paths=3, decay_db=3.0, fading=True,
        config=LinkConfig(users=2, substreams=2, carriers=2, walsh_order=4,
                          pn_length=15, oversampling=4), **_POOLED),
], ids=lambda sc: sc.name)
def test_pooled_csv_bytes_match_serial(scenario, tmp_path):
    serial = _csv_bytes(scenario, 1, tmp_path / "serial.csv")
    assert serial == _csv_bytes(scenario, 2, tmp_path / "pooled.csv")


@pytest.fixture
def blas_threads():
    """Thread counts of the loaded OpenBLAS libraries, set to 2 for the test."""
    calls = harness._openblas_thread_calls()
    saved = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(2)
    yield lambda: [get() for get, _ in calls]
    for (_, set_), count in zip(calls, saved):
        set_(count)


class TestBlasThreads:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_run_single_threaded_and_count_restored(self, blas_threads, monkeypatch,
                                                          workers):
        before = blas_threads()
        simulate = harness._simulate_block

        def checked(*args):
            # runs in the forked workers too, where a failure reaches pool.map
            assert all(count == 1 for count in blas_threads())
            return simulate(*args)

        monkeypatch.setattr(harness, "_simulate_block", checked)
        run_scenario(TINY, workers=workers)
        assert blas_threads() == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_count_restored_when_block_raises(self, blas_threads, monkeypatch, workers):
        before = blas_threads()

        def failing(*args):
            raise RuntimeError("block failed")

        monkeypatch.setattr(harness, "_simulate_block", failing)
        with pytest.raises(RuntimeError, match="block failed"):
            run_scenario(TINY, workers=workers)
        assert blas_threads() == before


class TestCiCoverage:
    def test_nominal_coverage_synthetic(self):
        rng = np.random.default_rng(2024)
        p, n, trials = 0.1, 1000, 100
        hits = 0
        for _ in range(trials):
            k = rng.binomial(n, p)
            hits += abs(k / n - p) <= binomial_ci95(k, n)
        assert 90 <= hits <= 99


class TestCsv:
    def test_header_exact(self):
        assert CSV_HEADER == ("scenario,ebn0_db,k,r,m,hpa_mode,ibo_db,"
                              "bits,errors,ber,ci95,source,seed")

    def test_round_trip(self, tmp_path):
        rep = run_scenario(TINY)
        path = tmp_path / "out.csv"
        emit_csv([rep], path)
        text = path.read_text()
        assert text.startswith(CSV_HEADER + "\n")
        assert text.endswith("\n")
        rows = parse_csv(path)
        assert rows == rep.records   # repr floats round-trip exactly

    def test_emit_accepts_bare_records(self, tmp_path):
        rec = BerRecord(scenario="t", ebn0_db=1.0, users=2, substreams=3,
                        carriers=4, hpa_mode="saleh", ibo_db=7.0, bits=100,
                        errors=5, ber=0.05, ci95=0.01, source="theoretical",
                        seed=None)
        path = tmp_path / "one.csv"
        emit_csv([rec], path)
        row = parse_csv(path)[0]
        assert (row.users, row.substreams, row.carriers) == (2, 3, 4)
        assert row.seed is None
        assert row.ibo_db == 7.0
        assert row.source == "theoretical"

    def test_parse_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            parse_csv(path)


class TestPresets:
    def test_aliases_match_canonical(self):
        for alias, canon in (("fig5", "system-comparison"), ("fig6", "user-sweep"),
                             ("fig7", "carrier-sweep"), ("fig8", "linearization")):
            a = preset(alias)
            b = preset(canon)
            assert [s.name for s in a] == [s.name for s in b]

    def test_system_comparison_contents(self):
        scenarios = {s.name: s for s in preset("system-comparison")}
        assert set(scenarios) == {"multicode-multicarrier", "multicode-only",
                                  "multicarrier-only"}
        combined = scenarios["multicode-multicarrier"]
        assert combined.config.users == 20
        assert combined.config.substreams == 8
        assert combined.config.carriers == 8
        assert combined.fading
        assert scenarios["multicode-only"].config.carriers == 1
        assert scenarios["multicode-only"].paths > 1
        assert scenarios["multicarrier-only"].config.substreams == 1

    def test_user_sweep_contents(self):
        users = [s.config.users for s in preset("user-sweep")]
        assert users == [1, 10, 50]

    def test_carrier_sweep_contents(self):
        carriers = [s.config.carriers for s in preset("carrier-sweep")]
        assert carriers == [2, 4, 8]
        for s in preset("carrier-sweep"):
            assert s.config.substreams == 8
            assert s.config.users == 20

    def test_linearization_contents(self):
        modes = [(s.hpa_mode, s.ibo_db) for s in preset("linearization")]
        assert ("saleh", 7.0) in modes
        assert ("saleh", 9.0) in modes
        assert any(m == "saleh_pd" for m, _ in modes)
        for s in preset("linearization"):
            assert not s.fading

    def test_seed_override(self):
        for s in preset("fig6", master_seed=7):
            assert s.master_seed == 7

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("fig9")


class TestConfigFiles:
    def test_load_and_build(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "name = demo\n"
            "users=2\n"
            "substreams = 2\n"
            "carriers = 2   # trailing comment\n"
            "walsh_order = 4\n"
            "pn_length = 15\n"
            "ebn0_grid = 0, 4, 8\n"
            "fading = true\n"
            "min_errors = 150\n"
            "\n")
        keys = load_config(path)
        sc = scenario_from_keys(keys)
        assert sc.name == "demo"
        assert sc.config.users == 2
        assert sc.config.walsh_order == 4
        assert sc.ebn0_grid == (0.0, 4.0, 8.0)
        assert sc.fading
        assert sc.min_errors == 150

    def test_echo_round_trip(self):
        sc = preset("fig8")[0]
        echoed = scenario_echo(sc)
        rebuilt = scenario_from_keys(echoed)
        assert rebuilt == sc

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            scenario_from_keys({"warp_factor": "9"})

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="integer"):
            scenario_from_keys({"users": "two"})

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="boolean"):
            scenario_from_keys({"fading": "maybe"})

    def test_constraint_violation_becomes_config_error(self):
        with pytest.raises(ConfigError):
            scenario_from_keys({"walsh_order": "3"})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("users 2\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path)

    def test_overrides_on_base(self):
        base = preset("fig6")[0]
        sc = scenario_from_keys({"min_errors": "123"}, base=base)
        assert sc.min_errors == 123
        assert sc.config == base.config


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

    def test_nonfinite_decay_is_config_error(self, tmp_path, capsys):
        cfg = _write_tiny_config(tmp_path, decay_db="nan")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "decay_db" in capsys.readouterr().err

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

    def test_characterize_hpa_unknown_key(self, tmp_path):
        params = tmp_path / "amp.cfg"
        params.write_text("users = 5\n")
        assert main(["characterize-hpa", "--params", str(params),
                     "--out", str(tmp_path / "c.csv")]) == 1


class TestMeasureVariances:
    def test_linear_scenario_variances(self):
        sc = dataclasses.replace(
            TINY,
            config=LinkConfig(users=4, substreams=2, carriers=2, walsh_order=4,
                              pn_length=63, oversampling=4),
            fading=True)
        var = measure_variances(sc, n_symbols=300)
        assert var.multi_user > 0.0
        assert var.noise > 0.0
        assert var.total == pytest.approx(
            var.multipath + var.inter_substream + var.inter_carrier
            + var.multi_user + var.noise, rel=1e-12)

    def test_nonlinear_rejected(self):
        sc = dataclasses.replace(TINY, hpa_mode="saleh")
        with pytest.raises(ValueError):
            measure_variances(sc)

"""Scenario presets: the contents of each preset family, its aliases and the
seed override; config files: parsing, the echo round trip and the errors;
and the property that a config-key dict fails construction, is rejected by
the run's setup before any block, or runs clean, through the library and
through the command line."""

import dataclasses
import pathlib
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcmccdma.cli import main
from mcmccdma.config import (ConfigError, Scenario, leaf_fields, load_config, preset,
                             scenario_echo, scenario_from_keys)
from mcmccdma import harness
from mcmccdma.harness import run_scenario
from mcmccdma.hpa import SalehParams
from mcmccdma.txchain import LinkConfig

TINY = Scenario(
    name="tiny",
    config=LinkConfig(users=1, substreams=1, carriers=1, walsh_order=1,
                      pn_length=7, oversampling=4),
    ebn0_grid=(0.0,), min_errors=100, symbols_per_block=16, master_seed=99)


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
        for family in ("system-comparison", "user-sweep", "carrier-sweep", "linearization"):
            for sc in preset(family):
                echoed = scenario_echo(sc)
                rebuilt = scenario_from_keys(echoed)
                assert rebuilt == sc, sc.name
                assert scenario_echo(rebuilt) == echoed, sc.name

    def test_leaf_names_unique_across_classes(self):
        # flat config keys need every leaf name to occur once
        names = [f.name for f, _ in leaf_fields(TINY)]
        assert len(names) == len(set(names)) == 26
        assert set(names) == {f.name for cls in (LinkConfig, Scenario, SalehParams)
                              for f in dataclasses.fields(cls)} - {"config", "saleh"}

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


def _texts(*strategies):
    """Key text drawn from any of the value strategies."""
    return st.one_of(*strategies).map(str)


# Amplifier coefficients from the classical values to the float range's ends,
# where the saturation powers and the calibrated Eb underflow or overflow.
_COEFFICIENT = _texts(st.floats(1e-3, 1e3), st.floats(allow_nan=True, allow_infinity=True),
                      st.sampled_from([0, -1.0, 5e-324, 1e-320, 1e-300, 1e-150, 1e150, 4e169,
                                       1e300]))
_DB = _texts(st.floats(-20.0, 40.0), st.floats(-400.0, 400.0),
             st.sampled_from([-300.0, 300.0, -301.0]))

# Config keys over tiny scenarios: at most 3 users on at most 31 chips, blocks
# of at most 4 symbols, and max_bits 1, so that each point runs one wave.  The
# integer keys draw one invalid value among their valid ones.
_TINY_KEYS = st.fixed_dictionaries(
    {"name": st.just("fuzz"), "max_bits": st.just("1"), "min_errors": st.just("1"),
     "allow_small_min_errors": st.just("true"),
     "symbols_per_block": _texts(st.sampled_from([1, 2, 3, 4, 0])),
     "blocks_per_wave": _texts(st.sampled_from([1, 2, 3, 0]))},
    optional={
        "users": _texts(st.sampled_from([1, 2, 3, 0])),
        "substreams": _texts(st.sampled_from([1, 2, 3, 4, 0])),
        "carriers": _texts(st.sampled_from([1, 2, 3, 4, 0])),
        "walsh_order": _texts(st.sampled_from([1, 2, 4, 8, 3])),
        "pn_length": _texts(st.sampled_from([3, 7, 15, 31, 8])),
        "oversampling": _texts(st.sampled_from([2, 3, 4, 1])),
        "paths": _texts(st.sampled_from([1, 2, 3, 4, 0])),
        "decay_db": _DB,
        "fading": _texts(st.booleans()),
        "hpa_mode": st.sampled_from(["bypass", "saleh", "saleh_pd", "tube"]),
        "ibo_db": _DB,
        "alpha_am": _COEFFICIENT, "beta_am": _COEFFICIENT,
        "alpha_pm": _COEFFICIENT, "beta_pm": _COEFFICIENT,
        "ampm_quadratic": _texts(st.booleans()),
        "ebn0_grid": st.lists(_DB, min_size=1, max_size=2).map(",".join),
        "noise_enabled": _texts(st.booleans()),
        "master_seed": _texts(st.integers(-1, 2**32)),
    })


class TestKeysRunOrRaise:
    """A config-key dict over a tiny scenario is rejected when its scenario
    is built, or rejected by the run's setup before any block runs (the
    README's point without a noise density), or runs clean: one wave per
    point, every count in range, and no warning."""

    @given(_TINY_KEYS)
    # drawn once: the limiter at -300 dB, whose calibration once cancelled
    # to a negative Eb, and which is now rejected when built
    @example({"name": "fuzz", "max_bits": "1", "min_errors": "1",
              "allow_small_min_errors": "true", "symbols_per_block": "1",
              "blocks_per_wave": "1", "carriers": "2", "hpa_mode": "saleh_pd",
              "ibo_db": "-300.0"})
    # drawn once: a tube whose calibrated Eb of 1.39e-301 leaves its 300 dB
    # point no noise density, which the setup rejects
    @example({"name": "fuzz", "max_bits": "1", "min_errors": "1",
              "allow_small_min_errors": "true", "symbols_per_block": "1",
              "blocks_per_wave": "1", "hpa_mode": "saleh", "alpha_am": "1e-150",
              "beta_am": "1", "ebn0_grid": "300"})
    @settings(max_examples=300, deadline=None, database=None)
    def test_scenario_rejected_or_runs_clean(self, keys):
        try:
            scenario = scenario_from_keys(keys)
        except ConfigError:
            return
        blocks_run = []
        simulate_blocks = harness._simulate_blocks

        def spied(*args):
            blocks_run.append(args)
            return simulate_blocks(*args)

        with mock.patch.object(harness, "_simulate_blocks", spied), warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = run_scenario(scenario, workers=1)
            except ConfigError:
                assert blocks_run == [], "rejected after a block ran"
                return
        wave_bits = (scenario.blocks_per_wave * scenario.symbols_per_block
                     * scenario.config.bits_per_symbol)
        assert len(report.records) == len(scenario.ebn0_grid)
        for record in report.records:
            assert record.bits == wave_bits > 0
            assert 0 <= record.errors <= record.bits

    @given(_TINY_KEYS)
    @settings(max_examples=60, deadline=None, database=None)
    def test_cli_exits_0_or_1(self, keys):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "fuzz.cfg"
            path.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["simulate", "--config", str(path), "--out",
                             str(pathlib.Path(tmp) / "out.csv")])
        assert code in (0, 1)

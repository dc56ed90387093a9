"""Scenario presets: the contents of each preset family, its aliases and the
seed override; and config files: parsing, the echo round trip and the
errors."""

import dataclasses

import pytest

from mcmccdma.config import (ConfigError, Scenario, leaf_fields, load_config, preset,
                             scenario_echo, scenario_from_keys)
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
        assert len(names) == len(set(names)) == 27
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

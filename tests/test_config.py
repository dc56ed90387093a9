"""Scenario presets: the contents of each preset family, its aliases and the
seed override."""

import pytest

from mcmccdma.config import preset


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

"""The fingerprint script's comparison: a tiny scenario's entries at one
seed match themselves, and at another seed every seed-dependent entry is
named as a difference."""

import importlib.util
import pathlib

from mcmccdma.config import Scenario
from mcmccdma.txchain import LinkConfig

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py"

TINY = Scenario(
    name="tiny",
    config=LinkConfig(users=2, substreams=1, carriers=2, walsh_order=2, pn_length=7),
    symbols_per_block=16, master_seed=99)


def test_changed_seed_is_a_named_difference(capsys):
    spec = importlib.util.spec_from_file_location("fingerprint", _SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    expected = script.scenario_entries(TINY, seed=7)
    assert script.report(expected, script.scenario_entries(TINY, seed=7)) == 0
    assert script.report(expected, script.scenario_entries(TINY, seed=8)) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == f"0 of {len(expected)} entries differ"
    named = {line.split()[1].rstrip(":") for line in printed[1:] if line.startswith("differs")}
    # the bypass link's Eb and rotation are fixed; its draws and variances follow the seed
    assert named == {"run/tiny/workers-1", "run/tiny/workers-2", "variances/tiny"}
    assert printed[-1] == f"3 of {len(expected)} entries differ"

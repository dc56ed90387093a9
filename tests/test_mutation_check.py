"""The mutation-check script's plumbing: a mutant its tests kill, and one
whose text is no longer in the source."""

import importlib.util
import pathlib

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "mutation_check.py"


def test_reports_killed_and_stale_mutants():
    spec = importlib.util.spec_from_file_location("mutation_check", _SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    tests = ("tests/test_harness.py", "-k", "symbol_draw or sources_match")
    killed = next(m for m in script.MUTANTS if m.name == "draw-big-endian-words")
    stale = script.Mutant("stale", "harness.py", "text that is in no source file", "", tests)
    assert script.check([killed._replace(tests=tests), stale]) == {
        "draw-big-endian-words": "killed", "stale": "stale"}

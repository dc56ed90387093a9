#!/usr/bin/env python3
"""Check that the fast tests kill every named mutant of the package source.

    python scripts/mutation_check.py             # every mutant
    python scripts/mutation_check.py NAME ...    # the named ones

Each mutant is one exact text substitution in one file of src/mcmccdma.
For each, src is copied to a temporary directory, the text is replaced,
and the mutant's pytest selection runs from the repository root against
the copy through PYTHONPATH (with pytest's own pythonpath setting, which
points at the tree's src, cleared).  A mutant is

  killed    when its tests fail,
  survived  when they pass,
  stale     when its text does not occur exactly once in the source.

Every selection first runs once on an unmutated copy and must pass there,
so that a broken selection is not read as a kill.  The exit code is 1 when
any mutant survives or is stale, and 2 when a selection fails unmutated.

Keep the selections to fast tests (not tests/test_acceptance.py).  A
change that adds a fast path adds its mutants to MUTANTS.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str           # relative to src/mcmccdma
    old: str
    new: str
    tests: tuple        # pytest arguments, run from the repository root


_DRAW_TESTS = ("tests/test_harness.py", "-k", "symbol_draw")
_SPLIT_TESTS = ("tests/test_harness.py", "-k", "sources_match")

MUTANTS = (
    Mutant("draw-big-endian-words", "harness.py",
           'astype("<u8", copy=False)', 'astype(">u8", copy=False)', _DRAW_TESTS),
    Mutant("multipath-mask-on-path-0", "harness.py",
           "mask[0, 0, 0, 1:, 1] = 1.0", "mask[0, 0, 0, 0:, 1] = 1.0", _SPLIT_TESTS),
    Mutant("inter-substream-mask-on-carrier-2", "harness.py",
           "mask[0, 1:, 0, :, 2] = 1.0", "mask[0, 1:, 1, :, 2] = 1.0", _SPLIT_TESTS),
    Mutant("multi-user-from-user-3", "harness.py",
           "mask[1:, ..., 4] = 1.0", "mask[2:, ..., 4] = 1.0", _SPLIT_TESTS),
    Mutant("calibration-integer-draw", "harness.py",
           "symbols = _draw_symbols(rng, (_CALIBRATION_SYMBOLS, cfg.substreams, cfg.carriers))",
           "symbols = 2 * rng.integers(0, 2, size=(_CALIBRATION_SYMBOLS, cfg.substreams,"
           " cfg.carriers)) - 1",
           ("tests/test_harness.py", "-k", "random_block_matches_sample_chain")),
)


def _passes(src: pathlib.Path, tests: tuple) -> bool:
    """Whether the pytest selection passes against the package in src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", "pythonpath=", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def check(mutants) -> dict:
    """{mutant name: "killed" | "survived" | "stale"} for each mutant.
    Raises RuntimeError when a selection fails on the unmutated source."""
    results = {}
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as tmp:
        copy = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        for tests in dict.fromkeys(m.tests for m in mutants):
            if not _passes(copy, tests):
                raise RuntimeError(f"selection {' '.join(tests)} fails on the unmutated source")
        for mutant in mutants:
            target = copy / "mcmccdma" / mutant.path
            original = target.read_text()
            if original.count(mutant.old) != 1:
                results[mutant.name] = "stale"
                continue
            target.write_text(original.replace(mutant.old, mutant.new))
            try:
                results[mutant.name] = "survived" if _passes(copy, mutant.tests) else "killed"
            finally:
                target.write_text(original)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    mutants = [by_name[name] for name in args.names] or list(MUTANTS)
    try:
        results = check(mutants)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for name, outcome in results.items():
        print(f"{outcome:8s} {name}")
    return 0 if all(outcome == "killed" for outcome in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

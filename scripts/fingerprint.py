#!/usr/bin/env python3
"""Fingerprint what the package computes at a fixed seed, so that a change
can show which bytes and bits it moved and which it left alone.

    PYTHONPATH=src python scripts/fingerprint.py                # write FINGERPRINT.json
    PYTHONPATH=src python scripts/fingerprint.py --out FILE     # write FILE
    PYTHONPATH=src python scripts/fingerprint.py --check FILE   # exit 1 naming each difference

It fingerprints whichever mcmccdma is importable, so pointing PYTHONPATH at
another checkout's src fingerprints that one.

The entries, every scenario at master seed 7:

  run/<scenario>/workers-<n>   SHA-256 of run_scenario's CSV bytes on every
                               preset scenario at 2 Eb/N0 points x 2 blocks,
                               with 1 worker and with 2 (the pool forked
                               before the first block)
  prepare/<scenario>/eb, .../phase_offset
                               float-hex of the setup's calibration, taken
                               under the one-thread BLAS pin as a public
                               call takes it
  variances/<scenario>         repr of measure_variances on each bypass preset
  cli/decompose/<file>         SHA-256 of `simulate --preset system-comparison
                               --decompose` at 2 points x 2 blocks: the BER
                               CSV and the decomposition CSV
  cli/characterize-hpa         SHA-256 of `characterize-hpa` at its defaults

The digests depend on the BLAS build and the CPU's kernels, so compare a
file only with one written on the same machine and environment.  The whole
set takes about 6 s on a 2-core VM, most of it the tube's blocks.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib
import sys
import tempfile

from mcmccdma import harness
from mcmccdma.analysis import emit_csv
from mcmccdma.cli import main as cli_main
from mcmccdma.config import PRESETS

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 7
GRID = (6.0, 10.0)
BLOCKS = 2
# the canonical family names, without their figure aliases
FAMILIES = tuple(dict.fromkeys(PRESETS.values()))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def _forced_pool():
    """Let a run with workers > 1 fork its pool before its first block."""
    budget = harness._SERIAL_BUDGET_S
    harness._SERIAL_BUDGET_S = 0.0
    try:
        yield
    finally:
        harness._SERIAL_BUDGET_S = budget


def scenario_entries(scenario, seed: int = SEED) -> dict:
    """The run/, prepare/ and (bypass only) variances/ entries of one
    scenario at the given master seed."""
    scenario = dataclasses.replace(scenario, master_seed=seed)
    name = scenario.name
    short = dataclasses.replace(
        scenario, ebn0_grid=GRID, blocks_per_wave=BLOCKS,
        max_bits=BLOCKS * scenario.symbols_per_block * scenario.config.bits_per_symbol)
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "run.csv"
        for workers in (1, 2):
            with _forced_pool():
                emit_csv([harness.run_scenario(short, workers=workers)], path)
            entries[f"run/{name}/workers-{workers}"] = _digest(path.read_bytes())
    with harness._single_threaded_blas():
        runtime = harness._prepare(scenario)
    entries[f"prepare/{name}/eb"] = float(runtime.eb).hex()
    entries[f"prepare/{name}/phase_offset"] = float(runtime.phase_offset).hex()
    if scenario.hpa_mode == "bypass":
        entries[f"variances/{name}"] = repr(harness.measure_variances(scenario))
    return entries


def cli_entries() -> dict:
    """The cli/ entries: a decomposed preset run and the amplifier curves."""
    entries = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        tmp = pathlib.Path(tmp)
        config = tmp / "short.cfg"
        config.write_text(f"ebn0_grid = {','.join(map(str, GRID))}\n"
                          f"blocks_per_wave = {BLOCKS}\nmax_bits = 1\n")
        out = tmp / "ber.csv"
        code = cli_main(["simulate", "--preset", "system-comparison", "--config", str(config),
                         "--seed", str(SEED), "--out", str(out), "--decompose"])
        if code:
            raise RuntimeError(f"simulate --decompose exited {code}")
        for path in (out, tmp / "ber.csv.decomposition.csv"):
            entries[f"cli/decompose/{path.name}"] = _digest(path.read_bytes())
        curves = tmp / "curves.csv"
        if cli_main(["characterize-hpa", "--out", str(curves)]):
            raise RuntimeError("characterize-hpa failed")
        entries["cli/characterize-hpa"] = _digest(curves.read_bytes())
    return entries


def fingerprint() -> dict:
    """Every entry, in a fixed order."""
    entries = {}
    for family in FAMILIES:
        for scenario in family():
            entries.update(scenario_entries(scenario))
    entries.update(cli_entries())
    return entries


def report(expected: dict, actual: dict) -> int:
    """Print each entry that differs, or that only one side has, and return
    the exit code: 0 when none."""
    every = expected.keys() | actual.keys()
    names = sorted(name for name in every if expected.get(name) != actual.get(name))
    for name in names:
        print(f"differs  {name}: {expected.get(name, '(absent)')} -> "
              f"{actual.get(name, '(absent)')}")
    print(f"{len(names)} of {len(every)} entries differ")
    return 1 if names else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--out", type=pathlib.Path, default=ROOT / "FINGERPRINT.json",
                      help="file to write (default FINGERPRINT.json at the repository root)")
    mode.add_argument("--check", type=pathlib.Path, metavar="FILE",
                      help="compare against FILE instead of writing")
    args = parser.parse_args(argv)
    actual = fingerprint()
    if args.check is not None:
        return report(json.loads(args.check.read_text()), actual)
    args.out.write_text(json.dumps(actual, indent=1) + "\n")
    print(f"wrote {len(actual)} entries to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

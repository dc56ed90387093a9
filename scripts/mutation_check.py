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
_BLOCK_DRAW_TESTS = ("tests/test_harness.py", "-k", "seeded_block_draws")
_BATCH_TESTS = ("tests/test_harness.py", "-k", "not_depend_on_its_batch")
_SPLIT_TESTS = ("tests/test_harness.py", "-k", "sources_match")
_GROUP_TESTS = ("tests/test_harness.py", "-k", "sources_match or column_outputs")
_TABLE_TESTS = ("tests/test_receiver.py", "-k", "matches_slice_products")
_PRODUCT_TESTS = ("tests/test_receiver.py", "-k", "expanded_tables or work_arrays")
_ENGINE_TESTS = ("tests/test_harness.py", "-k", "noiseless_outputs_match_sample_chain")
_TUBE_TESTS = ("tests/test_harness.py", "-k", "per_user_chain and saleh")
_LIMITER_TESTS = ("tests/test_harness.py", "-k", "per_user_chain and linearized")
_BOUND_TESTS = ("tests/test_harness.py", "-k", "clip_search_skips")
_GRAM_TESTS = ("tests/test_receiver.py", "tests/test_harness.py", "-k",
               "gram or own_table or sources_match")

MUTANTS = (
    Mutant("draw-big-endian-words", "harness.py",
           'np.asarray(words, dtype="<u8")', 'np.asarray(words, dtype=">u8")', _DRAW_TESTS),
    # the block's steps: its draws, in the one loop that calls its
    # generator, its noise, and the decomposition's noise
    Mutant("block-seed-indices-swapped", "harness.py",
           "[scenario.master_seed, 0, point_index, block_index]",
           "[scenario.master_seed, 0, block_index, point_index]", _BLOCK_DRAW_TESTS),
    Mutant("block-symbols-before-channel", "harness.py",
           "        if exponentials is not None:\n"
           "            rng.standard_exponential(out=exponentials[at])\n"
           "        rng.random(out=uniforms[at])\n"
           "        words[at] = rng.bit_generator.random_raw(words.shape[1])\n",
           "        words[at] = rng.bit_generator.random_raw(words.shape[1])\n"
           "        if exponentials is not None:\n"
           "            rng.standard_exponential(out=exponentials[at])\n"
           "        rng.random(out=uniforms[at])\n", _BLOCK_DRAW_TESTS),
    Mutant("block-noise-before-symbols", "harness.py",
           "        words[at] = rng.bit_generator.random_raw(words.shape[1])\n"
           "        if normals is not None:\n"
           "            rng.standard_normal(out=normals[at])\n",
           "        if normals is not None:\n"
           "            rng.standard_normal(out=normals[at])\n"
           "        words[at] = rng.bit_generator.random_raw(words.shape[1])\n",
           _BLOCK_DRAW_TESTS),
    Mutant("block-skips-its-noise", "harness.py",
           "    if normals is not None:\n        z += ",
           "    if False:\n        z += ",
           ("tests/test_harness.py", "-k", "noise_per_correlator_output")),
    # a batch's blocks: each its own gains, noise generator and symbols, and
    # one block per batch with an amplifier
    Mutant("batch-gains-of-first-block", "receiver.py",
           "path_gains = gains[..., None, :,", "path_gains = gains[:1, None, :,", _BATCH_TESTS),
    Mutant("batch-noise-from-one-generator", "harness.py",
           "        if normals is not None:\n            rng.standard_normal(out=normals[at])\n",
           "        if normals is not None and at == 0:\n"
           "            rng.standard_normal(out=normals)\n", _BATCH_TESTS),
    Mutant("batch-decides-against-first-block-symbols", "harness.py",
           "symbols[:, 0, runtime.warmup:]",
           "symbols[:1, 0, runtime.warmup:].repeat(len(z), axis=0)", _BATCH_TESTS),
    Mutant("batch-cap-ignores-amplifier", "harness.py",
           "        if self.amplifier is not None:\n            return 1\n", "", _BATCH_TESTS),
    Mutant("noise-scale-wrong-point", "harness.py",
           "noise_scales[point_index]", "noise_scales[0]",
           ("tests/test_harness.py", "-k", "own_noise_variance")),
    Mutant("decomposition-noise-scale", "harness.py",
           "correlator_noise(scale, runtime.noise_factor[:1, :1],",
           "correlator_noise(scale, 1.1 * runtime.noise_factor[:1, :1],",
           ("tests/test_receiver.py", "-k", "awgn_variance_matches_analytic")),
    Mutant("decomposition-noise-row-dropped", "harness.py",
           "            z[-1, start:stop] = correlator_noise(", "            _ = correlator_noise(",
           ("tests/test_harness.py", "-k", "linear_scenario_variances")),
    Mutant("calibration-integer-draw", "harness.py",
           "frame = _symbols_from_words(rng.bit_generator.random_raw(_symbol_words(shape)), shape)",
           "frame = 2 * rng.integers(0, 2, size=shape) - 1",
           ("tests/test_harness.py", "-k", "random_block_matches_sample_chain")),
    # the interference split
    Mutant("multipath-mask-on-path-0", "harness.py",
           "mask[0, 0, 1:, 1] = 1.0", "mask[0, 0, 0:, 1] = 1.0", _SPLIT_TESTS),
    Mutant("inter-substream-mask-on-carrier-2", "harness.py",
           "mask[1:, 0, :, 2] = 1.0", "mask[1:, 1, :, 2] = 1.0", _SPLIT_TESTS),
    Mutant("multi-user-from-user-3", "harness.py",
           'np.einsum("kwslc,kl->kwsc", column[1:], gains[1:]),',
           'np.einsum("kwslc,kl->kwsc", column[1:], gains[1:])'
           " * (np.arange(1, cfg.users) >= 2)[:, None, None, None],", _SPLIT_TESTS),
    Mutant("split-drops-previous-symbol", "harness.py",
           "        if windows == 2:\n            per_user[first:last, 1:]",
           "        if False:\n            per_user[first:last, 1:]", _SPLIT_TESTS),
    Mutant("split-drops-last-partial-group", "harness.py",
           "for first in range(0, users, group):",
           "for first in range(0, users - users % group, group):", _GROUP_TESTS),
    Mutant("user-codes-rolled-backwards", "harness.py",
           "starts = (-np.arange(cfg.users)", "starts = (np.arange(cfg.users)",
           ("tests/test_harness.py", "-k", "user_codes")),
    Mutant("slot-tables-window-at-equal-chip", "receiver.py",
           "window = lag > chip", "window = lag >= chip", _GRAM_TESTS),
    # the table build
    Mutant("previous-window-lag-off-by-one", "receiver.py",
           "np.where(firsts < delay, order, 0)", "np.where(firsts < delay, order + 1, 0)",
           _TABLE_TESTS),
    Mutant("delay-phase-on-target-carrier", "receiver.py",
           "phase[:, None, None, None, :, None] / n_samp",
           "phase[:, None, None, None, None, :] / n_samp", _TABLE_TESTS),
    Mutant("toeplitz-conjugate-dropped", "receiver.py",
           "x[..., 1:].conj()", "x[..., 1:]", _TABLE_TESTS),
    Mutant("delay-phase-sign", "receiver.py",
           "phase = circle[-order * np.outer(", "phase = circle[order * np.outer(", _TABLE_TESTS),
    Mutant("no-delayed-cuts", "receiver.py",
           "np.concatenate((bounds, (bounds[:-1] + delay) % n_samp))", "np.concatenate((bounds,))",
           _TABLE_TESTS),
    Mutant("full-chip-partial-sums", "receiver.py",
           "partial[np.diff(cuts) - 1]", "partial[-1]", _TABLE_TESTS),
    Mutant("unreversed-toeplitz", "receiver.py",
           "sliding_window_view(flipped, n_car, axis=-1)[..., ::-1, :]",
           "sliding_window_view(flipped, n_car, axis=-1)", _TABLE_TESTS),
    # the block's one Walsh spreading, and the block product
    Mutant("walsh-transform-untransposed-rows", "txchain.py",
           "np.matmul(walsh_rows.T, d.reshape(*lead, n_sub, -1),",
           "np.matmul(walsh_rows, d.reshape(*lead, n_sub, -1),", _PRODUCT_TESTS),
    Mutant("reversed-walsh-repeat", "txchain.py",
           "np.matmul(walsh_rows.T, d.reshape(*lead, n_sub, -1),",
           "np.matmul(walsh_rows[:, ::-1].T, d.reshape(*lead, n_sub, -1),", _ENGINE_TESTS),
    Mutant("amplifier-rows-symbol-major", "hpa.py",
           "np.multiply(chips.transpose(0, 2, 1, 3), np.sqrt(2.0), out=b)",
           "np.multiply(chips.reshape(b.shape), np.sqrt(2.0), out=b)",
           ("tests/test_harness.py", "-k", "per_user_chain")),
    Mutant("conjugated-gains", "receiver.py",
           "None, None, None, :]\n", "None, None, None, :].conj()\n", _PRODUCT_TESTS),
    Mutant("stale-first-window-of-a-lag", "receiver.py",
           "            stacked[..., :lag, 0, :, lag, :] = 0.0\n", "", _PRODUCT_TESTS),
    Mutant("linear-term-loses-1/N", "harness.py",
           "runtime.linear_gain * np.sqrt(2.0) * n_samp",
           "runtime.linear_gain * np.sqrt(2.0)", _ENGINE_TESTS),
    Mutant("tube-forms-linear-term", "harness.py",
           "    if runtime.linear_gain:\n", "    if True:\n",
           ("tests/test_harness.py", "-k", "skips_linear_product")),
    # the amplifier paths
    Mutant("calibration-phase-slip", "hpa.py",
           "rotation = float(np.angle(cross))",
           "rotation = float(np.angle(cross)) + 1e-9",
           _TUBE_TESTS),
    Mutant("tube-drops-a-path", "hpa.py",
           "for frame, gain in zip(delayed, gains.T):",
           "for frame, gain in zip(delayed[:1], gains.T):", _TUBE_TESTS),
    Mutant("limiter-drops-a-path", "hpa.py",
           "for path, gain in enumerate(gains[user].T):",
           "for path, gain in enumerate(gains[user].T[:1]):", _LIMITER_TESTS),
    Mutant("limiter-conjugated-delay-phase", "hpa.py",
           "delay_phases=np.exp(-1j * step", "delay_phases=np.exp(1j * step", _LIMITER_TESTS),
    Mutant("limiter-window-shift-lost", "hpa.py",
           "+ np.take(grid.bin_windows[path], cells) + window", "+ window", _LIMITER_TESTS),
    Mutant("limiter-spans-not-split", "hpa.py",
           "heads = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))",
           "heads = np.zeros(1, dtype=np.intp)", _LIMITER_TESTS),
    Mutant("limiter-chunk-cells-reordered", "hpa.py",
           "yield chip, row[first:first + _CELL_CHUNK], cell[first:first + _CELL_CHUNK]",
           "yield chip, row[first:first + _CELL_CHUNK], cell[first:first + _CELL_CHUNK][::-1]",
           _BOUND_TESTS),
    Mutant("limiter-no-short-cell-mask", "hpa.py",
           "            power *= np.arange(_CELL_SAMPLES) < grid.lengths[cells, None]\n", "",
           _LIMITER_TESTS),
    Mutant("calibration-unkept-mask-dropped", "hpa.py",
           "grid.energy_terms[:, lo:hi])[~kept[:, lo:hi]])", "grid.energy_terms[:, lo:hi]))",
           ("tests/test_harness.py", "-k", "limiter_eb_is_the_direct_sum")),
    Mutant("limiter-drive-input-power", "hpa.py",
           "g = _backed_off_scale(saleh.saturation_output_power,",
           "g = _backed_off_scale(saleh.saturation_input_power,",
           ("tests/test_hpa.py", "-k", "back_off_their_saturation")),
    Mutant("peak-bound-drops-last-lag", "hpa.py",
           "for term in rho[1:]:", "for term in rho[1:-1]:", _BOUND_TESTS),
    Mutant("cell-bound-no-bernstein-term", "hpa.py",
           "    bound += (0.5 * ((n_car - 1) * grid.half_width) ** 2) * peak[:, None]\n", "",
           _BOUND_TESTS),
    Mutant("cell-bound-half-slope", "hpa.py",
           "slope_terms=-2.0 * middle * step * k", "slope_terms=-1.0 * middle * step * k",
           _BOUND_TESTS),
    # the cell bound through the rows' autocorrelations, and the per-cell tables
    Mutant("cell-bound-no-slope-term", "hpa.py",
           "    bound += np.abs(slope, out=slope)\n", "", _BOUND_TESTS),
    Mutant("cell-bound-cos-sin-swapped", "hpa.py",
           "2.0 * np.cos(k * phases))),\n        slope_terms=-2.0 * middle * step * k * np.sin(",
           "2.0 * np.sin(k * phases))),\n        slope_terms=-2.0 * middle * step * k * np.cos(",
           _BOUND_TESTS),
    Mutant("cell-bound-cos-loses-2", "hpa.py",
           "2.0 * np.cos(k * phases)", "np.cos(k * phases)", _BOUND_TESTS),
    Mutant("cells-mask-unfolded", "hpa.py",
           " * inside.view(np.int8),", ",", _LIMITER_TESTS),
    Mutant("cells-user-1-chips-for-all", "hpa.py",
           "user * grid.starts.size + cells", "cells", _LIMITER_TESTS),
    Mutant("cell-sums-not-reset", "hpa.py",
           "            total.fill(0.0)\n", "",
           ("tests/test_harness.py", "-k", "reused_cell_arrays")),
    Mutant("cells-no-delay-cuts", "hpa.py",
           "np.concatenate((bounds - delays, bounds + n_samp - delays))",
           "np.concatenate((bounds - 0 * delays, bounds + n_samp - 0 * delays))", _BOUND_TESTS),
    Mutant("cells-unique-for-sort", "hpa.py",
           "cuts = np.sort(np.clip(", "cuts = np.unique(np.clip(",
           ("tests/test_public_api.py", "-k", "without_scipy")),
    Mutant("obo-abs-squared", "hpa.py",
           "p, _ = _modulus_squared(np.asarray(samples))",
           "p = np.abs(np.asarray(samples)) ** 2",
           ("tests/test_hpa.py", "-k", "reject_nonfinite and obo")),
    Mutant("reversed-previous-window-shift", "receiver.py",
           "stacked[..., :lag, 1:, :, lag, :] = chips[..., order - lag:, :-1, :, 0, :]",
           "stacked[..., :lag, :-1, :, lag, :] = chips[..., order - lag:, 1:, :, 0, :]",
           _PRODUCT_TESTS),
    # the process around the blocks
    Mutant("stop-floor-off-by-a-wave", "harness.py",
           "blocks >= scenario.min_blocks", "blocks > scenario.min_blocks",
           ("tests/test_harness.py", "-k", "reaches_min_blocks")),
    Mutant("run-blocks-unpinned", "harness.py",
           "    with _single_threaded_blas():\n        runner = ", "    if True:\n        runner = ",
           ("tests/test_harness.py", "-k", "blocks_run_single_threaded")),
    Mutant("prepare-unpinned", "harness.py",
           "    with _single_threaded_blas():\n        correlation = ",
           "    if True:\n        correlation = ",
           ("tests/test_harness.py", "-k", "setup_is_pinned")),
    Mutant("eager-multiprocessing-import", "harness.py",
           "import ctypes\n", "import ctypes\nimport multiprocessing\n",
           ("tests/test_public_api.py", "-k", "without_scipy")),
    # the theory overlay
    Mutant("theory-keeps-reference-gain", "analysis.py",
           "    if scenario.fading:\n        s = s / ", "    if False:\n        s = s / ",
           ("tests/test_analysis.py", "tests/test_run_figures.py", "-k",
            "reference_gain or mean_path_gain")),
    # the input checks
    Mutant("lfsr-no-early-repeat-check", "codes.py",
           "        if state == 1 and i != period - 1:\n", "        if False:\n",
           ("tests/test_codes.py", "-k", "period_dividing")),
    Mutant("saleh-saturation-check-dropped", "hpa.py",
           "        if not all(0.0 < p < math.inf for p in powers):\n", "        if False:\n",
           ("tests/test_hpa.py", "-k", "saturation")),
    Mutant("scenario-drive-unchecked", "config.py",
           '        if self.hpa_mode != "bypass":\n            amplifier_drive(self)\n', "",
           ("tests/test_cli.py", "-k", "drive_without_finite_scale")),
    Mutant("limiter-roundoff-unbounded", "hpa.py",
           "    if roundoff > _LIMITER_ROUNDOFF * saleh.saturation_output:\n", "    if False:\n",
           ("tests/test_cli.py", "tests/test_harness.py", "-k", "round_off or drive_bound")),
    Mutant("setup-noise-check-dropped", "harness.py",
           "        except ValueError as exc:\n            raise ConfigError(",
           "        except ConfigError as exc:\n            raise ConfigError(",
           ("tests/test_cli.py", "-k", "point_without_noise_level")),
    Mutant("noise-density-unbounded", "channel.py",
           "    if not 0.0 < n0 < np.inf:\n", "    if False:\n",
           ("tests/test_receiver.py", "-k", "ebn0_beyond_float_range")),
    Mutant("bool-field-check-dropped", "txchain.py",
           '        if kind == "bool" and not isinstance(value, bool):\n'
           '            raise ValueError(f"{f.name} must be true or false, got {value!r}")\n', "",
           ("tests/test_harness.py", "tests/test_hpa.py", "-k", "mistyped")),
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

"""The package's public surface: what `from mcmccdma import *` gives, and
what importing it loads."""

import ast
import inspect
import os
import subprocess
import sys

import mcmccdma
from mcmccdma import analysis, channel, codes, config, harness, hpa, receiver, txchain

# Names the per-user sample chain needed and the engines no longer do, the
# wrappers around plain code and sample arrays, surface nothing read, the
# engine's names that moved to the module of their layer, the symbol
# duration and the branch power, which cancelled from every output, the
# sample-level reference chain, which moved to tests/reference_chain.py, the
# runtime's fields and the BLAS flag that no program code read, the
# vectorized erfc that only tests called, the per-block noise density,
# which the setup's noise_scale replaced, the bits floor, which
# min_blocks states since every block decides the same bits, the one-block
# steps and pool task, which batches of blocks replaced, and the symbol
# draw, which became a former of the raw words that _batch_draws, the
# calibration frame and the decomposition draw (_symbols_from_words).
# _draw_symbols was read by _batch_draws, _prepare and
# estimate_interference_variances, and in tests by _reference_calibration,
# _direct_limiter_eb, the test_symbol_draw_* tests, test_seeded_block_draws,
# the limiter's bound and cell-array tests and the unclipped-limiter test.
# _BLAS_PINNED stays retired as a name: since the setup pins BLAS itself,
# a pin inside another reads _BLAS_HELD, its successor.
# _Split, the decomposition's weights and buffer, which _source_split now
# returns as a tuple of arrays, was read by _source_outputs, and in tests by
# test_decomposition_identity, test_sources_match_sample_chain and
# tests/test_receiver.py's _source_setup.
_RETIRED = {
    analysis: ("erfc",),
    channel: ("PathTap", "NoiseSpec", "add_awgn", "propagate_samples", "_noise_density"),
    channel.ChannelRealization: ("n_paths",),
    codes: ("WalshMatrix", "PnSequence", "periodic_correlation"),
    receiver: ("recover_bits", "BitDecisions", "correlate_slots"),
    txchain: ("UserSymbols", "multicode_spread", "BasebandFrame", "serial_to_parallel",
              "parallel_to_serial", "walsh_chip_indices", "subcarrier_frequency",
              "modulate_user", "slot_signatures", "modulation_table", "_pn_chips"),
    hpa: ("set_operating_point", "limit_envelope", "OperatingPoint", "apply_hpa",
          "operating_point_for_power", "envelope_excess", "_carrier_coefficients"),
    harness: ("_clip_power", "_shift_spacing", "_echo_value", "HPA_MODES", "PRESETS",
              "_CellGrid", "_cell_grid", "_carrier_coefficients", "_waveform_tiles",
              "_autocorrelations", "_peak_power_bound", "_cell_power_bound", "_clipped_cells",
              "_formed_cells", "_driven_coefficients", "_tube_correlations",
              "_excess_correlations", "_add_cell_correlations", "_SLAB_SAMPLES",
              "_CELL_SAMPLES", "_CELL_CHUNK", "_linear_eb", "limiter_factor", "_calibrate",
              "_correlator_noise", "_BLAS_PINNED", "_simulate_block", "_block_draws",
              "_worker_block", "_draw_symbols", "_Split"),
    harness._Runtime: ("pn_chips", "slot_column"),
    txchain.LinkConfig: ("walsh_aligned", "symbol_duration", "sample_rate", "power"),
    config.Scenario: ("min_bits",),
}

# The whole parameter lists of three public calls, which take the theory's
# grid and link from the Scenario, the feedback taps from PRIMITIVE_TAPS and
# the amplifier's base from the SalehParams defaults, of the blocks' entry
# point, which takes a range of blocks, of the one loop that draws a batch's
# variates, and of the channel, symbol and noise producers it feeds, which
# take the variates it drew, with any leading axes, not a generator, and the
# noise scale the setup formed, not an Eb/N0, and of the decomposition's two
# entry points.
_SIGNATURES = {
    analysis.theoretical_curve: ("variances", "scenario", "reference_ebn0_db"),
    codes.generate_msequence: ("degree",),
    config.saleh_from_keys: ("keys",),
    harness._simulate_blocks: ("runtime", "point_index", "block_ids"),
    channel.correlator_noise: ("scale", "factor", "normals"),
    channel.draw_channel: ("exponentials", "uniforms", "decay_db"),
    harness._batch_draws: ("runtime", "point_index", "block_ids"),
    harness._symbols_from_words: ("words", "shape"),
    # perfbench/call.py reads their n_symbols and chunk defaults through inspect
    harness.measure_variances: ("scenario", "ebn0_db", "n_symbols"),
    harness.estimate_interference_variances: ("runtime", "channel", "ebn0_db", "rng",
                                              "n_symbols", "chunk"),
}

# The scenario layer and the amplifiers, by the module that defines them:
# the scenarios, their presets and config keys, the records with their CSV
# form, and what each amplifier adds to a block and to the calibration.
_HOMES = {
    config: ("Scenario", "preset", "leaf_fields", "scenario_echo", "scenario_from_keys"),
    analysis: ("BerRecord", "RunReport", "emit_csv", "parse_csv"),
    hpa: ("TubeState", "LimiterState", "prepare_amplifier", "amplifier_correlations",
          "amplifier_calibration"),
}


def test_exports_resolve_once_and_retired_names_are_gone():
    names = mcmccdma.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(mcmccdma, name) is not None, name
    for module, retired in _RETIRED.items():
        for name in retired:
            assert name not in names
            assert not hasattr(mcmccdma, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            # a dataclass field without a default is no class attribute
            assert name not in getattr(module, "__dataclass_fields__", {}), name
    for function, parameters in _SIGNATURES.items():
        assert tuple(inspect.signature(function).parameters) == parameters, function.__name__


def test_scenario_layer_lives_outside_the_engine():
    """config and analysis define the scenario layer, and hpa the
    amplifiers; config reads a key file without importing the engine."""
    for module, names in _HOMES.items():
        for name in names:
            assert getattr(module, name).__module__ == module.__name__, name
    imported = {node.module for node in ast.walk(ast.parse(inspect.getsource(config)))
                if isinstance(node, ast.ImportFrom)}
    assert "harness" not in imported and "mcmccdma.harness" not in imported


_IMPORT_PATH_PROBE = """
import dataclasses
import sys
import mcmccdma
from mcmccdma import harness
from mcmccdma.analysis import theoretical_curve
from mcmccdma.config import Scenario
from mcmccdma.receiver import InterferenceVariances
from mcmccdma.txchain import LinkConfig

scenario = Scenario(name="probe", config=LinkConfig(users=2, pn_length=7))
runtime = harness._prepare(scenario)
before = set(sys.modules)
harness._simulate_blocks(runtime, 0, range(2))
# the amplifier modes' setup (the limiter's cell grid, the calibrations)
# and blocks, at 2 paths and a back-off at which the limiter clips
config = LinkConfig(users=2, substreams=2, carriers=2, walsh_order=2, pn_length=7)
for mode in ("saleh_pd", "saleh"):
    amplified = harness._prepare(Scenario(name="probe", config=config, paths=2, hpa_mode=mode,
                                          ibo_db=0.0))
    harness._simulate_blocks(amplified, 0, range(2))
added = sorted(set(sys.modules) - before)
variances = InterferenceVariances(desired_power=1.0, multipath=0.0, inter_substream=0.0,
                                  inter_carrier=0.0, multi_user=0.1, noise=0.2, n_symbols=10)
theoretical_curve(variances, dataclasses.replace(scenario, fading=True, ebn0_grid=(0.0, 10.0)),
                  0.0)
# a one-worker run forks no pool, so it need not load multiprocessing
harness.run_scenario(Scenario(name="probe", config=config, paths=2, ebn0_grid=(4.0,),
                              max_bits=64), workers=1)
print(["scipy" in sys.modules, added, "multiprocessing" in sys.modules])
"""


def test_engine_and_theory_run_without_scipy():
    """The package needs numpy alone: no scipy on the import path or in the
    theory, and neither a block nor an amplifier mode's setup loads a module
    of its own (numpy.random, which numpy loads on first use, is imported
    with the package; np.unique would load numpy.ma).  multiprocessing is
    loaded only when a pool forks, which a one-worker run never does."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mcmccdma.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PATH_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[False, [], False]"

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
# wrappers around plain code and sample arrays, and surface nothing read.
_RETIRED = {
    channel: ("PathTap", "NoiseSpec", "add_awgn"),
    channel.ChannelRealization: ("n_paths",),
    codes: ("WalshMatrix", "PnSequence", "periodic_correlation"),
    receiver: ("recover_bits", "BitDecisions"),
    txchain: ("UserSymbols", "multicode_spread", "BasebandFrame", "serial_to_parallel",
              "parallel_to_serial", "walsh_chip_indices", "subcarrier_frequency"),
    hpa: ("set_operating_point", "limit_envelope", "OperatingPoint", "apply_hpa",
          "operating_point_for_power", "envelope_excess"),
    harness: ("_clip_power", "_shift_spacing", "_echo_value", "HPA_MODES", "PRESETS"),
}

# The scenario layer, by the module that defines it: the scenarios, their
# presets and config keys, and the records with their CSV form.
_HOMES = {
    config: ("Scenario", "preset", "leaf_fields", "scenario_echo", "scenario_from_keys"),
    analysis: ("BerRecord", "RunReport", "emit_csv", "parse_csv"),
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
    assert "out_len" not in inspect.signature(channel.propagate_samples).parameters


def test_scenario_layer_lives_outside_the_engine():
    """config and analysis define the scenario layer, and config reads a key
    file without importing the engine."""
    for module, names in _HOMES.items():
        for name in names:
            assert getattr(module, name).__module__ == module.__name__, name
    imported = {node.module for node in ast.walk(ast.parse(inspect.getsource(config)))
                if isinstance(node, ast.ImportFrom)}
    assert "harness" not in imported and "mcmccdma.harness" not in imported


_IMPORT_PATH_PROBE = """
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
harness._simulate_block(runtime, 0, 0, 4.0)
# the amplifier modes' setup (the limiter's cell grid, the calibrations)
# and blocks, at 2 paths and a back-off at which the limiter clips
config = LinkConfig(users=2, substreams=2, carriers=2, walsh_order=2, pn_length=7)
for mode in ("saleh_pd", "saleh"):
    amplified = harness._prepare(Scenario(name="probe", config=config, paths=2, hpa_mode=mode,
                                          ibo_db=0.0))
    harness._simulate_block(amplified, 0, 0, 4.0)
added = sorted(set(sys.modules) - before)
variances = InterferenceVariances(desired_power=1.0, multipath=0.0, inter_substream=0.0,
                                  inter_carrier=0.0, multi_user=0.1, noise=0.2, n_symbols=10)
theoretical_curve(variances, (0.0, 10.0), 0.0, fading=True)
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

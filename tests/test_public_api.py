"""The package's public surface: what `from mcmccdma import *` gives, and
what importing it loads."""

import os
import subprocess
import sys

import mcmccdma
from mcmccdma import channel, codes, hpa, receiver, txchain

# Names the per-user sample chain needed and the engines no longer do, and
# the wrappers around plain code and sample arrays.
_RETIRED = {
    channel: ("PathTap", "NoiseSpec"),
    codes: ("WalshMatrix", "PnSequence"),
    receiver: ("recover_bits", "BitDecisions"),
    txchain: ("UserSymbols", "multicode_spread", "BasebandFrame"),
    hpa: ("set_operating_point", "limit_envelope", "OperatingPoint", "apply_hpa",
          "operating_point_for_power"),
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


_IMPORT_PATH_PROBE = """
import sys
import mcmccdma
from mcmccdma import harness
from mcmccdma.analysis import theoretical_curve
from mcmccdma.receiver import InterferenceVariances
from mcmccdma.txchain import LinkConfig

scenario = harness.Scenario(name="probe", config=LinkConfig(users=2, pn_length=7))
runtime = harness._prepare(scenario)
before = set(sys.modules)
harness._simulate_block(runtime, 0, 0, 4.0)
added = sorted(set(sys.modules) - before)
variances = InterferenceVariances(desired_power=1.0, multipath=0.0, inter_substream=0.0,
                                  inter_carrier=0.0, multi_user=0.1, noise=0.2, n_symbols=10)
theoretical_curve(variances, (0.0, 10.0), 0.0, fading=True)
print(["scipy" in sys.modules, added])
"""


def test_engine_and_theory_run_without_scipy():
    """The package needs numpy alone: no scipy on the import path or in the
    theory, and a block loads no module of its own (numpy.random, which
    numpy loads on first use, is imported with the package)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mcmccdma.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PATH_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[False, []]"

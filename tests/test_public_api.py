"""The package's public surface: what `from mcmccdma import *` gives."""

import mcmccdma
from mcmccdma import channel, hpa, receiver, txchain

# Names the per-user sample chain needed and the engines no longer do.
_RETIRED = {
    channel: ("PathTap", "NoiseSpec"),
    receiver: ("recover_bits", "BitDecisions"),
    txchain: ("UserSymbols", "multicode_spread"),
    hpa: ("set_operating_point", "limit_envelope"),
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

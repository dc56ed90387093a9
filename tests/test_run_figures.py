"""The figure script's theoretical overlay."""

import importlib.util
import math
import pathlib

import pytest

from mcmccdma.harness import measure_variances, preset

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_figures.py"


@pytest.fixture(scope="module")
def run_figures():
    spec = importlib.util.spec_from_file_location("run_figures", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mean_gamma(ber: float) -> float:
    """The mean ratio whose Rayleigh average gives this BER:
    ber = (1 - sqrt(g / (1 + g))) / 2 inverted."""
    u = 1.0 - 2.0 * ber
    return u * u / (1.0 - u * u)


def test_fading_overlay_starts_from_the_mean_path_gain(run_figures):
    """users-1 has one path and no interference, so the overlay's mean
    ratio is Eb/N0 once the draw's reference gain (1.23 at the preset
    seed) is divided out of the desired power."""
    scenario = next(s for s in preset("user-sweep") if s.name == "users-1")
    assert scenario.fading
    assert abs(measure_variances(scenario).reference_gain - 1.0) > 0.15
    for record in run_figures.theory_overlay(scenario):
        ebn0 = 10.0 ** (record.ebn0_db / 10.0)
        assert math.isclose(_mean_gamma(record.ber), ebn0, rel_tol=0.10), record.ebn0_db

"""Baseband simulator and analysis toolkit for multi-code multi-carrier
CDMA links driven through a nonlinear traveling-wave tube amplifier.

The transmit chain splits each user's bit stream onto orthogonal code
channels and subcarriers, spreads with a long pseudo-noise sequence, and
optionally predistorts before the amplifier.  The receiver is a bank of
coherent correlators.  Monte Carlo runs and Gaussian-approximation theory
curves share one record format and CSV schema.
"""

from .analysis import (
    CSV_HEADER,
    BerRecord,
    RunReport,
    binomial_ci95,
    conditional_ber,
    emit_csv,
    fading_averaged_ber,
    parse_csv,
    theoretical_curve,
)
from .channel import (
    ChannelRealization,
    draw_channel,
    path_power_profile,
)
from .codes import (
    PRIMITIVE_TAPS,
    generate_msequence,
    generate_walsh,
)
from .config import (
    ConfigError,
    Scenario,
    load_config,
    preset,
    saleh_from_keys,
    scenario_echo,
    scenario_from_keys,
)
from .harness import estimate_interference_variances, measure_variances, run_scenario
from .hpa import (
    SalehParams,
    amam,
    ampm,
    amplify_samples,
    apply_predistorter,
    compute_obo,
    input_scale_for_power,
    pd_amplitude,
)
from .receiver import SOURCE_NAMES, InterferenceVariances
from .txchain import LinkConfig

__version__ = "0.1.0"

__all__ = [
    "BerRecord",
    "CSV_HEADER",
    "ChannelRealization",
    "ConfigError",
    "InterferenceVariances",
    "LinkConfig",
    "PRIMITIVE_TAPS",
    "RunReport",
    "SOURCE_NAMES",
    "SalehParams",
    "Scenario",
    "amam",
    "ampm",
    "amplify_samples",
    "apply_predistorter",
    "binomial_ci95",
    "compute_obo",
    "conditional_ber",
    "draw_channel",
    "emit_csv",
    "estimate_interference_variances",
    "fading_averaged_ber",
    "generate_msequence",
    "generate_walsh",
    "input_scale_for_power",
    "load_config",
    "measure_variances",
    "parse_csv",
    "path_power_profile",
    "pd_amplitude",
    "preset",
    "run_scenario",
    "saleh_from_keys",
    "scenario_echo",
    "scenario_from_keys",
    "theoretical_curve",
]

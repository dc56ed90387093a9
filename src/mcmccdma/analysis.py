"""Theoretical bit-error-rate machinery and the shared result record.

The post-correlator decision statistic is treated as a Gaussian: signal
power S over total interference-plus-noise variance gives the ratio
gamma = S / var_total, conditional BER 0.5*erfc(sqrt(gamma)), and a
Rayleigh-faded reference gain turns gamma exponential, averaged in closed
form.  Variances follow the complex-power convention of
`receiver.InterferenceVariances`, which makes gamma equal Eb/N0 in the
noise-only case and reproduces the textbook BPSK curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def erfc(x):
    """Complementary error function (vectorized)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("erfc argument must be finite")
    out = np.vectorize(math.erfc, otypes=[np.float64])(x)
    return float(out) if out.ndim == 0 else out


def conditional_ber(gamma: float) -> float:
    """BER at a fixed post-correlator signal-to-interference ratio."""
    if not gamma >= 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return 0.5 * math.erfc(math.sqrt(gamma))


def fading_averaged_ber(mean_gamma: float) -> float:
    """Average of conditional_ber over a Rayleigh-faded reference gain.

    A Rayleigh amplitude makes gamma exponentially distributed with the
    given mean, and the average is 0.5 (1 - sqrt(mean/(1 + mean)))
    (Proakis, Digital Communications, sec. 14.3), here in the form
    0.5 / (r (r + sqrt(mean))), r = sqrt(1 + mean), which does not cancel.
    """
    if not mean_gamma >= 0:
        raise ValueError(f"mean gamma must be nonnegative, got {mean_gamma}")
    r = math.sqrt(1.0 + mean_gamma)
    return 0.5 / (r * (r + math.sqrt(mean_gamma)))


def binomial_ci95(errors: int, bits: int) -> float:
    """95% confidence halfwidth for an error rate, normal approximation."""
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    if not 0 <= errors <= bits:
        raise ValueError(f"errors {errors} outside [0, {bits}]")
    p = errors / bits
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / bits)


@dataclass(frozen=True)
class BerRecord:
    """One BER point, measured or theoretical.

    censored marks a Monte Carlo point that hit its bit budget before
    collecting the requested error count; it is programmatic metadata and
    is not part of the CSV schema.
    """

    scenario: str
    ebn0_db: float
    users: int
    substreams: int
    carriers: int
    hpa_mode: str
    ibo_db: float | None
    bits: int
    errors: int
    ber: float
    ci95: float
    source: str
    seed: int | None
    censored: bool = False

    def __post_init__(self):
        if not 0.0 <= self.ber <= 1.0:
            raise ValueError(f"ber must be in [0, 1], got {self.ber}")
        if self.source not in ("monte-carlo", "theoretical"):
            raise ValueError(f"source must be monte-carlo or theoretical, got {self.source!r}")


def theoretical_curve(variances, ebn0_grid, reference_ebn0_db: float, *,
                      signal_power: float | None = None, fading: bool = False,
                      scenario: str = "theory",
                      users: int = 1, substreams: int = 1, carriers: int = 1,
                      hpa_mode: str = "bypass", ibo_db: float | None = None) -> list[BerRecord]:
    """BER curve predicted from measured correlator variances.

    `variances` provides the component variances observed at
    reference_ebn0_db (an InterferenceVariances or anything with the same
    attributes).  Only the noise variance scales along the sweep, by
    10**((reference - point)/10); interference terms are treated as
    noise-independent.  With fading=True the desired power is read as the
    unit-gain value and the Rayleigh average is applied.
    """
    s = variances.desired_power if signal_power is None else signal_power
    if s < 0:
        raise ValueError(f"signal power must be nonnegative, got {s}")
    interference = variances.total - variances.noise
    records = []
    for point in ebn0_grid:
        noise_var = variances.noise * 10.0 ** ((reference_ebn0_db - point) / 10.0)
        total = interference + noise_var
        if total <= 0.0:
            ber = 0.0
        else:
            gamma = s / total
            ber = fading_averaged_ber(gamma) if fading else conditional_ber(gamma)
        records.append(BerRecord(scenario=scenario, ebn0_db=float(point), users=users,
                                 substreams=substreams, carriers=carriers, hpa_mode=hpa_mode,
                                 ibo_db=ibo_db, bits=0, errors=0, ber=ber, ci95=0.0,
                                 source="theoretical", seed=None))
    return records

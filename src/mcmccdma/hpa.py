"""Memoryless traveling-wave-tube nonlinearity, back-off control and the
analytic predistorter that inverts it.

The amplitude transfer is amam(u) = a1*u/(1 + b1*u^2) and the phase shift is
ampm(u) = a2*u/(1 + b2*u^2) radians; the classical quadratic-numerator phase
variant a2*u^2/(1 + b2*u^2) is available behind the ampm_quadratic switch.
Saturation is the amam peak: input modulus 1/sqrt(b1), output a1/(2*sqrt(b1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .txchain import BasebandFrame


@dataclass(frozen=True)
class SalehParams:
    """Amplitude and phase coefficient pairs of the memoryless tube model.

    Defaults are the classical fitted values (2.1587, 1.1517, 4.0033, 9.1040);
    all four must be strictly positive.
    """

    alpha_am: float = 2.1587
    beta_am: float = 1.1517
    alpha_pm: float = 4.0033
    beta_pm: float = 9.1040
    ampm_quadratic: bool = False

    def __post_init__(self):
        for name in ("alpha_am", "beta_am", "alpha_pm", "beta_pm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def saturation_input(self) -> float:
        """Input modulus at the amplitude peak."""
        return 1.0 / np.sqrt(self.beta_am)

    @property
    def saturation_input_power(self) -> float:
        return 1.0 / self.beta_am

    @property
    def saturation_output(self) -> float:
        """Peak output modulus."""
        return self.alpha_am / (2.0 * np.sqrt(self.beta_am))

    @property
    def saturation_output_power(self) -> float:
        return self.saturation_output**2


@dataclass(frozen=True)
class OperatingPoint:
    """Input back-off in dB and the linear input scale realizing it."""

    ibo_db: float
    input_scale: float
    saturation_input_power: float

    def __post_init__(self):
        if self.input_scale <= 0:
            raise ValueError(f"input_scale must be positive, got {self.input_scale}")


def _check_modulus(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if not np.isfinite(u).all():
        raise ValueError("input modulus must be finite")
    if (u < 0).any():
        raise ValueError("input modulus must be nonnegative")
    return u


def amam(u, params: SalehParams):
    """Amplitude transfer: rises to the peak at 1/sqrt(beta_am), then falls."""
    u = _check_modulus(u)
    out = params.alpha_am * u / (1.0 + params.beta_am * u**2)
    return float(out) if out.ndim == 0 else out


def ampm(u, params: SalehParams):
    """Input-modulus dependent phase shift in radians."""
    u = _check_modulus(u)
    numerator = params.alpha_pm * (u**2 if params.ampm_quadratic else u)
    out = numerator / (1.0 + params.beta_pm * u**2)
    return float(out) if out.ndim == 0 else out


def set_operating_point(frame: BasebandFrame, ibo_db: float, params: SalehParams) -> OperatingPoint:
    """Input scale that places the frame's measured mean power ibo_db below
    the saturating input power."""
    mean_power = frame.mean_power
    if mean_power <= 0:
        raise ValueError("cannot set an operating point on a zero-power frame")
    return operating_point_for_power(mean_power, ibo_db, params)


def operating_point_for_power(mean_power: float, ibo_db: float, params: SalehParams) -> OperatingPoint:
    """Same as set_operating_point but from a known average input power."""
    if mean_power <= 0:
        raise ValueError(f"mean input power must be positive, got {mean_power}")
    p_sat = params.saturation_input_power
    scale = np.sqrt(p_sat / (mean_power * 10.0 ** (ibo_db / 10.0)))
    return OperatingPoint(ibo_db=float(ibo_db), input_scale=float(scale), saturation_input_power=p_sat)


def _modulus_squared(x: np.ndarray) -> np.ndarray:
    """|x|^2 per sample; one max reduction rejects NaN and infinite samples."""
    p = x.real**2 + x.imag**2
    if not np.isfinite(p.max(initial=0.0)):
        raise ValueError("input modulus must be finite")
    return p


def _ampm_of_power(p: np.ndarray, params: SalehParams) -> np.ndarray:
    """ampm at input modulus sqrt(p), without forming the modulus when the
    phase curve is quadratic."""
    numerator = params.alpha_pm * (p if params.ampm_quadratic else np.sqrt(p))
    return numerator / (1.0 + params.beta_pm * p)


def _rotate(x: np.ndarray, gain: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """x * gain * e^{j phase}, with the rotation built from cos and sin."""
    rotation = np.empty(x.shape, dtype=np.complex128)
    np.cos(phase, out=rotation.real)
    np.sin(phase, out=rotation.imag)
    np.multiply(rotation, gain, out=rotation)
    rotation *= x
    return rotation


def apply_hpa(frame: BasebandFrame, params: SalehParams, op: OperatingPoint | None = None) -> BasebandFrame:
    """Per-sample nonlinearity: scale by the operating point, then map the
    modulus through amam and advance the phase by ampm."""
    x = frame.samples if op is None else op.input_scale * frame.samples
    p = _modulus_squared(x)
    # amam(u) e^{j arg x} = x * amam(u)/u; the modulus factors out so the
    # zero-input sample needs no special case.
    gain = params.alpha_am / (1.0 + params.beta_am * p)
    return BasebandFrame(_rotate(x, gain, _ampm_of_power(p, params)), frame.sample_rate, frame.t0)


def compute_obo(frame_out: BasebandFrame, params: SalehParams) -> float:
    """Output back-off: dB ratio of the saturated output power to the
    frame's measured mean output power."""
    mean_power = frame_out.mean_power
    if mean_power <= 0:
        raise ValueError("cannot compute output back-off of a zero-power frame")
    return float(10.0 * np.log10(params.saturation_output_power / mean_power))


def pd_amplitude(g, params: SalehParams):
    """Pre-distorted input modulus whose amplified modulus is g.

    Inverts amam on the below-saturation branch.  The naive quadratic root
    (a - sqrt(a^2 - 4 b g^2)) / (2 b g) cancels catastrophically as g -> 0,
    so the rationalized form 2 g / (a + sqrt(a^2 - 4 b g^2)) is used; it is
    exact at g = 0 and meets the saturation input at the double root.
    Targets above the peak output clamp to the saturation input.
    """
    g = _check_modulus(g)
    g_clipped = np.minimum(g, params.saturation_output)
    discriminant = np.maximum(params.alpha_am**2 - 4.0 * params.beta_am * g_clipped**2, 0.0)
    out = 2.0 * g_clipped / (params.alpha_am + np.sqrt(discriminant))
    return float(out) if out.ndim == 0 else out


def apply_predistorter(frame: BasebandFrame, params: SalehParams) -> BasebandFrame:
    """Map each sample (modulus g, phase t) to (pd_amplitude(g), t - ampm)
    so that the following amplifier restores modulus min(g, peak) at phase t."""
    x = frame.samples
    p = _modulus_squared(x)
    # ratio = pd_amplitude(g)/g in pd_amplitude's rationalized form; it tends
    # to 2/alpha_am as g -> 0, so the zero sample needs no special case.
    sat2 = params.saturation_output_power
    discriminant = np.maximum(params.alpha_am**2 - 4.0 * params.beta_am * np.minimum(p, sat2), 0.0)
    ratio = 2.0 / (params.alpha_am + np.sqrt(discriminant))
    over = p > sat2
    if over.any():
        ratio[over] *= np.sqrt(sat2 / p[over])
    phase = -_ampm_of_power(ratio**2 * p, params)
    return BasebandFrame(_rotate(x, ratio, phase), frame.sample_rate, frame.t0)

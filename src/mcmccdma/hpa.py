"""Memoryless traveling-wave-tube nonlinearity, back-off control and the
analytic predistorter that inverts it.

The amplitude transfer is amam(u) = a1*u/(1 + b1*u^2) and the phase shift is
ampm(u) = a2*u/(1 + b2*u^2) radians; the classical quadratic-numerator phase
variant a2*u^2/(1 + b2*u^2) is available behind the ampm_quadratic switch.
Saturation is the amam peak: input modulus 1/sqrt(b1), output a1/(2*sqrt(b1)).

Every kernel takes and returns a bare complex sample array of any shape.
The tube, amplify_samples, is driven at the input scale that
input_scale_for_power sets for a back-off; the caller multiplies the
samples by it.  The predistorter inverts amam up to the peak and cancels
ampm, so the predistorted tube, amplify_samples(apply_predistorter(x)),
is in exact arithmetic the ideal envelope limiter x * min(1, A_sat/|x|)
with A_sat the peak output: it passes every modulus below A_sat and every
phase unchanged.  That limiter is also the p -> infinity limit of Rapp's
solid-state amplifier model.  apply_predistorter is the reference that
characterize-hpa and the tests use.  In "saleh" mode the Monte Carlo
engine runs amplify_samples on its waveform tiles.  In "saleh_pd" mode the
limiter is the identity up to A_sat, so the engine takes the linear
chain's outputs and calls limiter_factor, whose product with a sample is
what the limiter takes off it, on the 16-sample cells whose envelope
bound reaches A_sat only; about 80% of the samples it is given clip on
the linearization preset.
NaN and infinite samples raise ValueError in every kernel and in
compute_obo, and so do finite samples whose squared modulus overflows.  At
any finite power the curves are evaluated without an intermediate
overflow: where beta p overflows, their asymptotes take over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .txchain import check_field_types


@dataclass(frozen=True)
class SalehParams:
    """Amplitude and phase coefficient pairs of the memoryless tube model.

    Defaults are the classical fitted values (2.1587, 1.1517, 4.0033, 9.1040);
    all four must be finite and strictly positive.
    """

    alpha_am: float = 2.1587
    beta_am: float = 1.1517
    alpha_pm: float = 4.0033
    beta_pm: float = 9.1040
    ampm_quadratic: bool = False

    def __post_init__(self):
        check_field_types(self)
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


def _check_modulus(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if not np.isfinite(u).all():
        raise ValueError("input modulus must be finite")
    if (u < 0).any():
        raise ValueError("input modulus must be nonnegative")
    return u


def _overflows(coefficient: float, p: np.ndarray, peak: float):
    """Where coefficient * p overflows float64, as a boolean mask, or None
    when it overflows nowhere, which the largest p (or a bound on it), peak,
    settles without a pass over p."""
    if math.isfinite(coefficient * peak):
        return None
    with np.errstate(over="ignore"):
        return np.isinf(coefficient * p)


def _piecewise(large, in_range, asymptotic):
    """in_range(index) for every element, except asymptotic(index) where the
    boolean mask large holds; large None means nowhere, and then no element
    is copied."""
    if large is None:
        return in_range(...)
    out = np.empty(large.shape)
    out[~large] = in_range(~large)
    out[large] = asymptotic(large)
    return out


# Both Saleh curves have the shape alpha t / (1 + beta p) at power p = u^2,
# t being u (amam, linear ampm) or p (quadratic ampm).  Where beta p
# overflows, 1 + beta p rounds to beta p long before, so the curve is its
# asymptote there: alpha/(beta u) or alpha/beta.  Taking the asymptote only
# where beta p overflows leaves the arithmetic at every other power as it
# was, and no intermediate overflows at any finite power.

def _odd_curve(u: np.ndarray, p: np.ndarray, peak: float, alpha: float, beta: float):
    """alpha u / (1 + beta p) with p = u^2 (which may overflow) and peak its
    largest value."""
    return _piecewise(_overflows(beta, p, peak),
                      lambda i: alpha * u[i] / (1.0 + beta * p[i]),
                      lambda i: alpha / beta / u[i])


def _even_curve(p: np.ndarray, peak: float, alpha: float, beta: float):
    """alpha p / (1 + beta p), peak the largest p.  alpha p can overflow
    before beta p does, where 1 + beta p has long been beta p."""
    return _piecewise(_overflows(max(alpha, beta), p, peak),
                      lambda i: alpha * p[i] / (1.0 + beta * p[i]),
                      lambda i: alpha / beta)


def _amam_gain(p: np.ndarray, peak: float, params: SalehParams):
    """amam(u)/u at power p = u^2, peak the largest p: the amplifier
    kernel's gain, which needs no modulus and no zero-input special case."""
    alpha, beta = params.alpha_am, params.beta_am
    return _piecewise(_overflows(beta, p, peak),
                      lambda i: alpha / (1.0 + beta * p[i]),
                      lambda i: alpha / beta / p[i])


def _ampm_of_power(p: np.ndarray, peak: float, params: SalehParams, u=None):
    """ampm at power p, peak the largest p or a bound on it.  The linear
    phase curve needs the modulus u too, sqrt(p) unless given; the quadratic
    one does not form it."""
    if params.ampm_quadratic:
        return _even_curve(p, peak, params.alpha_pm, params.beta_pm)
    return _odd_curve(np.sqrt(p) if u is None else u, p, peak, params.alpha_pm, params.beta_pm)


def _checked_power(u) -> tuple:
    """Checked input moduli u, their powers u^2 (inf where those overflow)
    and the largest power."""
    u = _check_modulus(u)
    with np.errstate(over="ignore"):
        p = u**2
    return u, p, float(p.max(initial=0.0))


def amam(u, params: SalehParams):
    """Amplitude transfer: rises to the peak at 1/sqrt(beta_am), then falls."""
    u, p, peak = _checked_power(u)
    out = _odd_curve(u, p, peak, params.alpha_am, params.beta_am)
    return float(out) if out.ndim == 0 else out


def ampm(u, params: SalehParams):
    """Input-modulus dependent phase shift in radians."""
    u, p, peak = _checked_power(u)
    out = _ampm_of_power(p, peak, params, u)
    return float(out) if out.ndim == 0 else out


def input_scale_for_power(mean_power: float, ibo_db: float, params: SalehParams) -> float:
    """Input scale that places a drive of average input power mean_power
    ibo_db below the saturating input power.  ValueError unless mean_power
    is finite and positive and the scale is finite and positive, which
    rules out a NaN or infinite ibo_db too."""
    mean_power, ibo_db = float(mean_power), float(ibo_db)
    if not (math.isfinite(mean_power) and mean_power > 0):
        raise ValueError(f"mean input power must be finite and positive, got {mean_power}")
    try:
        scale = math.sqrt(params.saturation_input_power / (mean_power * 10.0 ** (ibo_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        scale = 0.0
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"an input back-off of {ibo_db} dB at mean input power {mean_power} "
                         "gives no finite positive input scale")
    return scale


def _modulus_squared(x: np.ndarray, out: np.ndarray | None = None) -> tuple:
    """|x|^2 per sample (into out, when given) and its largest value; that
    one max reduction rejects NaN and infinite samples, and finite samples
    whose |x|^2 overflows, each with its own message."""
    with np.errstate(over="ignore"):
        p = np.square(x.real, out=out)
        p += np.square(x.imag)
    peak = float(p.max(initial=0.0))
    if not math.isfinite(peak):
        if np.isfinite(x).all():
            raise ValueError("input modulus squared overflows float64")
        raise ValueError("input modulus must be finite")
    return p, peak


def _rotate(x: np.ndarray, gain: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """x * gain * e^{j phase}, with the rotation built from cos and sin."""
    rotation = np.empty(x.shape, dtype=np.complex128)
    np.cos(phase, out=rotation.real)
    np.sin(phase, out=rotation.imag)
    np.multiply(rotation, gain, out=rotation)
    rotation *= x
    return rotation


def amplify_samples(samples: np.ndarray, params: SalehParams) -> np.ndarray:
    """The tube on a complex sample array of any shape, already scaled to
    its drive level (input_scale_for_power): map the modulus through amam
    and advance the phase by ampm."""
    p, peak = _modulus_squared(samples)
    # amam(u) e^{j arg x} = x * amam(u)/u
    return _rotate(samples, _amam_gain(p, peak, params), _ampm_of_power(p, peak, params))


def limiter_factor(samples: np.ndarray, params: SalehParams,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The real factor min(1, A_sat/|x|) - 1 of the predistorted tube, the
    limiter x * min(1, A_sat/|x|) (see the module docstring), at each sample
    of a complex array of any shape: what it takes off x is x times it,
    exactly zero at and below A_sat.  The engine calls it
    on the few cells of samples that can exceed A_sat only, into a real
    working array out of the samples' shape, when given.  NaN and infinite
    samples raise ValueError, as in every kernel here."""
    sat2 = params.saturation_output_power
    # min(1, A_sat/|x|) as sqrt(sat^2/max(|x|^2, sat^2))
    factor, _ = _modulus_squared(samples, out)
    np.maximum(factor, sat2, out=factor)
    np.divide(sat2, factor, out=factor)
    np.sqrt(factor, out=factor)
    factor -= 1.0
    return factor


def compute_obo(samples: np.ndarray, params: SalehParams) -> float:
    """Output back-off: dB ratio of the saturated output power to the
    measured mean power of the amplifier's output samples."""
    mean_power = float(np.mean(_modulus_squared(np.asarray(samples))[0]))
    if mean_power <= 0:
        raise ValueError("cannot compute output back-off of zero-power samples")
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


def apply_predistorter(samples: np.ndarray, params: SalehParams) -> np.ndarray:
    """Map each complex sample (modulus g, phase t) to (pd_amplitude(g),
    t - ampm) so that the following amplifier restores modulus min(g, peak)
    at phase t."""
    x = np.asarray(samples, dtype=np.complex128)
    p, _ = _modulus_squared(x)
    # ratio = pd_amplitude(g)/g in pd_amplitude's rationalized form; it tends
    # to 2/alpha_am as g -> 0, so the zero sample needs no special case.
    sat2 = params.saturation_output_power
    discriminant = np.maximum(params.alpha_am**2 - 4.0 * params.beta_am * np.minimum(p, sat2), 0.0)
    ratio = 2.0 / (params.alpha_am + np.sqrt(discriminant))
    over = p > sat2
    if over.any():
        ratio[over] *= np.sqrt(sat2 / p[over])
    # the predistorted power is at most the saturation input power
    phase = -_ampm_of_power(ratio**2 * p, params.saturation_input_power, params)
    return _rotate(x, ratio, phase)

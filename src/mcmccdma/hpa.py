"""Memoryless traveling-wave-tube nonlinearity, back-off control, the
analytic predistorter that inverts it, and the Monte Carlo engine's two
amplifiers: what each adds to a block's correlator outputs and to the
noise calibration.

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
characterize-hpa and the tests use.
NaN and infinite samples raise ValueError in every kernel and in
compute_obo, and so do finite samples whose squared modulus overflows.  At
any finite power the curves are evaluated without an intermediate
overflow: where beta p overflows, their asymptotes take over.

The engine's amplifiers.  The engine (harness) forms user 1's noiseless
correlator outputs as z = g sqrt(2) e^{-j theta} T + W, T being the
linear chain's correlation and g its gain.  W correlates what the amplifier
adds to g times the linear waveform against user 1's signatures with the
Walsh chips factored out: per-(Walsh chip, window) sums
(receiver.chip_correlations) of T's shape, with which they share one Walsh
combine.  Everything that differs between the amplifiers is here, reached
through three functions: prepare_amplifier builds each one's frozen state
(None without an amplifier, "bypass": g = 1 and W = 0), which holds its g,
amplifier_correlations forms a block's W from it, and amplifier_calibration
gives the energy per bit that the noise is matched to and the mean
rotation.

- "saleh" (TubeState): the tube acts on each user's summed waveform, so
  g = 0 and W correlates the whole received frame (_tube_correlations):
  every user modulated and amplified (amplify_samples) tile by tile over
  all users' PN-free symbol rows (_waveform_tiles), the paths summed.  The
  tube acts on |x|^2 alone, so for +-1 chips A(pn x) = pn A(x) holds bit
  for bit and each user's chips are applied after it.
- "saleh_pd" (LimiterState): the predistorted tube is the envelope
  limiter, the identity up to A_sat.  So g is the predistorter's input
  scale, and W correlates what the limiter takes off the samples above
  A_sat, under 1% of them at working back-offs, with no window formed
  (_excess_correlations).  The search runs over cells of up to 16 samples,
  cut so that no path delays a cell across a Walsh chip or window boundary
  (_CellGrid): an envelope bound on each symbol row over each Walsh chip
  (_peak_power_bound) and then over each cell (_cell_power_bound), both
  read off the row's power autocorrelations (_autocorrelations), rule out
  most cells before any sample is formed.  The kept cells are formed a
  chunk at a time in one product (_driven_cells), and limiter_factor, whose
  product with a sample is what the limiter takes off it, gives what is
  clipped; about 80% of the formed samples clip on amplifier-linearized.
  The cells are correlated directly, one small product per path, into
  per-(Walsh chip, window) sums.

The calibration measures the energy per bit from the transmitted
(post-amplifier) waveform of one long PN-free frame of user 1's, time
counted in symbol periods: the frame's energy over its bits.  The tube's
frame is amplified tile by tile, as its blocks are (_waveform_tiles), and
its mean AM/PM rotation is measured on it.  The limiter's output is summed
sample by sample over the cells its search keeps and is the linear
waveform over every other cell, whose energy its autocorrelations give in
closed form (_CellGrid); it keeps every phase, so its rotation is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .receiver import chip_correlations
from .txchain import (LinkConfig, _work_array, check_field_types, spread_symbols,
                      subcarrier_exponentials, walsh_chip_bounds)


@dataclass(frozen=True)
class SalehParams:
    """Amplitude and phase coefficient pairs of the memoryless tube model.

    Defaults are the classical fitted values (2.1587, 1.1517, 4.0033, 9.1040);
    all four must be finite and strictly positive, and so must the
    saturation input and output powers they give.
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
        # Finite positive coefficients can still put a saturation power at 0
        # or past the float range, where the operating point is undefined.
        with np.errstate(over="ignore", under="ignore"):
            powers = (self.saturation_input_power, self.saturation_output_power)
        if not all(0.0 < p < math.inf for p in powers):
            raise ValueError(
                f"alpha_am={self.alpha_am!r} and beta_am={self.beta_am!r} give saturation "
                f"input and output powers {float(powers[0])!r} and {float(powers[1])!r}; "
                "both must be finite and positive")

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
    scale = _backed_off_scale(params.saturation_input_power, mean_power, ibo_db)
    if not 0.0 < scale < math.inf:
        raise ValueError(f"an input back-off of {ibo_db} dB at mean input power {mean_power} "
                         "gives no finite positive input scale")
    return scale


def _backed_off_scale(saturation_power: float, mean_power: float, ibo_db: float) -> float:
    """The scale sqrt(saturation_power / (mean_power 10^(ibo_db/10))) that
    puts a drive of mean_power ibo_db below saturation_power, or 0.0 where
    the power of 10 overflows or the denominator is 0."""
    try:
        return math.sqrt(float(saturation_power) / (mean_power * 10.0 ** (ibo_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        return 0.0


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
    on the few cells of samples that can exceed A_sat only (_clipped_cells),
    into a real working array out of the samples' shape, when given.  NaN and infinite
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
    measured mean power of the amplifier's output samples, of which there
    must be at least one."""
    p, _ = _modulus_squared(np.asarray(samples))
    mean_power = float(np.mean(p)) if p.size else 0.0
    if mean_power <= 0:
        raise ValueError("cannot compute output back-off of no samples or zero-power ones")
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
    out = g_clipped * _predistorter_ratio(g_clipped * g_clipped, params)
    return float(out) if out.ndim == 0 else out


def _predistorter_ratio(p, params: SalehParams):
    """pd_amplitude(g) / g at squared modulus p = g^2, in pd_amplitude's
    rationalized form: 2 / (a + sqrt(a^2 - 4 b min(p, A_sat^2))), A_sat the
    peak output modulus.  It tends to 2/a as p -> 0, so the zero sample
    needs no special case."""
    discriminant = np.maximum(
        params.alpha_am**2
        - 4.0 * params.beta_am * np.minimum(p, params.saturation_output_power), 0.0)
    return 2.0 / (params.alpha_am + np.sqrt(discriminant))


def apply_predistorter(samples: np.ndarray, params: SalehParams) -> np.ndarray:
    """Map each complex sample (modulus g, phase t) to (pd_amplitude(g),
    t - ampm) so that the following amplifier restores modulus min(g, peak)
    at phase t."""
    x = np.asarray(samples, dtype=np.complex128)
    p, _ = _modulus_squared(x)
    ratio = _predistorter_ratio(p, params)
    sat2 = params.saturation_output_power
    over = p > sat2
    if over.any():
        ratio[over] *= np.sqrt(sat2 / p[over])
    # the predistorted power is at most the saturation input power
    phase = -_ampm_of_power(ratio**2 * p, params.saturation_input_power, params)
    return _rotate(x, ratio, phase)


# Samples per symbol row in one tile of the tube's chain.  A tile holds
# every user's symbols of a block over this many samples, so it stays
# cache-sized (about 2.6 MB for 20 users x 32 symbols); the per-tile
# overhead is a few small calls.
_SLAB_SAMPLES = 256

# Sample positions per cell of the limiter's clip search (_CellGrid), and
# the number of kept (symbol row, cell) pairs formed and correlated at once,
# which caps the search's working arrays at a few hundred kB whatever share
# of the samples clips.
_CELL_SAMPLES = 16
_CELL_CHUNK = 1024


@dataclass(frozen=True)
class TubeState:
    """The tube ("saleh") as the engine drives it: the tables from which
    _waveform_tiles forms every user's PN-free waveform, and those against
    which its received windows are correlated."""

    config: LinkConfig
    walsh: np.ndarray              # the substreams' Walsh rows, float64 (substreams, walsh_order)
    saleh: SalehParams
    input_scale: float             # the drive scale (input_scale_for_power)
    # txchain.subcarrier_exponentials with re/im interleaved, float64
    # (carriers, 2 samples_per_symbol): the tiles' GEMM operand
    carriers: np.ndarray
    pn_samples: np.ndarray         # every user's chips oversampled, (users, samples_per_symbol)
    # User 1's correlator with the Walsh chips factored out: its chips times
    # the conjugated carrier exponentials, C-contiguous, shape
    # (samples_per_symbol, carriers); see receiver.chip_correlations.
    carrier_correlator: np.ndarray
    # g: the tube's W carries the whole amplified signal (a class constant)
    linear_gain = 0.0


@dataclass(frozen=True)
class _CellGrid:
    """The cells of the limiter's clip search: the symbol cut at every Walsh
    chip bound (txchain.walsh_chip_bounds) and at every position that a path
    delay carries onto a chip bound of the same or the next window, each
    piece cut into runs of up to _CELL_SAMPLES consecutive sample positions,
    and the per-cell tables through which a cell's samples are bounded,
    formed and correlated without any other sample.

    Cell q spans positions starts[q] .. starts[q] + lengths[q] - 1 and is
    anchored at a = starts[q] + (S - 1)/2, S = _CELL_SAMPLES, whatever its
    length; the samples of a row there are x(a + s) = sum_m b_m E_m(a) E_m(s)
    for the offsets s = -(S - 1)/2 .. (S - 1)/2, of which the first lengths[q]
    belong to the cell.  Chip c holds cells chip_cells[c] .. chip_cells[c+1] - 1.

    So a cell delayed by any path lies within one Walsh chip of one window,
    n or n + 1: bin_chips[l, q] is that Walsh chip on path l and
    bin_windows[l, q] the window increment.  user_chips[k, q] holds user k's
    chips at the cell's S positions, and span_chips[l, q] user 1's at those
    positions delayed by path l (periodic over the symbol), zero past the
    cell's length, so the correlation reads nothing of a cell but its own
    samples.

    A row's power at carrier phase phi is P(phi) = rho_0 + 2 sum_{k>=1}
    rho_k cos(k phi), rho_k = sum_m b_m b_{m+k} (_autocorrelations), so at
    the anchor's phase phi_a it is rho . cos_terms[:, q], and its slope
    there times the half width t of a cell is rho[1:] . slope_terms[:, q].
    Summed over the cell's own positions, its energy there is
    rho . energy_terms[:, q]."""

    starts: np.ndarray          # (cells,)
    lengths: np.ndarray         # (cells,)
    chip_cells: np.ndarray      # (walsh_order + 1,)
    centres: np.ndarray         # E_m(a) at every anchor, C-contiguous (cells, carriers) complex
    offsets: np.ndarray         # E_m(s), (carriers, S) complex
    cos_terms: np.ndarray       # 1 and 2 cos(k phi_a) for k >= 1, (carriers, cells)
    slope_terms: np.ndarray     # -2 k t sin(k phi_a), k = 1 .. carriers - 1, (carriers - 1, cells)
    # the length and 2 sum_{s < length} cos(k phi_s) for k >= 1, (carriers, cells)
    energy_terms: np.ndarray
    half_width: float           # (S - 1)/2 samples as carrier phase 2 pi W i / N: t
    delay_phases: np.ndarray    # conj(E_m(D_l)) per path delay, (paths, carriers)
    user_chips: np.ndarray      # (users, cells, S) int8
    span_chips: np.ndarray      # (paths, cells, S) int8
    bin_chips: np.ndarray       # (paths, cells)
    bin_windows: np.ndarray     # (paths, cells)


@dataclass(frozen=True)
class LimiterState:
    """The predistorted tube ("saleh_pd") as the engine drives it: the
    envelope limiter behind the predistorter's input scale g, and the cell
    grid of its clip search.  It forms no tile, so it holds no carrier
    table."""

    config: LinkConfig
    walsh: np.ndarray              # the substreams' Walsh rows, float64 (substreams, walsh_order)
    saleh: SalehParams
    linear_gain: float             # g
    cells: _CellGrid


# The largest share of A_sat that the limiter's round-off may reach
# (amplifier_drive).
_LIMITER_ROUNDOFF = 1e-3


def amplifier_drive(scenario) -> float:
    """The drive of the amplifier of a scenario (config.Scenario) in the
    "saleh" or "saleh_pd" mode, set against the linear chain's mean
    transmitted power, 2 substreams carriers at unit branch power: the
    tube's input scale, ibo_db below the saturating input power
    (input_scale_for_power), or the limiter's g, ibo_db below the saturated
    output power, since the predistorter expects desired output moduli.
    ValueError unless it is finite and positive, so that Scenario, which
    calls it when it is built, rejects a drive no run could set up.

    The limiter's g is also rejected where float rounding, not the model,
    would set its outputs.  The linear waveform peaks at sqrt(2)
    substreams carriers, and a sample at one of its exact zeros holds a
    round-off of up to eps times that peak (eps, float64's machine
    epsilon), which g lifts to g eps peak; a clipped sample is g x plus its
    excess, two terms of order g peak that cancel to A_sat, so it carries
    as much.  That error must stay within _LIMITER_ROUNDOFF of A_sat:
    g peak / A_sat is sqrt(substreams carriers) 10^(-ibo_db/20), so the
    bound is ibo_db >= 20 log10(eps sqrt(substreams carriers) / 1e-3),
    about -253 dB plus 10 log10(substreams carriers)."""
    cfg, saleh = scenario.config, scenario.saleh
    mean_tx_power = 2.0 * cfg.substreams * cfg.carriers
    if scenario.hpa_mode == "saleh":
        return input_scale_for_power(mean_tx_power, scenario.ibo_db, saleh)
    g = _backed_off_scale(saleh.saturation_output_power, mean_tx_power, scenario.ibo_db)
    if not 0.0 < g < math.inf:
        raise ValueError(f"an input back-off of {scenario.ibo_db} dB gives the predistorter "
                         f"no finite positive input scale, got {g}")
    roundoff = g * math.sqrt(2.0) * cfg.substreams * cfg.carriers * np.finfo(float).eps
    if roundoff > _LIMITER_ROUNDOFF * saleh.saturation_output:
        raise ValueError(f"an input back-off of {scenario.ibo_db} dB drives the predistorter's "
                         f"round-off to {roundoff:.3g}, more than {_LIMITER_ROUNDOFF:g} of its "
                         f"saturated output modulus {saleh.saturation_output:.3g}")
    return g


def prepare_amplifier(scenario, walsh: np.ndarray,
                      pn_chips: np.ndarray) -> TubeState | LimiterState | None:
    """The state of the amplifier of a scenario (config.Scenario), given
    the substreams' Walsh rows as float64 and every user's PN chips (users,
    pn_length): None for "bypass", a TubeState for "saleh", a LimiterState
    for "saleh_pd", each at its amplifier_drive."""
    if scenario.hpa_mode == "bypass":
        return None
    cfg, saleh = scenario.config, scenario.saleh
    if scenario.hpa_mode == "saleh":
        carriers = subcarrier_exponentials(cfg)
        pn_samples = np.repeat(pn_chips, cfg.oversampling, axis=1).astype(np.float64)
        # Slot (r, m) of user 1 is w_r(chip i) pn_1(i) E_m(i) at sample i.
        return TubeState(
            config=cfg, walsh=walsh, saleh=saleh, input_scale=amplifier_drive(scenario),
            carriers=carriers.view(np.float64), pn_samples=pn_samples,
            carrier_correlator=np.ascontiguousarray(pn_samples[0, :, None] * carriers.conj().T))
    return LimiterState(config=cfg, walsh=walsh, saleh=saleh, linear_gain=amplifier_drive(scenario),
                        cells=_cell_grid(cfg, pn_chips, scenario.paths))


def amplifier_correlations(amplifier: TubeState | LimiterState, chips: np.ndarray,
                           gains: np.ndarray, work: dict) -> np.ndarray | None:
    """A block's W per (Walsh chip, window) before the Walsh combine, shape
    (walsh_order, symbols, carriers), or None when it is zero: chips holds
    every user's symbols on its Walsh chips (txchain.spread_symbols), gains
    the complex path gains (users, paths), and work the block's working
    arrays (txchain._work_array)."""
    if isinstance(amplifier, TubeState):
        return _tube_correlations(amplifier, chips, gains, work)
    return _excess_correlations(amplifier, chips, gains, work)


def amplifier_calibration(amplifier: TubeState | LimiterState, frame: np.ndarray,
                          work: dict) -> tuple:
    """(energy per information bit, mean rotation) of user 1's PN-free
    calibration frame through the amplifier: frame holds its symbol rows
    (symbols, substreams, carriers), spread onto its Walsh chips as one
    user's (txchain.spread_symbols), and work the working arrays
    (txchain._work_array).  Time is counted in symbol periods, so the
    energy per bit is the frame's mean power over the bits per symbol.

    The frame's energy is added tile by tile or cell chunk by cell chunk,
    in order.  The tube's is that of the whole amplified frame, and its
    rotation the angle of sum conj(x) A(x).  The limiter's is that of its
    output at the cells that can clip, summed over each cell's own samples,
    and then that of the linear output g x at every other (row, cell)
    pair, in closed form from the row's autocorrelations (_CellGrid): a
    masked sum of nonnegative terms, so no cancellation at any drive.  Its
    rotation is zero.  The tube's phase curve turns the whole constellation
    by that mean shift at its drive, which a coherent receiver tracks as
    part of its carrier reference, so the engine folds it into the
    reference path phase.  User 1's chips change neither measure, so the
    frame is taken PN-free."""
    cfg = amplifier.config
    energy, rotation = 0.0, 0.0
    chips = spread_symbols(amplifier.walsh, frame[None], work)
    if isinstance(amplifier, TubeState):
        cross = 0.0
        for _, linear, tx in _waveform_tiles(amplifier, chips, work):
            energy += np.vdot(tx, tx).real
            cross += np.vdot(linear, tx)
        rotation = float(np.angle(cross))
    else:
        grid, sat2 = amplifier.cells, amplifier.saleh.saturation_output_power
        b, rho = _limiter_drive(amplifier, chips, work)
        kept = np.zeros((b.shape[1], grid.starts.size), dtype=bool)
        for rows, cells, driven, _ in _driven_cells(amplifier, b, rho, work):
            # |g x min(1, A_sat/|g x|)|^2, with no 1 + factor to round
            power = np.minimum(np.square(driven.real) + np.square(driven.imag), sat2)
            power *= np.arange(_CELL_SAMPLES) < grid.lengths[cells, None]
            energy += power.sum()
            kept[rows, cells] = True
        for chip, (lo, hi) in enumerate(zip(grid.chip_cells[:-1], grid.chip_cells[1:])):
            energy += np.sum((rho[:, chip].T @ grid.energy_terms[:, lo:hi])[~kept[:, lo:hi]])
    mean_power = energy / (frame.shape[0] * cfg.samples_per_symbol)
    return mean_power / cfg.bits_per_symbol, rotation


def _row_coefficients(chips: np.ndarray, work: dict) -> np.ndarray:
    """b[c, k n_total + n, m] = sqrt(2) chips[c, n, k, m]: the real
    coefficient of symbol row (k, n), user k's symbol n, on carrier m during
    Walsh chip c, shape (walsh_order, users * n_total, carriers), from the
    Walsh-spread symbols (txchain.spread_symbols), rows in (user, symbol)
    order.  The row's PN-free linear waveform is sum_m b[c, row, m] E_m(i)
    during chip c, with E_m(i) = e^{j (m+1) 2 pi W i / N}
    (txchain.subcarrier_exponentials).  A working array of work."""
    order, n_total, users, n_car = chips.shape
    b = _work_array(work, "rows", (order, users, n_total, n_car))
    np.multiply(chips.transpose(0, 2, 1, 3), np.sqrt(2.0), out=b)
    return b.reshape(order, -1, n_car)


def _waveform_tiles(tube: TubeState, chips: np.ndarray, work: dict):
    """Every symbol row's PN-free linear waveform in tiles, each tile also
    through the tube at its drive: the one loop of the tube's blocks and of
    its calibration.

    chips holds the rows' symbols on their Walsh chips
    (txchain.spread_symbols).  During Walsh chip c row n is
    sum_m b[c, n, m] E_m(i) (_row_coefficients), so each run of one
    Walsh chip (txchain.walsh_chip_bounds) within a slab of _SLAB_SAMPLES
    positions is one real GEMM of b[c] against the carrier exponentials with
    re/im interleaved.  Each run is yielded as (first position, linear tile,
    amplified tile), the tiles complex, (rows, run length), in order of
    position."""
    b = _row_coefficients(chips, work)
    bounds = walsh_chip_bounds(tube.config)
    for chip, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        cuts = [lo, *range((lo // _SLAB_SAMPLES + 1) * _SLAB_SAMPLES, hi, _SLAB_SAMPLES), hi]
        for first, last in zip(cuts[:-1], cuts[1:]):
            linear = (b[chip] @ tube.carriers[:, 2 * first:2 * last]).view(np.complex128)
            yield first, linear, amplify_samples(tube.input_scale * linear, tube.saleh)


def _tube_correlations(tube: TubeState, chips: np.ndarray, gains: np.ndarray,
                       work: dict) -> np.ndarray:
    """W of a tube block per (Walsh chip, window): the noiseless received
    frame through the tube, cut into the (symbols, samples_per_symbol)
    correlator windows and correlated per Walsh chip
    (receiver.chip_correlations).  The frame holds every user's amplified
    waveform, built tile by tile over all users' symbol rows at once
    (_waveform_tiles), times its chips.  Per path l, the users' tiles are
    summed with their gains h_kl in one product and added into a
    (symbols, samples) view of the frame shifted by the path delay.  The
    part that falls past the last window is dropped, as the correlator
    drops it."""
    cfg = tube.config
    _, n_total, users, _ = chips.shape
    length = n_total * cfg.samples_per_symbol
    shifts = [l * cfg.oversampling for l in range(gains.shape[1])]
    received = np.zeros(length + shifts[-1], dtype=np.complex128)
    delayed = [received[shift:shift + length].reshape(n_total, -1) for shift in shifts]
    for start, _, tx in _waveform_tiles(tube, chips, work):
        stop = start + tx.shape[1]
        tx = tx.reshape(users, n_total, stop - start) * tube.pn_samples[:, None, start:stop]
        for frame, gain in zip(delayed, gains.T):
            frame[:, start:stop] += np.tensordot(gain, tx, axes=1)
    return chip_correlations(delayed[0], tube.carrier_correlator, walsh_chip_bounds(cfg))


def _cell_grid(cfg: LinkConfig, pn_chips: np.ndarray, paths: int) -> _CellGrid:
    """The _CellGrid of a configuration at `paths` chip-spaced paths, given
    every user's PN chips (users, pn_length).

    The cuts are the Walsh chip bounds B and, per path delay D, B - D and
    B + N - D within [0, N], N = samples_per_symbol: the positions whose
    delayed sample starts a Walsh chip of the current or the next window.
    A cell never holds a cut past its first position, so its span delayed
    by D never crosses a chip or window boundary.  With one path the cuts
    are the chip bounds alone."""
    n_samp, order, size = cfg.samples_per_symbol, cfg.walsh_order, _CELL_SAMPLES
    bounds = walsh_chip_bounds(cfg)
    delays = cfg.oversampling * np.arange(paths)[:, None]
    cuts = np.sort(np.clip(np.concatenate((bounds - delays, bounds + n_samp - delays)), 0, n_samp),
                   axis=None)
    starts = np.concatenate([np.arange(lo, hi, size) for lo, hi in zip(cuts[:-1], cuts[1:])
                             if lo < hi])
    lengths = np.minimum(starts + size, cuts[np.searchsorted(cuts, starts, side="right")]) - starts
    step = 2.0 * np.pi * order / n_samp
    harmonics = np.arange(1, cfg.carriers + 1)
    middle = (size - 1) / 2.0
    phases = step * (starts + middle)
    k = np.arange(1, cfg.carriers)[:, None]
    # positions[l, q, s]: offset s of cell q delayed by path l; inside[q, s]:
    # whether offset s belongs to the cell
    positions = starts[:, None] + np.arange(size) + delays[:, :, None]
    inside = np.arange(size) < lengths[:, None]
    span = starts + delays
    centres = np.exp(1j * step * harmonics * (starts + middle)[:, None])
    offsets = np.exp(1j * step * np.outer(harmonics, np.arange(size) - middle))
    # sum_{s < length} e^{j k phi_s} = E_k(a) times the offsets' partial sums
    cell_sums = np.cumsum(offsets[:-1], axis=1)[:, lengths - 1] * centres[:, :-1].T
    return _CellGrid(
        starts=starts, lengths=lengths, chip_cells=np.searchsorted(starts, bounds),
        centres=centres, offsets=offsets,
        cos_terms=np.concatenate((np.ones((1, starts.size)), 2.0 * np.cos(k * phases))),
        slope_terms=-2.0 * middle * step * k * np.sin(k * phases),
        energy_terms=np.concatenate((lengths[None], 2.0 * cell_sums.real)),
        half_width=middle * step,
        delay_phases=np.exp(-1j * step * np.outer(delays, harmonics)),
        user_chips=np.take(pn_chips, positions[0] % n_samp // cfg.oversampling, axis=1),
        span_chips=pn_chips[0, positions % n_samp // cfg.oversampling] * inside.view(np.int8),
        bin_chips=np.searchsorted(bounds, span % n_samp, side="right") - 1,
        bin_windows=span // n_samp)


def _autocorrelations(b: np.ndarray, work: dict) -> np.ndarray:
    """rho[k, ...] = sum_m b[..., m] b[..., m + k] for k = 0 .. M - 1, the
    coefficients of a row's power |sum_m b_m e^{j (m+1) phi}|^2 =
    rho_0 + 2 sum_{k>=1} rho_k cos(k phi), for real b.  Shape
    (M, *b.shape[:-1]), a working array of work."""
    n_car = b.shape[-1]
    rho = _work_array(work, "rho", (n_car, *b.shape[:-1]))
    for k in range(n_car):
        np.einsum("...m,...m->...", b[..., :n_car - k], b[..., k:], out=rho[k])
    return rho


def _peak_power_bound(rho: np.ndarray, work: dict) -> np.ndarray:
    """An upper bound on a row's power over every angle, from its
    _autocorrelations: rho_0 + 2 sum_k |rho_k| (Tellambura, Electron. Lett.
    33(19), 1997), the |rho_k| summed in order into one array.  Shape
    rho.shape[1:], a working array of work."""
    bound = _work_array(work, "peak", rho.shape[1:])
    bound.fill(0.0)
    magnitude = _work_array(work, "peak_term", rho.shape[1:])
    for term in rho[1:]:
        bound += np.abs(term, out=magnitude)
    bound *= 2.0
    bound += rho[0]
    return bound


def _cell_power_bound(grid: _CellGrid, rho: np.ndarray, peak: np.ndarray, lo: int,
                      hi: int, work: dict) -> np.ndarray:
    """An upper bound on the power of rows of one Walsh chip over each of
    the chip's cells lo..hi-1, shape (rows, hi - lo), given the rows'
    _autocorrelations rho (carriers, rows) and _peak_power_bound; it and
    the slope term are working arrays of work, as many rows as rho holds.

    The power P(phi) = rho_0 + 2 sum_k rho_k cos(k phi) is a real
    trigonometric polynomial of degree M - 1 in the carrier phase, so
    |P''| <= (M - 1)^2 max P <= (M - 1)^2 peak (Bernstein's inequality,
    twice), and within t of the anchor phi_0

        P <= P(phi_0) + |P'(phi_0)| t + (M - 1)^2 peak t^2 / 2,

    P(phi_0) and P'(phi_0) t being two real products of rho against the
    grid's cos_terms and slope_terms."""
    n_car, rows = rho.shape
    bound = np.matmul(rho.T, grid.cos_terms[:, lo:hi],
                      out=_work_array(work, "cell_bound", (rows, hi - lo)))
    slope = np.matmul(rho[1:].T, grid.slope_terms[:, lo:hi],
                      out=_work_array(work, "cell_slope", (rows, hi - lo)))
    bound += np.abs(slope, out=slope)
    bound += (0.5 * ((n_car - 1) * grid.half_width) ** 2) * peak[:, None]
    return bound


def _clipped_cells(limiter: LimiterState, rho: np.ndarray, work: dict):
    """The (symbol row, cell) pairs of the limiter that can clip, as
    (Walsh chip, rows, cells) chunks of up to _CELL_CHUNK pairs in one chip,
    for _driven_cells.

    rho holds the _autocorrelations of the rows' drive (_limiter_drive).  A
    pair is kept unless the row's envelope bound over its Walsh chip
    (_peak_power_bound) or over the cell (_cell_power_bound), both from rho,
    lies below A_sat^2; the margin of 1e-12 keeps exact ties and anything
    round-off could lift over it, and since NaN compares false a NaN bound
    keeps its pair.  The bounds are working arrays of work."""
    grid = limiter.cells
    threshold = limiter.saleh.saturation_output_power * (1.0 - 1e-12)
    peak = _peak_power_bound(rho, work)
    for chip, (lo, hi) in enumerate(zip(grid.chip_cells[:-1], grid.chip_cells[1:])):
        rows = np.flatnonzero(~(peak[chip] < threshold))
        bound = _cell_power_bound(grid, rho[:, chip, rows], peak[chip, rows], lo, hi, work)
        row, cell = np.divmod(np.flatnonzero(~(bound < threshold)), hi - lo)
        row, cell = rows[row], cell + lo
        for first in range(0, row.size, _CELL_CHUNK):
            yield chip, row[first:first + _CELL_CHUNK], cell[first:first + _CELL_CHUNK]


def _limiter_drive(limiter: LimiterState, chips: np.ndarray, work: dict) -> tuple:
    """(b, rho): the rows' drive, g times _row_coefficients of chips (the
    rows' symbols on their Walsh chips, txchain.spread_symbols), a working
    array of work, and its _autocorrelations, formed once for the clip
    search and the calibration."""
    b = _row_coefficients(chips, work)
    b *= limiter.linear_gain
    return b, _autocorrelations(b, work)


def _driven_cells(limiter: LimiterState, b: np.ndarray, rho: np.ndarray, work: dict):
    """The limiter at the cells that can clip: (rows, cells, driven
    samples, factor) per chunk of _clipped_cells, the one loop of the
    limiter's blocks and of its calibration.

    b and rho are the rows' drive and its autocorrelations
    (_limiter_drive), and a chunk's samples g x, shape (chunk, S), are
    formed in one product through E_m(a + s) = E_m(a) E_m(s) (see
    _CellGrid); factor is limiter_factor at each, so that the limiter
    takes x times it off.  Past a cell's length the samples are the row's
    later ones, which the caller's weights zero.  Both are working arrays
    of work that the next chunk overwrites."""
    grid = limiter.cells
    chunk = (_CELL_CHUNK, _CELL_SAMPLES)
    for chip, rows, cells in _clipped_cells(limiter, rho, work):
        n = rows.size
        # the cells are in range; with mode="raise" take would buffer its out
        coefficients = np.take(grid.centres, cells, axis=0, mode="clip", out=_work_array(
            work, "cell_coefficients", (_CELL_CHUNK, grid.offsets.shape[0]), np.complex128)[:n])
        coefficients *= np.take(b[chip], rows, axis=0)
        driven = np.matmul(coefficients, grid.offsets,
                           out=_work_array(work, "cell_samples", chunk, np.complex128)[:n])
        yield rows, cells, driven, limiter_factor(driven, limiter.saleh,
                                                  out=_work_array(work, "cell_factor", chunk)[:n])


def _excess_correlations(limiter: LimiterState, chips: np.ndarray, gains: np.ndarray,
                         work: dict) -> np.ndarray | None:
    """W of a limiter block per (Walsh chip, window): what the limiter takes
    off the samples of the cells that can clip (_driven_cells), times each
    user's chips, received on every path and correlated directly, one chunk
    of cells at a time; None when no cell can clip.

    A cell of user k on path l at delay D adds, to window n' and user 1's
    Walsh chip c' of its delayed span,

        h_kl conj(E_m(a) E_m(D)) sum_s x(s) f(s) pn_k(i_s) pn_1(i_s + D) conj(E_m(s)),

    f being the limiter's real factor (limiter_factor), since the
    correlator's conj(E_m) at position a + D + s factors as its sample does
    (_CellGrid).  The real weights f pn_k pn_1, zero past the cell's length,
    meet the samples in one multiply, and the sums over s are one
    (cells, S) @ (S, carriers) product per path, summed over runs of equal
    (chip, window) bin and added in.  The sums and each chunk's arrays are
    working arrays of work.  The sums are zeroed here and hold one more
    window, for what falls past the last one; the correlator drops it, and
    so does the view returned."""
    cfg = limiter.config
    grid = limiter.cells
    n_total = chips.shape[1]
    chunk = (_CELL_CHUNK, _CELL_SAMPLES)
    conj_offsets = grid.offsets.conj().T
    total = None
    b, rho = _limiter_drive(limiter, chips, work)
    for rows, cells, driven, factor in _driven_cells(limiter, b, rho, work):
        if total is None:
            total = _work_array(work, "cell_sums",
                                (cfg.walsh_order, n_total + 1, cfg.carriers), np.complex128)
            total.fill(0.0)
        n = rows.size
        user, window = np.divmod(rows, n_total)
        own_chips = np.take(grid.user_chips.reshape(-1, _CELL_SAMPLES),
                            user * grid.starts.size + cells, axis=0)
        anchors = np.conjugate(np.take(grid.centres, cells, axis=0))
        for path, gain in enumerate(gains[user].T):
            span = np.take(grid.span_chips[path], cells, axis=0)
            span *= own_chips
            weights = np.multiply(factor, span, out=_work_array(work, "cell_weights", chunk)[:n])
            excess = np.multiply(driven, weights,
                                 out=_work_array(work, "cell_excess", chunk, np.complex128)[:n])
            out = np.matmul(excess, conj_offsets, out=_work_array(
                work, "cell_correlations", (_CELL_CHUNK, cfg.carriers), np.complex128)[:n])
            out *= anchors * (gain[:, None] * grid.delay_phases[path])
            key = (np.take(grid.bin_chips[path], cells) * (n_total + 1)
                   + np.take(grid.bin_windows[path], cells) + window)
            heads = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
            np.add.at(total.reshape(-1, cfg.carriers), key[heads], np.add.reduceat(out, heads))
    return None if total is None else total[:, :n_total]

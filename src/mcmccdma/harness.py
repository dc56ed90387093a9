"""Monte Carlo engine, scenario presets and CSV emission.

Determinism contract: every simulated block derives its generator from
SeedSequence([master_seed, 0, point_index, block_index]), blocks are grouped
into fixed-size waves, and the stopping rule is evaluated only on completed
waves.  Error and bit counts are integer sums over a wave, so the emitted
records (and CSV bytes) are identical for any worker count and any
execution order.

One producer (_correlation_outputs) forms user 1's correlator outputs in
every hpa_mode; the channel and symbol draws, the decisions and the error
count around it are common too.  A block's outputs are

    z = g sqrt(2 power) e^{-j theta} T + W + noise,

theta being user 1's reference-path phase plus the amplifier's mean
rotation (none without an amplifier).

- T is the linear chain's correlation, straight from the symbols.  The
  correlator is linear in every user's symbols, so per scenario it
  tabulates the partial cross-correlations between each user's delayed
  slot signatures and user 1's (receiver.partial_correlation_tables), and
  each block is one small product per user (receiver.correlate_tables).
  The interference decomposition (measure_variances) reads the same
  tables: each source is a subset of the terms of that sum.
- W correlates what the amplifier adds to g times the linear waveform
  against user 1's signatures with the Walsh chips factored out: per-chip
  sums (receiver.chip_correlations) and a Walsh combine
  (receiver.combine_walsh_chips).
  - "bypass": g = 1 and W = 0.
  - "saleh": the tube acts on each user's summed waveform, so g = 0 and W
    correlates the whole received frame (_tube_correlations): every user
    modulated and amplified (hpa.amplify_samples) tile by tile over all
    users' PN-free symbol rows (_waveform_tiles), the paths summed.
  - "saleh_pd": the predistorted tube is in exact arithmetic the envelope
    limiter x min(1, A_sat/|x|) (see hpa), the identity up to A_sat.  So g
    is the predistorter's input scale, and W correlates what the limiter
    takes off the samples above A_sat, under 1% of them at working
    back-offs, with no window formed (_excess_correlations).  The search
    runs over 16-sample cells inside each Walsh chip (_CellGrid): an
    envelope bound on each symbol row over each Walsh chip
    (_peak_power_bound) and then over each cell (_cell_power_bound) rule
    out most cells before any sample is formed.  The kept cells are formed
    a chunk at a time in one product (_formed_cells), and
    hpa.envelope_excess gives what is clipped; about 80% of the formed
    samples clip on amplifier-linearized.  The cells are correlated
    directly, one small product per path, into per-(Walsh chip, window)
    sums.
- The noise is drawn per correlator output (channel.correlator_noise),
  with the covariance white sample noise would leave there: a factor of
  user 1's Gram matrix, from the same tables.

Noiseless, the outputs agree with the sample-level reference chain
(modulate_user, the frame amplifier kernels, propagate_samples,
correlate_slots) to round-off, which the tests hold to 1e-12.

Noise calibration: the energy per information bit is taken from the actual
transmitted (post-amplifier) waveform, once per scenario, so that back-off
settings change the signal the noise is matched to rather than silently
shifting the operating SNR.  The linear chain has it in closed form.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from multiprocessing import get_context

import numpy as np
import numpy.random  # numpy 2 loads it on first use: pay that here, not in the first block

from .analysis import BerRecord, binomial_ci95
from .channel import correlator_noise, draw_channel, path_power_profile
from .codes import PRIMITIVE_TAPS, generate_msequence, generate_walsh
from .hpa import SalehParams, amplify_samples, envelope_excess, input_scale_for_power
from .receiver import (SOURCE_NAMES, InterferenceVariances, chip_correlations, combine_walsh_chips,
                       correlate_tables, decide_slots, partial_correlation_tables)
from .txchain import (LinkConfig, check_field_types, declared_type, subcarrier_exponentials,
                      substream_walsh_rows, walsh_chip_indices)

HPA_MODES = ("bypass", "saleh", "saleh_pd")

CSV_HEADER = "scenario,ebn0_db,k,r,m,hpa_mode,ibo_db,bits,errors,ber,ci95,source,seed"

_CALIBRATION_SYMBOLS = 256

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

# Bound on the magnitude of Eb/N0 and back-off values in dB.  Within it
# 10^(x/10) and the noise and drive levels formed from it stay normal
# doubles; 4000 dB overflows the conversion and -4000 dB underflows it to 0.
_DB_LIMIT = 300.0


@dataclass(frozen=True)
class Scenario:
    """Everything one Monte Carlo run needs, seeds included."""

    name: str
    config: LinkConfig
    paths: int = 1
    decay_db: float = 0.0
    fading: bool = False
    hpa_mode: str = "bypass"
    ibo_db: float = 7.0
    saleh: SalehParams = field(default_factory=SalehParams)
    ebn0_grid: tuple = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0)
    noise_enabled: bool = True
    min_errors: int = 100
    min_bits: int = 0
    min_blocks: int = 0
    max_bits: int = 10_000_000
    symbols_per_block: int = 16
    blocks_per_wave: int = 16
    master_seed: int = 20260817
    allow_small_min_errors: bool = False

    def __post_init__(self):
        check_field_types(self)
        if not self.name or any(c in self.name for c in ",\n\r"):
            raise ValueError(f"scenario name must be nonempty and comma-free, got {self.name!r}")
        if self.hpa_mode not in HPA_MODES:
            raise ValueError(f"hpa_mode must be one of {HPA_MODES}, got {self.hpa_mode!r}")
        if len(self.ebn0_grid) == 0:
            raise ValueError("ebn0_grid must not be empty")
        if not all(math.isfinite(x) for x in self.ebn0_grid):
            raise ValueError(f"ebn0_grid entries must be finite, got {self.ebn0_grid}")
        for name, values in (("ebn0_grid", self.ebn0_grid), ("ibo_db", (self.ibo_db,))):
            if not all(abs(x) <= _DB_LIMIT for x in values):
                raise ValueError(f"{name} must lie within +-{_DB_LIMIT:g} dB, "
                                 f"got {getattr(self, name)}")
        if self.paths < 1:
            raise ValueError(f"paths must be >= 1, got {self.paths}")
        if self.decay_db < 0:
            raise ValueError(f"decay_db must be nonnegative, got {self.decay_db}")
        if self.min_errors < 100 and not self.allow_small_min_errors:
            raise ValueError(
                f"min_errors={self.min_errors} is below 100; set allow_small_min_errors "
                "to accept the wider confidence interval"
            )
        if self.min_errors < 1:
            raise ValueError(f"min_errors must be >= 1, got {self.min_errors}")
        # min_bits above max_bits is allowed: max_bits is the cap.
        for name in ("min_bits", "min_blocks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.max_bits < 1:
            raise ValueError(f"max_bits must be >= 1, got {self.max_bits}")
        if self.symbols_per_block < 1 or self.blocks_per_wave < 1:
            raise ValueError("symbols_per_block and blocks_per_wave must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        cfg = self.config
        if self.paths > cfg.pn_length:
            raise ValueError(f"{self.paths} chip-spaced paths do not fit one symbol "
                             f"of {cfg.pn_length} chips")
        degree = cfg.pn_length.bit_length()
        if (1 << degree) - 1 != cfg.pn_length or degree not in PRIMITIVE_TAPS:
            lengths = ", ".join(str((1 << d) - 1) for d in sorted(PRIMITIVE_TAPS))
            raise ValueError(f"pn_length must be an m-sequence length ({lengths}), "
                             f"got {cfg.pn_length}")
        if cfg.users > cfg.pn_length:
            raise ValueError(f"{cfg.users} users cannot get distinct shifts of a "
                             f"{cfg.pn_length}-chip sequence")
        stride = _shift_spacing(cfg)
        if cfg.users > 1 and self.paths - 1 >= stride:
            raise ValueError(f"path delays up to {self.paths - 1} chips alias the "
                             f"{stride}-chip PN shift spacing between users")


def _shift_spacing(cfg: LinkConfig) -> int:
    """Chips between the cyclic PN shifts of consecutive users."""
    return max(1, cfg.pn_length // cfg.users)


@dataclass
class RunReport:
    """Records plus reproduction metadata for one scenario run."""

    scenario: Scenario
    records: list
    point_seconds: list


@dataclass(frozen=True)
class _CellGrid:
    """The cells of the limiter's clip search ("saleh_pd"): each Walsh chip
    cut into runs of up to _CELL_SAMPLES consecutive sample positions, and
    the tables through which a cell's samples are bounded, formed and
    correlated without any other sample.

    Cell q spans positions starts[q] .. starts[q] + lengths[q] - 1 and is
    anchored at a = starts[q] + (S - 1)/2, S = _CELL_SAMPLES, whatever its
    length; the samples of a row there are x(a + s) = sum_m b_m E_m(a) E_m(s)
    for the offsets s = -(S - 1)/2 .. (S - 1)/2, of which the first lengths[q]
    belong to the cell.  Chip c holds cells chip_cells[c] .. chip_cells[c+1] - 1.

    A span of a cell delayed by a path lies in windows n and n + 1; at
    span position j (the undelayed position plus the delay, below
    samples_per_symbol + max delay + S) span_bins[j] is the window increment
    times walsh_order plus the Walsh chip of j's sample, nondecreasing, and
    bin_starts[v] the first j of bin v.  user_chips[k, i] holds user k's
    chips at positions i .. i + S - 1, zero past the symbol, and
    span_chips[j] user 1's at span positions j .. j + S - 1, periodic over
    the symbol: read-only windows into one row each, so a cell's chips are
    one row gather."""

    starts: np.ndarray          # (cells,)
    lengths: np.ndarray         # (cells,)
    chip_cells: np.ndarray      # (walsh_order + 1,)
    centres: np.ndarray         # E_m(a) at every anchor, (carriers, cells) complex
    offsets: np.ndarray         # E_m(s), (carriers, S) complex
    half_width: float           # (S - 1)/2 samples as carrier phase 2 pi W i / N
    delay_phases: np.ndarray    # conj(E_m(D_l)) per path delay, (paths, carriers)
    span_bins: np.ndarray
    bin_starts: np.ndarray
    user_chips: np.ndarray      # (users, samples_per_symbol, S)
    span_chips: np.ndarray      # (samples_per_symbol + max delay, S)


@dataclass
class _Runtime:
    """Precomputed per-scenario tables shared by every block.

    The fields down to phase_offset serve every mode, and are all that
    _correlation_outputs needs without an amplifier: the tables of its
    linear term, its noise factor, the energy per bit the noise is matched
    to, the linear term's gain g, and the amplifier's mean rotation.  The
    amplifier modes ("saleh" and "saleh_pd") also fill walsh_chips and
    amplified, the function that forms a block's W; the tube ("saleh") the
    fields from which _waveform_tiles forms every user's PN-free waveform,
    pn_samples and carrier_correlator, against which its received windows
    are correlated; the limiter ("saleh_pd") the cell grid of its clip
    search.  So a bypass runtime holds no sample table and a saleh_pd
    runtime no carrier table."""

    scenario: Scenario
    walsh: np.ndarray          # the substreams' Walsh rows, float64 (substreams, walsh_order)
    pn_chips: np.ndarray       # (users, pn_length) +-1
    warmup: int
    # receiver.partial_correlation_tables, and a factor F of the correlator
    # noise covariance: F F^H = Gram matrix of user 1's slot signatures.
    correlation: np.ndarray
    noise_factor: np.ndarray
    eb: float = 0.0
    # g: 1 without an amplifier, the predistorter's input scale before the
    # limiter ("saleh_pd"), 0 for the tube, whose W carries the whole
    # amplified signal ("saleh").
    linear_gain: float = 1.0
    phase_offset: float = 0.0
    walsh_chips: np.ndarray | None = None   # txchain.walsh_chip_indices, (samples,)
    # _tube_correlations or _excess_correlations: (runtime, symbols, path
    # gains) -> W per (Walsh chip, window) before the Walsh combine, shape
    # (walsh_order, symbols, carriers), or None when it is zero.
    amplified: Callable | None = None
    carriers: np.ndarray | None = None      # txchain.subcarrier_exponentials, (carriers, samples)
    pn_samples: np.ndarray | None = None    # pn_chips oversampled, (users, samples_per_symbol)
    # User 1's correlator with the Walsh chips factored out: its chips times
    # the conjugated carrier exponentials, C-contiguous, shape
    # (samples_per_symbol, carriers); see receiver.chip_correlations.
    carrier_correlator: np.ndarray | None = None
    input_scale: float = 0.0   # the tube's drive scale (hpa.input_scale_for_power)
    cells: _CellGrid | None = None


def _user_codes(cfg: LinkConfig) -> tuple:
    """The substreams' Walsh rows as float64 and every user's cyclically
    shifted PN chips, shape (users, pn_length), user 1 first."""
    pn = generate_msequence(cfg.pn_length.bit_length())
    stride = _shift_spacing(cfg)
    pn_chips = np.stack([np.roll(pn, k * stride) for k in range(cfg.users)])
    return substream_walsh_rows(generate_walsh(cfg.walsh_order), cfg), pn_chips


def _prepare(scenario: Scenario) -> _Runtime:
    cfg = scenario.config
    walsh, pn_chips = _user_codes(cfg)
    # Small products, for which OpenBLAS threads cost far more than they
    # save: on a 2-core VM a 64x64 Cholesky took 60 ms threaded and 0.2 ms
    # on one thread.  The calibration's products are small too.
    with _single_threaded_blas():
        correlation = partial_correlation_tables(pn_chips, walsh, cfg, scenario.paths)
        # User 1's current-window table at zero delay is its Gram matrix
        # transposed: G[s, t] = (1/N) sum_i sig_1[s, i] conj(sig_1[t, i]).
        runtime = _Runtime(scenario=scenario, walsh=walsh, pn_chips=pn_chips,
                           warmup=1 if scenario.paths > 1 else 0, correlation=correlation,
                           noise_factor=np.linalg.cholesky(correlation[0, 0, :, 0].T))
        if scenario.hpa_mode == "bypass":
            runtime.eb = _linear_eb(cfg)
            return runtime

        runtime.walsh_chips = walsh_chip_indices(cfg)
        pn_samples = np.repeat(pn_chips, cfg.oversampling, axis=1).astype(np.float64)
        mean_tx_power = 2.0 * cfg.power * cfg.substreams * cfg.carriers
        if scenario.hpa_mode == "saleh":
            runtime.carriers = subcarrier_exponentials(cfg)
            runtime.pn_samples = pn_samples
            # Slot (r, m) of user 1 is w_r(chip i) pn_1(i) E_m(i) at sample i.
            runtime.carrier_correlator = np.ascontiguousarray(
                runtime.pn_samples[0, :, None] * runtime.carriers.conj().T)
            runtime.input_scale = input_scale_for_power(mean_tx_power, scenario.ibo_db,
                                                        scenario.saleh)
            runtime.linear_gain, runtime.amplified = 0.0, _tube_correlations
        else:
            # Output-referred back-off: the predistorter expects desired
            # output moduli, so the back-off is set against the saturated
            # output power.
            runtime.linear_gain = float(np.sqrt(scenario.saleh.saturation_output_power
                                                / (mean_tx_power * 10.0 ** (scenario.ibo_db / 10.0))))
            runtime.cells = _cell_grid(cfg, runtime.walsh_chips, pn_samples, scenario.paths)
            runtime.amplified = _excess_correlations
        runtime.eb, runtime.phase_offset = _calibrate(runtime)
    return runtime


def _carrier_coefficients(runtime: _Runtime, symbols: np.ndarray) -> np.ndarray:
    """b[c, n, m] = sqrt(2 power) sum_r d[n, r, m] w_r(c): symbol row n's
    real coefficient on carrier m during Walsh chip c, shape (walsh_order,
    rows, carriers).  symbols holds rows of (substreams, carriers) symbols,
    shape (..., substreams, carriers).  Row n's PN-free linear waveform is
    sum_m b[c, n, m] E_m(i) during chip c, with E_m(i) =
    e^{j (m+1) 2 pi W i / N} (txchain.subcarrier_exponentials): the shared
    modulation table (txchain.modulation_table) applied to the row."""
    cfg = runtime.scenario.config
    n_sub, n_car = cfg.substreams, cfg.carriers
    # (rows, carriers, substreams) @ (substreams, order) -> b[c, row, m]
    d = symbols.reshape(-1, n_sub, n_car).transpose(0, 2, 1).reshape(-1, n_sub)
    b = d.astype(np.float64) @ runtime.walsh
    b *= np.sqrt(2.0 * cfg.power)
    return np.ascontiguousarray(b.reshape(-1, n_car, cfg.walsh_order).transpose(2, 0, 1))


def _chip_bounds(chips: np.ndarray, order: int) -> np.ndarray:
    """The first sample position of each Walsh chip, then samples_per_symbol,
    given each position's nondecreasing chip index."""
    return np.searchsorted(chips, np.arange(order + 1))


def _chip_runs(chips: np.ndarray, start: int, stop: int):
    """(first, stop, chip) for each run of one Walsh chip in sample
    positions start..stop-1, given each position's nondecreasing chip index."""
    lo = start
    while lo < stop:
        chip = chips[lo]
        hi = min(int(np.searchsorted(chips, chip, side="right")), stop)
        yield lo, hi, chip
        lo = hi


def _waveform_tiles(runtime: _Runtime, symbols: np.ndarray):
    """Every symbol row's PN-free linear waveform in tiles, for the tube.

    symbols holds rows of (substreams, carriers) symbols, shape (...,
    substreams, carriers).  During Walsh chip c row n is
    sum_m b[c, n, m] E_m(i) (_carrier_coefficients), so each run of one
    Walsh chip within a slab of _SLAB_SAMPLES positions is one real GEMM of
    b[c] against the carrier exponentials with re/im interleaved.  Each run
    is yielded as (first position, tile), the tile complex, (rows, run
    length).

    The tube acts on |x|^2 alone, so for +-1 chips A(pn x) = pn A(x) holds
    bit for bit and the caller applies each user's chips after it."""
    cfg = runtime.scenario.config
    b = _carrier_coefficients(runtime, symbols)
    carriers = runtime.carriers.view(np.float64)
    for start in range(0, cfg.samples_per_symbol, _SLAB_SAMPLES):
        stop = min(start + _SLAB_SAMPLES, cfg.samples_per_symbol)
        for lo, hi, chip in _chip_runs(runtime.walsh_chips, start, stop):
            yield lo, (b[chip] @ carriers[:, 2 * lo:2 * hi]).view(np.complex128)


def _cell_grid(cfg: LinkConfig, chips: np.ndarray, pn_samples: np.ndarray,
               paths: int) -> _CellGrid:
    """The _CellGrid of a configuration, given each sample's Walsh chip
    index and every user's oversampled chips (users, samples_per_symbol)."""
    n_samp, order, size = cfg.samples_per_symbol, cfg.walsh_order, _CELL_SAMPLES
    bounds = _chip_bounds(chips, order)
    starts = np.concatenate([np.arange(lo, hi, size) for lo, hi in zip(bounds[:-1], bounds[1:])])
    lengths = np.minimum(starts + size, bounds[chips[starts] + 1]) - starts
    step = 2.0 * np.pi * order / n_samp
    harmonics = np.arange(1, cfg.carriers + 1)[:, None]
    middle = (size - 1) / 2.0
    span = np.arange(n_samp + (paths - 1) * cfg.oversampling + size - 1)
    span_bins = span // n_samp * order + chips[span % n_samp]
    padded = np.pad(pn_samples, ((0, 0), (0, size - 1)))
    return _CellGrid(
        starts=starts, lengths=lengths, chip_cells=np.searchsorted(starts, bounds),
        centres=np.exp(1j * step * harmonics * (starts + middle)),
        offsets=np.exp(1j * step * harmonics * (np.arange(size) - middle)),
        half_width=middle * step,
        delay_phases=np.exp(-1j * step * harmonics.T * cfg.oversampling * np.arange(paths)[:, None]),
        span_bins=span_bins, bin_starts=np.searchsorted(span_bins, np.arange(span_bins[-1] + 1)),
        user_chips=np.lib.stride_tricks.sliding_window_view(padded, size, axis=1),
        span_chips=np.lib.stride_tricks.sliding_window_view(pn_samples[0, span % n_samp], size))


def _peak_power_bound(b: np.ndarray) -> np.ndarray:
    """An upper bound on |sum_m b[..., m] e^{j (m+1) theta}|^2 over every
    angle theta, for real coefficients b: the power is
    rho_0 + 2 sum_{k>=1} rho_k cos(k theta) with rho_k = sum_m b_m b_{m+k},
    so it is at most rho_0 + 2 sum_k |rho_k| (Tellambura, Electron. Lett.
    33(19), 1997).  Shape b.shape[:-1]."""
    bound = np.einsum("...m,...m->...", b, b)
    for k in range(1, b.shape[-1]):
        bound += 2.0 * np.abs(np.einsum("...m,...m->...", b[..., :-k], b[..., k:]))
    return bound


def _cell_power_bound(grid: _CellGrid, b: np.ndarray, peak: np.ndarray, lo: int,
                      hi: int) -> np.ndarray:
    """An upper bound on the power of rows b (rows, carriers) of one Walsh
    chip over each of the chip's cells lo..hi-1, shape (rows, hi - lo),
    given each row's _peak_power_bound.

    The power P(phi) = |p(phi)|^2, p(phi) = sum_m b_m e^{j (m+1) phi}, is a
    real trigonometric polynomial of degree M - 1 in the carrier phase, so
    |P''| <= (M - 1)^2 max P <= (M - 1)^2 peak (Bernstein's inequality,
    twice), and within t of the anchor phi_0

        P <= P(phi_0) + |P'(phi_0)| t + (M - 1)^2 peak t^2 / 2.

    p and p' = j sum_m (m+1) b_m e^{j (m+1) phi} at every anchor are one
    real GEMM of the rows, and the rows times m+1, against the anchors'
    exponentials; P' = 2 Re(conj(p) p')."""
    rows, n_car = b.shape
    stacked = np.concatenate((b, b * np.arange(1, n_car + 1)))
    values = (stacked @ grid.centres.view(np.float64)[:, 2 * lo:2 * hi]).view(np.complex128)
    p, q = values[:rows], values[rows:]
    bound = np.square(p.real) + np.square(p.imag)
    slope = p.imag * q.real - p.real * q.imag
    bound += 2.0 * grid.half_width * np.abs(slope)
    bound += (0.5 * ((n_car - 1) * grid.half_width) ** 2) * peak[:, None]
    return bound


def _clip_power(runtime: _Runtime) -> float:
    """The linear waveform's power above which the predistorted tube clips:
    where linear_gain^2 |x|^2 exceeds the tube's peak output power."""
    return runtime.scenario.saleh.saturation_output_power / runtime.linear_gain**2


def _clipped_cells(runtime: _Runtime, b: np.ndarray):
    """The (symbol row, cell) pairs of the limiter that can clip, as
    (Walsh chip, rows, cells) chunks of up to _CELL_CHUNK pairs in one chip,
    for _formed_cells.

    b holds the rows' carrier coefficients (_carrier_coefficients).  A pair
    is kept unless the row's envelope bound over its Walsh chip
    (_peak_power_bound) or over the cell (_cell_power_bound) lies below the
    clip power; the margin of 1e-12 keeps exact ties and anything round-off
    could lift over it, and since NaN compares false a NaN bound keeps its
    pair."""
    grid = runtime.cells
    threshold = _clip_power(runtime) * (1.0 - 1e-12)
    peak = _peak_power_bound(b)
    for chip, (lo, hi) in enumerate(zip(grid.chip_cells[:-1], grid.chip_cells[1:])):
        rows = np.flatnonzero(~(peak[chip] < threshold))
        if rows.size == 0:
            continue
        row, cell = np.nonzero(~(_cell_power_bound(grid, b[chip, rows], peak[chip, rows], lo, hi)
                                 < threshold))
        row, cell = rows[row], cell + lo
        for first in range(0, row.size, _CELL_CHUNK):
            yield chip, row[first:first + _CELL_CHUNK], cell[first:first + _CELL_CHUNK]


def _formed_cells(runtime: _Runtime, b: np.ndarray, rows: np.ndarray, cells: np.ndarray) -> tuple:
    """(driven, excess) of a chunk of _clipped_cells, b being the rows'
    coefficients in its Walsh chip: each cell's PN-free samples times
    linear_gain, g x, shape (chunk, S), formed in one product through
    E_m(a + s) = E_m(a) E_m(s) (see _CellGrid), and what the limiter takes
    off them (hpa.envelope_excess), exactly zero below A_sat and outside
    the cell."""
    grid = runtime.cells
    driven = (runtime.linear_gain * b[rows] * grid.centres[:, cells].T) @ grid.offsets
    excess = envelope_excess(driven, runtime.scenario.saleh)
    short = np.flatnonzero(grid.lengths[cells] < _CELL_SAMPLES)
    excess[short] *= np.arange(_CELL_SAMPLES) < grid.lengths[cells[short], None]
    return driven, excess


def _calibrate(runtime: _Runtime) -> tuple:
    """Amplifier-mode waveform calibration: (energy per information bit,
    mean carrier rotation of the amplifier), both measured from one long
    fixed-seed frame.  The phase-transfer curve rotates the whole
    constellation by the mean shift at the operating drive level, and a
    coherent receiver tracks that rotation as part of its carrier reference,
    so it is folded into the reference path phase rather than left as a
    pointing error.  The frame is user 1's, whose chips change neither
    measure, so it is taken PN-free.

    The tube's frame is formed tile by tile.  The limiter's is the linear
    one, g x, but at its clipped samples, so no tile is formed: the linear
    energy is sum_c b_c^T Re(G_c) b_c over the rows' coefficients b_c in
    Walsh chip c, G_c the carriers' Gram matrix over the chip's samples,
    and the clipped cells (_clipped_cells) add what the excess e changes,
    |g x + e|^2 - |g x|^2.  The limiter keeps every phase, so its mean
    rotation is zero."""
    scenario = runtime.scenario
    cfg = scenario.config
    rng = np.random.default_rng(np.random.SeedSequence([scenario.master_seed, 1]))
    symbols = 2 * rng.integers(0, 2, size=(_CALIBRATION_SYMBOLS, cfg.substreams, cfg.carriers)) - 1
    if scenario.hpa_mode == "saleh":
        energy = 0.0
        cross = 0.0
        for _, linear in _waveform_tiles(runtime, symbols):
            tx = amplify_samples(runtime.input_scale * linear, scenario.saleh)
            energy += np.vdot(tx, tx).real
            cross += np.vdot(linear, tx)
        rotation = float(np.angle(cross))
    else:
        g = runtime.linear_gain
        b = _carrier_coefficients(runtime, symbols)
        carriers = subcarrier_exponentials(cfg)
        bounds = _chip_bounds(runtime.walsh_chips, cfg.walsh_order)
        linear_energy = sum(
            np.einsum("nm,mk,nk->", b[chip], (carriers[:, lo:hi] @ carriers[:, lo:hi].conj().T).real,
                      b[chip])
            for chip, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])))
        energy = g * g * linear_energy
        for chip, rows, cells in _clipped_cells(runtime, b):
            driven, excess = _formed_cells(runtime, b[chip], rows, cells)
            energy += np.vdot(excess, excess).real + 2.0 * np.vdot(driven, excess).real
        rotation = 0.0
    mean_power = energy / (_CALIBRATION_SYMBOLS * cfg.samples_per_symbol)
    return mean_power * cfg.symbol_duration / cfg.bits_per_symbol, rotation


def _linear_eb(cfg: LinkConfig) -> float:
    """Energy per information bit of the linear chain, in closed form."""
    return 2.0 * cfg.power * cfg.symbol_duration


def _simulate_block(runtime: _Runtime, point_index: int, block_index: int, ebn0_db: float):
    """One independent trial block: fresh channel, fresh data, fresh noise.
    Returns (errors, bits) for user 1's counted symbols."""
    scenario = runtime.scenario
    cfg = scenario.config
    rng = np.random.default_rng(
        np.random.SeedSequence([scenario.master_seed, 0, point_index, block_index]))

    channel = draw_channel(rng, cfg.users, scenario.paths, scenario.decay_db, scenario.fading)
    symbols = _draw_symbols(rng, cfg, scenario.symbols_per_block + runtime.warmup)
    z = _correlation_outputs(runtime, channel, symbols, ebn0_db, rng)
    return decide_slots(z[runtime.warmup:], symbols[0, runtime.warmup:])


def _draw_symbols(rng: np.random.Generator, cfg: LinkConfig, n_total: int) -> np.ndarray:
    """Every user's +-1 symbols, shape (users, n_total, substreams, carriers)."""
    return (2 * rng.integers(0, 2, size=(cfg.users, n_total, cfg.substreams, cfg.carriers)) - 1
            ).astype(np.int8)


def _correlation_outputs(runtime: _Runtime, channel, symbols: np.ndarray, ebn0_db: float,
                         rng: np.random.Generator) -> np.ndarray:
    """User 1's correlator outputs, shape (symbols, substreams, carriers),
    in every hpa_mode:

        z = g sqrt(2 power) e^{-j theta} T + W + noise.

    T[n] = sum_k sum_l h_kl (d_k[n] @ C[k, 0, :, l] + d_k[n-1] @ C[k, 1, :, l])
    is the linear chain's correlation, C being the runtime's partial
    cross-correlation tables (receiver.correlate_tables), and g the
    runtime's linear_gain.  W is what the amplifier adds to g times the
    linear waveform, correlated against user 1's signatures per Walsh chip
    (runtime.amplified; zero without an amplifier) and Walsh-combined
    (receiver.combine_walsh_chips).  theta is user 1's reference-path phase
    plus the amplifier's mean rotation.  The noise is drawn per correlator
    output, with the covariance white sample noise would give there.
    Noiseless, the outputs are those of the sample chain (modulate,
    amplify, propagate, correlate) up to round-off."""
    cfg = runtime.scenario.config
    n_total = symbols.shape[1]
    gains = _path_gains(channel)
    theta = channel.phases[0, 0] + runtime.phase_offset
    z = correlate_tables(runtime.correlation, symbols, gains)
    z *= runtime.linear_gain * np.sqrt(2.0 * cfg.power) * np.exp(-1j * theta)
    per_chip = None if runtime.amplified is None else runtime.amplified(runtime, symbols, gains)
    if per_chip is not None:
        z += combine_walsh_chips(per_chip, runtime.walsh, cfg.samples_per_symbol, theta)
    if runtime.scenario.noise_enabled:
        z += _correlator_noise(runtime, ebn0_db, runtime.noise_factor, n_total, rng)
    return z.reshape(n_total, cfg.substreams, cfg.carriers)


def _tube_correlations(runtime: _Runtime, symbols: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """W of a tube block per (Walsh chip, window): the noiseless received
    frame through the tube, cut into the (symbols, samples_per_symbol)
    correlator windows and correlated per Walsh chip
    (receiver.chip_correlations).  The frame holds every user's amplified
    waveform, built tile by tile over all users' symbols at once
    (_waveform_tiles), times its chips.  Per path l, the users' tiles are
    summed with their gains h_kl in one product and added into a
    (symbols, samples) view of the frame shifted by the path delay.  The
    part that falls past the last window is dropped, as the correlator
    drops it."""
    scenario = runtime.scenario
    cfg = scenario.config
    users, n_total = symbols.shape[:2]
    length = n_total * cfg.samples_per_symbol
    shifts = [l * cfg.oversampling for l in range(scenario.paths)]
    received = np.zeros(length + shifts[-1], dtype=np.complex128)
    delayed = [received[shift:shift + length].reshape(n_total, -1) for shift in shifts]
    for start, linear in _waveform_tiles(runtime, symbols):
        tx = amplify_samples(runtime.input_scale * linear, scenario.saleh)
        stop = start + tx.shape[1]
        tx = tx.reshape(users, n_total, stop - start) * runtime.pn_samples[:, None, start:stop]
        for frame, gain in zip(delayed, gains.T):
            frame[:, start:stop] += np.tensordot(gain, tx, axes=1)
    return chip_correlations(delayed[0], runtime.carrier_correlator, runtime.walsh_chips,
                             cfg.walsh_order)


def _excess_correlations(runtime: _Runtime, symbols: np.ndarray, gains: np.ndarray):
    """W of a limiter block per (Walsh chip, window): what the limiter takes
    off the samples of the cells that can clip (_clipped_cells), times each
    user's chips, received on every path and correlated directly
    (_add_cell_correlations), one chunk of cells at a time; None when no
    cell can clip.  What falls past the last window is dropped, as the
    correlator drops it."""
    cfg = runtime.scenario.config
    n_total = symbols.shape[1]
    b = _carrier_coefficients(runtime, symbols)
    total = None
    for chip, rows, cells in _clipped_cells(runtime, b):
        if total is None:
            total = np.zeros((cfg.walsh_order, n_total + 1, cfg.carriers), dtype=np.complex128)
        _add_cell_correlations(total, runtime, rows, cells,
                               _formed_cells(runtime, b[chip], rows, cells)[1], gains)
    return None if total is None else total[:, :n_total]


def _add_cell_correlations(total: np.ndarray, runtime: _Runtime, rows: np.ndarray,
                           cells: np.ndarray, excess: np.ndarray, gains: np.ndarray) -> None:
    """Add the correlations of one chunk of cells' excess (_formed_cells)
    into total, the block's per-(Walsh chip, window) sums, shape
    (walsh_order, symbols + 1, carriers).

    A cell of user k on path l at delay D adds, to window n' and user 1's
    Walsh chip c' of its delayed span,

        h_kl conj(E_m(a) E_m(D)) sum_s e(s) pn_k(i_s) pn_1(i_s + D) conj(E_m(s)),

    since the correlator's conj(E_m) at position a + D + s factors as its
    sample does (_CellGrid).  The sums over s are one (cells, S) @ (S,
    carriers) product per path; a span that crosses into the next Walsh
    chip or window, which it can do once, is split there into two rows.
    Rows are summed over runs of equal (chip, window) and added in."""
    cfg = runtime.scenario.config
    grid = runtime.cells
    order, n_total = cfg.walsh_order, total.shape[1] - 1
    offsets = np.arange(_CELL_SAMPLES)
    conj_offsets = grid.offsets.conj().T
    user, window = np.divmod(rows, n_total)
    starts = grid.starts[cells]
    ends = starts + grid.lengths[cells] - 1
    excess *= grid.user_chips[user, starts]
    anchors = grid.centres[:, cells].T.conj()
    sums = total.reshape(-1, cfg.carriers)
    for path, gain in enumerate(gains[user].T):
        delay = path * cfg.oversampling
        weights = excess * grid.span_chips[starts + delay]
        first, last = grid.span_bins[starts + delay], grid.span_bins[ends + delay]
        split = np.flatnonzero(first != last)
        tail = weights[split] * (offsets >= (grid.bin_starts[last[split]]
                                             - starts[split] - delay)[:, None])
        weights[split] -= tail
        out = np.concatenate((weights @ conj_offsets, tail @ conj_offsets))
        factor = anchors * (gain[:, None] * grid.delay_phases[path])
        out *= np.concatenate((factor, factor[split]))
        bins = np.concatenate((first, last[split]))
        key = bins % order * (n_total + 1) + np.concatenate((window, window[split])) + bins // order
        heads = np.flatnonzero(np.diff(key, prepend=-1))
        np.add.at(sums, key[heads], np.add.reduceat(out, heads))


def _source_outputs(runtime: _Runtime, channel, symbols: np.ndarray, ebn0_db: float,
                    rng: np.random.Generator) -> dict:
    """User 1's slot (1, 1) correlator output of _correlation_outputs, split
    by origin: one (symbols,) array per receiver.SOURCE_NAMES entry, each a
    subset of the terms of the same sum at target slot 0.

    desired is user 1's slot (1, 1) on path 0 and multipath the same symbols
    on the later paths; inter_substream is user 1's other substreams on
    carrier 1 and inter_carrier its other carriers, both on every path;
    multi_user is every other user.  The noise is drawn per output with
    slot (1, 1)'s variance (user 1's Gram entry), and is zero with the noise
    off.  The six sum to the noiseless slot-0 output plus that noise."""
    scale = np.sqrt(2.0 * runtime.scenario.config.power) * np.exp(-1j * channel.phases[0, 0])
    gains = _path_gains(channel)
    own, others = runtime.correlation[:1, ..., :1], runtime.correlation[1:, ..., :1]
    d = symbols[:1]
    wanted, substreams, carriers = (np.zeros_like(d) for _ in range(3))
    wanted[..., 0, 0] = d[..., 0, 0]
    substreams[..., 1:, 0] = d[..., 1:, 0]
    carriers[..., 1:] = d[..., 1:]
    first, later = gains[:1].copy(), gains[:1].copy()
    first[:, 1:] = 0
    later[:, 0] = 0

    def term(tables, kept, path_gains):
        return scale * correlate_tables(tables, kept, path_gains)[:, 0]

    sources = {
        "desired": term(own, wanted, first),
        "multipath": term(own, wanted, later),
        "inter_substream": term(own, substreams, gains[:1]),
        "inter_carrier": term(own, carriers, gains[:1]),
        "multi_user": term(others, symbols[1:], gains[1:]),
    }
    n_total = symbols.shape[1]
    if runtime.scenario.noise_enabled:
        sources["noise"] = _correlator_noise(runtime, ebn0_db, runtime.noise_factor[:1, :1],
                                             n_total, rng)[:, 0]
    else:
        sources["noise"] = np.zeros(n_total, dtype=np.complex128)
    return sources


def _path_gains(channel) -> np.ndarray:
    """Complex gains h_kl of every user's paths, shape (users, paths)."""
    return channel.gains * np.exp(1j * channel.phases)


def _correlator_noise(runtime: _Runtime, ebn0_db: float, factor: np.ndarray, n_total: int,
                      rng: np.random.Generator) -> np.ndarray:
    cfg = runtime.scenario.config
    return correlator_noise(ebn0_db, runtime.eb, cfg.sample_rate / cfg.samples_per_symbol,
                            factor, n_total, rng)


# Thread-count calls of the OpenBLAS builds numpy and scipy ship (64-bit
# integer and plain interfaces), as (getter, setter) symbol names.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_calls() -> list:
    """(get, set) thread-count functions of every OpenBLAS mapped into this
    process; empty when there is none or /proc/self/maps cannot be read."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return []
    calls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                calls.append((get, set_))
                break
    return calls


@contextmanager
def _single_threaded_blas():
    """Run the body with every loaded OpenBLAS at one thread, then restore
    the caller's counts.

    A block's GEMMs are small, so BLAS threads only add synchronization, and
    under the fork pool they oversubscribe the cores.  The count is set in
    the parent before the pool forks, which is what workers inherit; setting
    OPENBLAS_NUM_THREADS in os.environ at that point has no effect, because
    the library reads it only when it is loaded.
    """
    calls = _openblas_thread_calls()
    saved = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(calls, saved):
            set_(count)


# Set in the parent before the pool forks so workers inherit the prepared
# tables instead of receiving them pickled with every task.
_WORKER_RUNTIME: _Runtime | None = None


def _worker_block(args):
    point_index, block_index, ebn0_db = args
    return _simulate_block(_WORKER_RUNTIME, point_index, block_index, ebn0_db)


def run_scenario(scenario: Scenario, workers: int = 1) -> RunReport:
    """Monte Carlo BER sweep with the scenario's stopping rule.

    Stops a point once the wave totals reach min_errors (and any configured
    min_bits / min_blocks floors), or flags the record censored when
    max_bits runs out first.  Identical (scenario, master_seed) give
    identical records at any worker count; workers must be an integer
    >= 1, and above 1 each wave's blocks run on a fork pool.
    """
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    runtime = _prepare(scenario)
    cfg = scenario.config
    records = []
    point_seconds = []

    pool = None
    with _single_threaded_blas():
        try:
            if workers > 1:
                global _WORKER_RUNTIME
                _WORKER_RUNTIME = runtime
                pool = get_context("fork").Pool(workers)

            for point_index, ebn0_db in enumerate(scenario.ebn0_grid):
                started = time.perf_counter()
                errors = 0
                bits = 0
                blocks = 0
                while True:
                    block_ids = range(blocks, blocks + scenario.blocks_per_wave)
                    if pool is None:
                        results = [_simulate_block(runtime, point_index, b, float(ebn0_db))
                                   for b in block_ids]
                    else:
                        # One contiguous range of the wave per worker.
                        results = pool.map(
                            _worker_block,
                            [(point_index, b, float(ebn0_db)) for b in block_ids],
                            chunksize=math.ceil(scenario.blocks_per_wave / workers))
                    for block_errors, block_bits in results:
                        errors += block_errors
                        bits += block_bits
                    blocks += scenario.blocks_per_wave
                    if bits >= scenario.max_bits:
                        break
                    if (errors >= scenario.min_errors and bits >= scenario.min_bits
                            and blocks >= scenario.min_blocks):
                        break
                censored = errors < scenario.min_errors
                records.append(BerRecord(
                    scenario=scenario.name, ebn0_db=float(ebn0_db), users=cfg.users,
                    substreams=cfg.substreams, carriers=cfg.carriers, hpa_mode=scenario.hpa_mode,
                    ibo_db=None if scenario.hpa_mode == "bypass" else float(scenario.ibo_db),
                    bits=bits, errors=errors, ber=errors / bits, ci95=binomial_ci95(errors, bits),
                    source="monte-carlo", seed=scenario.master_seed, censored=censored))
                point_seconds.append(time.perf_counter() - started)
        finally:
            if pool is not None:
                pool.close()
                pool.join()
                _WORKER_RUNTIME = None

    return RunReport(scenario=scenario, records=records, point_seconds=point_seconds)


def estimate_interference_variances(runtime: _Runtime, channel, ebn0_db: float,
                                    rng: np.random.Generator, n_symbols: int,
                                    chunk: int = 256) -> InterferenceVariances:
    """Sample variances of the decomposed correlator components
    (_source_outputs) over n_symbols random-data symbols on one fixed
    channel realization of a linear-chain runtime.

    Symbols and noise are drawn chunk by chunk.  With several paths each
    chunk is preceded by one uncounted warmup symbol, so that the missing
    previous symbol at its start does not bias the estimates.
    """
    if n_symbols < 2:
        raise ValueError(f"need at least 2 symbols for a sample variance, got {n_symbols}")
    cfg = runtime.scenario.config
    collected = {name: [] for name in SOURCE_NAMES}
    for start in range(0, n_symbols, chunk):
        symbols = _draw_symbols(rng, cfg, min(chunk, n_symbols - start) + runtime.warmup)
        for name, z in _source_outputs(runtime, channel, symbols, ebn0_db, rng).items():
            collected[name].append(z[runtime.warmup:])

    z_by_name = {name: np.concatenate(parts) for name, parts in collected.items()}
    variances = {name: float(np.var(z_by_name[name], ddof=1)) for name in SOURCE_NAMES[1:]}
    scenario = runtime.scenario
    mean_gain = path_power_profile(scenario.paths, scenario.decay_db)[0]
    return InterferenceVariances(
        desired_power=float(np.mean(np.abs(z_by_name["desired"]) ** 2)),
        n_symbols=n_symbols, reference_gain=float(channel.gains[0, 0] ** 2 / mean_gain),
        **variances)


def measure_variances(scenario: Scenario, ebn0_db: float | None = None, n_symbols: int = 2000):
    """Interference-variance diagnostic for one scenario at one sweep point,
    on one channel drawn from SeedSequence([master_seed, 2]).

    Only the linear chain supports the source split; amplifier modes raise."""
    if scenario.hpa_mode != "bypass":
        raise ValueError("interference decomposition needs the linear chain; "
                         f"hpa_mode={scenario.hpa_mode!r} breaks superposition")
    runtime = _prepare(scenario)
    cfg = scenario.config
    point = scenario.ebn0_grid[0] if ebn0_db is None else ebn0_db
    rng = np.random.default_rng(np.random.SeedSequence([scenario.master_seed, 2]))
    channel = draw_channel(rng, cfg.users, scenario.paths, scenario.decay_db, scenario.fading)
    with _single_threaded_blas():
        return estimate_interference_variances(runtime, channel, float(point), rng, n_symbols)


def leaf_fields(instance):
    """(field, value) for every leaf field of a dataclass instance, in
    declaration order, walking into nested dataclass fields such as
    Scenario.config and Scenario.saleh.  The leaf names of a Scenario are the
    config-file keys, so they must be unique across the nested classes."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        if is_dataclass(value):
            yield from leaf_fields(value)
        else:
            yield f, value


def _echo_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
        return repr(float(value))
    if kind == "tuple":
        return ",".join(repr(float(x)) for x in value)
    return str(value)


def scenario_echo(scenario: Scenario) -> dict:
    """Flat key=value view of a scenario, one entry per config-file key,
    in a form the config reader parses back to the same scenario."""
    return {f.name: _echo_value(declared_type(f), value) for f, value in leaf_fields(scenario)}


def preset(name: str, master_seed: int | None = None) -> list:
    """Named scenario families for the standard experiments.

    system-comparison: multicode-multicarrier vs the two degenerate systems,
    20 users, Rayleigh fading, bandwidth allocations matched to each system's
    spreading structure.  user-sweep: 1/10/50 simultaneous users.
    carrier-sweep: 2/4/8 carriers resolving the same physical delay spread.
    linearization: tube amplifier at 7 and 9 dB back-off against the
    predistorted chain.  Aliases fig5..fig8 name the same families.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
    scenarios = PRESETS[name]()
    if master_seed is not None:
        scenarios = [replace(s, master_seed=master_seed) for s in scenarios]
    return scenarios


_FADING_STOP = dict(min_errors=300, min_blocks=256, max_bits=10_000_000)


def _preset_system_comparison() -> list:
    """Three systems at the same per-branch power and user count; each gets
    the bandwidth its own spreading structure calls for, and the wideband
    single-carrier system resolves correspondingly more chip-spaced paths."""
    combined = Scenario(
        name="multicode-multicarrier",
        config=LinkConfig(users=20, substreams=8, carriers=8, walsh_order=8, pn_length=1023),
        paths=1, fading=True, **_FADING_STOP)
    multicode = Scenario(
        name="multicode-only",
        config=LinkConfig(users=20, substreams=8, carriers=1, walsh_order=8, pn_length=1023),
        paths=8, decay_db=0.0, fading=True, **_FADING_STOP)
    multicarrier = Scenario(
        name="multicarrier-only",
        config=LinkConfig(users=20, substreams=1, carriers=8, walsh_order=1, pn_length=31),
        paths=1, fading=True, **_FADING_STOP)
    return [combined, multicode, multicarrier]


def _preset_user_sweep() -> list:
    scenarios = []
    for users in (1, 10, 50):
        scenarios.append(Scenario(
            name=f"users-{users}",
            config=LinkConfig(users=users, substreams=8, carriers=8, walsh_order=8,
                              pn_length=1023),
            paths=1, fading=True, **_FADING_STOP))
    return scenarios


def _preset_carrier_sweep() -> list:
    """More carriers stretch the symbol and shrink the resolvable delay
    spread: the same physical channel collapses from three chip-spaced paths
    at 2 carriers to a single path at 8."""
    plans = [
        (2, 255, 3, 0.0),
        (4, 511, 2, 10.0 * np.log10(2.0)),
        (8, 1023, 1, 0.0),
    ]
    scenarios = []
    for carriers, pn_length, paths, decay_db in plans:
        scenarios.append(Scenario(
            name=f"carriers-{carriers}",
            config=LinkConfig(users=20, substreams=8, carriers=carriers, walsh_order=8,
                              pn_length=pn_length),
            paths=paths, decay_db=decay_db, fading=True, **_FADING_STOP))
    return scenarios


def _preset_linearization() -> list:
    base = LinkConfig(users=20, substreams=8, carriers=8, walsh_order=8, pn_length=4095)
    # The three curves sit within a factor of two of each other near 10 dB,
    # so the error floor alone (min_errors=200) leaves overlapping intervals;
    # the bits floor tightens them enough to separate the arms.
    stop = dict(min_errors=200, min_bits=131_072, max_bits=10_000_000,
                symbols_per_block=32)
    return [
        Scenario(name="amplifier-ibo-7db", config=base, hpa_mode="saleh", ibo_db=7.0, **stop),
        Scenario(name="amplifier-ibo-9db", config=base, hpa_mode="saleh", ibo_db=9.0, **stop),
        Scenario(name="amplifier-linearized", config=base, hpa_mode="saleh_pd", ibo_db=7.0, **stop),
    ]


# Every name preset() accepts, mapped to its family's builder.
PRESETS = {
    "fig5": _preset_system_comparison, "system-comparison": _preset_system_comparison,
    "fig6": _preset_user_sweep, "user-sweep": _preset_user_sweep,
    "fig7": _preset_carrier_sweep, "carrier-sweep": _preset_carrier_sweep,
    "fig8": _preset_linearization, "linearization": _preset_linearization,
}


def _iter_records(reports):
    if isinstance(reports, RunReport):
        yield from reports.records
    elif isinstance(reports, BerRecord):
        yield reports
    else:
        for item in reports:
            yield from _iter_records(item)


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(reports, path) -> None:
    """Write records (a RunReport, a record list, or a list of either) to a
    CSV file with deterministic bytes; floats use shortest round-trip form."""
    lines = [CSV_HEADER]
    for rec in _iter_records(reports):
        lines.append(",".join([
            rec.scenario, repr(float(rec.ebn0_db)), str(rec.users), str(rec.substreams),
            str(rec.carriers), rec.hpa_mode, _format_field(rec.ibo_db), str(rec.bits),
            str(rec.errors), repr(float(rec.ber)), repr(float(rec.ci95)), rec.source,
            _format_field(rec.seed),
        ]))
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def parse_csv(path) -> list:
    """Read back an emit_csv file into BerRecord values."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized CSV header in {path}")
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 13:
            raise ValueError(f"malformed CSV row: {line!r}")
        records.append(BerRecord(
            scenario=parts[0], ebn0_db=float(parts[1]), users=int(parts[2]),
            substreams=int(parts[3]), carriers=int(parts[4]), hpa_mode=parts[5],
            ibo_db=None if parts[6] == "" else float(parts[6]), bits=int(parts[7]),
            errors=int(parts[8]), ber=float(parts[9]), ci95=float(parts[10]),
            source=parts[11], seed=None if parts[12] == "" else int(parts[12])))
    return records

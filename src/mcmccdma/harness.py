"""Monte Carlo engine, scenario presets and CSV emission.

Determinism contract: every simulated block draws from its own generator,
seeded by the master seed and the block's (point, block) indices alone
(_block_draws), blocks are grouped into fixed-size waves, and the stopping
rule is evaluated only on completed waves.  Error and bit counts are integer
sums over a wave, so the emitted records (and CSV bytes) are identical for
any worker count and any execution order.  Each +-1 symbol costs one bit of
the generator's raw 64-bit words, taken little-endian (_draw_symbols).

A run forks no pool up front.  Its blocks run in the calling process until
their summed time reaches _SERIAL_BUDGET_S, several times what a fork pool
costs to start and tear down; only then, and only with workers > 1, does a
pool of workers - 1 processes fork, the calling process running the first
share of every later wave itself (run_scenario).

A block (_simulate_block) is four steps, one function each, common to
every hpa_mode: the draws (_block_draws: the channel, then every user's
symbols), user 1's noiseless correlator outputs (_correlation_outputs),
one correlator noise draw when the noise is on (channel.correlator_noise),
and the decisions (receiver.decide_slots).  The noise enters after the
amplifier and the channel, so the noiseless outputs do not depend on
Eb/N0, and neither producer takes it or a generator.  A block's outputs are

    z = g sqrt(2 power) e^{-j theta} T + W + noise,

theta being user 1's reference-path phase plus the amplifier's mean
rotation (none without an amplifier).

- T is the linear chain's correlation, straight from the symbols.  The
  correlator is linear in every user's symbols, so per scenario it
  tabulates the partial cross-correlations between each user's delayed
  chip stream and user 1's Walsh chips, one carrier block per (path, chip,
  user, chip lag) with the Walsh rows factored out
  (receiver.partial_correlation_tables).  Each block Walsh-transforms every
  user's symbols, weighs the tables by the block's path gains and forms
  user 1's per-chip sums in one product per Walsh chip
  (receiver.correlate_tables).
  The interference decomposition (measure_variances) reads the same
  tables: each source is a subset of the terms of that sum at user 1's
  first slot, so the split multiplies the tables' column for that slot
  out over the Walsh rows (receiver.slot_tables) and is one product for
  user 1, times a 0/1 mask per source, and one for the other users.
- W correlates what the amplifier adds to g times the linear waveform
  against user 1's signatures with the Walsh chips factored out: per-chip
  sums (receiver.chip_correlations) of the same shape as T's, with which
  they share one Walsh combine (receiver.combine_walsh_chips).
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
    runs over cells of up to 16 samples, cut so that no path delays a cell
    across a Walsh chip or window boundary (_CellGrid): an envelope bound
    on each symbol row over each Walsh chip (_peak_power_bound) and then
    over each cell (_cell_power_bound), both read off the row's power
    autocorrelations (_autocorrelations), rule out most cells before any
    sample is formed.  The kept cells are formed a chunk at a time in one
    product (_formed_cells), and the limiter's real factor
    (hpa.limiter_factor) gives what is clipped; about 80% of the formed
    samples clip on amplifier-linearized.  The cells are correlated
    directly, one small product per path, into per-(Walsh chip, window)
    sums.
- The noise is drawn per correlator output (channel.correlator_noise),
  with the covariance white sample noise would leave there: a factor of
  user 1's Gram matrix, from the same tables (receiver.signature_gram).

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
from functools import cached_property

import numpy as np
import numpy.random  # numpy 2 loads it on first use: pay that here, not in the first block

from .analysis import BerRecord, binomial_ci95
from .channel import correlator_noise, draw_channel, path_power_profile
from .codes import PRIMITIVE_TAPS, generate_msequence, generate_walsh
from .hpa import SalehParams, amplify_samples, input_scale_for_power, limiter_factor
from .receiver import (SOURCE_NAMES, InterferenceVariances, _work_array, chip_correlations,
                       combine_walsh_chips, correlate_tables, decide_slots,
                       partial_correlation_tables, signature_gram, slot_tables)
from .txchain import (LinkConfig, check_field_types, declared_type, subcarrier_exponentials,
                      substream_walsh_rows, walsh_chip_bounds)

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
    """The cells of the limiter's clip search ("saleh_pd"): the symbol cut at
    every Walsh chip bound (txchain.walsh_chip_bounds) and at every position
    that a path delay carries onto a chip bound of the same or the next
    window, each piece cut into runs of up to _CELL_SAMPLES consecutive
    sample positions, and the per-cell tables through which a cell's samples
    are bounded, formed and correlated without any other sample.

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
    there times the half width t of a cell is rho[1:] . slope_terms[:, q]."""

    starts: np.ndarray          # (cells,)
    lengths: np.ndarray         # (cells,)
    chip_cells: np.ndarray      # (walsh_order + 1,)
    centres: np.ndarray         # E_m(a) at every anchor, C-contiguous (cells, carriers) complex
    offsets: np.ndarray         # E_m(s), (carriers, S) complex
    cos_terms: np.ndarray       # 1 and 2 cos(k phi_a) for k >= 1, (carriers, cells)
    slope_terms: np.ndarray     # -2 k t sin(k phi_a), k = 1 .. carriers - 1, (carriers - 1, cells)
    half_width: float           # (S - 1)/2 samples as carrier phase 2 pi W i / N: t
    delay_phases: np.ndarray    # conj(E_m(D_l)) per path delay, (paths, carriers)
    user_chips: np.ndarray      # (users, cells, S) int8
    span_chips: np.ndarray      # (paths, cells, S) int8
    bin_chips: np.ndarray       # (paths, cells)
    bin_windows: np.ndarray     # (paths, cells)


@dataclass
class _Runtime:
    """Precomputed per-scenario tables shared by every block.

    The fields down to phase_offset serve every mode, and are all that a
    block needs without an amplifier: the tables of its linear term, the
    noise factor, the energy per bit the noise is matched to, the linear
    term's gain g, and the amplifier's mean rotation.  The
    amplifier modes ("saleh" and "saleh_pd") also fill amplified, the
    function that forms a block's W; the tube ("saleh") the
    fields from which _waveform_tiles forms every user's PN-free waveform,
    pn_samples and carrier_correlator, against which its received windows
    are correlated; the limiter ("saleh_pd") the cell grid of its clip
    search.  So a bypass runtime holds no sample table and a saleh_pd
    runtime no carrier table.  The Walsh chips' geometry is
    txchain.walsh_chip_bounds of the configuration throughout."""

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
    # the working arrays of the blocks' correlate_tables and of the limiter's
    # cell chunks (receiver._work_array), reused block to block
    work: dict = field(default_factory=dict)

    @cached_property
    def slot_column(self) -> np.ndarray:
        """[k, w, (r, m), l, 0]: what user k's slot (r, m) of window w puts
        into user 1's slot (1, 1) via path l (receiver.slot_tables), built
        on first use by the interference split (_source_outputs)."""
        return slot_tables(self.correlation[..., :1], self.walsh, self.walsh[:1])


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
        correlation = partial_correlation_tables(pn_chips, cfg, scenario.paths)
        runtime = _Runtime(scenario=scenario, walsh=walsh, pn_chips=pn_chips,
                           warmup=1 if scenario.paths > 1 else 0, correlation=correlation,
                           noise_factor=np.linalg.cholesky(signature_gram(correlation, walsh)))
        if scenario.hpa_mode == "bypass":
            runtime.eb = _linear_eb(cfg)
            return runtime

        mean_tx_power = 2.0 * cfg.power * cfg.substreams * cfg.carriers
        if scenario.hpa_mode == "saleh":
            runtime.carriers = subcarrier_exponentials(cfg)
            runtime.pn_samples = np.repeat(pn_chips, cfg.oversampling, axis=1).astype(np.float64)
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
            runtime.cells = _cell_grid(cfg, pn_chips, scenario.paths)
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


def _waveform_tiles(runtime: _Runtime, symbols: np.ndarray):
    """Every symbol row's PN-free linear waveform in tiles, for the tube.

    symbols holds rows of (substreams, carriers) symbols, shape (...,
    substreams, carriers).  During Walsh chip c row n is
    sum_m b[c, n, m] E_m(i) (_carrier_coefficients), so each run of one
    Walsh chip (txchain.walsh_chip_bounds) within a slab of _SLAB_SAMPLES
    positions is one real GEMM of b[c] against the carrier exponentials with
    re/im interleaved.  Each run is yielded as (first position, tile), the
    tile complex, (rows, run length), in order of position.

    The tube acts on |x|^2 alone, so for +-1 chips A(pn x) = pn A(x) holds
    bit for bit and the caller applies each user's chips after it."""
    b = _carrier_coefficients(runtime, symbols)
    carriers = runtime.carriers.view(np.float64)
    bounds = walsh_chip_bounds(runtime.scenario.config)
    for chip, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        cuts = [lo, *range((lo // _SLAB_SAMPLES + 1) * _SLAB_SAMPLES, hi, _SLAB_SAMPLES), hi]
        for first, last in zip(cuts[:-1], cuts[1:]):
            yield first, (b[chip] @ carriers[:, 2 * first:2 * last]).view(np.complex128)


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
    return _CellGrid(
        starts=starts, lengths=lengths, chip_cells=np.searchsorted(starts, bounds),
        centres=np.exp(1j * step * harmonics * (starts + middle)[:, None]),
        offsets=np.exp(1j * step * np.outer(harmonics, np.arange(size) - middle)),
        cos_terms=np.concatenate((np.ones((1, starts.size)), 2.0 * np.cos(k * phases))),
        slope_terms=-2.0 * middle * step * k * np.sin(k * phases),
        half_width=middle * step,
        delay_phases=np.exp(-1j * step * np.outer(delays, harmonics)),
        user_chips=np.take(pn_chips, positions[0] % n_samp // cfg.oversampling, axis=1),
        span_chips=pn_chips[0, positions % n_samp // cfg.oversampling] * inside.view(np.int8),
        bin_chips=np.searchsorted(bounds, span % n_samp, side="right") - 1,
        bin_windows=span // n_samp)


def _autocorrelations(b: np.ndarray) -> np.ndarray:
    """rho[k, ...] = sum_m b[..., m] b[..., m + k] for k = 0 .. M - 1, the
    coefficients of a row's power |sum_m b_m e^{j (m+1) phi}|^2 =
    rho_0 + 2 sum_{k>=1} rho_k cos(k phi), for real b.  Shape
    (M, *b.shape[:-1])."""
    n_car = b.shape[-1]
    b = np.ascontiguousarray(np.moveaxis(b, -1, 0))
    rho = np.empty(b.shape)
    for k in range(n_car):
        np.einsum("m...,m...->...", b[:n_car - k], b[k:], out=rho[k])
    return rho


def _peak_power_bound(rho: np.ndarray) -> np.ndarray:
    """An upper bound on a row's power over every angle, from its
    _autocorrelations: rho_0 + 2 sum_k |rho_k| (Tellambura, Electron. Lett.
    33(19), 1997).  Shape rho.shape[1:]."""
    return rho[0] + 2.0 * np.abs(rho[1:]).sum(axis=0)


def _cell_power_bound(grid: _CellGrid, rho: np.ndarray, peak: np.ndarray, lo: int,
                      hi: int) -> np.ndarray:
    """An upper bound on the power of rows of one Walsh chip over each of
    the chip's cells lo..hi-1, shape (rows, hi - lo), given the rows'
    _autocorrelations rho (carriers, rows) and _peak_power_bound.

    The power P(phi) = rho_0 + 2 sum_k rho_k cos(k phi) is a real
    trigonometric polynomial of degree M - 1 in the carrier phase, so
    |P''| <= (M - 1)^2 max P <= (M - 1)^2 peak (Bernstein's inequality,
    twice), and within t of the anchor phi_0

        P <= P(phi_0) + |P'(phi_0)| t + (M - 1)^2 peak t^2 / 2,

    P(phi_0) and P'(phi_0) t being two real products of rho against the
    grid's cos_terms and slope_terms."""
    n_car = rho.shape[0]
    bound = rho.T @ grid.cos_terms[:, lo:hi]
    slope = rho[1:].T @ grid.slope_terms[:, lo:hi]
    bound += np.abs(slope, out=slope)
    bound += (0.5 * ((n_car - 1) * grid.half_width) ** 2) * peak[:, None]
    return bound


def _clip_power(runtime: _Runtime) -> float:
    """The linear waveform's power above which the predistorted tube clips:
    where linear_gain^2 |x|^2 exceeds the tube's peak output power."""
    return runtime.scenario.saleh.saturation_output_power / runtime.linear_gain**2


def _driven_coefficients(runtime: _Runtime, symbols: np.ndarray) -> np.ndarray:
    """The limiter's drive per (Walsh chip, symbol row, carrier):
    linear_gain times _carrier_coefficients, so that its samples are
    compared with A_sat directly."""
    b = _carrier_coefficients(runtime, symbols)
    b *= runtime.linear_gain
    return b


def _clipped_cells(runtime: _Runtime, b: np.ndarray):
    """The (symbol row, cell) pairs of the limiter that can clip, as
    (Walsh chip, rows, cells) chunks of up to _CELL_CHUNK pairs in one chip,
    for _formed_cells.

    b holds the rows' drive (_driven_coefficients).  A pair is kept unless
    the row's envelope bound over its Walsh chip (_peak_power_bound) or
    over the cell (_cell_power_bound), both from the row's
    _autocorrelations, lies below A_sat^2; the margin of 1e-12 keeps exact
    ties and anything round-off could lift over it, and since NaN compares
    false a NaN bound keeps its pair."""
    grid = runtime.cells
    threshold = runtime.scenario.saleh.saturation_output_power * (1.0 - 1e-12)
    rho = _autocorrelations(b)
    peak = _peak_power_bound(rho)
    for chip, (lo, hi) in enumerate(zip(grid.chip_cells[:-1], grid.chip_cells[1:])):
        rows = np.flatnonzero(~(peak[chip] < threshold))
        if rows.size == 0:
            continue
        bound = _cell_power_bound(grid, rho[:, chip, rows], peak[chip, rows], lo, hi)
        row, cell = np.divmod(np.flatnonzero(~(bound < threshold)), hi - lo)
        row, cell = rows[row], cell + lo
        for first in range(0, row.size, _CELL_CHUNK):
            yield chip, row[first:first + _CELL_CHUNK], cell[first:first + _CELL_CHUNK]


def _formed_cells(runtime: _Runtime, b: np.ndarray, rows: np.ndarray,
                  cells: np.ndarray) -> np.ndarray:
    """The driven samples of a chunk of _clipped_cells, b being the rows'
    drive in its Walsh chip (_driven_coefficients): each cell's samples
    g x, shape (chunk, S), formed in one product through
    E_m(a + s) = E_m(a) E_m(s) (see _CellGrid), into a working array of
    runtime.work that the next chunk overwrites.  Past a cell's length they
    are the row's later samples, which the limiter's weights zero."""
    grid = runtime.cells
    n = rows.size
    # the cells are in range; with mode="raise" take would buffer its out
    coefficients = np.take(grid.centres, cells, axis=0, mode="clip", out=_work_array(
        runtime.work, "cell_coefficients", (_CELL_CHUNK, grid.offsets.shape[0]), np.complex128)[:n])
    coefficients *= np.take(b, rows, axis=0)
    return np.matmul(coefficients, grid.offsets,
                     out=_work_array(runtime.work, "cell_samples", (_CELL_CHUNK, _CELL_SAMPLES),
                                     np.complex128)[:n])


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
    energy is 2 power N g^2 sum_n d_n^T Re(C) d_n over the symbol rows d_n,
    N = samples_per_symbol and C user 1's Gram matrix (receiver.signature_gram,
    as for the noise factor), and the clipped cells
    (_clipped_cells) add what the excess e changes, |g x + e|^2 - |g x|^2.
    The limiter keeps every phase, so its mean rotation is zero."""
    scenario = runtime.scenario
    cfg = scenario.config
    rng = np.random.default_rng(np.random.SeedSequence([scenario.master_seed, 1]))
    symbols = _draw_symbols(rng, (_CALIBRATION_SYMBOLS, cfg.substreams, cfg.carriers))
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
        d = symbols.reshape(_CALIBRATION_SYMBOLS, -1).astype(np.float64)
        gram = signature_gram(runtime.correlation, runtime.walsh).real
        energy = 2.0 * cfg.power * cfg.samples_per_symbol * g * g * np.sum((d @ gram) * d)
        b = _driven_coefficients(runtime, symbols)
        for chip, rows, cells in _clipped_cells(runtime, b):
            driven = _formed_cells(runtime, b[chip], rows, cells)
            factor = limiter_factor(driven, scenario.saleh)
            factor *= np.arange(_CELL_SAMPLES) < runtime.cells.lengths[cells, None]
            excess = driven * factor
            energy += np.vdot(excess, excess).real + 2.0 * np.vdot(driven, excess).real
        rotation = 0.0
    mean_power = energy / (_CALIBRATION_SYMBOLS * cfg.samples_per_symbol)
    return mean_power * cfg.symbol_duration / cfg.bits_per_symbol, rotation


def _linear_eb(cfg: LinkConfig) -> float:
    """Energy per information bit of the linear chain, in closed form."""
    return 2.0 * cfg.power * cfg.symbol_duration


def _simulate_block(runtime: _Runtime, point_index: int, block_index: int, ebn0_db: float):
    """One independent trial block: its draws, user 1's noiseless correlator
    outputs, one correlator noise draw when the noise is on, added into a
    new array so that the noiseless outputs are left as they were, and the
    decisions.  Returns (errors, bits) for user 1's counted symbols."""
    rng, channel, symbols = _block_draws(runtime, point_index, block_index)
    z = _correlation_outputs(runtime, channel, symbols)
    if runtime.scenario.noise_enabled:
        z = z + _correlator_noise(runtime, ebn0_db, runtime.noise_factor, symbols.shape[1],
                                  rng).reshape(z.shape)
    return decide_slots(z[runtime.warmup:], symbols[0, runtime.warmup:])


def _block_draws(runtime: _Runtime, point_index: int, block_index: int) -> tuple:
    """(generator, channel, symbols) of block block_index at sweep point
    point_index: the generator seeded by SeedSequence([master_seed, 0,
    point_index, block_index]) draws the channel, then every user's symbols
    (users, symbols_per_block + warmup, substreams, carriers), and is
    returned where they leave it, for the block's noise."""
    scenario = runtime.scenario
    cfg = scenario.config
    rng = np.random.default_rng(
        np.random.SeedSequence([scenario.master_seed, 0, point_index, block_index]))
    channel = draw_channel(rng, cfg.users, scenario.paths, scenario.decay_db, scenario.fading)
    symbols = _draw_symbols(rng, (cfg.users, scenario.symbols_per_block + runtime.warmup,
                                  cfg.substreams, cfg.carriers))
    return rng, channel, symbols


def _draw_symbols(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """+-1 symbols of the given shape, int8, one generator bit each: symbol
    i is bit i mod 64 of raw 64-bit word i // 64 (1 -> +1, 0 -> -1).  The
    words are taken little-endian, so the symbols do not depend on the
    platform, and the draw leaves the stream ceil(n / 64) words on."""
    n = math.prod(shape)
    words = rng.bit_generator.random_raw(-(-n // 64)).astype("<u8", copy=False)
    symbols = np.unpackbits(words.view(np.uint8), count=n, bitorder="little").view(np.int8)
    symbols *= 2
    symbols -= 1
    return symbols.reshape(shape)


def _correlation_outputs(runtime: _Runtime, channel, symbols: np.ndarray) -> np.ndarray:
    """User 1's noiseless correlator outputs, shape (symbols, substreams,
    carriers), in every hpa_mode:

        z = g sqrt(2 power) e^{-j theta} T + W.

    T is the linear chain's correlation, from the runtime's partial
    cross-correlation tables as per-chip sums (receiver.correlate_tables),
    and g the runtime's linear_gain.  W is what the amplifier adds to g
    times the linear waveform, correlated against user 1's signatures per
    Walsh chip (runtime.amplified; zero without an amplifier).  Both are
    (walsh_order, symbols, carriers) sums, so they are added before one
    Walsh combine (receiver.combine_walsh_chips), the tables' 1/N undone
    since the combine divides by N; a tube block (g = 0) forms no T at all.
    theta is user 1's reference-path phase plus the amplifier's mean
    rotation.  The outputs are those of the sample chain (modulate,
    amplify, propagate, correlate) up to round-off."""
    cfg = runtime.scenario.config
    n_samp = cfg.samples_per_symbol
    gains = _path_gains(channel)
    per_chip = None
    if runtime.linear_gain:
        per_chip = correlate_tables(runtime.correlation, runtime.walsh, symbols, gains,
                                    runtime.work)
        per_chip *= runtime.linear_gain * np.sqrt(2.0 * cfg.power) * n_samp
    amplified = None if runtime.amplified is None else runtime.amplified(runtime, symbols, gains)
    if amplified is not None:
        per_chip = amplified if per_chip is None else per_chip + amplified
    z = combine_walsh_chips(per_chip, runtime.walsh, n_samp,
                            channel.phases[0, 0] + runtime.phase_offset)
    return z.reshape(symbols.shape[1], cfg.substreams, cfg.carriers)


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
    return chip_correlations(delayed[0], runtime.carrier_correlator, walsh_chip_bounds(cfg))


def _excess_correlations(runtime: _Runtime, symbols: np.ndarray, gains: np.ndarray):
    """W of a limiter block per (Walsh chip, window): what the limiter takes
    off the samples of the cells that can clip (_clipped_cells), times each
    user's chips, received on every path and correlated directly
    (_add_cell_correlations), one chunk of cells at a time; None when no
    cell can clip.  The sums are a working array of runtime.work, zeroed
    here, and hold one more window, for what falls past the last one; the
    correlator drops it, and so does the view returned."""
    cfg = runtime.scenario.config
    n_total = symbols.shape[1]
    b = _driven_coefficients(runtime, symbols)
    total = None
    for chip, rows, cells in _clipped_cells(runtime, b):
        if total is None:
            total = _work_array(runtime.work, "cell_sums",
                                (cfg.walsh_order, n_total + 1, cfg.carriers), np.complex128)
            total.fill(0.0)
        _add_cell_correlations(total, runtime, rows, cells,
                               _formed_cells(runtime, b[chip], rows, cells), gains)
    return None if total is None else total[:, :n_total]


def _add_cell_correlations(total: np.ndarray, runtime: _Runtime, rows: np.ndarray,
                           cells: np.ndarray, driven: np.ndarray, gains: np.ndarray) -> None:
    """Add the correlations of what the limiter takes off one chunk of
    cells' driven samples (_formed_cells) into total, the block's
    per-(Walsh chip, window) sums, shape (walsh_order, symbols + 1,
    carriers).

    A cell of user k on path l at delay D adds, to window n' and user 1's
    Walsh chip c' of its delayed span,

        h_kl conj(E_m(a) E_m(D)) sum_s x(s) f(s) pn_k(i_s) pn_1(i_s + D) conj(E_m(s)),

    f being the limiter's real factor (hpa.limiter_factor), since the
    correlator's conj(E_m) at position a + D + s factors as its sample does
    (_CellGrid).  The real weights f pn_k pn_1, zero past the cell's length,
    meet the samples in one multiply, and the sums over s are one
    (cells, S) @ (S, carriers) product per path, summed over runs of equal
    (chip, window) bin and added in.  The chunk's arrays are working arrays
    of runtime.work."""
    cfg = runtime.scenario.config
    grid = runtime.cells
    work = runtime.work
    n, n_total = rows.size, total.shape[1] - 1
    chunk = (_CELL_CHUNK, _CELL_SAMPLES)
    user, window = np.divmod(rows, n_total)
    factor = limiter_factor(driven, runtime.scenario.saleh,
                            out=_work_array(work, "cell_factor", chunk)[:n])
    own_chips = np.take(grid.user_chips.reshape(-1, _CELL_SAMPLES), user * grid.starts.size + cells,
                        axis=0)
    anchors = np.conjugate(np.take(grid.centres, cells, axis=0))
    conj_offsets = grid.offsets.conj().T
    sums = total.reshape(-1, cfg.carriers)
    for path, gain in enumerate(gains[user].T):
        chips = np.take(grid.span_chips[path], cells, axis=0)
        chips *= own_chips
        weights = np.multiply(factor, chips, out=_work_array(work, "cell_weights", chunk)[:n])
        excess = np.multiply(driven, weights,
                             out=_work_array(work, "cell_excess", chunk, np.complex128)[:n])
        out = np.matmul(excess, conj_offsets, out=_work_array(
            work, "cell_correlations", (_CELL_CHUNK, cfg.carriers), np.complex128)[:n])
        out *= anchors * (gain[:, None] * grid.delay_phases[path])
        key = (np.take(grid.bin_chips[path], cells) * (n_total + 1)
               + np.take(grid.bin_windows[path], cells) + window)
        heads = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        np.add.at(sums, key[heads], np.add.reduceat(out, heads))


def _source_outputs(runtime: _Runtime, channel, symbols: np.ndarray) -> dict:
    """User 1's noiseless slot (1, 1) correlator output of
    _correlation_outputs, split by origin: one (symbols,) array per
    receiver.SOURCE_NAMES entry but the noise, each a subset of the terms of
    the same sum at target slot 0.

    desired is user 1's slot (1, 1) on path 0 and multipath the same symbols
    on the later paths; inter_substream is user 1's other substreams on
    carrier 1 and inter_carrier its other carriers, both on every path;
    multi_user is every other user.  The five partition the (user, slot,
    path) terms of the tables' slot-0 column (receiver.slot_tables): one
    product for user 1 against that column times a 0/1 mask per source,
    one output column each, and one for the other users (_column_outputs).
    The five sum to the slot-0 output."""
    cfg = runtime.scenario.config
    column = runtime.slot_column
    gains = _path_gains(channel)
    paths = gains.shape[1]
    # mask[r, m, l, source]: 1 where the source holds the term of user 1's
    # substream r on carrier m and path l, for the sources desired .. inter_carrier
    mask = np.zeros((cfg.substreams, cfg.carriers, paths, 4))
    mask[0, 0, 0, 0] = 1.0
    mask[0, 0, 1:, 1] = 1.0
    mask[1:, 0, :, 2] = 1.0
    mask[:, 1:, :, 3] = 1.0
    own = column[:1] * mask.reshape(1, 1, -1, paths, 4)
    z = np.concatenate((_column_outputs(own, symbols[:1], gains[:1]),
                        _column_outputs(column[1:], symbols[1:], gains[1:])), axis=1)
    z *= np.sqrt(2.0 * cfg.power) * np.exp(-1j * channel.phases[0, 0])
    return dict(zip(SOURCE_NAMES, z.T))


def _column_outputs(column: np.ndarray, symbols: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """sum_k sum_l gains[k, l] (d_k[n] @ column[k, 0, :, l] + d_k[n-1] @ column[k, 1, :, l])
    for each output column c of receiver.slot_tables' form, column being
    (users, windows, slots, paths, columns), symbols (users, n, ...) with
    its slots per symbol, and d_k[-1] = 0.  The path gains are contracted
    into the column first, and each user's symbols meet it in one real
    product, in their own layout.  Shape (n, columns)."""
    users, windows, slots, _, _ = column.shape
    weighted = np.einsum("kwslc,kl->kwsc", column, gains)
    d = symbols.reshape(users, symbols.shape[1], slots).astype(np.float64)
    per_user = np.matmul(d, weighted[:, 0].view(np.float64))
    if windows == 2:
        per_user[:, 1:] += np.matmul(d[:, :-1], weighted[:, 1].view(np.float64))
    return per_user.sum(axis=0).view(np.complex128)


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


# True while a _single_threaded_blas body runs.
_BLAS_PINNED = False


@contextmanager
def _single_threaded_blas():
    """Run the body with every loaded OpenBLAS at one thread, then restore
    the caller's counts.

    A block's GEMMs are small, so BLAS threads only add synchronization, and
    under the fork pool they oversubscribe the cores.  The count is set in
    the parent before the pool forks, which is what workers inherit; setting
    OPENBLAS_NUM_THREADS in os.environ at that point has no effect, because
    the library reads it only when it is loaded.  Finding the libraries
    reads /proc/self/maps and loads each one (about 1 ms), so an entry
    nested in another does nothing: the outer one has pinned the counts and
    restores them.
    """
    global _BLAS_PINNED
    if _BLAS_PINNED:
        yield
        return
    calls = _openblas_thread_calls()
    saved = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(1)
    _BLAS_PINNED = True
    try:
        yield
    finally:
        _BLAS_PINNED = False
        for (_, set_), count in zip(calls, saved):
            set_(count)


def get_context(method: str):
    """multiprocessing.get_context, imported only when a pool forks: the
    import takes about 10 ms, which a run that never forks need not pay."""
    import multiprocessing
    return multiprocessing.get_context(method)


# Serial block time after which a run with workers > 1 forks its pool.
# Forking a one-process pool, its first task and its teardown cost about
# 6-8 ms on a 2-core VM (10-12 ms for two processes), so a run that ends
# within this budget never pays them, and one that goes on has paid for
# them several times over in serial time before it does.
_SERIAL_BUDGET_S = 0.05

# Set in the parent before the pool forks so workers inherit the prepared
# tables instead of receiving them pickled with every task.
_WORKER_RUNTIME: _Runtime | None = None


def _worker_block(args):
    point_index, block_index, ebn0_db = args
    return _simulate_block(_WORKER_RUNTIME, point_index, block_index, ebn0_db)


class _BlockRunner:
    """The blocks of one run_scenario call, by the fork rule described
    there; run returns a wave's (errors, bits) in block order."""

    def __init__(self, runtime: _Runtime, workers: int):
        self.runtime = runtime
        self.workers = workers
        self.serial_s = 0.0
        self.pool = None

    def run(self, point_index: int, block_ids: range, ebn0_db: float) -> list:
        global _WORKER_RUNTIME
        results = []
        for block_index in block_ids:
            if self.workers > 1 and self.serial_s >= _SERIAL_BUDGET_S:
                break
            started = time.perf_counter()
            results.append(_simulate_block(self.runtime, point_index, block_index, ebn0_db))
            self.serial_s += time.perf_counter() - started
        rest = block_ids[len(results):]
        if rest:
            if self.pool is None:
                _WORKER_RUNTIME = self.runtime
                self.pool = get_context("fork").Pool(self.workers - 1)
            share = math.ceil(len(rest) / self.workers)
            pooled = rest[share:]
            pending = self.pool.map_async(
                _worker_block, [(point_index, b, ebn0_db) for b in pooled],
                chunksize=math.ceil(len(pooled) / (self.workers - 1)))
            results += [_simulate_block(self.runtime, point_index, b, ebn0_db)
                        for b in rest[:share]]
            results += pending.get()
        return results

    def close(self):
        global _WORKER_RUNTIME
        if self.pool is not None:
            self.pool.close()
            self.pool.join()
        _WORKER_RUNTIME = None


def run_scenario(scenario: Scenario, workers: int = 1) -> RunReport:
    """Monte Carlo BER sweep with the scenario's stopping rule.

    Stops a point once the wave totals reach min_errors (and any configured
    min_bits / min_blocks floors), or flags the record censored when
    max_bits runs out first.  Identical (scenario, master_seed) give
    identical records at any worker count; workers must be an integer
    >= 1 and counts the processes that run blocks, this one included.

    The blocks run here until their summed time reaches _SERIAL_BUDGET_S,
    several times what forking and tearing down a pool costs, so a short
    run never forks.  Past it, and only with workers > 1, a fork pool of
    workers - 1 processes starts and stays until the run ends; each wave's
    remaining blocks are then cut into contiguous shares, the first run in
    this process and the others on the pool.
    """
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    cfg = scenario.config
    records = []
    point_seconds = []

    with _single_threaded_blas():
        runner = _BlockRunner(_prepare(scenario), workers)
        try:
            for point_index, ebn0_db in enumerate(scenario.ebn0_grid):
                started = time.perf_counter()
                errors = 0
                bits = 0
                blocks = 0
                while True:
                    block_ids = range(blocks, blocks + scenario.blocks_per_wave)
                    for block_errors, block_bits in runner.run(point_index, block_ids,
                                                               float(ebn0_db)):
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
            runner.close()

    return RunReport(scenario=scenario, records=records, point_seconds=point_seconds)


def estimate_interference_variances(runtime: _Runtime, channel, ebn0_db: float,
                                    rng: np.random.Generator, n_symbols: int,
                                    chunk: int = 256) -> InterferenceVariances:
    """Sample variances of the decomposed correlator components
    (_source_outputs) over n_symbols random-data symbols on one fixed
    channel realization of a linear-chain runtime.

    Each chunk draws its symbols, splits their noiseless outputs
    (_source_outputs) and then draws the noise of slot (1, 1), with that
    slot's variance (user 1's Gram entry); with the noise off it is zero
    and ebn0_db is not read.  With several paths each chunk is preceded by
    one uncounted warmup symbol, so that the missing previous symbol at its
    start does not bias the estimates.
    """
    if n_symbols < 2:
        raise ValueError(f"need at least 2 symbols for a sample variance, got {n_symbols}")
    cfg = runtime.scenario.config
    collected = {name: [] for name in SOURCE_NAMES}
    for start in range(0, n_symbols, chunk):
        n_total = min(chunk, n_symbols - start) + runtime.warmup
        symbols = _draw_symbols(rng, (cfg.users, n_total, cfg.substreams, cfg.carriers))
        sources = _source_outputs(runtime, channel, symbols)
        sources["noise"] = (_correlator_noise(runtime, ebn0_db, runtime.noise_factor[:1, :1],
                                              n_total, rng)[:, 0]
                            if runtime.scenario.noise_enabled
                            else np.zeros(n_total, dtype=np.complex128))
        for name, z in sources.items():
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
    cfg = scenario.config
    point = scenario.ebn0_grid[0] if ebn0_db is None else ebn0_db
    with _single_threaded_blas():
        runtime = _prepare(scenario)
        rng = np.random.default_rng(np.random.SeedSequence([scenario.master_seed, 2]))
        channel = draw_channel(rng, cfg.users, scenario.paths, scenario.decay_db, scenario.fading)
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

"""Monte Carlo engine: a scenario's prepared tables, the steps of a batch
of blocks, the runner that sweeps blocks over the Eb/N0 grid, and the
interference decomposition.  The scenarios themselves are config's, the
records they produce and their CSV form analysis's, and what each amplifier
adds hpa's.

Determinism contract: every simulated block draws from its own generator,
seeded by the master seed and the block's (point, block) indices alone, in
its own order: its channel, then its symbols, then its noise (_batch_draws).
Blocks run in batches, whose steps keep a leading block axis so that every
block's products have the shapes they have alone: a block's outputs, bit
for bit, do not depend on the batch it runs in.  Blocks are grouped into
fixed-size waves, and the stopping rule is evaluated only on completed
waves.  A point counts its blocks, of equal bits, and their integer error
sums, so the records (and CSV bytes) are identical for any worker count,
order and batch size.  Each +-1 symbol costs one bit of the generator's raw
64-bit words, taken little-endian (_draw_symbols).

A run forks no pool up front.  Its blocks run in the calling process, a
batch at a time, until their summed time reaches _SERIAL_BUDGET_S, several
times what a fork pool costs to start and tear down; only then, and only
with workers > 1, does a pool fork, of one process less than workers or
than a wave's blocks, whichever is fewer.  Each later wave is then cut into
one contiguous range of blocks per process, the calling process running
the first itself, and each process runs its range in batches (run_scenario).

Each public call, run_scenario or measure_variances, pins OpenBLAS to one
thread once, around its setup (_prepare, which sets no thread count) and
its blocks, which forked workers inherit (_single_threaded_blas).

A batch of blocks (_batch_outputs, decided in _simulate_blocks) is four
steps, one function each, common to every hpa_mode: the draws
(_batch_draws: each block's channel, then every user's symbols), user 1's
noiseless correlator outputs (_correlation_outputs), one correlator noise
draw per block when the noise is on (channel.correlator_noise), and the
decisions (receiver.decide_slots).  Each step is one call per batch: every
block's generator draws its raw variates into the batch's arrays, and the
products run once over the batch's leading block axis.  A batch holds as
many blocks as keep its largest working array within _BATCH_VALUES, and one
block with an amplifier (_Runtime.batch_blocks).  The noise enters after
the amplifier and the channel, so the noiseless outputs do not depend on
Eb/N0, and neither producer takes it or a generator; a batch takes only its
(point, block) indices, and its noise draw the point's noise scale, which
the setup formed.  A block's outputs are

    z = g sqrt(2) e^{-j theta} T + W + noise,

theta being user 1's reference-path phase plus the amplifier's mean
rotation (none without an amplifier).

- T is the linear chain's correlation, straight from the symbols.  The
  correlator is linear in every user's symbols, so per scenario it
  tabulates the partial cross-correlations between each user's delayed
  chip stream and user 1's Walsh chips, one carrier block per (path, chip,
  user, chip lag) with the Walsh rows factored out
  (receiver.partial_correlation_tables).  Each block spreads every user's
  symbols onto its Walsh chips once (txchain.spread_symbols), weighs the
  tables by the block's path gains and forms user 1's per-chip sums in one
  product per Walsh chip (receiver.correlate_tables), each step one call
  for the batch's blocks.
  The interference decomposition (measure_variances) reads the same
  tables: each source is a subset of the terms of that sum at user 1's
  first slot, so the split multiplies the tables' column for that slot
  out over the Walsh rows (receiver.slot_tables).  Its one channel draw
  fixes the weights: user 1's column times a 0/1 mask per source and the
  other users' column, each with the path gains contracted in, formed
  once per call (_source_split).  Each chunk of symbols then meets them
  in one product per user, converted to float64 a group of users at a
  time through one bounded buffer (_column_outputs).
- g and W are the amplifier's (hpa.prepare_amplifier): W correlates what
  the amplifier adds to g times the linear waveform, per Walsh chip in
  T's shape, from the same spread symbols (hpa.amplifier_correlations),
  and the two share one Walsh combine (receiver.combine_walsh_chips).
  Without an amplifier ("bypass") g = 1 and W = 0; the tube ("saleh") has
  g = 0, and the predistorted tube ("saleh_pd"), an envelope limiter, has
  g = the predistorter's input scale.
- The noise is drawn per correlator output (channel.correlator_noise),
  with the covariance white sample noise would leave there: a factor of
  user 1's Gram matrix, from the same tables (receiver.signature_gram).

Noiseless, the outputs agree to round-off with a sample-level chain that
modulates, amplifies (with hpa's sample kernels), propagates and
correlates every sample, which the tests hold to 1e-12.

Noise calibration: the energy per information bit is taken from the actual
transmitted (post-amplifier) waveform, once per scenario, so that back-off
settings change the signal the noise is matched to rather than silently
shifting the operating SNR.  Time is counted in symbol periods, so the
energy per bit is the mean transmitted power over the bits per symbol: 2
for the linear chain at unit branch power (txchain.LinkConfig), and for an
amplifier what hpa.amplifier_calibration measures on a fixed-seed frame of
user 1's, with the amplifier's mean rotation (_prepare), which then forms
every Eb/N0 point's noise scale (channel.noise_scale) and rejects a point
without one (ConfigError).
"""

from __future__ import annotations

import ctypes
import math
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # numpy 2 loads it on first use: pay that here, not in the first block

# preset and emit_csv are also imported for perfbench/call.py, which reads them here.
from .analysis import BerRecord, RunReport, binomial_ci95, emit_csv, scenario_columns
from .channel import correlator_noise, draw_channel, noise_scale, path_power_profile
from .codes import generate_msequence, generate_walsh
from .config import ConfigError, Scenario, preset
from .hpa import (LimiterState, TubeState, amplifier_calibration, amplifier_correlations,
                  prepare_amplifier)
from .receiver import (SOURCE_NAMES, InterferenceVariances, combine_walsh_chips,
                       correlate_tables, decide_slots, partial_correlation_tables,
                       signature_gram, slot_tables)
from .txchain import LinkConfig, spread_symbols, substream_walsh_rows

_CALIBRATION_SYMBOLS = 256

# float64 values (512 kB) of the largest working array of a batch of blocks
# (_Runtime.batch_blocks)
_BATCH_VALUES = 1 << 16


@dataclass(frozen=True)
class _Runtime:
    """Precomputed per-scenario tables shared by every block: the tables of
    its linear term, the noise factor, the amplifier's state (None without
    one), the energy per bit the noise is matched to, the amplifier's mean
    rotation, and the noise scale of every grid point (_prepare)."""

    scenario: Scenario
    walsh: np.ndarray          # the substreams' Walsh rows, float64 (substreams, walsh_order)
    warmup: int
    # receiver.partial_correlation_tables, and a factor F of the correlator
    # noise covariance: F F^H = Gram matrix of user 1's slot signatures.
    correlation: np.ndarray
    noise_factor: np.ndarray
    amplifier: TubeState | LimiterState | None   # hpa.prepare_amplifier
    eb: float
    phase_offset: float
    # channel.noise_scale of each ebn0_grid point, empty when the noise is off
    noise_scales: tuple
    # the working arrays of the batches' spread_symbols, correlate_tables
    # and amplifier (txchain._work_array), reused batch to batch
    work: dict = field(default_factory=dict)

    @property
    def linear_gain(self) -> float:
        """g: 1 without an amplifier, else the amplifier's."""
        return 1.0 if self.amplifier is None else self.amplifier.linear_gain

    @property
    def block_values(self) -> int:
        """float64 values of the largest working array that a batch forms
        per block: the spread chips stacked at their lags, or the complex
        path-weighted tables (receiver.correlate_tables)."""
        _, order, users, lags, n_car, targets = self.correlation.shape
        n_total = self.scenario.symbols_per_block + self.warmup
        return max(order * n_total * users * lags * n_car,
                   2 * order * users * lags * n_car * targets)

    @property
    def batch_blocks(self) -> int:
        """Blocks per batch: as many as keep block_values per block within
        _BATCH_VALUES, and at least one.  With an amplifier one: its W is
        formed block by block, so a batch would save it nothing, and the
        tube's first block alone can exhaust the serial budget
        (_BlockRunner)."""
        if self.amplifier is not None:
            return 1
        return max(1, _BATCH_VALUES // self.block_values)


def _user_codes(cfg: LinkConfig) -> tuple:
    """The substreams' Walsh rows as float64 and every user's cyclically
    shifted PN chips, shape (users, pn_length), user 1 first.  User k's chip
    i is chip i - k * shift_spacing (mod pn_length) of the one m-sequence,
    as in np.roll(pn, k * shift_spacing): pn_length chips of two periods
    end to end, from chip -k * shift_spacing (mod pn_length) on.  Every
    user's are gathered at once, with no (users, pn_length) index array."""
    pn = generate_msequence(cfg.pn_length.bit_length())
    starts = (-np.arange(cfg.users) * cfg.shift_spacing) % cfg.pn_length
    pn_chips = np.lib.stride_tricks.sliding_window_view(np.concatenate((pn, pn)),
                                                       cfg.pn_length)[starts]
    return substream_walsh_rows(generate_walsh(cfg.walsh_order), cfg), pn_chips


def _prepare(scenario: Scenario) -> _Runtime:
    """The runtime of a scenario.  User 1's Gram matrix is formed once, and
    its factor draws the noise.  An amplifier's calibration frame is drawn
    from SeedSequence([master_seed, 1]), and the working arrays it makes are
    the blocks' too, as is every grid point's noise scale, formed once Eb is
    known: a point without one raises ConfigError before any block runs."""
    cfg = scenario.config
    walsh, pn_chips = _user_codes(cfg)
    work = {}
    correlation = partial_correlation_tables(pn_chips, cfg, scenario.paths)
    gram = signature_gram(correlation, walsh)
    amplifier = prepare_amplifier(scenario, walsh, pn_chips)
    if amplifier is None:
        # the linear chain's mean power over its bits per symbol
        eb, phase_offset = 2.0, 0.0
    else:
        rng = np.random.default_rng(np.random.SeedSequence([scenario.master_seed, 1]))
        frame = _draw_symbols(rng, (_CALIBRATION_SYMBOLS, cfg.substreams, cfg.carriers))
        eb, phase_offset = amplifier_calibration(amplifier, frame, work)
    noise_scales = []
    for point_index, ebn0_db in enumerate(scenario.ebn0_grid if scenario.noise_enabled else ()):
        try:
            noise_scales.append(noise_scale(float(ebn0_db), eb))
        except ValueError as exc:
            raise ConfigError(f"scenario {scenario.name!r}, Eb/N0 point {point_index}: {exc}")
    return _Runtime(scenario=scenario, walsh=walsh, warmup=1 if scenario.paths > 1 else 0,
                    correlation=correlation, noise_factor=np.linalg.cholesky(gram),
                    amplifier=amplifier, eb=eb, phase_offset=phase_offset,
                    noise_scales=tuple(noise_scales), work=work)


def _simulate_blocks(runtime: _Runtime, point_index: int, block_ids) -> list:
    """The bit errors of user 1's counted symbols in each block of block_ids
    (a range) at sweep point point_index, in block order, the blocks run in
    batches of runtime.batch_blocks (_batch_outputs).  A block's outputs do
    not depend on its batch, so neither do the counts."""
    errors = []
    for first in range(0, len(block_ids), runtime.batch_blocks):
        symbols, z = _batch_outputs(runtime, point_index,
                                    block_ids[first:first + runtime.batch_blocks])
        errors += decide_slots(z[:, runtime.warmup:], symbols[:, 0, runtime.warmup:]).tolist()
    return errors


def _batch_outputs(runtime: _Runtime, point_index: int, block_ids) -> tuple:
    """(symbols, z) of a batch of blocks: their draws (_batch_draws), user
    1's noiseless correlator outputs (_correlation_outputs) and, when the
    noise is on, one correlator noise draw per block at the point's noise
    scale, added in.  Both have a leading block axis."""
    rngs, channel, symbols = _batch_draws(runtime, point_index, block_ids)
    z = _correlation_outputs(runtime, channel, symbols)
    if runtime.noise_scales:
        z += correlator_noise(runtime.noise_scales[point_index], runtime.noise_factor,
                              symbols.shape[2], rngs).reshape(z.shape)
    return symbols, z


def _batch_draws(runtime: _Runtime, point_index: int, block_ids) -> tuple:
    """(generators, channel, symbols) of the blocks block_ids at sweep point
    point_index: block b's generator, seeded by SeedSequence([master_seed,
    0, point_index, b]), draws its channel, then every user's symbols
    (users, symbols_per_block + warmup, substreams, carriers), and is
    returned where they leave it, for the block's noise.  The channel and
    the symbols are the batch's, with a leading block axis; each block's
    are what its generator would draw alone."""
    scenario = runtime.scenario
    cfg = scenario.config
    rngs = [np.random.default_rng(
        np.random.SeedSequence([scenario.master_seed, 0, point_index, block_index]))
        for block_index in block_ids]
    channel = draw_channel(rngs, cfg.users, scenario.paths, scenario.decay_db, scenario.fading)
    symbols = _draw_symbols(rngs, (cfg.users, scenario.symbols_per_block + runtime.warmup,
                                   cfg.substreams, cfg.carriers))
    return rngs, channel, symbols


def _draw_symbols(rngs, shape: tuple) -> np.ndarray:
    """+-1 symbols of the given shape, int8, one generator bit each, from
    one generator, or of shape (blocks, *shape) from a sequence of
    generators, one per block: a block's symbol i is bit i mod 64 of its
    generator's raw 64-bit word i // 64 (1 -> +1, 0 -> -1).  The words are
    taken little-endian, so the symbols do not depend on the platform, and
    the draw leaves each generator ceil(n / 64) words on.  Every
    generator's words go into one array, unpacked once."""
    single = isinstance(rngs, np.random.Generator)
    batch = [rngs] if single else rngs
    n = math.prod(shape)
    words = np.empty((len(batch), -(-n // 64)), dtype="<u8")
    for rng, block_words in zip(batch, words):
        block_words[...] = rng.bit_generator.random_raw(block_words.size)
    symbols = np.unpackbits(words.view(np.uint8), axis=1, count=n,
                            bitorder="little").view(np.int8)
    symbols *= 2
    symbols -= 1
    return symbols.reshape(shape) if single else symbols.reshape(len(batch), *shape)


def _correlation_outputs(runtime: _Runtime, channel, symbols: np.ndarray) -> np.ndarray:
    """User 1's noiseless correlator outputs, shape (..., symbols,
    substreams, carriers), in every hpa_mode, of one block's channel and
    symbols or of a batch's, with a leading block axis (_batch_draws):

        z = g sqrt(2) e^{-j theta} T + W.

    Every user's symbols are spread onto their Walsh chips once
    (txchain.spread_symbols), and both terms start from them.  T is the
    linear chain's correlation, from the runtime's partial cross-correlation
    tables as per-chip sums (receiver.correlate_tables), and g the runtime's
    linear_gain.  W is what the amplifier adds to g times the linear
    waveform, correlated against user 1's signatures per Walsh chip
    (hpa.amplifier_correlations; zero without an amplifier), one block at
    a time: with an amplifier a batch holds one block (_Runtime.batch_blocks).
    Both are (walsh_order, symbols, carriers) sums per block, so they are
    added before one Walsh combine (receiver.combine_walsh_chips), the
    tables' 1/N undone since the combine divides by N; a tube block (g = 0)
    forms no T at all.  theta is user 1's reference-path phase plus the
    amplifier's mean rotation.  The outputs are those of the sample chain
    (modulate, amplify, propagate, correlate) up to round-off."""
    cfg = runtime.scenario.config
    n_samp = cfg.samples_per_symbol
    lead = symbols.shape[:-4]
    gains = _path_gains(channel)
    chips = spread_symbols(runtime.walsh, symbols, runtime.work)
    per_chip = None
    if runtime.linear_gain:
        per_chip = correlate_tables(runtime.correlation, chips, gains, runtime.work)
        per_chip *= runtime.linear_gain * np.sqrt(2.0) * n_samp
    if runtime.amplifier is not None:
        # one block's, which the reshapes check
        amplified = amplifier_correlations(runtime.amplifier, chips.reshape(chips.shape[-4:]),
                                           gains.reshape(gains.shape[-2:]), runtime.work)
        if amplified is not None:
            amplified = amplified.reshape(*lead, *amplified.shape)
            per_chip = amplified if per_chip is None else per_chip + amplified
    z = combine_walsh_chips(per_chip, runtime.walsh, n_samp,
                            channel.phases[..., 0, 0] + runtime.phase_offset)
    return z.reshape(*lead, symbols.shape[-3], cfg.substreams, cfg.carriers)


# float64 values (256 kB) of _column_outputs' buffer, which holds a group of
# users' symbols at a time
_SPLIT_VALUES = 1 << 15


@dataclass(frozen=True)
class _Split:
    """The interference split of one channel draw (_source_split): the
    weights every chunk of symbols meets, and the working buffer it meets
    them in, reused chunk to chunk."""

    own: np.ndarray       # (1, windows, slots, 4): user 1's, one column per source
    others: np.ndarray    # (users - 1, windows, slots, 1): every other user's
    factor: complex       # sqrt(2) e^{-j phi}, phi user 1's reference-path phase
    work: dict = field(default_factory=dict)


def _source_split(runtime: _Runtime, channel) -> _Split:
    """The weights of _source_outputs on one channel draw, formed once for
    all the symbols that meet it.

    desired is user 1's slot (1, 1) on path 0 and multipath the same symbols
    on the later paths; inter_substream is user 1's other substreams on
    carrier 1 and inter_carrier its other carriers, both on every path;
    multi_user is every other user.  The five partition the (user, slot,
    path) terms of the tables' slot-0 column (receiver.slot_tables): user
    1's column times a 0/1 mask per source, one output column each, and the
    other users' column, each with the path gains contracted into it."""
    cfg = runtime.scenario.config
    column = slot_tables(runtime.correlation[..., :1], runtime.walsh, runtime.walsh[:1])
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
    # sum_l gains[k, l] column[k, w, s, l, c]
    return _Split(own=np.einsum("kwslc,kl->kwsc", own, gains[:1]),
                  others=np.einsum("kwslc,kl->kwsc", column[1:], gains[1:]),
                  factor=np.sqrt(2.0) * np.exp(-1j * channel.phases[0, 0]))


def _source_outputs(split: _Split, symbols: np.ndarray) -> dict:
    """User 1's noiseless slot (1, 1) correlator output of
    _correlation_outputs, split by origin (_source_split): one (symbols,)
    array per receiver.SOURCE_NAMES entry but the noise, each a subset of
    the terms of the same sum at target slot 0.  User 1's symbols meet its
    masked column in one product, and the other users' theirs
    (_column_outputs).  The five sum to the slot-0 output."""
    z = np.concatenate((_column_outputs(split.own, symbols[:1], split.work),
                        _column_outputs(split.others, symbols[1:], split.work)), axis=1)
    z *= split.factor
    return dict(zip(SOURCE_NAMES, z.T))


def _column_outputs(weighted: np.ndarray, symbols: np.ndarray, work: dict) -> np.ndarray:
    """sum_k (d_k[n] @ weighted[k, 0] + d_k[n-1] @ weighted[k, 1]) for each
    output column c, weighted being (users, windows, slots, columns)
    (_source_split), symbols (users, n, ...) with its slots per symbol, and
    d_k[-1] = 0.  Shape (n, columns).

    The symbols are converted to float64 as many users at a time as fit
    one buffer, which work holds from call to call: _SPLIT_VALUES values,
    or one user's n * slots when more, so that no array grows with users x
    symbols x slots.  Each user's symbols meet its weights in one real
    product, and the users' outputs are summed in user order at the end."""
    users, windows, slots, columns = weighted.shape
    n = symbols.shape[1]
    buffer = work.get("split")
    if buffer is None or buffer.size < n * slots:
        buffer = work["split"] = np.empty(max(_SPLIT_VALUES, n * slots))
    group = buffer.size // (n * slots)
    per_user = np.empty((users, n, 2 * columns))
    for first in range(0, users, group):
        last = min(first + group, users)
        d = buffer[:(last - first) * n * slots].reshape(last - first, n, slots)
        np.copyto(d, symbols[first:last].reshape(last - first, n, slots))
        np.matmul(d, weighted[first:last, 0].view(np.float64), out=per_user[first:last])
        if windows == 2:
            per_user[first:last, 1:] += np.matmul(d[:, :-1],
                                                  weighted[first:last, 1].view(np.float64))
    return per_user.sum(axis=0).view(np.complex128)


def _path_gains(channel) -> np.ndarray:
    """Complex gains h_kl of every user's paths, shape (users, paths)."""
    return channel.gains * np.exp(1j * channel.phases)


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
    the library reads it only when it is loaded.  Finding the libraries
    reads /proc/self/maps and loads each one (about 1 ms), so each public
    call (run_scenario, measure_variances) enters it once, around its setup
    and its blocks.
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


def get_context(method: str):
    """multiprocessing.get_context, imported only when a pool forks: the
    import takes about 10 ms, which a run that never forks need not pay."""
    import multiprocessing
    return multiprocessing.get_context(method)


# Serial block time after which a run with workers > 1 forks its pool,
# checked between batches.
# Forking a one-process pool, its first task and its teardown cost about
# 6-8 ms on a 2-core VM (10-12 ms for two processes), so a run that ends
# within this budget never pays them, and one that goes on has paid for
# them several times over in serial time before it does.
_SERIAL_BUDGET_S = 0.05

# Set in the parent before the pool forks so workers inherit the prepared
# tables instead of receiving them pickled with every task.
_WORKER_RUNTIME: _Runtime | None = None


def _worker_blocks(args):
    return _simulate_blocks(_WORKER_RUNTIME, *args)


class _BlockRunner:
    """The blocks of one run_scenario call, by the fork rule described
    there; run returns a wave's error counts in block order."""

    def __init__(self, runtime: _Runtime, workers: int):
        self.runtime = runtime
        # a process beyond a wave's blocks would never get one
        self.workers = min(workers, runtime.scenario.blocks_per_wave)
        self.serial_s = 0.0
        self.pool = None

    def run(self, point_index: int, block_ids: range) -> list:
        global _WORKER_RUNTIME
        results = []
        size = self.runtime.batch_blocks
        while len(results) < len(block_ids) and not (
                self.workers > 1 and self.serial_s >= _SERIAL_BUDGET_S):
            started = time.perf_counter()
            results += _simulate_blocks(self.runtime, point_index,
                                        block_ids[len(results):len(results) + size])
            self.serial_s += time.perf_counter() - started
        rest = block_ids[len(results):]
        if rest:
            if self.pool is None:
                _WORKER_RUNTIME = self.runtime
                self.pool = get_context("fork").Pool(self.workers - 1)
            # one contiguous range per process, this one's first
            share = math.ceil(len(rest) / self.workers)
            pending = self.pool.map_async(
                _worker_blocks,
                [(point_index, rest[i:i + share]) for i in range(share, len(rest), share)],
                chunksize=1)
            results += _simulate_blocks(self.runtime, point_index, rest[:share])
            for errors in pending.get():
                results += errors
        return results

    def close(self):
        global _WORKER_RUNTIME
        if self.pool is not None:
            self.pool.close()
            self.pool.join()
        _WORKER_RUNTIME = None


def run_scenario(scenario: Scenario, workers: int = 1) -> RunReport:
    """Monte Carlo BER sweep with the scenario's stopping rule.

    Stops a point once its waves reach min_errors and min_blocks, or flags
    the record censored when max_bits (blocks x symbols_per_block x
    bits_per_symbol) runs out first.  Identical (scenario, master_seed) give
    identical records at any worker count; workers must be an integer
    >= 1 and counts the processes that run blocks, this one included.

    The blocks run here, a batch at a time, until their summed time
    reaches _SERIAL_BUDGET_S, several times what forking and tearing down a
    pool costs, so a short run never forks.  Past it, and only with workers
    > 1, a fork pool of min(workers, blocks_per_wave) - 1 processes starts
    and stays until the run ends; each wave's remaining blocks are then cut
    into one contiguous range per process, the first run in this process
    and the others on the pool, one task each, every range in batches.
    """
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    records = []
    point_seconds = []
    columns = scenario_columns(scenario)
    bits_per_block = scenario.symbols_per_block * scenario.config.bits_per_symbol

    # One pin covers the setup and the blocks.  Both are small products, for
    # which OpenBLAS threads cost far more than they save: on a 2-core VM a
    # 64x64 Cholesky in _prepare took 60 ms threaded and 0.2 ms on one
    # thread, and the calibration's products are small too.
    with _single_threaded_blas():
        runner = _BlockRunner(_prepare(scenario), workers)
        try:
            for point_index, ebn0_db in enumerate(scenario.ebn0_grid):
                started = time.perf_counter()
                errors = blocks = 0
                # wave by wave, until the bits run out or both floors are met
                while not (blocks * bits_per_block >= scenario.max_bits
                           or (errors >= scenario.min_errors and blocks >= scenario.min_blocks)):
                    block_ids = range(blocks, blocks + scenario.blocks_per_wave)
                    errors += sum(runner.run(point_index, block_ids))
                    blocks += scenario.blocks_per_wave
                bits = blocks * bits_per_block
                records.append(BerRecord(
                    scenario=scenario.name, ebn0_db=float(ebn0_db), bits=bits, errors=errors,
                    ber=errors / bits, ci95=binomial_ci95(errors, bits), source="monte-carlo",
                    seed=scenario.master_seed, censored=errors < scenario.min_errors, **columns))
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

    The split's weights depend on the channel alone, so they are formed
    once, before the chunks (_source_split).  Each chunk of at most chunk
    symbols draws its symbols, splits their noiseless outputs against those
    weights (_source_outputs) and then draws the noise of slot (1, 1), with
    that slot's variance (user 1's Gram entry), at the one noise scale
    formed before the chunks (channel.noise_scale); with the noise off it
    is zero and ebn0_db is not read.  With several paths each chunk is
    preceded by one uncounted warmup symbol, so that the missing previous
    symbol at its start does not bias the estimates.  chunk must be at
    least 1.
    """
    if n_symbols < 2:
        raise ValueError(f"need at least 2 symbols for a sample variance, got {n_symbols}")
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1 symbol, got {chunk}")
    cfg = runtime.scenario.config
    split = _source_split(runtime, channel)
    scale = noise_scale(ebn0_db, runtime.eb) if runtime.scenario.noise_enabled else None
    collected = {name: [] for name in SOURCE_NAMES}
    for start in range(0, n_symbols, chunk):
        n_total = min(chunk, n_symbols - start) + runtime.warmup
        sources = _source_outputs(
            split, _draw_symbols(rng, (cfg.users, n_total, cfg.substreams, cfg.carriers)))
        sources["noise"] = (np.zeros(n_total, dtype=np.complex128) if scale is None
                            else correlator_noise(scale, runtime.noise_factor[:1, :1], n_total,
                                                  rng)[:, 0])
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

"""Correlator receiver: coherent subcarrier demodulation, despreading and
bit decisions, the partial cross-correlation tables and their product
through which the linear chain is simulated without samples, and the
record of the interference decomposition.  The tables are built once per
scenario at PN-chip rate, from the chip sequences and the Walsh chip
bounds, with no per-sample array (partial_correlation_tables).  They keep
each signature's Walsh chips factored out: one carrier block per (path,
user 1's Walsh chip, user, chip lag), which the Walsh rows never enter.

The BER engine and the interference decomposition share that one
correlation-domain model (correlate_tables), and so does user 1's Gram
matrix (signature_gram), from which the correlator noise is drawn: the
decomposition evaluates the same sum over subsets of its terms, one per
source, and draws its noise per correlator output as the BER engine does.

The receiver is locked to the reference (first) path of the wanted user:
it knows that path's delay and phase, counter-rotates the phase, projects
each symbol window onto the conjugate slot signatures and decides on the
sign of the real part.  Later paths, other substreams, other carriers and
other users all land in the correlator as interference.

Correlations are normalized by the samples per symbol, so a clean slot
correlates to sqrt(2) * path_gain * symbol at unit branch power
(txchain.LinkConfig).  Slot (r, m) of user k has the signature
w_r(chip i) pn_k(i) E_m(i) at sample i, E_m the subcarrier exponentials,
and every path correlates against it with its Walsh chips factored out:
per-chip sums, which the tube's chain forms from its sampled windows cut at
txchain.walsh_chip_bounds (chip_correlations), the limiter's from its
clipped cells and the linear chain from the tables (correlate_tables), and
one Walsh combine (combine_walsh_chips).  decide_slots takes the correlator
outputs and the transmitted symbols.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .txchain import LinkConfig, _work_array, walsh_chip_bounds

SOURCE_NAMES = ("desired", "multipath", "inter_substream", "inter_carrier", "multi_user", "noise")


@dataclass(frozen=True)
class InterferenceVariances:
    """Sample variances of the complex correlator components, plus the mean
    desired-signal power |z_desired|^2.

    The variances are of the full complex outputs (twice the per-rail
    variance for circular components); the BER mapping in `analysis`
    assumes this convention.  reference_gain is |h_11|^2 / E|h_11|^2, the
    power gain of user 1's reference path on the channel draw they were
    measured on relative to its mean: desired_power / reference_gain is the
    desired power at the mean gain, which a Rayleigh average starts from.
    """

    desired_power: float
    multipath: float
    inter_substream: float
    inter_carrier: float
    multi_user: float
    noise: float
    n_symbols: int
    reference_gain: float = 1.0

    @property
    def total(self) -> float:
        return sum(getattr(self, name) for name in SOURCE_NAMES[1:])


def chip_correlations(windows: np.ndarray, correlator: np.ndarray,
                      bounds: np.ndarray) -> np.ndarray:
    """The correlations of received samples already cut into symbol windows
    y, shape (n_symbols, samples_per_symbol), against slot signatures that
    factor as w_r(chip i) g_m(i), per Walsh chip and before the Walsh chips
    are applied (combine_walsh_chips):

        per_chip[c, n, m] = sum_{i in chip c} y[n, i] conj(g_m(i)),

    one GEMM per chip against `carriers` columns instead of one against
    substreams * carriers.  correlator holds conj(g_m(i)), shape
    (samples_per_symbol, carriers): for a user's signatures its chips
    times the conjugated carrier exponentials.  bounds holds each Walsh chip's first sample and then
    samples_per_symbol (txchain.walsh_chip_bounds).  Shape (walsh_order,
    n_symbols, carriers)."""
    per_chip = np.empty((len(bounds) - 1, windows.shape[0], correlator.shape[1]),
                        dtype=np.complex128)
    for chip, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.matmul(windows[:, lo:hi], correlator[lo:hi], out=per_chip[chip])
    return per_chip


def combine_walsh_chips(per_chip: np.ndarray, walsh_rows: np.ndarray, n_samp: int,
                        reference_phase) -> np.ndarray:
    """The correlator outputs from per-chip sums (chip_correlations), shape
    (..., walsh_order, n_symbols, carriers), given the +-1 Walsh rows w_r,
    shape (substreams, walsh_order):

        z[..., n, (r, m)] = (1/N) e^{-j reference_phase} sum_c w_r(c) per_chip[..., c, n, m],

    a real Walsh combine, one GEMM per leading index (a batch's blocks, each
    with its own reference_phase, of the leading shape).  Returns (...,
    n_symbols, substreams * carriers) in slot order r * carriers + m."""
    *lead, order, n_sym, n_car = per_chip.shape
    # (substreams, order) @ (order, n_sym * carriers), re/im interleaved
    z = np.asarray(walsh_rows, dtype=np.float64) @ np.ascontiguousarray(per_chip).view(
        np.float64).reshape(*lead, order, -1)
    out = np.empty((*lead, n_sym, len(walsh_rows), n_car), dtype=np.complex128)
    # the 1/N and the phase in one scalar multiply per block, written in slot order
    rotation = np.exp(-1j * np.asarray(reference_phase)) / n_samp
    np.multiply(z.view(np.complex128).reshape(*lead, -1, n_sym, n_car).swapaxes(-3, -2),
                rotation[..., None, None, None], out=out)
    return out.reshape(*lead, n_sym, -1)


def decide_slots(z: np.ndarray, reference: np.ndarray):
    """Sign decisions on the real part of correlator outputs z, shape (...,
    symbols, substreams, carriers), against the transmitted +-1 symbols of
    the same shape, one bit each.  Returns the number of bit errors per
    leading index: one count for one block's outputs, an array of one per
    block for a batch's."""
    reference = np.asarray(reference)
    if reference.shape != z.shape:
        raise ValueError(f"reference shape {reference.shape} != outputs shape {z.shape}")
    return np.count_nonzero((z.real >= 0.0) != (reference > 0), axis=(-3, -2, -1))


def partial_correlation_tables(pn_chips: np.ndarray, config: LinkConfig,
                               n_paths: int) -> np.ndarray:
    """Aperiodic partial cross-correlations between every user's delayed
    slot signatures and user 1's, for the chip-spaced path delays
    D = l * oversampling, l < n_paths, with the Walsh chips factored out.

    pn_chips holds the users' +-1 chip sequences, shape (users, pn_length),
    user 1 first.  Slot (r, m) of user k is w_r(chip) pn_k(i) E_m(i) at
    sample i, so a partial cross-correlation
    between two slots is a sum over pairs of Walsh chips: chip a of user k's
    delayed symbol against chip b of user 1's, weighed by w_r(a) w_r'(b).
    The tables keep that sum open.  On the Walsh chips of a symbol stream,
    chip b of user 1's symbol n meets chip (n * walsh_order + b - q) of user
    k's stream delayed by D, for a lag q of 0 .. walsh_order: chip a = b - q
    of symbol n, or a = walsh_order + b - q of symbol n - 1 when q > b.
    Returns complex carrier blocks of shape (n_paths, walsh_order, users,
    lags, carriers, carriers), lags being the largest lag of any path plus
    one:

        [l, b, k, q, m, m'] = (1/N) sum_{i in chip b, i - D in chip a}
                                  pn_k(i - D) E_m(i - D) pn_1(i) conj(E_m'(i)),

    with N = samples_per_symbol and i - D read modulo N: the part of chip b
    of user 1's correlator, carrier m', that user k's chip a on carrier m
    fills via path l; a block with no such samples is zero.  So via path l
    user k adds

        sqrt(2) h_kl sum_{q, m} c_k[n * walsh_order + b - q, m] [l, b, k, q, m, :]

    to chip b of user 1's per-chip sums of symbol n, c_k being user k's
    symbols Walsh-transformed onto its chip stream, c_k[n * walsh_order + a,
    m] = sum_r w_r(a) d_k[n, r, m] (txchain.spread_symbols), and the Walsh combine
    sum_b w_r'(b) gives the correlator output of slot (r', m')
    (combine_walsh_chips).  This is the correlation-domain form of the
    linear chain (Pursley, IEEE Trans. Commun. 25(8), 1977).  With as many
    substreams as Walsh chips, the blocks of one lag hold 1/walsh_order of
    the entries of the full (slot x slot) tables (slot_tables).

    The signatures are never built.  Each block is
    e^{-j 2 pi W (m+1) D / N} H[k, run, m - m'] summed over the runs of its
    (path, b, lag), where H sums pn_k(i - D) pn_1(i) w^{W (m - m') i} over the
    samples of one run, w = e^{j 2 pi / N}.  The work is at PN-chip rate: the
    PN product is constant over a PN chip, so the symbol is cut into
    segments at the PN chips, at D, and at the Walsh bounds of both chip
    indices (txchain.walsh_chip_bounds, and those bounds delayed by D mod
    N).  Over a segment of n samples from i0 the rotation sums to
    w^{W delta i0} sum_{t < n} w^{W delta t}, both read at exact integer
    indices from one N-point unit circle, for delta = 0..M-1 only: the PN
    products are real, so delta < 0 is the conjugate.  H is one small real
    GEMM per run of segments with one (a, b) pair and window, the runs are
    summed per (lag, b) by a 0/1 selector, one more GEMM per path, and the
    (m, m') layout is a Toeplitz view of the delta axis, multiplied by the
    delay phase straight into the tables.
    """
    n_samp, over = config.samples_per_symbol, config.oversampling
    order, n_car = config.walsh_order, config.carriers
    users = pn_chips.shape[0]
    bounds = walsh_chip_bounds(config)
    circle = np.exp(2j * np.pi * np.arange(n_samp) / n_samp)
    deltas = np.arange(n_car)
    # partial[n - 1, delta] = sum_{t < n} w^{W delta t}, n <= oversampling
    partial = np.cumsum(circle[order * np.outer(np.arange(over), deltas) % n_samp], axis=0)
    pn_grid = np.arange(0, n_samp + 1, over)
    keys, sums = [], []
    for path in range(n_paths):
        delay = path * over
        # Runs of one window and one Walsh chip pair (a, b) end at D and at
        # the Walsh bounds of both chip indices, segments at those and at
        # every PN chip.  Every cut off the PN grid ends a run, so the
        # segments of a run lie on consecutive PN chips, one each.
        runs = np.sort(np.concatenate((bounds, (bounds[:-1] + delay) % n_samp)))
        runs = runs[np.diff(runs, prepend=-1) > 0]
        cuts = np.sort(np.concatenate((pn_grid, runs)))
        cuts = cuts[np.diff(cuts, prepend=-1) > 0]
        starts = cuts[:-1]
        rotations = (circle[np.outer(starts, order * deltas) % n_samp]
                     * partial[np.diff(cuts) - 1]).view(np.float64)
        # pn_k(c - l) pn_1(c) per PN chip c, so a run's products are one slice
        products = np.multiply(np.roll(pn_chips, path, axis=1), pn_chips[0], dtype=np.float64)
        heads = np.searchsorted(cuts, runs)
        # per run, H over (k, delta >= 0), re/im interleaved
        sums.append(np.stack([(products[:, starts[lo] // over:][:, :hi - lo]
                               @ rotations[lo:hi]).reshape(-1)
                              for lo, hi in zip(heads[:-1], heads[1:])]))
        firsts = runs[:-1]
        delayed = np.searchsorted(bounds, (firsts - delay) % n_samp, side="right") - 1
        current = np.searchsorted(bounds, firsts, side="right") - 1
        # a run before D reads user k's previous symbol
        lags = np.where(firsts < delay, order, 0) + current - delayed
        keys.append(lags * order + current)
    n_lags = max(key.max() for key in keys) // order + 1
    selector = np.arange(n_lags * order)[:, None]
    x = np.stack([(selector == key).astype(np.float64) @ h for key, h in zip(keys, sums)])
    x = x.view(np.complex128).reshape(n_paths, n_lags, order, users, n_car)
    # delta = M-1..0 and then -1..-(M-1), by conjugation, so that
    # y[..., m, m'] = flipped[..., M - 1 - m + m'] is the entry at m - m'
    flipped = np.concatenate((x[..., ::-1], x[..., 1:].conj()), axis=-1)
    y = np.lib.stride_tricks.sliding_window_view(flipped, n_car, axis=-1)[..., ::-1, :]
    phase = circle[-order * np.outer(np.arange(n_paths) * over, np.arange(1, n_car + 1)) % n_samp]
    tables = np.empty((n_paths, order, users, n_lags, n_car, n_car), dtype=np.complex128)
    # (l, q, b, k, m, m') -> (l, b, k, q, m, m'), times the delay phase on m
    np.multiply(y.transpose(0, 2, 3, 1, 4, 5), phase[:, None, None, None, :, None] / n_samp,
                out=tables)
    return tables


def slot_tables(tables: np.ndarray, walsh_rows: np.ndarray,
                target_rows: np.ndarray) -> np.ndarray:
    """The carrier blocks of partial_correlation_tables multiplied out over
    the Walsh rows: with walsh_rows the substreams' +-1 rows (substreams,
    walsh_order) and target_rows those of user 1's target substreams,

        [k, w, (r, m), l, (t, m')] = sum_{b, q} w_r(w * walsh_order + b - q) target_rows[t, b]
                                                 tables[l, b, k, q, m, m']

    over the lags q of window w, q <= b for user k's current symbol (w = 0)
    and q > b for the one before (w = 1).  Entry [k, w, s, l, t] is what
    slot s of that symbol of user k puts into user 1's correlator output t
    via path l.  Shape (users, windows, substreams * carriers, paths,
    targets * carriers), in slot order r * carriers + m, with a second
    window when the tables have a lag past the first.  The form in which
    few target slots (the interference split's one, user 1's Gram matrix)
    cost less than the per-chip product of correlate_tables."""
    n_paths, order, users, lags, n_car, n_tar = tables.shape
    lag, chip = np.ogrid[:lags, :order]
    window = lag > chip
    windows = 2 if window.any() else 1
    # pairs[r, t, b, q] = w_r(a) target_t(b), a = w * walsh_order + b - q
    pairs = np.einsum("rqb,tb->rtbq", walsh_rows[:, window * order + chip - lag], target_rows)
    selector = np.stack([pairs * (window == w).T for w in range(windows)])
    # (w, r, t, l, k, m, m') -> (k, w, r, m, l, t, m')
    full = np.tensordot(selector, tables, axes=([3, 4], [1, 3])).transpose(4, 0, 1, 5, 3, 2, 6)
    return full.reshape(users, windows, len(walsh_rows) * n_car, n_paths, -1)


def signature_gram(tables: np.ndarray, walsh_rows: np.ndarray) -> np.ndarray:
    """User 1's Gram matrix C[s, t] = (1/N) sum_i conj(sig_1[s, i]) sig_1[t, i]
    over its slot signatures, in the slot order r * carriers + m, from its
    blocks on path 0 of partial_correlation_tables (slot_tables) and the
    substreams' +-1 Walsh rows, shape (substreams, walsh_order).  It is the
    covariance white sample noise leaves in the correlator outputs, up to
    the noise level, and Hermitian."""
    return slot_tables(tables[:1, :, :1], walsh_rows, walsh_rows)[0, 0, :, 0].T


def correlate_tables(tables: np.ndarray, chips: np.ndarray, gains: np.ndarray,
                     work: dict) -> np.ndarray:
    """Noiseless per-chip sums of user 1's correlator straight from the
    symbols, through partial_correlation_tables:

        per_chip[b, n, t] = sum_{k, l} gains[k, l] sum_{q, m} c_k[n * walsh_order + b - q, m]
                                                              tables[l, b, k, q, m, t]

    with c_k[n * walsh_order + a, m] = chips[a, n, k, m] each user's
    symbols on its Walsh chip stream (txchain.spread_symbols), zero before
    the first symbol.  chips is (..., walsh_order, n, users, carriers),
    gains the complex path gains (..., users, paths), any leading axes (a
    batch's blocks) alike in both, and tables any slice of the full tables
    over users (with chips and gains sliced alike) or over the target
    carriers t.  Returns (..., walsh_order, n, targets), the shape of
    receiver.chip_correlations: combine_walsh_chips turns them into
    correlator outputs, once they are scaled by sqrt(2) and by N, since the
    tables carry 1/N and the combine divides by N again.

    Two steps: the path gains contracted into the tables, which leaves one
    block per (b, k, q, m) with no path axis, and one real product per
    target chip b of the chip stream, stacked at its lags, against those,
    per leading index.  With as many substreams as Walsh chips that is
    1/walsh_order of the arithmetic of the full (slot x slot) tables at one
    lag.  Its working arrays are work's (txchain._work_array).
    """
    n_paths, order, users, lags, n_car, targets = tables.shape
    *lead, _, n_total, _, _ = chips.shape
    chips = chips.reshape(*lead, order, n_total, users, 1, n_car)
    stacked = chips
    if lags > 1:
        # stacked[..., b, n, k, q] holds chip b - q of window n, or of
        # window n - 1 when b < q, and zero before the first window
        stacked = _work_array(work, "stacked", (*lead, order, n_total, users, lags, n_car))
        for lag in range(lags):
            stacked[..., lag:, :, :, lag, :] = chips[..., :order - lag, :, :, 0, :]
            stacked[..., :lag, 1:, :, lag, :] = chips[..., order - lag:, :-1, :, 0, :]
            stacked[..., :lag, 0, :, lag, :] = 0.0
    # weighted[..., b, k, q, m, t] = sum_l gains[..., k, l] tables[l, b, k, q, m, t]
    path_gains = gains[..., None, :, None, None, None, :]
    shape = (*lead, *tables.shape[1:])
    weighted = np.multiply(tables[0], path_gains[..., 0],
                           out=_work_array(work, "weighted", shape, np.complex128))
    if n_paths > 1:
        term = _work_array(work, "term", shape, np.complex128)
        for path in range(1, n_paths):
            weighted += np.multiply(tables[path], path_gains[..., path], out=term)
    per_chip = np.matmul(stacked.reshape(*lead, order, n_total, -1),
                         weighted.reshape(*lead, order, -1, targets).view(np.float64))
    return per_chip.view(np.complex128)

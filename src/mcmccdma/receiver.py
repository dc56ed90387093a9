"""Correlator receiver: coherent subcarrier demodulation, despreading and
bit decisions, the partial cross-correlation tables and their product
through which the linear chain is simulated without samples, and the
record of the interference decomposition.  The tables are built once per
scenario at PN-chip rate, from the chip sequences and the Walsh chip
bounds, with no per-sample array (partial_correlation_tables).

The BER engine and the interference decomposition share that one
correlation-domain model (correlate_tables): the decomposition evaluates
the same sum over subsets of its terms, one per source, and draws its noise
per correlator output as the BER engine does.

The receiver is locked to the reference (first) path of the wanted user:
it knows that path's delay and phase, counter-rotates the phase, projects
each symbol window onto the conjugate slot signatures and decides on the
sign of the real part.  Later paths, other substreams, other carriers and
other users all land in the correlator as interference.

Correlations are normalized by the samples per symbol, so a clean slot
correlates to sqrt(2*power) * path_gain * symbol.  The sample-level
functions take plain arrays: correlate_slots a received sample array whose
first window starts at the reference path's delay, decide_slots the
correlator outputs and the transmitted symbols.  The amplifier chains
compute the same correlation with each signature's Walsh chips factored
out: per-chip sums, which the tube's chain forms from its sampled windows
cut at txchain.walsh_chip_bounds (chip_correlations) and the limiter's from
its clipped cells, and a Walsh combine (combine_walsh_chips).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .txchain import LinkConfig, substream_walsh_rows, walsh_chip_bounds

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
        return self.multipath + self.inter_substream + self.inter_carrier + self.multi_user + self.noise


def correlate_slots(samples: np.ndarray, signatures: np.ndarray, config: LinkConfig,
                    reference_phase: float = 0.0) -> np.ndarray:
    """Normalized per-symbol correlations against every slot signature.

    Returns (n_symbols, substreams, carriers) complex values
    (1/S) * sum_i y[i] conj(sig[i]) * e^{-j reference_phase} over the whole
    symbol windows of the sample array y; a partial last window is dropped.
    """
    n_samp = config.samples_per_symbol
    n_sym = samples.size // n_samp
    if n_sym == 0:
        raise ValueError("sample array shorter than one symbol window")
    y = samples[: n_sym * n_samp].reshape(n_sym, n_samp)
    z = (y @ signatures.reshape(-1, n_samp).conj().T) / n_samp
    if reference_phase != 0.0:
        z = z * np.exp(-1j * reference_phase)
    return z.reshape(n_sym, config.substreams, config.carriers)


def chip_correlations(windows: np.ndarray, correlator: np.ndarray,
                      bounds: np.ndarray) -> np.ndarray:
    """The correlations of correlate_slots on received samples already cut
    into symbol windows y, shape (n_symbols, samples_per_symbol), against
    slot signatures that factor as w_r(chip i) g_m(i), per Walsh chip and
    before the Walsh chips are applied (combine_walsh_chips):

        per_chip[c, n, m] = sum_{i in chip c} y[n, i] conj(g_m(i)),

    one GEMM per chip against `carriers` columns instead of one against
    substreams * carriers.  correlator holds conj(g_m(i)), shape
    (samples_per_symbol, carriers): for a user's signatures
    (txchain.slot_signatures) its chips times the conjugated carrier
    exponentials.  bounds holds each Walsh chip's first sample and then
    samples_per_symbol (txchain.walsh_chip_bounds).  Shape (walsh_order,
    n_symbols, carriers)."""
    per_chip = np.empty((len(bounds) - 1, windows.shape[0], correlator.shape[1]),
                        dtype=np.complex128)
    for chip, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.matmul(windows[:, lo:hi], correlator[lo:hi], out=per_chip[chip])
    return per_chip


def combine_walsh_chips(per_chip: np.ndarray, walsh_rows: np.ndarray, n_samp: int,
                        reference_phase: float = 0.0) -> np.ndarray:
    """The correlator outputs from per-chip sums (chip_correlations), shape
    (walsh_order, n_symbols, carriers), given the +-1 Walsh rows w_r, shape
    (substreams, walsh_order):

        z[n, (r, m)] = (1/N) e^{-j reference_phase} sum_c w_r(c) per_chip[c, n, m],

    a real Walsh combine.  Returns (n_symbols, substreams * carriers) in slot
    order r * carriers + m."""
    order, n_sym, n_car = per_chip.shape
    # (substreams, order) @ (order, n_sym * carriers), re/im interleaved
    z = np.asarray(walsh_rows, dtype=np.float64) @ np.ascontiguousarray(per_chip).view(
        np.float64).reshape(order, -1)
    z = z.view(np.complex128).reshape(-1, n_sym, n_car).transpose(1, 0, 2).reshape(n_sym, -1)
    z /= n_samp
    if reference_phase != 0.0:
        z *= np.exp(-1j * reference_phase)
    return z


def decide_slots(z: np.ndarray, reference: np.ndarray) -> tuple:
    """Sign decisions on the real part of correlator outputs z, shape
    (symbols, substreams, carriers), against the transmitted +-1 symbols of
    the same shape.  Returns (errors, bits)."""
    reference = np.asarray(reference)
    if reference.shape != z.shape:
        raise ValueError(f"reference shape {reference.shape} != outputs shape {z.shape}")
    decisions = np.where(z.real >= 0.0, 1, -1).astype(np.int8)
    return int(np.count_nonzero(decisions != reference)), int(decisions.size)


def partial_correlation_tables(pn_chips: np.ndarray, walsh: np.ndarray, config: LinkConfig,
                               n_paths: int) -> np.ndarray:
    """Aperiodic partial cross-correlations between every user's delayed
    slot signatures and user 1's, for the chip-spaced path delays
    D = l * oversampling, l < n_paths.

    pn_chips holds the users' +-1 chip sequences, shape (users, pn_length),
    user 1 first, and walsh the Walsh matrix (txchain.substream_walsh_rows).
    Returns complex tables of shape (users, windows, S, n_paths, S) with
    S = substreams * carriers in the slot order of slot_signatures:

        [k, 0, s, l, t] = (1/N) sum_{D <= i < N} sig_k[s, i - D] conj(sig_1[t, i])
        [k, 1, s, l, t] = (1/N) sum_{0 <= i < D} sig_k[s, N - D + i] conj(sig_1[t, i])

    with N = samples_per_symbol.  Window 0 is what user k's current symbol
    puts into user 1's correlator t on path l, window 1 what its previous
    symbol leaks in; window 1 exists only when n_paths > 1.  This is the
    correlation-domain form of the linear chain (Pursley, IEEE Trans.
    Commun. 25(8), 1977): via path l, user k adds
    sqrt(2 power) h_kl (d_k[n] @ table[k, 0, :, l] + d_k[n-1] @ table[k, 1, :, l])
    to user 1's correlator outputs of symbol n.  The layout makes user k's
    contribution on every path one product of its (d_k[n], d_k[n-1]) with
    table[k] viewed as a (windows * S, n_paths * S) matrix.

    The signatures are never built.  With a = Walsh chip of sample i - D and
    b = Walsh chip of sample i, each entry factors as
    e^{-j 2 pi W (m+1) D / N} sum_{(a,b)} w_r(a) w_r'(b) H[k, (a,b), m - m'],
    where H sums pn_k(i - D) pn_1(i) w^{W (m - m') i} over the samples of
    one (a, b) pair, w = e^{j 2 pi / N}.  The work is at PN-chip rate: the
    PN product is constant over a PN chip, so the symbol is cut into
    segments at the PN chips, at D, and at the Walsh bounds of both chip
    indices (txchain.walsh_chip_bounds, and those bounds delayed by D mod
    N).  Over a segment of n samples from i0 the rotation sums to
    w^{W delta i0} sum_{t < n} w^{W delta t}, both read at exact integer
    indices from one N-point unit circle, for delta = 0..M-1 only: the PN
    products are real, so delta < 0 is the conjugate.  H is one small real
    GEMM per run of segments with one (a, b) pair and window, the Walsh
    combine one more per window and path, and the (m, m') layout a Toeplitz
    view of the delta axis, multiplied by the delay phase straight into the
    tables.
    """
    n_samp, over = config.samples_per_symbol, config.oversampling
    order, n_sub, n_car = config.walsh_order, config.substreams, config.carriers
    rows = substream_walsh_rows(walsh, config)
    users = pn_chips.shape[0]
    bounds = walsh_chip_bounds(config)
    circle = np.exp(2j * np.pi * np.arange(n_samp) / n_samp)
    deltas = np.arange(n_car)
    # partial[n - 1, delta] = sum_{t < n} w^{W delta t}, n <= oversampling
    partial = np.cumsum(circle[order * np.outer(np.arange(over), deltas) % n_samp], axis=0)
    pn_grid = np.arange(0, n_samp + 1, over)
    windows = 2 if n_paths > 1 else 1
    # per (window, path): sum_{(a,b)} w_r(a) w_r'(b) H[k, (a,b), delta] over
    # (r, r') and (k, delta >= 0), re/im interleaved
    walsh_sums = np.zeros((windows, n_paths, n_sub * n_sub, users * 2 * n_car))
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
        sums = (circle[np.outer(starts, order * deltas) % n_samp]
                * partial[np.diff(cuts) - 1]).view(np.float64)
        # pn_k(c - l) pn_1(c) per PN chip c, so a run's products are one slice
        products = np.multiply(np.roll(pn_chips, path, axis=1), pn_chips[0], dtype=np.float64)
        heads = np.searchsorted(cuts, runs)
        h = np.stack([(products[:, starts[lo] // over:][:, :hi - lo] @ sums[lo:hi]).reshape(-1)
                      for lo, hi in zip(heads[:-1], heads[1:])])
        firsts = runs[:-1]
        delayed = np.searchsorted(bounds, (firsts - delay) % n_samp, side="right") - 1
        current = np.searchsorted(bounds, firsts, side="right") - 1
        # per run, w_r(a) w_r'(b) as a row over (r, r')
        pairs = np.einsum("rp,qp->prq", rows[:, delayed], rows[:, current]).reshape(firsts.size, -1)
        for window, kept in enumerate((firsts >= delay, firsts < delay)[:windows]):
            np.matmul(pairs[kept].T, h[kept], out=walsh_sums[window, path])
    x = walsh_sums.view(np.complex128).reshape(windows, n_paths, n_sub, n_sub, users, n_car)
    # delta = M-1..0 and then -1..-(M-1), by conjugation, so that
    # y[..., m, m'] = flipped[..., M - 1 - m + m'] is the entry at m - m'
    flipped = np.concatenate((x[..., ::-1], x[..., 1:].conj()), axis=-1)
    y = np.lib.stride_tricks.sliding_window_view(flipped, n_car, axis=-1)[..., ::-1, :]
    phase = circle[-order * np.outer(np.arange(n_paths) * over, np.arange(1, n_car + 1)) % n_samp]
    tables = np.empty((users, windows, n_sub, n_car, n_paths, n_sub, n_car), dtype=np.complex128)
    # (window, l, r, r', k, m, m') -> (k, window, r, m, l, r', m'), times the delay phase
    np.multiply(y.transpose(4, 0, 2, 5, 1, 3, 6), phase.T[:, :, None, None] / n_samp, out=tables)
    return tables.reshape(users, windows, n_sub * n_car, n_paths, n_sub * n_car)


def correlate_tables(tables: np.ndarray, symbols: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Noiseless correlator outputs straight from the symbols, through
    partial_correlation_tables:

        z[n, t] = sum_k sum_l gains[k, l] (d_k[n] @ tables[k, 0, :, l, t]
                                            + d_k[n-1] @ tables[k, 1, :, l, t])

    with d_k[-1] = 0.  symbols is (users, n, ...) with S slots per symbol,
    gains the complex path gains (users, paths), and tables any slice of
    the full tables over users (with symbols and gains sliced alike) or
    over the target slots t.  Returns (n, targets); the caller applies the
    amplitude sqrt(2 power) and the reference-path phase.

    With one path, every user's outputs are one real GEMM against its
    tables and the gains weigh them after.  With several, the gains are
    contracted into the tables first, which leaves one table per user with
    no path axis, and z is one real GEMM of all users' stacked symbols
    against those: a fraction of the arithmetic, and no per-path outputs.
    """
    users, windows, slots, n_paths, targets = tables.shape
    n_total = symbols.shape[1]
    # Per user, row n holds its symbols of window n and then, with several
    # paths, those of window n - 1 (zero before the first window).
    stacked = np.zeros((users, n_total, windows, slots))
    current = symbols.reshape(users, n_total, slots)
    stacked[:, :, 0] = current
    if windows == 2:
        stacked[:, 1:, 1] = current[:, :-1]
    stacked = stacked.reshape(users, n_total, windows * slots)
    if n_paths > 1:
        # weighted[k, (w, s), t] = sum_l gains[k, l] tables[k, w, s, l, t]
        weighted = np.matmul(gains[:, None, None, :],
                             tables.reshape(users, windows * slots, n_paths, targets))
        weighted = weighted.reshape(-1, targets)
        z = stacked.transpose(1, 0, 2).reshape(n_total, -1) @ weighted.view(np.float64)
        return z.view(np.complex128)
    # Every user's unweighted outputs, one real GEMM per user.
    tables = np.ascontiguousarray(tables).reshape(users, windows * slots, targets)
    per_user = np.matmul(stacked, tables.view(np.float64)).view(np.complex128)
    return (per_user.transpose(1, 2, 0).reshape(n_total * targets, users)
            @ gains.reshape(-1)).reshape(n_total, targets)

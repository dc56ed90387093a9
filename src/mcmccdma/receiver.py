"""Correlator receiver: coherent subcarrier demodulation, despreading and
bit decisions, the partial cross-correlation tables and their product
through which the linear chain is simulated without samples, and the
record of the interference decomposition.

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

from .txchain import LinkConfig, substream_walsh_rows, walsh_chip_indices

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
    where H sums pn_k(i - D) pn_1(i) e^{j 2 pi W (m - m') i / N} over the
    samples of one (a, b) pair.  Both chip indices are nondecreasing within
    a window, so each pair covers runs of consecutive samples, and H is one
    small real GEMM per run.
    """
    n_samp = config.samples_per_symbol
    order, n_sub, n_car = config.walsh_order, config.substreams, config.carriers
    users = pn_chips.shape[0]
    slots = n_sub * n_car
    chip = walsh_chip_indices(config)
    pn_up = np.repeat(np.asarray(pn_chips, dtype=np.float64), config.oversampling, axis=1)
    i = np.arange(n_samp)
    # e^{j 2 pi W delta i / N} for delta = m - m' in -(M-1)..M-1, as a real
    # array with re/im interleaved so every H is a real GEMM.
    deltas = np.arange(-(n_car - 1), n_car)
    rotations = np.exp(2j * np.pi * order * np.outer(i, deltas) / n_samp).view(np.float64)
    delta_index = np.arange(n_car)[:, None] - np.arange(n_car)[None, :] + n_car - 1
    rows = substream_walsh_rows(walsh, config)
    windows = 2 if n_paths > 1 else 1
    tables = np.empty((users, windows, n_sub, n_car, n_paths, n_sub, n_car), dtype=np.complex128)
    products = np.empty_like(pn_up)
    for path in range(n_paths):
        delay = path * config.oversampling
        # pn_k((i - D) mod N) pn_1(i)
        products[:, delay:] = pn_up[:, :n_samp - delay]
        products[:, :delay] = pn_up[:, n_samp - delay:]
        products *= pn_up[0]
        chip_delayed = np.roll(chip, delay)
        # A new run starts wherever the window or either chip index changes.
        key = (i >= delay) * order * order + chip_delayed * order + chip
        bounds = np.concatenate(([0], np.flatnonzero(np.diff(key)) + 1, [n_samp]))
        starts = bounds[:-1]
        # per run: H[k, delta], and w_r(a) w_r'(b) as a row over (r, r')
        h = np.stack([(products[:, lo:hi] @ rotations[lo:hi]).reshape(-1)
                      for lo, hi in zip(starts, bounds[1:])])
        pairs = np.einsum("rp,qp->prq", rows[:, chip_delayed[starts]], rows[:, chip[starts]]
                          ).reshape(starts.size, -1)
        phase = np.exp(-2j * np.pi * order * np.arange(1, n_car + 1) * delay / n_samp) / n_samp
        for window, runs in enumerate((starts >= delay, starts < delay)[:windows]):
            x = pairs[runs].T @ h[runs]
            # (r, r', k, delta) -> (r, r', k, m, m') -> (k, r, m, r', m')
            y = x.view(np.complex128).reshape(n_sub, n_sub, users, -1)[..., delta_index]
            y *= phase[:, None]
            tables[:, window, :, :, path] = y.transpose(2, 0, 3, 1, 4)
    return tables.reshape(users, windows, slots, n_paths, slots)


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
    # Every user's unweighted outputs on every path, one real GEMM per user.
    tables = np.ascontiguousarray(tables).reshape(users, windows * slots, n_paths * targets)
    per_path = np.matmul(stacked.reshape(users, n_total, windows * slots), tables.view(np.float64))
    per_path = per_path.view(np.complex128).reshape(users, n_total, n_paths, targets)
    return (per_path.transpose(1, 3, 0, 2).reshape(n_total * targets, users * n_paths)
            @ gains.reshape(-1)).reshape(n_total, targets)

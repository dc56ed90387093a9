"""The sample-level reference chain that the engine's noiseless outputs
are held to, to 1e-12: one user's transmit samples, formed sample by sample
from its slot signatures (modulation_table, slot_signatures,
modulate_user), multipath propagation of a sample array
(propagate_samples), and the correlator bank on received samples
(correlate_slots).  The package itself never forms a user's sampled
waveform.  The Walsh rows are stretched per sample on the floor grid
(oracles.floor_chips), not through the engine's chip table
(txchain.walsh_chip_bounds), so the chain shares no boundary table with
the amplifiers it checks.

    walsh = generate_walsh(config.walsh_order)
    tx = modulate_user(symbols, walsh, pn, config)       # (slots, r, m) -> samples
    rx = propagate_samples(tx, gains, config.oversampling)
    z = correlate_slots(rx, slot_signatures(walsh, pn, config), config)
"""

from __future__ import annotations

import numpy as np

from mcmccdma.txchain import LinkConfig, subcarrier_exponentials, substream_walsh_rows

from oracles import floor_chips


def _pn_chips(pn, config: LinkConfig) -> np.ndarray:
    chips = np.asarray(pn)
    if chips.size != config.pn_length:
        raise ValueError(f"PN length {chips.size} does not match config pn_length {config.pn_length}")
    return chips


def modulation_table(walsh: np.ndarray, config: LinkConfig) -> np.ndarray:
    """PN-free slot signatures, shared by every user.

    Row r*carriers + m holds walsh_row_r (stretched) * subcarrier m+1
    exponential over one symbol, stored as a real array of shape
    (substreams*carriers, 2*samples_per_symbol) with real and imaginary
    parts interleaved, so that symbols @ table is one real GEMM whose result
    views as complex samples.  A user's slot signatures are these rows times
    its oversampled PN chips.
    """
    walsh_up = substream_walsh_rows(walsh, config)[:, floor_chips(config)]
    carriers = subcarrier_exponentials(config)
    table = np.multiply(walsh_up[:, None, :], carriers[None, :, :], order="C")
    return table.reshape(config.substreams * config.carriers, -1).view(np.float64)


def slot_signatures(walsh: np.ndarray, pn, config: LinkConfig) -> np.ndarray:
    """Unit-modulus signature waveform of every (substream, carrier) slot.

    Returns shape (substreams, carriers, samples_per_symbol); entry (r, m)
    is walsh_row_r (stretched) * pn chips (oversampled) * subcarrier m+1
    exponential; pn is the user's +-1 chip array (e.g. a cyclically
    shifted m-sequence).  The transmitter scales these by sqrt(2)
    (LinkConfig) and the receiver correlates against their conjugates.
    """
    pn_up = np.repeat(_pn_chips(pn, config), config.oversampling).astype(np.float64)
    table = modulation_table(walsh, config).view(np.complex128)
    return (table * pn_up).reshape(config.substreams, config.carriers, config.samples_per_symbol)


def modulate_user(symbols, walsh: np.ndarray, pn, config: LinkConfig) -> np.ndarray:
    """Complex-envelope transmit samples of one user, as one array.

    symbols has shape (slots, substreams, carriers) with +-1 entries; pn is
    the user's +-1 chip array.  Each slot becomes samples_per_symbol
    samples equal to sqrt(2) * sum over slots of symbol * signature.
    """
    d = np.asarray(symbols, dtype=np.float64)
    if d.ndim != 3 or d.shape[1] != config.substreams or d.shape[2] != config.carriers:
        raise ValueError(
            f"symbols must be (slots, {config.substreams}, {config.carriers}), got {d.shape}"
        )
    scale = np.repeat(np.sqrt(2.0) * _pn_chips(pn, config), config.oversampling)
    samples = (d.reshape(d.shape[0], -1) @ modulation_table(walsh, config)).view(np.complex128)
    samples *= scale
    return samples.reshape(-1)


def propagate_samples(samples: np.ndarray, gains, samples_per_chip: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Sum of delayed copies of a sample array, copy l weighted by the
    complex path gain gains[l] and delayed by l chips, over the full support
    (input length plus the largest delay).

    With out given, the copies are added into it in place and out is
    returned, so a caller can sum many users' signals into one buffer
    without a temporary per user; an out longer than the support holds
    zeros past it.
    """
    if samples_per_chip < 1:
        raise ValueError(f"samples_per_chip must be >= 1, got {samples_per_chip}")
    gains = np.asarray(gains)
    support = samples.size + max(gains.size - 1, 0) * samples_per_chip
    if out is None:
        out = np.zeros(support, dtype=np.complex128)
    elif out.size < support:
        raise ValueError(f"out holds {out.size} samples, fewer than the {support} "
                         "of the delayed copies")
    scratch = np.empty(samples.size, dtype=np.complex128)
    for path, gain in enumerate(gains):
        shift = path * samples_per_chip
        np.multiply(samples, gain, out=scratch)
        out[shift:shift + samples.size] += scratch
    return out


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

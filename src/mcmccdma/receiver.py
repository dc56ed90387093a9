"""Correlator receiver: coherent subcarrier demodulation, despreading and
bit decisions, plus the interference-decomposition diagnostics.

The receiver is locked to the reference (first) path of the wanted user:
it knows that path's delay and phase, counter-rotates the phase, projects
each symbol window onto the conjugate slot signatures and decides on the
sign of the real part.  Later paths, other substreams, other carriers and
other users all land in the correlator as interference.

Correlations are normalized by the samples per symbol, so a clean slot
correlates to sqrt(2*power) * path_gain * symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (ChannelRealization, NoiseSpec, PathTap, add_awgn, apply_multipath,
                      propagate_samples)
from .codes import WalshMatrix
from .txchain import (BasebandFrame, LinkConfig, modulate_user, modulation_table,
                      slot_signatures)

SOURCE_NAMES = ("desired", "multipath", "inter_substream", "inter_carrier", "multi_user", "noise")


@dataclass(frozen=True)
class CorrelatorOutput:
    """One slot's correlation split by signal origin.

    components holds complex correlations keyed by SOURCE_NAMES; their sum
    reproduces z_total up to floating round-off (the chain is linear).
    Indices are 1-based to match the slot naming used elsewhere.
    """

    user: int
    substream: int
    carrier: int
    symbol: int
    z_total: complex
    components: dict[str, complex]

    @property
    def interference_total(self) -> complex:
        return sum(v for k, v in self.components.items() if k != "desired")


@dataclass(frozen=True)
class BitDecisions:
    """Recovered +-1 decisions per (symbol, substream, carrier) for one user."""

    user: int
    decisions: np.ndarray
    bits: int
    errors: int | None = None


@dataclass(frozen=True)
class InterferenceVariances:
    """Sample variances of the complex correlator components, plus the mean
    desired-signal power |z_desired|^2.

    The variances are of the full complex outputs (twice the per-rail
    variance for circular components); the BER mapping in `analysis`
    assumes this convention.
    """

    desired_power: float
    multipath: float
    inter_substream: float
    inter_carrier: float
    multi_user: float
    noise: float
    n_symbols: int

    @property
    def total(self) -> float:
        return self.multipath + self.inter_substream + self.inter_carrier + self.multi_user + self.noise


def correlate_slots(frame: BasebandFrame, signatures: np.ndarray, config: LinkConfig,
                    reference_phase: float = 0.0, start_sample: int = 0) -> np.ndarray:
    """Normalized per-symbol correlations against every slot signature.

    Returns (n_symbols, substreams, carriers) complex values
    (1/S) * sum_i y[i] conj(sig[i]) * e^{-j reference_phase}, taking symbol
    windows from start_sample onward.
    """
    n_samp = config.samples_per_symbol
    y = frame.samples[start_sample:]
    n_sym = y.size // n_samp
    if n_sym == 0:
        raise ValueError("frame shorter than one symbol window")
    y = y[: n_sym * n_samp].reshape(n_sym, n_samp)
    flat = signatures.reshape(-1, n_samp)
    z = (y @ flat.conj().T) / n_samp
    if reference_phase != 0.0:
        z = z * np.exp(-1j * reference_phase)
    return z.reshape(n_sym, config.substreams, config.carriers)


def recover_bits(frame: BasebandFrame, user: int, walsh: WalshMatrix, pn, config: LinkConfig,
                 channel_ref: PathTap, reference: np.ndarray | None = None,
                 signatures: np.ndarray | None = None, skip_symbols: int = 0,
                 n_symbols: int | None = None) -> BitDecisions:
    """Demodulate one user's bits, synchronized to its reference path.

    pn is that user's own (shifted) sequence.  reference, when given, is the
    transmitted (slots, substreams, carriers) symbol array for the counted
    windows and enables error counting.  skip_symbols drops leading (e.g.
    warmup) windows; n_symbols caps how many are kept after that.
    """
    if channel_ref is None:
        raise ValueError("receiver needs the reference path tap (delay and phase) to synchronize")
    if signatures is None:
        signatures = slot_signatures(walsh, pn, config)
    start = channel_ref.delay_chips * config.oversampling
    z = correlate_slots(frame, signatures, config, reference_phase=channel_ref.phase,
                        start_sample=start)
    stop = None if n_symbols is None else skip_symbols + n_symbols
    z = z[skip_symbols:stop]
    if z.shape[0] == 0:
        raise ValueError("no symbol windows left after skipping")
    decisions = np.where(z.real >= 0.0, 1, -1).astype(np.int8)
    errors = None
    if reference is not None:
        reference = np.asarray(reference)
        if reference.shape != decisions.shape:
            raise ValueError(f"reference shape {reference.shape} != decisions shape {decisions.shape}")
        errors = int(np.count_nonzero(decisions != reference))
    return BitDecisions(user=user, decisions=decisions, bits=int(decisions.size), errors=errors)


def synthesize_source_frames(symbols_per_user: np.ndarray, walsh: WalshMatrix, pn_list,
                             config: LinkConfig, channel: ChannelRealization,
                             noise: NoiseSpec, eb: float, rng: np.random.Generator,
                             hpa_mode: str = "bypass") -> dict[str, BasebandFrame]:
    """Received-signal contributions, kept separate by origin relative to
    user 1's slot (substream 1, carrier 1).

    Only defined for the linear chain: a nonlinearity acts on the summed
    waveform and breaks the superposition this split relies on.  Delayed
    copies of user 1's other substreams and carriers are attributed to
    those classes, not to the multipath term; the multipath term is the
    wanted slot itself arriving on the non-reference paths.
    """
    if hpa_mode != "bypass":
        raise ValueError(
            f"source decomposition is only defined for the linear chain, not hpa_mode={hpa_mode!r}"
        )
    d = np.asarray(symbols_per_user)
    if d.ndim != 4 or d.shape[0] != config.users:
        raise ValueError(f"symbols must be (users, slots, substreams, carriers), got {d.shape}")
    spc = config.oversampling
    taps1 = channel.taps(0)
    max_delay = max(tap.delay_chips for user_taps in channel.per_user for tap in user_taps)
    out_len = d.shape[1] * config.samples_per_symbol + max_delay * spc

    table = modulation_table(walsh, config)
    d_wanted = np.zeros_like(d[0])
    d_wanted[:, 0, 0] = d[0, :, 0, 0]
    d_substreams = np.zeros_like(d[0])
    d_substreams[:, 1:, 0] = d[0, :, 1:, 0]
    d_carriers = np.zeros_like(d[0])
    d_carriers[:, :, 1:] = d[0, :, :, 1:]

    wanted_tx = modulate_user(d_wanted, walsh, pn_list[0], config, table=table)
    sources = {
        "desired": apply_multipath(wanted_tx, taps1[:1], spc, out_len),
        "multipath": apply_multipath(wanted_tx, taps1[1:], spc, out_len),
        "inter_substream": apply_multipath(
            modulate_user(d_substreams, walsh, pn_list[0], config, table=table),
            taps1, spc, out_len),
        "inter_carrier": apply_multipath(
            modulate_user(d_carriers, walsh, pn_list[0], config, table=table),
            taps1, spc, out_len),
    }

    other = np.zeros(out_len, dtype=np.complex128)
    for k in range(1, config.users):
        tx_k = modulate_user(d[k], walsh, pn_list[k], config, table=table)
        propagate_samples(tx_k.samples, channel.taps(k), spc, out=other)
    sources["multi_user"] = BasebandFrame(other, config.sample_rate)

    zero = BasebandFrame(np.zeros(out_len, dtype=np.complex128), config.sample_rate)
    sources["noise"] = add_awgn(zero, noise, eb, rng) if noise.enabled else zero
    return sources


def decompose_correlator_output(sources: dict[str, BasebandFrame], walsh: WalshMatrix, pn_user1,
                                config: LinkConfig, channel_ref: PathTap,
                                symbol: int | None = None):
    """Correlate each source frame separately at user 1's first slot.

    Returns a list of CorrelatorOutput (or a single one when `symbol` is
    given).  The per-symbol identity z_total = sum(components) is asserted
    here; it holds because the correlator is linear.
    """
    signatures = slot_signatures(walsh, pn_user1, config)
    start = channel_ref.delay_chips * config.oversampling
    per_source = {}
    total_samples = None
    for name in SOURCE_NAMES:
        frame = sources[name]
        per_source[name] = correlate_slots(frame, signatures, config,
                                           reference_phase=channel_ref.phase,
                                           start_sample=start)[:, 0, 0]
        total_samples = frame.samples if total_samples is None else total_samples + frame.samples
    z_total = correlate_slots(BasebandFrame(total_samples, config.sample_rate), signatures, config,
                              reference_phase=channel_ref.phase, start_sample=start)[:, 0, 0]

    outputs = []
    for n in range(z_total.size):
        components = {name: complex(per_source[name][n]) for name in SOURCE_NAMES}
        total = complex(z_total[n])
        residual = abs(total - sum(components.values()))
        if residual > 1e-8 * max(abs(total), 1e-30):
            raise AssertionError(
                f"correlator linearity violated at symbol {n}: residual {residual:.3e}"
            )
        outputs.append(CorrelatorOutput(user=1, substream=1, carrier=1, symbol=n,
                                        z_total=total, components=components))
    if symbol is not None:
        return outputs[symbol]
    return outputs


def estimate_interference_variances(config: LinkConfig, walsh: WalshMatrix, pn_list,
                                    channel: ChannelRealization, noise: NoiseSpec, eb: float,
                                    rng: np.random.Generator, n_symbols: int,
                                    chunk: int = 256) -> InterferenceVariances:
    """Sample variances of the decomposed correlator components over
    n_symbols random-data symbols on one fixed channel realization.

    When any path delay is nonzero, each chunk is preceded by one uncounted
    warmup symbol so edge transients do not bias the estimates.
    """
    if n_symbols < 2:
        raise ValueError(f"need at least 2 symbols for a sample variance, got {n_symbols}")
    max_delay = max(tap.delay_chips for user_taps in channel.per_user for tap in user_taps)
    warmup = 1 if max_delay > 0 else 0

    signatures = slot_signatures(walsh, pn_list[0], config)
    ref = channel.taps(0)[0]
    start = ref.delay_chips * config.oversampling
    collected = {name: [] for name in SOURCE_NAMES}
    remaining = n_symbols
    while remaining > 0:
        n_chunk = min(chunk, remaining)
        symbols = rng.integers(0, 2, size=(config.users, n_chunk + warmup,
                                           config.substreams, config.carriers))
        symbols = (2 * symbols - 1).astype(np.int8)
        sources = synthesize_source_frames(symbols, walsh, pn_list, config, channel, noise, eb, rng)
        for name in SOURCE_NAMES:
            z = correlate_slots(sources[name], signatures, config,
                                reference_phase=ref.phase, start_sample=start)[:, 0, 0]
            collected[name].append(z[warmup:])
        remaining -= n_chunk

    z_by_name = {name: np.concatenate(parts) for name, parts in collected.items()}
    desired_power = float(np.mean(np.abs(z_by_name["desired"]) ** 2))
    variances = {name: float(np.var(z_by_name[name], ddof=1)) for name in SOURCE_NAMES[1:]}
    return InterferenceVariances(desired_power=desired_power,
                                 multipath=variances["multipath"],
                                 inter_substream=variances["inter_substream"],
                                 inter_carrier=variances["inter_carrier"],
                                 multi_user=variances["multi_user"],
                                 noise=variances["noise"],
                                 n_symbols=n_symbols)

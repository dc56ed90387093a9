"""Transmitter chain: multicode spreading, PN spreading and subcarrier
modulation.

One data symbol occupies `symbol_duration` seconds and carries one full PN
period (pn_length chips, oversampling samples per chip) on every subcarrier.
The Walsh chips of the multicode layer are stretched across the same window
on a floor-indexed grid, so Walsh and PN chip clocks co-terminate at every
symbol boundary even when the Walsh order does not divide the sample count.
walsh_chip_bounds gives each chip's first sample on that grid.  All signals
are complex envelopes; the real passband waveform is never built.
Everything here takes and returns plain arrays: the Walsh matrix of
codes.generate_walsh, a user's +-1 PN chips, and modulate_user's complex
transmit samples.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np


def declared_type(f: dataclasses.Field) -> str:
    """A dataclass field's declared type by name ("int", "float", ...),
    whether or not its module postpones the evaluation of annotations."""
    return getattr(f.type, "__name__", f.type)


def check_field_types(instance) -> None:
    """Construction check shared by LinkConfig, Scenario and SalehParams:
    every int-typed field holds an integral value that is not a bool, and
    every float-typed field a finite one."""
    for f in dataclasses.fields(instance):
        value = getattr(instance, f.name)
        kind = declared_type(f)
        if kind == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if kind == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class LinkConfig:
    """System dimensions shared by the transmitter, channel and receiver.

    power is the per-branch signal power: each (substream, carrier) branch is
    sent with complex-envelope amplitude sqrt(2*power), so a full frame has
    average complex power 2*power*substreams*carriers.
    """

    users: int = 1
    substreams: int = 1
    carriers: int = 1
    walsh_order: int = 1
    pn_length: int = 7
    symbol_duration: float = 1.0
    oversampling: int = 4
    power: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        if self.users < 1:
            raise ValueError(f"users must be >= 1, got {self.users}")
        if self.substreams < 1:
            raise ValueError(f"substreams must be >= 1, got {self.substreams}")
        if self.carriers < 1:
            raise ValueError(f"carriers must be >= 1, got {self.carriers}")
        if self.walsh_order < 1 or (self.walsh_order & (self.walsh_order - 1)) != 0:
            raise ValueError(f"walsh_order must be a power of two, got {self.walsh_order}")
        if self.walsh_order < self.substreams:
            raise ValueError(
                f"walsh_order {self.walsh_order} cannot serve {self.substreams} substreams"
            )
        if self.pn_length < 1:
            raise ValueError(f"pn_length must be >= 1, got {self.pn_length}")
        if self.oversampling < 2:
            raise ValueError(f"oversampling must be >= 2, got {self.oversampling}")
        if self.symbol_duration <= 0:
            raise ValueError(f"symbol_duration must be positive, got {self.symbol_duration}")
        if self.power <= 0:
            raise ValueError(f"power must be positive, got {self.power}")
        if self.walsh_order > self.samples_per_symbol:
            raise ValueError(
                f"walsh_order {self.walsh_order} exceeds the {self.samples_per_symbol} "
                "samples available per symbol"
            )
        if self.carriers * self.walsh_order > self.samples_per_symbol:
            raise ValueError(
                f"{self.carriers} subcarriers at spacing walsh_order/T need "
                f"{self.carriers * self.walsh_order} distinct cycles per symbol, "
                f"but only {self.samples_per_symbol} samples are available"
            )

    @property
    def samples_per_symbol(self) -> int:
        return self.oversampling * self.pn_length

    @property
    def sample_rate(self) -> float:
        return self.samples_per_symbol / self.symbol_duration

    @property
    def bits_per_symbol(self) -> int:
        """Information bits per user per symbol window."""
        return self.substreams * self.carriers

    @property
    def shift_spacing(self) -> int:
        """Chips between the cyclic PN shifts of consecutive users."""
        return max(1, self.pn_length // self.users)

    @property
    def walsh_aligned(self) -> bool:
        """True when every Walsh chip covers the same whole number of samples."""
        return self.samples_per_symbol % self.walsh_order == 0


def walsh_chip_bounds(config: LinkConfig) -> np.ndarray:
    """The first sample position of each Walsh chip, then
    samples_per_symbol: ceil(c * samples_per_symbol / walsh_order) for
    c = 0 .. walsh_order, shape (walsh_order + 1,).  Floor grid: sample i
    belongs to chip (i * walsh_order) // samples_per_symbol, so chip c spans
    positions bounds[c] .. bounds[c + 1] - 1, never none.  The chips are
    equally long whenever walsh_order divides samples_per_symbol, and
    otherwise differ by at most one sample."""
    c = np.arange(config.walsh_order + 1, dtype=np.int64)
    return -(-c * config.samples_per_symbol // config.walsh_order)


def _pn_chips(pn, config: LinkConfig) -> np.ndarray:
    chips = np.asarray(pn)
    if chips.size != config.pn_length:
        raise ValueError(f"PN length {chips.size} does not match config pn_length {config.pn_length}")
    return chips


def substream_walsh_rows(walsh: np.ndarray, config: LinkConfig) -> np.ndarray:
    """The substreams' Walsh rows as float64, shape (substreams, walsh_order),
    from the Walsh matrix (codes.generate_walsh) or any array that starts
    with those rows.  One whose rows are not walsh_order chips long is
    rejected."""
    walsh = np.asarray(walsh)
    if (walsh.ndim != 2 or walsh.shape[1] != config.walsh_order
            or walsh.shape[0] < config.substreams):
        raise ValueError(f"Walsh rows of shape {walsh.shape} do not give {config.substreams} "
                         f"substreams of Walsh order {config.walsh_order}")
    return walsh[: config.substreams].astype(np.float64)


def modulation_table(walsh: np.ndarray, config: LinkConfig) -> np.ndarray:
    """PN-free slot signatures, shared by every user.

    Row r*carriers + m holds walsh_row_r (stretched) * subcarrier m+1
    exponential over one symbol, stored as a real array of shape
    (substreams*carriers, 2*samples_per_symbol) with real and imaginary
    parts interleaved, so that symbols @ table is one real GEMM whose result
    views as complex samples.  A user's slot signatures are these rows times
    its oversampled PN chips.
    """
    walsh_up = np.repeat(substream_walsh_rows(walsh, config), np.diff(walsh_chip_bounds(config)),
                         axis=1)
    carriers = subcarrier_exponentials(config)
    table = np.multiply(walsh_up[:, None, :], carriers[None, :, :], order="C")
    return table.reshape(config.substreams * config.carriers, -1).view(np.float64)


def subcarrier_exponentials(config: LinkConfig) -> np.ndarray:
    """Every subcarrier's complex exponential over one symbol, shape
    (carriers, samples_per_symbol): row m is e^{j 2 pi f_{m+1} t}."""
    n_samp = config.samples_per_symbol
    i = np.arange(n_samp)
    # Sampled e^{j 2 pi f_m t} with f_m = m*walsh_order/T and t = i T/n_samp;
    # periodic over the symbol, so tiling symbols keeps the carrier phase
    # continuous.  The spacing walsh_order/T makes every carrier difference
    # complete a whole number of cycles inside each orthogonal-code chip, not
    # just over the full symbol.  That stronger condition is what keeps
    # distinct (substream, carrier) slots exactly orthogonal: with plain 1/T
    # spacing a code-chip-rate sign pattern can alias onto a carrier
    # difference and two slots stop separating, however long the
    # correlation window is.
    return np.exp(
        2j * np.pi * config.walsh_order
        * np.arange(1, config.carriers + 1)[:, None] * i[None, :] / n_samp
    )


def slot_signatures(walsh: np.ndarray, pn, config: LinkConfig) -> np.ndarray:
    """Unit-modulus signature waveform of every (substream, carrier) slot.

    Returns shape (substreams, carriers, samples_per_symbol); entry (r, m)
    is walsh_row_r (stretched) * pn chips (oversampled) * subcarrier m+1
    exponential; pn is the user's +-1 chip array (e.g. a cyclically
    shifted m-sequence).  The transmitter scales these by
    sqrt(2*power) and the receiver correlates against their conjugates.
    """
    pn_up = np.repeat(_pn_chips(pn, config), config.oversampling).astype(np.float64)
    table = modulation_table(walsh, config).view(np.complex128)
    return (table * pn_up).reshape(config.substreams, config.carriers, config.samples_per_symbol)


def modulate_user(symbols, walsh: np.ndarray, pn, config: LinkConfig) -> np.ndarray:
    """Complex-envelope transmit samples of one user, as one array.

    symbols has shape (slots, substreams, carriers) with +-1 entries; pn is
    the user's +-1 chip array.  Each slot becomes samples_per_symbol
    samples equal to sqrt(2*power) * sum over slots of symbol * signature.
    """
    d = np.asarray(symbols, dtype=np.float64)
    if d.ndim != 3 or d.shape[1] != config.substreams or d.shape[2] != config.carriers:
        raise ValueError(
            f"symbols must be (slots, {config.substreams}, {config.carriers}), got {d.shape}"
        )
    scale = np.repeat(np.sqrt(2.0 * config.power) * _pn_chips(pn, config), config.oversampling)
    samples = (d.reshape(d.shape[0], -1) @ modulation_table(walsh, config)).view(np.complex128)
    samples *= scale
    return samples.reshape(-1)

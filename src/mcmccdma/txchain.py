"""Transmitter chain: multicode spreading, PN spreading and subcarrier
modulation.

Time is counted in symbol periods: one data symbol lasts T = 1 and carries
one full PN period (pn_length chips, oversampling samples per chip) on
every subcarrier, so the sample rate is samples_per_symbol and subcarrier m
sits at m * walsh_order.  No output depends on T in any other unit.
The Walsh chips of the multicode layer are stretched across the same window
on a floor-indexed grid, so Walsh and PN chip clocks co-terminate at every
symbol boundary even when the Walsh order does not divide the sample count.
walsh_chip_bounds gives each chip's first sample on that grid.  All signals
are complex envelopes; the real passband waveform is never built, and
neither is a user's sampled transmit waveform: spread_symbols puts a
block's symbols on the Walsh chips, and the receiver and the amplifiers go
on from there.
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


def _is_number(value, kind=numbers.Real) -> bool:
    """Whether value is a number of the given kind; a bool is none."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_field_types(instance) -> None:
    """Construction check shared by LinkConfig, Scenario and SalehParams,
    by each field's declared type: an int field holds an integral value, a
    float field a finite real one, a tuple field (the Eb/N0 grid) a nonempty
    tuple of finite real ones, a bool field a bool and a str field a str.  A
    bool is no number here, and no number a bool."""
    for f in dataclasses.fields(instance):
        value = getattr(instance, f.name)
        kind = declared_type(f)
        if kind == "int" and not _is_number(value, numbers.Integral):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if kind == "float" and not _is_number(value):
            raise ValueError(f"{f.name} must be a number, got {value!r}")
        if kind == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
        if kind == "tuple" and not (isinstance(value, tuple) and value):
            raise ValueError(f"{f.name} must be a nonempty tuple, got {value!r}")
        if kind == "tuple" and not all(_is_number(x) and math.isfinite(x) for x in value):
            raise ValueError(f"{f.name} entries must be finite numbers, got {value!r}")
        if kind == "bool" and not isinstance(value, bool):
            raise ValueError(f"{f.name} must be true or false, got {value!r}")
        if kind == "str" and not isinstance(value, str):
            raise ValueError(f"{f.name} must be a string, got {value!r}")


@dataclass(frozen=True)
class LinkConfig:
    """System dimensions shared by the transmitter, channel and receiver.

    Every (substream, carrier) branch is sent at unit power: complex-envelope
    amplitude sqrt(2), complex power 2, so a full frame has average complex
    power 2*substreams*carriers.  Eb/N0 and the back-offs are ratios, so the
    unit cancels from every error rate.
    """

    users: int = 1
    substreams: int = 1
    carriers: int = 1
    walsh_order: int = 1
    pn_length: int = 7
    oversampling: int = 4

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
        if self.walsh_order > self.samples_per_symbol:
            raise ValueError(
                f"walsh_order {self.walsh_order} exceeds the {self.samples_per_symbol} "
                "samples available per symbol"
            )
        if self.carriers * self.walsh_order > self.samples_per_symbol:
            raise ValueError(
                f"{self.carriers} subcarriers {self.walsh_order} cycles per symbol apart need "
                f"{self.carriers * self.walsh_order} distinct cycles per symbol, "
                f"but only {self.samples_per_symbol} samples are available"
            )

    @property
    def samples_per_symbol(self) -> int:
        return self.oversampling * self.pn_length

    @property
    def bits_per_symbol(self) -> int:
        """Information bits per user per symbol window."""
        return self.substreams * self.carriers

    @property
    def shift_spacing(self) -> int:
        """Chips between the cyclic PN shifts of consecutive users."""
        return max(1, self.pn_length // self.users)


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


def subcarrier_exponentials(config: LinkConfig) -> np.ndarray:
    """Every subcarrier's complex exponential over one symbol, shape
    (carriers, samples_per_symbol): row m is e^{j 2 pi f_{m+1} t}."""
    n_samp = config.samples_per_symbol
    i = np.arange(n_samp)
    # Sampled e^{j 2 pi f_m t} with f_m = m*walsh_order cycles per symbol and
    # t = i/n_samp symbol periods; periodic over the symbol, so tiling symbols
    # keeps the carrier phase continuous.  The spacing of walsh_order cycles
    # per symbol makes every carrier difference complete a whole number of
    # cycles inside each orthogonal-code chip, not just over the full symbol.
    # That stronger condition is what keeps distinct (substream, carrier)
    # slots exactly orthogonal: with a spacing of one cycle per symbol a
    # code-chip-rate sign pattern can alias onto a carrier difference and two
    # slots stop separating, however long the correlation window is.
    return np.exp(
        2j * np.pi * config.walsh_order
        * np.arange(1, config.carriers + 1)[:, None] * i[None, :] / n_samp
    )


def spread_symbols(walsh_rows: np.ndarray, symbols: np.ndarray, work: dict) -> np.ndarray:
    """Every user's symbols on its Walsh chip stream, the one place the
    multicode layer spreads them:

        chips[..., a, n, k, m] = sum_r w_r(a) d_k[n, r, m],

    with walsh_rows the substreams' +-1 rows w_r (substream_walsh_rows) and
    symbols d, shape (..., users, n, substreams, carriers), any leading axes
    (a batch's blocks) kept in front.  During Walsh chip a of window n, user
    k's PN-free waveform is sqrt(2) sum_m chips[a, n, k, m] E_m, E_m the
    subcarrier exponentials.  One real GEMM per leading index; the sums are
    of +-1 terms, so they are exact.  Shape (..., walsh_order, n, users,
    carriers), in work's arrays "symbols" and "chips" (_work_array).
    """
    n_sub, order = walsh_rows.shape
    *lead, users, n_total, _, n_car = symbols.shape
    d = _work_array(work, "symbols", (*lead, n_sub, n_total, users, n_car))
    np.copyto(d, symbols.swapaxes(-4, -2))
    chips = np.matmul(walsh_rows.T, d.reshape(*lead, n_sub, -1),
                      out=_work_array(work, "chips", (*lead, order, n_total * users * n_car)))
    return chips.reshape(*lead, order, n_total, users, n_car)


def _work_array(work: dict, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialized array of the shape: a view of the first values of
    the flat buffer work holds under the name, made anew only when there is
    none, or it is too small or of another dtype.  A block's steps pass one
    dict to each of their calls, so that their working arrays are made once
    and reused: allocated afresh, they can grow and trim the heap on every
    call, which then faults its pages in again.  A smaller shape, a batch's
    short last one or the rows a search keeps, reuses the larger buffer.  An
    empty dict gives fresh arrays."""
    size = math.prod(shape)
    buffer = work.get(name)
    if buffer is None or buffer.size < size or buffer.dtype != dtype:
        buffer = work[name] = np.empty(size, dtype)
    return buffer[:size].reshape(shape)

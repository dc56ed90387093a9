"""Spreading-code generation: Walsh-Hadamard sets and maximal-length PN sequences.

Walsh rows separate the parallel substreams of one user; a cyclically
shifted PN sequence (np.roll) separates users.  Both are plain int8 +-1
arrays: generate_walsh returns the (order, order) matrix whose rows are
the codes, generate_msequence one period of chips.  All correlation
arithmetic here is exact integer math.
"""

from __future__ import annotations

import numpy as np

# Feedback exponents of a primitive polynomial over GF(2), one built-in
# default per register length.  Entry d -> (d, t1, ...) encodes
# x^d + x^t1 + ... + 1.
PRIMITIVE_TAPS = {
    2: (2, 1),
    3: (3, 1),
    4: (4, 1),
    5: (5, 2),
    6: (6, 1),
    7: (7, 3),
    8: (8, 4, 3, 2),
    9: (9, 4),
    10: (10, 3),
    11: (11, 2),
    12: (12, 6, 4, 1),
}


def generate_walsh(order: int) -> np.ndarray:
    """The order x order Walsh-Hadamard matrix by Sylvester doubling, int8
    +-1; its rows are the orthogonal codes.

    order must be a power of two.  Row 0 is all +1; distinct rows have zero
    dot product; every self dot product equals order.
    """
    if order < 1 or (order & (order - 1)) != 0:
        raise ValueError(f"Walsh order must be a positive power of two, got {order}")
    rows = np.array([[1]], dtype=np.int8)
    while rows.shape[0] < order:
        rows = np.block([[rows, rows], [rows, -rows]]).astype(np.int8)
    return rows


def generate_msequence(degree: int, taps: tuple[int, ...] | None = None, seed: int = 1) -> np.ndarray:
    """One full period of a maximal-length sequence from a Fibonacci LFSR,
    as int8 +-1 chips (bit 0 -> +1, bit 1 -> -1).

    `taps` lists the exponents of the feedback polynomial's nonzero terms,
    constant term implied, e.g. (3, 1) for x^3 + x + 1; it must include
    `degree` itself.  Defaults come from PRIMITIVE_TAPS.  Maximality is
    verified during generation: a register state that recurs before
    2**degree - 1 steps means the polynomial is not primitive and is
    rejected rather than silently producing a short period.
    """
    if degree < 2:
        raise ValueError(f"register length must be at least 2, got {degree}")
    if taps is None:
        if degree not in PRIMITIVE_TAPS:
            raise ValueError(
                f"no built-in feedback taps for register length {degree}; supply taps explicitly"
            )
        taps = PRIMITIVE_TAPS[degree]
    taps = tuple(sorted({int(t) for t in taps}, reverse=True))
    if not taps:
        raise ValueError("feedback tap set must not be empty")
    if max(taps) != degree or min(taps) < 1:
        raise ValueError(f"taps must lie in 1..{degree} and include {degree} itself, got {taps}")

    period = (1 << degree) - 1
    mask = period
    seed = int(seed)
    if not 0 < seed <= mask:
        raise ValueError(f"seed must be a nonzero {degree}-bit register state, got {seed}")

    tapmask = 0
    for t in taps:
        tapmask |= 1 << (t - 1)

    # Stage j of the register is bit j-1 of the integer state; the output is
    # taken from the last stage and feedback is the parity of the tapped stages.
    out_shift = degree - 1
    bits = np.empty(period, dtype=np.int8)
    state = seed
    for i in range(period):
        bits[i] = (state >> out_shift) & 1
        feedback = (state & tapmask).bit_count() & 1
        state = ((state << 1) & mask) | feedback
        if state == seed and i != period - 1:
            raise ValueError(
                f"taps {taps} are not primitive: register state repeats after "
                f"{i + 1} steps, expected period {period}"
            )
    if state != seed:
        raise ValueError(f"taps {taps} are not primitive: no return to the seed state")

    return np.where(bits == 0, 1, -1).astype(np.int8)


def periodic_correlation(a, b, shift: int = 0) -> int:
    """Full-period correlation sum_i a[i]*b[(i+shift) mod L], exact integer."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError(f"sequences must be 1-D and equally long, got {a.shape} and {b.shape}")
    product = a.astype(np.int64) * np.roll(b, -int(shift)).astype(np.int64)
    return int(product.sum())

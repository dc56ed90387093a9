"""Spreading-code generation: Walsh-Hadamard sets and maximal-length PN sequences.

Walsh rows separate the parallel substreams of one user; a cyclically
shifted PN sequence (np.roll) separates users.  Both are plain int8 +-1
arrays: generate_walsh returns the (order, order) matrix whose rows are
the codes, generate_msequence(degree) one period of chips from the
register length's entry in PRIMITIVE_TAPS, the only tap table.
"""

from __future__ import annotations

import numpy as np

# Feedback exponents of a primitive polynomial over GF(2), the one tap set
# per register length that generate_msequence uses.  Entry d -> (d, t1, ...)
# encodes x^d + x^t1 + ... + 1.
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


def generate_msequence(degree: int) -> np.ndarray:
    """One full period of the maximal-length sequence of register length
    degree, as int8 +-1 chips (bit 0 -> +1, bit 1 -> -1): a Fibonacci LFSR
    with the feedback taps PRIMITIVE_TAPS[degree], started from state 1.

    Maximality is verified during generation: a register state that recurs
    before 2**degree - 1 steps, or none that returns to the start, means the
    table's polynomial is not primitive, which raises rather than silently
    producing a short period.
    """
    if degree not in PRIMITIVE_TAPS:
        raise ValueError(f"no feedback taps for register length {degree}; "
                         f"PRIMITIVE_TAPS has {min(PRIMITIVE_TAPS)}..{max(PRIMITIVE_TAPS)}")
    taps = PRIMITIVE_TAPS[degree]
    period = (1 << degree) - 1
    tapmask = 0
    for t in taps:
        tapmask |= 1 << (t - 1)

    # Stage j of the register is bit j-1 of the integer state; the output is
    # taken from the last stage and feedback is the parity of the tapped stages.
    out_shift = degree - 1
    bits = bytearray(period)
    state = 1
    for i in range(period):
        bits[i] = (state >> out_shift) & 1
        feedback = (state & tapmask).bit_count() & 1
        state = ((state << 1) & period) | feedback
        if state == 1 and i != period - 1:
            raise ValueError(
                f"taps {taps} are not primitive: register state repeats after "
                f"{i + 1} steps, expected period {period}"
            )
    if state != 1:
        raise ValueError(f"taps {taps} are not primitive: no return to the start state")

    return 1 - 2 * np.frombuffer(bits, dtype=np.int8)

"""Reference computations that more than one test module checks against."""

import math

import numpy as np


def erfc_oracle(x: float) -> float:
    """Independent complementary error function.

    Maclaurin series of erf for x < 3; Laplace continued fraction
    erfc(x) = exp(-x^2)/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    beyond.  Both converge well below 1e-12 in their regions.
    """
    if x < 0:
        return 2.0 - erfc_oracle(-x)
    if x < 3.0:
        # erf(x) = (2/sqrt(pi)) sum (-1)^n x^(2n+1) / (n! (2n+1))
        total = 0.0
        term = x
        n = 0
        while abs(term) > 1e-18 * max(abs(total), 1.0) and n <= 200:
            total += term / (2 * n + 1)
            n += 1
            term *= -x * x / n
        return 1.0 - 2.0 / math.sqrt(math.pi) * total
    f = 0.0
    for k in range(120, 0, -1):
        f = (k / 2.0) / (x + f)
    return math.exp(-x * x) / math.sqrt(math.pi) / (x + f)


def floor_chips(cfg):
    """Each sample's Walsh chip on the floor grid, computed per sample."""
    return (np.arange(cfg.samples_per_symbol) * cfg.walsh_order) // cfg.samples_per_symbol


def lfsr_chips(degree: int, taps: tuple, seed: int) -> np.ndarray:
    """One period of the Fibonacci LFSR that codes.generate_msequence
    describes, stepped as a list of stages: stage j holds bit j of the seed,
    each step outputs the last stage (0 -> +1, 1 -> -1), shifts every stage
    up by one and feeds the parity of the tapped stages into the first."""
    stages = [(seed >> j) & 1 for j in range(degree)]
    chips = []
    for _ in range(2 ** degree - 1):
        chips.append(1 - 2 * stages[-1])
        feedback = sum(stages[t - 1] for t in taps) % 2
        stages = [feedback] + stages[:-1]
    return np.array(chips, dtype=np.int8)

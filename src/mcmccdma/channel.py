"""Multipath propagation and additive white Gaussian noise.

Each user sees a small number of discrete paths with chip-quantized delays,
Rayleigh (or fixed, when fading is disabled) gains on an exponential
power-delay profile normalized to unit total mean-square gain, and uniform
phases.  Noise is calibrated against the measured transmitted energy per
information bit, so back-off comparisons are not conflated with SNR loss;
time, and so that energy, is counted in symbol periods.

Everything here works on plain arrays and takes no generator: draw_channel
and correlator_noise form the channel and the noise from the variates a
generator drew (harness._batch_draws), and noise_scale turns the Eb/N0 in
dB and the energy per bit into the scale that correlator_noise applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelRealization:
    """Fading realizations: gains and phases of every user's paths, both
    shape (..., users, paths), one realization per index of the leading
    axes (a batch's blocks).  Path l of every user has a delay of l chips."""

    gains: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        if np.ndim(self.gains) < 2 or np.shape(self.gains) != np.shape(self.phases):
            raise ValueError(f"gains and phases must share one (..., users, paths) shape, got "
                             f"{np.shape(self.gains)} and {np.shape(self.phases)}")
        if not np.all(np.isfinite(self.gains)) or np.any(self.gains < 0):
            raise ValueError(f"gains must be finite and nonnegative, got {self.gains}")


def path_power_profile(n_paths: int, decay_db: float) -> np.ndarray:
    """Mean-square gain targets: exponential decay of decay_db per path,
    normalized to unit sum."""
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    if decay_db < 0:
        raise ValueError(f"decay_db must be nonnegative, got {decay_db}")
    profile = 10.0 ** (-decay_db * np.arange(n_paths) / 10.0)
    return profile / profile.sum()


def draw_channel(exponentials: np.ndarray | None, uniforms: np.ndarray,
                 decay_db: float = 0.0) -> ChannelRealization:
    """The channel of a generator's variates, both shape (..., users,
    paths): delays are 0..paths-1 chips for every user, phases 2 pi times
    the uniforms, gains Rayleigh with the profile mean squares, formed from
    the standard exponentials, or exactly the profile square roots when
    there are none (fading off).

    Generator.rayleigh(scale=s) is s sqrt(2 E) and uniform(0, 2 pi) is
    2 pi U, bit for bit, so a generator that draws the exponentials, then
    the uniforms, gives what rayleigh, then uniform, would draw."""
    profile = path_power_profile(uniforms.shape[-1], decay_db)
    if exponentials is None:
        gains = np.broadcast_to(np.sqrt(profile), uniforms.shape).copy()
    else:
        # Rayleigh with scale s has mean square 2 s^2.
        gains = np.sqrt(2.0 * exponentials) * np.sqrt(profile / 2.0)
    return ChannelRealization(gains=gains, phases=2.0 * np.pi * uniforms)


def correlator_noise(scale: float, factor: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """What complex white Gaussian sample noise leaves in a bank of
    correlators, from standard normals.

    scale is the noise's per-rail standard deviation sqrt(n0/2)
    (noise_scale): at N samples per symbol each real component of a sample
    has variance (n0/2) * N.  The correlators average one symbol's N samples
    each against unit-modulus signatures sig_t, so their outputs in one
    window are complex Gaussian with covariance n0 * G, where G[t, u] =
    (1/N) sum_i conj(sig_t[i]) sig_u[i] is the signatures' Gram matrix and
    factor @ factor^H = G.  normals has shape (..., windows, len(factor),
    2), its last axis read as the real and imaginary parts of one complex
    normal; returns (..., windows, len(factor)), independent between
    windows, with one product applying the factor."""
    return scale * (normals.view(np.complex128)[..., 0] @ factor.T)


def noise_scale(ebn0_db: float, eb: float) -> float:
    """sqrt(n0/2), the noise's per-rail standard deviation, for the one-sided
    density n0 = eb / 10^(ebn0_db/10).  ValueError unless n0 is finite and
    positive, which rules out a NaN or infinite ebn0_db, an energy per bit
    that is not positive, and an Eb/N0 or Eb so far out that n0 overflows or
    underflows to zero."""
    # numpy's power returns inf or 0 where Python's raises, and rounds the
    # same (both call the C library's pow)
    with np.errstate(all="ignore"):
        n0 = eb / np.float64(10.0) ** (ebn0_db / 10.0)
    if not 0.0 < n0 < np.inf:
        raise ValueError(f"ebn0_db must be finite and give a positive noise density, got "
                         f"{ebn0_db} at energy per bit {eb}")
    return np.sqrt(0.5 * n0)

"""Multipath propagation and additive white Gaussian noise.

Each user sees a small number of discrete paths with chip-quantized delays,
Rayleigh (or fixed, when fading is disabled) gains on an exponential
power-delay profile normalized to unit total mean-square gain, and uniform
phases.  Noise is calibrated against the measured transmitted energy per
information bit, so back-off comparisons are not conflated with SNR loss;
time, and so that energy, is counted in symbol periods.

Everything here works on plain arrays: noise_scale turns the Eb/N0 in dB and
the energy per bit into the scale that correlator_noise draws with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelRealization:
    """One fading realization: gains and phases of every user's paths, both
    shape (users, paths), or a batch's, one realization per block, both
    (blocks, users, paths).  Path l of every user has a delay of l chips."""

    gains: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        if np.ndim(self.gains) not in (2, 3) or np.shape(self.gains) != np.shape(self.phases):
            raise ValueError(f"gains and phases must be one (users, paths) or (blocks, users, "
                             f"paths) shape, got "
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


def draw_channel(rngs, users: int, n_paths: int, decay_db: float = 0.0,
                 fading: bool = True) -> ChannelRealization:
    """Draw one block's channel from its generator, or a batch's from a
    sequence of generators, one per block, each block's realization from
    its own generator as if drawn alone: delays are 0..n_paths-1 chips for
    every user, phases uniform, gains Rayleigh with the profile mean squares
    (or exactly the profile square roots when fading is off).

    Each generator draws the standard exponentials of its gains, then the
    uniform variates of its phases, into the batch's arrays, and the
    Rayleigh magnitudes and the phases are formed once for the batch:
    Generator.rayleigh(scale=s) is s sqrt(2 E) and uniform(0, 2 pi) is 2 pi
    U, bit for bit."""
    if users < 1:
        raise ValueError(f"need at least one user, got {users}")
    profile = path_power_profile(n_paths, decay_db)
    single = isinstance(rngs, np.random.Generator)
    batch = [rngs] if single else rngs
    gains = np.empty((len(batch), users, n_paths))
    phases = np.empty_like(gains)
    for rng, block_gains, block_phases in zip(batch, gains, phases):
        if fading:
            rng.standard_exponential(out=block_gains)
        rng.random(out=block_phases)
    if fading:
        # Rayleigh with scale s has mean square 2 s^2.
        gains *= 2.0
        np.sqrt(gains, out=gains)
        gains *= np.sqrt(profile / 2.0)
    else:
        gains[...] = np.sqrt(profile)
    phases *= 2.0 * np.pi
    if single:
        gains, phases = gains[0], phases[0]
    return ChannelRealization(gains=gains, phases=phases)


def correlator_noise(scale: float, factor: np.ndarray, n_windows: int, rngs) -> np.ndarray:
    """What complex white Gaussian sample noise leaves in a bank of
    correlators, drawn directly.

    scale is the noise's per-rail standard deviation sqrt(n0/2)
    (noise_scale): at N samples per symbol each real component of a sample
    has variance (n0/2) * N.  The correlators average one symbol's N samples
    each against unit-modulus signatures sig_t, so their outputs in one
    window are complex Gaussian with covariance n0 * G, where G[t, u] =
    (1/N) sum_i conj(sig_t[i]) sig_u[i] is the signatures' Gram matrix and
    factor @ factor^H = G.  Returns (n_windows, len(factor)) draws,
    independent between windows, from one block's generator, or (blocks,
    n_windows, len(factor)) from a sequence of generators, one per block:
    each draws its block's interleaved normals into the batch's array, read
    as complex, and one product per block applies the factor.
    """
    single = isinstance(rngs, np.random.Generator)
    batch = [rngs] if single else rngs
    w = np.empty((len(batch), n_windows, factor.shape[0], 2))
    for rng, normals in zip(batch, w):
        rng.standard_normal(out=normals)
    z = scale * (w.view(np.complex128)[..., 0] @ factor.T)
    return z[0] if single else z


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

"""Multipath propagation and additive white Gaussian noise.

Each user sees a small number of discrete paths with chip-quantized delays,
Rayleigh (or fixed, when fading is disabled) gains on an exponential
power-delay profile normalized to unit total mean-square gain, and uniform
phases.  Noise is calibrated against the measured transmitted energy per
information bit, so back-off comparisons are not conflated with SNR loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .txchain import BasebandFrame


@dataclass(frozen=True)
class PathTap:
    """One propagation path: linear gain, delay in PN chips, phase in radians."""

    gain: float
    delay_chips: int
    phase: float

    def __post_init__(self):
        if not np.isfinite(self.gain) or self.gain < 0:
            raise ValueError(f"gain must be finite and nonnegative, got {self.gain}")
        if self.delay_chips < 0:
            raise ValueError(f"delay must be nonnegative, got {self.delay_chips}")


@dataclass(frozen=True)
class ChannelRealization:
    """Per-user tap lists drawn from one fading realization."""

    per_user: tuple[tuple[PathTap, ...], ...]
    n_paths: int

    def taps(self, user_index: int) -> tuple[PathTap, ...]:
        return self.per_user[user_index]


@dataclass(frozen=True)
class NoiseSpec:
    """Energy-per-bit over noise-density target; disabled means no noise at all."""

    ebn0_db: float = 0.0
    enabled: bool = True

    def __post_init__(self):
        if self.enabled and not np.isfinite(self.ebn0_db):
            raise ValueError("ebn0_db must be finite when noise is enabled")


def path_power_profile(n_paths: int, decay_db: float) -> np.ndarray:
    """Mean-square gain targets: exponential decay of decay_db per path,
    normalized to unit sum."""
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    if decay_db < 0:
        raise ValueError(f"decay_db must be nonnegative, got {decay_db}")
    profile = 10.0 ** (-decay_db * np.arange(n_paths) / 10.0)
    return profile / profile.sum()


def draw_channel(rng: np.random.Generator, users: int, n_paths: int,
                 decay_db: float = 0.0, fading: bool = True) -> ChannelRealization:
    """Draw one block's channel: delays are 0..n_paths-1 chips for every user,
    phases uniform, gains Rayleigh with the profile mean squares (or exactly
    the profile square roots when fading is off)."""
    if users < 1:
        raise ValueError(f"need at least one user, got {users}")
    profile = path_power_profile(n_paths, decay_db)
    if fading:
        # Rayleigh with scale s has mean square 2 s^2.
        gains = rng.rayleigh(scale=np.sqrt(profile / 2.0), size=(users, n_paths))
    else:
        gains = np.broadcast_to(np.sqrt(profile), (users, n_paths)).copy()
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(users, n_paths))
    per_user = tuple(
        tuple(
            PathTap(gain=float(gains[k, l]), delay_chips=l, phase=float(phases[k, l]))
            for l in range(n_paths)
        )
        for k in range(users)
    )
    return ChannelRealization(per_user=per_user, n_paths=n_paths)


def propagate_samples(samples: np.ndarray, taps, samples_per_chip: int,
                      out_len: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of gain- and phase-weighted delayed copies of a sample array,
    zero outside the input's support.  out_len defaults to the full support
    (input length plus the largest delay); a larger out_len zero-pads.

    With out given, the copies are added into it in place (out_len is then
    its length) and out is returned, so a caller can sum many users' signals
    into one buffer without a temporary per user.
    """
    if samples_per_chip < 1:
        raise ValueError(f"samples_per_chip must be >= 1, got {samples_per_chip}")
    taps = list(taps)
    max_shift = max((tap.delay_chips for tap in taps), default=0) * samples_per_chip
    if out is not None:
        out_len = out.size
    if out_len is None:
        out_len = samples.size + max_shift
    elif out_len < samples.size + max_shift:
        raise ValueError(f"out_len {out_len} cannot hold the {max_shift}-sample delayed copies")
    if out is None:
        out = np.zeros(out_len, dtype=np.complex128)
    scratch = np.empty(samples.size, dtype=np.complex128)
    for tap in taps:
        shift = tap.delay_chips * samples_per_chip
        np.multiply(samples, tap.gain * np.exp(1j * tap.phase), out=scratch)
        out[shift:shift + samples.size] += scratch
    return out


def apply_multipath(frame: BasebandFrame, taps, samples_per_chip: int,
                    out_len: int | None = None) -> BasebandFrame:
    """Frame-level propagate_samples: linear in the input, output long enough
    to hold every delayed copy."""
    out = propagate_samples(frame.samples, taps, samples_per_chip, out_len)
    return BasebandFrame(out, frame.sample_rate, frame.t0)


def add_awgn(frame: BasebandFrame, noise: NoiseSpec, eb_measured: float,
             rng: np.random.Generator) -> BasebandFrame:
    """Add complex white Gaussian noise sized for the requested Eb/N0.

    eb_measured is the transmitted energy per information bit; the noise
    density follows as n0 = eb / 10^(ebn0_db/10) and each real component
    gets variance (n0/2) * sample_rate.
    """
    if not noise.enabled:
        return frame
    if eb_measured <= 0:
        raise ValueError(f"energy per bit must be positive, got {eb_measured}")
    n0 = eb_measured / 10.0 ** (noise.ebn0_db / 10.0)
    sigma = np.sqrt(0.5 * n0 * frame.sample_rate)
    w = rng.standard_normal((frame.samples.size, 2))
    return BasebandFrame(frame.samples + sigma * (w[:, 0] + 1j * w[:, 1]),
                         frame.sample_rate, frame.t0)

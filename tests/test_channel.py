"""Multipath channel draw, propagation, and noise calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmccdma.channel import (
    ChannelRealization,
    NoiseSpec,
    PathTap,
    add_awgn,
    apply_multipath,
    draw_channel,
    path_power_profile,
    propagate_samples,
)
from mcmccdma.txchain import BasebandFrame


class TestProfile:
    def test_flat_profile(self):
        p = path_power_profile(4, 0.0)
        assert np.allclose(p, 0.25)

    def test_exponential_decay_normalized(self):
        p = path_power_profile(3, 3.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(p[:-1] / p[1:], 10 ** 0.3)

    def test_single_path(self):
        assert path_power_profile(1, 5.0) == pytest.approx(1.0)


class TestDrawChannel:
    def test_shape_and_delays(self):
        rng = np.random.default_rng(0)
        ch = draw_channel(rng, users=3, n_paths=4, decay_db=1.0, fading=True)
        assert ch.n_paths == 4
        for k in range(3):
            taps = ch.taps(k)
            assert [t.delay_chips for t in taps] == [0, 1, 2, 3]
            assert all(0.0 <= t.phase < 2 * np.pi for t in taps)

    def test_deterministic_given_seed(self):
        a = draw_channel(np.random.default_rng(42), 2, 3, 1.0, True)
        b = draw_channel(np.random.default_rng(42), 2, 3, 1.0, True)
        for k in range(2):
            for ta, tb in zip(a.taps(k), b.taps(k)):
                assert ta == tb

    def test_fading_off_gains_are_profile(self):
        rng = np.random.default_rng(1)
        ch = draw_channel(rng, 1, 3, 2.0, fading=False)
        profile = path_power_profile(3, 2.0)
        gains = np.array([t.gain for t in ch.taps(0)])
        assert np.allclose(gains, np.sqrt(profile), atol=1e-12)

    def test_rayleigh_moments(self):
        # users axis doubles as the sample axis for the moment check
        rng = np.random.default_rng(7)
        n = 100_000
        ch = draw_channel(rng, n, 2, 3.0, fading=True)
        profile = path_power_profile(2, 3.0)
        for path in range(2):
            g2 = np.fromiter(
                (ch.taps(k)[path].gain ** 2 for k in range(n)), float, count=n)
            assert g2.mean() == pytest.approx(profile[path], rel=0.02)
            # Rayleigh: E[g] = sqrt(pi/4 * E[g^2])
            assert np.sqrt(g2).mean() == pytest.approx(
                np.sqrt(np.pi / 4 * profile[path]), rel=0.02)

    def test_phases_cover_circle(self):
        rng = np.random.default_rng(3)
        ch = draw_channel(rng, 20_000, 1, 0.0, True)
        phases = np.fromiter((ch.taps(k)[0].phase for k in range(20_000)),
                             float, count=20_000)
        assert abs(np.exp(1j * phases).mean()) < 0.02

    def test_tap_validation(self):
        with pytest.raises(ValueError):
            PathTap(gain=-1.0, delay_chips=0, phase=0.0)
        with pytest.raises(ValueError):
            PathTap(gain=1.0, delay_chips=-1, phase=0.0)


class TestPropagation:
    def test_identity_tap(self):
        x = np.arange(8, dtype=np.complex128)
        taps = (PathTap(1.0, 0, 0.0),)
        y = propagate_samples(x, taps, samples_per_chip=4)
        assert np.array_equal(y, x)

    def test_delay_and_phase(self):
        x = np.array([1.0 + 0j, 2.0, 3.0])
        taps = (PathTap(0.5, 1, np.pi / 2), )
        y = propagate_samples(x, taps, samples_per_chip=2)
        assert y.size == 3 + 2
        assert np.allclose(y[:2], 0.0)
        assert np.allclose(y[2:], 0.5j * x)

    def test_two_ray_antiphase_cancellation(self):
        x = np.ones(16, dtype=np.complex128)
        taps = (PathTap(1.0, 0, 0.0), PathTap(1.0, 0, np.pi))
        y = propagate_samples(x, taps, samples_per_chip=4)
        assert np.abs(y).max() < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x1 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        x2 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        taps = (PathTap(0.9, 0, 0.3), PathTap(0.4, 2, 1.1), PathTap(0.2, 3, 4.0))
        ya = propagate_samples(x1 + x2, taps, 4)
        yb = propagate_samples(x1, taps, 4) + propagate_samples(x2, taps, 4)
        assert np.abs(ya - yb).max() < 1e-12

    def test_out_len_too_small_rejected(self):
        x = np.ones(8, dtype=np.complex128)
        taps = (PathTap(1.0, 1, 0.0),)
        with pytest.raises(ValueError):
            propagate_samples(x, taps, 4, out_len=8)

    def test_out_accumulates_like_allocating_form(self):
        rng = np.random.default_rng(6)
        x1 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        x2 = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        taps1 = (PathTap(0.9, 0, 0.3), PathTap(0.4, 2, 1.1), PathTap(0.2, 3, 4.0))
        taps2 = (PathTap(0.7, 1, 2.0), PathTap(0.5, 5, 0.6))
        expected = (propagate_samples(x1, taps1, 4, out_len=80)
                    + propagate_samples(x2, taps2, 4, out_len=80))
        out = np.zeros(80, dtype=np.complex128)
        assert propagate_samples(x1, taps1, 4, out=out) is out
        propagate_samples(x2, taps2, 4, out=out)
        assert np.abs(out - expected).max() < 1e-12

    def test_out_too_short_rejected(self):
        x = np.ones(8, dtype=np.complex128)
        out = np.zeros(11, dtype=np.complex128)
        with pytest.raises(ValueError, match="out_len 11"):
            propagate_samples(x, (PathTap(1.0, 1, 0.0),), 4, out=out)

    def test_frame_wrapper(self):
        x = np.ones(8, dtype=np.complex128)
        frame = BasebandFrame(x.copy(), sample_rate=4.0)
        ch = ChannelRealization(per_user=((PathTap(2.0, 0, 0.0),),), n_paths=1)
        out = apply_multipath(frame, ch.taps(0), samples_per_chip=4)
        assert np.allclose(out.samples, 2.0 * x)
        assert out.sample_rate == 4.0


class TestAwgn:
    def test_variance_calibration(self):
        # per-component variance must be (N0/2) * sample_rate
        n = 1_000_000
        frame = BasebandFrame(np.zeros(n, dtype=np.complex128), sample_rate=60.0)
        eb = 2.0
        ebn0_db = 4.0
        noisy = add_awgn(frame, NoiseSpec(ebn0_db=ebn0_db), eb, np.random.default_rng(11))
        n0 = eb / 10 ** (ebn0_db / 10)
        expected = 0.5 * n0 * frame.sample_rate
        assert noisy.samples.real.var() == pytest.approx(expected, rel=0.01)
        assert noisy.samples.imag.var() == pytest.approx(expected, rel=0.01)

    def test_whiteness(self):
        n = 1_000_000
        frame = BasebandFrame(np.zeros(n, dtype=np.complex128), sample_rate=1.0)
        noisy = add_awgn(frame, NoiseSpec(ebn0_db=0.0), 1.0, np.random.default_rng(13))
        w = noisy.samples
        lag1 = (w[:-1] * w[1:].conj()).mean()
        power = (np.abs(w) ** 2).mean()
        assert abs(lag1) / power < 0.01
        # I/Q rails independent
        assert abs(np.mean(w.real * w.imag)) / power < 0.01

    def test_disabled_noise_identity(self):
        x = np.ones(32, dtype=np.complex128)
        frame = BasebandFrame(x.copy(), 1.0)
        out = add_awgn(frame, NoiseSpec(ebn0_db=0.0, enabled=False), 1.0,
                       np.random.default_rng(0))
        assert np.array_equal(out.samples, x)

    def test_deterministic_given_rng(self):
        frame = BasebandFrame(np.zeros(64, dtype=np.complex128), 1.0)
        a = add_awgn(frame, NoiseSpec(3.0), 1.0, np.random.default_rng(9))
        b = add_awgn(frame, NoiseSpec(3.0), 1.0, np.random.default_rng(9))
        assert np.array_equal(a.samples, b.samples)


@given(st.integers(1, 5), st.floats(0.0, 6.0))
@settings(max_examples=50, deadline=None)
def test_profile_normalization_property(n_paths, decay_db):
    p = path_power_profile(n_paths, decay_db)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert (p > 0).all()
    assert (np.diff(p) <= 1e-15).all()

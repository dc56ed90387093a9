"""Multipath channel draw, propagation, and noise calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmccdma.channel import (
    ChannelRealization,
    correlator_noise,
    draw_channel,
    noise_scale,
    path_power_profile,
)

from oracles import drawn_channel
from reference_chain import propagate_samples


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
        ch = draw_channel(rng.standard_exponential((3, 4)), rng.random((3, 4)), decay_db=1.0)
        assert ch.gains.shape == ch.phases.shape == (3, 4)
        assert np.all((0.0 <= ch.phases) & (ch.phases < 2 * np.pi))

    @pytest.mark.parametrize("gains", [[[1.0, -0.1]], [[1.0, np.nan]], [[1.0, np.inf]]])
    def test_realization_rejects_bad_gains(self, gains):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ChannelRealization(gains=np.array(gains), phases=np.zeros((1, 2)))

    def test_realization_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ChannelRealization(gains=np.ones((2, 3)), phases=np.zeros((3, 2)))

    def test_realization_takes_any_leading_axes(self):
        batch = ChannelRealization(gains=np.ones((2, 3, 1, 2)), phases=np.zeros((2, 3, 1, 2)))
        assert batch.gains.shape == (2, 3, 1, 2)
        with pytest.raises(ValueError, match="shape"):
            ChannelRealization(gains=np.ones(2), phases=np.zeros(2))

    def test_deterministic_given_seed(self):
        a = drawn_channel(np.random.default_rng(42), 2, 3, 1.0, True)
        b = drawn_channel(np.random.default_rng(42), 2, 3, 1.0, True)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.phases, b.phases)

    @pytest.mark.parametrize("fading", [True, False])
    def test_draw_matches_twin_generator_draws(self, fading):
        """draw_channel forms from a generator's standard exponentials and
        uniforms what Generator.rayleigh and uniform draw from a twin
        generator, bit for bit, for one block's variates and for each
        block's of a batch's (a leading axis)."""
        profile = path_power_profile(3, 2.0)
        seeds = (5, 6, 7)
        exponentials, uniforms = np.empty((3, 4, 3)), np.empty((3, 4, 3))
        for seed, block_exponentials, block_uniforms in zip(seeds, exponentials, uniforms):
            rng = np.random.default_rng(seed)
            if fading:
                rng.standard_exponential(out=block_exponentials)
            rng.random(out=block_uniforms)
        batch = draw_channel(exponentials if fading else None, uniforms, 2.0)
        assert batch.gains.shape == batch.phases.shape == (3, 4, 3)
        for at, seed in enumerate(seeds):
            twin = np.random.default_rng(seed)
            gains = (twin.rayleigh(scale=np.sqrt(profile / 2.0), size=(4, 3)) if fading
                     else np.broadcast_to(np.sqrt(profile), (4, 3)))
            phases = twin.uniform(0.0, 2.0 * np.pi, size=(4, 3))
            one = draw_channel(exponentials[at] if fading else None, uniforms[at], 2.0)
            for drawn_gains, drawn_phases in ((one.gains, one.phases),
                                              (batch.gains[at], batch.phases[at])):
                assert drawn_gains.tobytes() == np.ascontiguousarray(gains).tobytes()
                assert drawn_phases.tobytes() == phases.tobytes()

    def test_fading_off_gains_are_profile(self):
        rng = np.random.default_rng(1)
        ch = draw_channel(None, rng.random((1, 3)), 2.0)
        profile = path_power_profile(3, 2.0)
        assert np.allclose(ch.gains[0], np.sqrt(profile), atol=1e-12)

    def test_rayleigh_moments(self):
        # users axis doubles as the sample axis for the moment check
        rng = np.random.default_rng(7)
        n = 100_000
        ch = drawn_channel(rng, n, 2, 3.0, fading=True)
        profile = path_power_profile(2, 3.0)
        for path in range(2):
            g2 = ch.gains[:, path] ** 2
            assert g2.mean() == pytest.approx(profile[path], rel=0.02)
            # Rayleigh: E[g] = sqrt(pi/4 * E[g^2])
            assert np.sqrt(g2).mean() == pytest.approx(
                np.sqrt(np.pi / 4 * profile[path]), rel=0.02)

    def test_phases_cover_circle(self):
        rng = np.random.default_rng(3)
        ch = drawn_channel(rng, 20_000, 1, 0.0, True)
        phases = ch.phases[:, 0]
        assert abs(np.exp(1j * phases).mean()) < 0.02


class TestPropagation:
    def test_identity_tap(self):
        x = np.arange(8, dtype=np.complex128)
        y = propagate_samples(x, np.ones(1), samples_per_chip=4)
        assert np.array_equal(y, x)

    def test_delay_and_phase(self):
        x = np.array([1.0 + 0j, 2.0, 3.0])
        # path 1 only: one chip late, gain 0.5 at phase pi/2
        gains = np.array([0.0, 0.5 * np.exp(1j * np.pi / 2)])
        y = propagate_samples(x, gains, samples_per_chip=2)
        assert y.size == 3 + 2
        assert np.allclose(y[:2], 0.0)
        assert np.allclose(y[2:], 0.5j * x)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x1 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        x2 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        gains = np.array([0.9 * np.exp(0.3j), 0.0, 0.4 * np.exp(1.1j), 0.2 * np.exp(4.0j)])
        ya = propagate_samples(x1 + x2, gains, 4)
        yb = propagate_samples(x1, gains, 4) + propagate_samples(x2, gains, 4)
        assert np.abs(ya - yb).max() < 1e-12

    def test_out_accumulates_like_allocating_form(self):
        rng = np.random.default_rng(6)
        x1 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        x2 = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        gains1 = np.array([0.9 * np.exp(0.3j), 0.0, 0.4 * np.exp(1.1j), 0.2 * np.exp(4.0j)])
        gains2 = np.zeros(6, dtype=np.complex128)
        gains2[[1, 5]] = 0.7 * np.exp(2.0j), 0.5 * np.exp(0.6j)
        expected = np.zeros(80, dtype=np.complex128)
        expected[:76] += propagate_samples(x1, gains1, 4)
        expected[:68] += propagate_samples(x2, gains2, 4)
        out = np.zeros(80, dtype=np.complex128)
        assert propagate_samples(x1, gains1, 4, out=out) is out
        propagate_samples(x2, gains2, 4, out=out)
        assert np.abs(out - expected).max() < 1e-12

    def test_out_too_short_rejected(self):
        x = np.ones(8, dtype=np.complex128)
        out = np.zeros(11, dtype=np.complex128)
        with pytest.raises(ValueError, match="out holds 11 samples"):
            propagate_samples(x, np.array([0.0, 1.0]), 4, out=out)


class TestAwgn:
    def test_correlator_noise_covariance(self):
        # outputs carry n0 * factor @ factor^H, circular
        rng = np.random.default_rng(17)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gram = a @ a.conj().T / 3 + np.eye(3)
        factor = np.linalg.cholesky(gram)
        eb, ebn0_db = 2.0, 4.0
        z = correlator_noise(noise_scale(ebn0_db, eb), factor, rng.standard_normal((200_000, 3, 2)))
        assert z.shape == (200_000, 3)
        expected = eb / 10 ** (ebn0_db / 10) * gram
        measured = z.T @ z.conj() / z.shape[0]
        assert np.abs(measured - expected).max() < 0.02 * np.abs(expected).max()
        pseudo = z.T @ z / z.shape[0]
        assert np.abs(pseudo).max() < 0.02 * np.abs(expected).max()

    def test_correlator_noise_reads_normals_as_complex(self):
        """The interleaved normals read as complex128 give bit for bit the
        complex normals w[..., 0] + 1j w[..., 1] through the factor, over
        200 seeds, and a batch's normals (a leading axis) give each block's
        noise as its own normals do."""
        rng = np.random.default_rng(3)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        factor = np.linalg.cholesky(a @ a.conj().T / 64 + np.eye(64))
        for seed in range(200):
            w = np.random.default_rng(seed).standard_normal((17, 64, 2))
            expected = 0.3 * ((w[..., 0] + 1j * w[..., 1]) @ factor.T)
            assert correlator_noise(0.3, factor, w).tobytes() == expected.tobytes()
        normals = np.stack([np.random.default_rng(seed).standard_normal((17, 64, 2))
                            for seed in (4, 9)])
        batch = correlator_noise(0.3, factor, normals)
        assert batch.shape == (2, 17, 64)
        for noise, block_normals in zip(batch, normals):
            assert noise.tobytes() == correlator_noise(0.3, factor, block_normals).tobytes()

    @pytest.mark.parametrize("ebn0_db", [np.nan, np.inf, -np.inf])
    def test_nonfinite_ebn0_rejected(self, ebn0_db):
        with pytest.raises(ValueError, match="ebn0_db must be finite"):
            noise_scale(ebn0_db, 1.0)


@given(st.integers(1, 5), st.floats(0.0, 6.0))
@settings(max_examples=50, deadline=None)
def test_profile_normalization_property(n_paths, decay_db):
    p = path_power_profile(n_paths, decay_db)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert (p > 0).all()
    assert (np.diff(p) <= 1e-15).all()

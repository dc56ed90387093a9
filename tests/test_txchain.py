"""Transmit chain: splitting, subcarriers, the Walsh grid, modulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmccdma.codes import generate_msequence, generate_walsh
from mcmccdma.receiver import partial_correlation_tables
from mcmccdma.txchain import (
    LinkConfig,
    modulate_user,
    modulation_table,
    parallel_to_serial,
    serial_to_parallel,
    slot_signatures,
    subcarrier_frequency,
    walsh_chip_indices,
)


class TestLinkConfig:
    def test_derived_quantities(self):
        cfg = LinkConfig(substreams=2, carriers=2, walsh_order=4,
                         pn_length=15, oversampling=4, symbol_duration=2.0)
        assert cfg.samples_per_symbol == 60
        assert cfg.sample_rate == 30.0
        assert cfg.bits_per_symbol == 4
        assert cfg.walsh_aligned

    def test_unaligned_flag(self):
        cfg = LinkConfig(substreams=8, carriers=1, walsh_order=8,
                         pn_length=63, oversampling=4)
        assert not cfg.walsh_aligned        # 252 % 8 != 0

    @pytest.mark.parametrize("kwargs", [
        dict(users=0),
        dict(substreams=0),
        dict(walsh_order=3),
        dict(walsh_order=2, substreams=3),
        dict(oversampling=1),
        dict(power=0.0),
        dict(symbol_duration=-1.0),
        dict(walsh_order=64, pn_length=7, oversampling=4),     # 64 > 28
        dict(carriers=8, walsh_order=8, pn_length=7, oversampling=2),  # 64 > 14
        dict(users=2.5),
        dict(pn_length=7.0),
        dict(oversampling=True),
        dict(power=float("nan")),
        dict(symbol_duration=float("inf")),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            LinkConfig(**kwargs)


class TestSerialParallel:
    def test_round_robin_order(self):
        out = serial_to_parallel(np.arange(6), 3)
        assert (out == [[0, 3], [1, 4], [2, 5]]).all()

    def test_round_trip(self):
        bits = np.array([1, -1, -1, 1, 1, 1, -1, -1])
        assert (parallel_to_serial(serial_to_parallel(bits, 4)) == bits).all()

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            serial_to_parallel(np.arange(7), 2)

    @given(st.integers(1, 6), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, lanes, blocks):
        bits = np.arange(lanes * blocks)
        assert (parallel_to_serial(serial_to_parallel(bits, lanes)) == bits).all()


class TestSubcarriers:
    def test_frequencies_and_spacing(self):
        cfg = LinkConfig(carriers=4, walsh_order=8, substreams=8,
                         pn_length=63, oversampling=4, symbol_duration=2.0)
        freqs = [subcarrier_frequency(m, cfg) for m in range(1, 5)]
        assert freqs == [4.0, 8.0, 12.0, 16.0]
        spacing = np.diff(freqs)
        assert np.allclose(spacing, cfg.walsh_order / cfg.symbol_duration)

    def test_index_range(self):
        cfg = LinkConfig(carriers=2, pn_length=15)
        with pytest.raises(IndexError):
            subcarrier_frequency(0, cfg)
        with pytest.raises(IndexError):
            subcarrier_frequency(3, cfg)

    def test_carrier_orthogonality_discrete(self):
        cfg = LinkConfig(carriers=6, walsh_order=8, substreams=1,
                         pn_length=31, oversampling=4)
        n = cfg.samples_per_symbol
        i = np.arange(n)
        t = i * cfg.symbol_duration / n
        for m in range(1, 7):
            for mp in range(1, 7):
                if m == mp:
                    continue
                df = subcarrier_frequency(m, cfg) - subcarrier_frequency(mp, cfg)
                s = np.exp(2j * np.pi * df * t).sum() / n
                assert abs(s) < 1e-10


class TestWalshGrid:
    def test_aligned_grid_uniform(self):
        cfg = LinkConfig(substreams=2, carriers=2, walsh_order=4,
                         pn_length=15, oversampling=4)
        idx = walsh_chip_indices(cfg)
        lengths = np.bincount(idx)
        assert (lengths == 15).all()

    def test_unaligned_grid_near_uniform(self):
        cfg = LinkConfig(substreams=8, carriers=8, walsh_order=8,
                         pn_length=63, oversampling=4)
        idx = walsh_chip_indices(cfg)
        lengths = np.bincount(idx)
        assert lengths.sum() == cfg.samples_per_symbol
        assert lengths.max() - lengths.min() <= 1
        assert (np.diff(idx) >= 0).all()


class TestModulateUser:
    def test_degenerate_tone(self):
        cfg = LinkConfig(pn_length=7, oversampling=4, power=2.0)
        walsh = generate_walsh(1)
        flat_pn = np.ones(7, dtype=np.int8)
        d = np.ones((1, 1, 1), dtype=np.int8)
        samples = modulate_user(d, walsh, flat_pn, cfg)
        n = cfg.samples_per_symbol
        i = np.arange(n)
        expected = np.sqrt(2 * cfg.power) * np.exp(
            2j * np.pi * subcarrier_frequency(1, cfg) * i * cfg.symbol_duration / n)
        assert np.allclose(samples, expected, atol=1e-12)

    def test_mean_power(self):
        cfg = LinkConfig(substreams=4, carriers=4, walsh_order=4,
                         pn_length=63, oversampling=4, power=0.5)
        walsh = generate_walsh(4)
        pn = generate_msequence(6)
        rng = np.random.default_rng(5)
        d = rng.choice([-1, 1], size=(40, 4, 4)).astype(np.int8)
        samples = modulate_user(d, walsh, pn, cfg)
        expected = 2 * cfg.power * cfg.substreams * cfg.carriers
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(expected, rel=1e-2)

    def test_slot_signatures_orthonormal_when_aligned(self):
        cfg = LinkConfig(substreams=4, carriers=4, walsh_order=4,
                         pn_length=63, oversampling=4)
        walsh = generate_walsh(4)
        pn = generate_msequence(6)
        sig = slot_signatures(walsh, pn, cfg).reshape(16, -1)
        gram = (sig @ sig.conj().T) / sig.shape[1]
        assert np.abs(gram - np.eye(16)).max() < 1e-10

    def test_frame_length(self):
        cfg = LinkConfig(substreams=2, carriers=2, walsh_order=2,
                         pn_length=15, oversampling=4)
        d = np.ones((7, 2, 2), dtype=np.int8)
        samples = modulate_user(d, generate_walsh(2), generate_msequence(4), cfg)
        assert samples.shape == (7 * cfg.samples_per_symbol,)


def _loop_signatures(walsh, chips, cfg):
    """Slot signatures built one (substream, carrier) pair at a time."""
    n = cfg.samples_per_symbol
    t = np.arange(n) * cfg.symbol_duration / n
    pn_up = np.repeat(chips, cfg.oversampling)
    walsh_up = walsh[:, walsh_chip_indices(cfg)]
    sig = np.empty((cfg.substreams, cfg.carriers, n), dtype=np.complex128)
    for r in range(cfg.substreams):
        for m in range(cfg.carriers):
            tone = np.exp(2j * np.pi * subcarrier_frequency(m + 1, cfg) * t)
            sig[r, m] = walsh_up[r] * pn_up * tone
    return sig


class TestModulationTable:
    @pytest.mark.parametrize("degree, oversampling, aligned", [(6, 8, True), (5, 4, False)])
    @pytest.mark.parametrize("carriers", [1, 8])
    def test_shared_table_matches_signature_product(self, degree, oversampling, aligned,
                                                    carriers):
        cfg = LinkConfig(users=2, substreams=3, carriers=carriers, walsh_order=8,
                         pn_length=2**degree - 1, oversampling=oversampling, power=0.7)
        assert cfg.walsh_aligned == aligned
        walsh = generate_walsh(8)
        chips = np.roll(generate_msequence(degree), 5)
        sig = slot_signatures(walsh, chips, cfg)
        assert np.abs(sig - _loop_signatures(walsh, chips, cfg)).max() < 1e-12

        rng = np.random.default_rng(11)
        d = rng.choice([-1, 1], size=(9, 3, carriers)).astype(np.int8)
        n = cfg.samples_per_symbol
        expected = np.sqrt(2 * cfg.power) * (d.reshape(9, -1) @ sig.reshape(-1, n))
        table = modulation_table(walsh, cfg)
        assert table.shape == (3 * carriers, 2 * n) and table.dtype == np.float64
        got = modulate_user(d, walsh, chips, cfg).reshape(9, n)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_walsh_order_mismatch_rejected(self):
        cfg = LinkConfig(substreams=2, walsh_order=2, pn_length=7)
        with pytest.raises(ValueError, match="Walsh order"):
            modulation_table(generate_walsh(4), cfg)
        with pytest.raises(ValueError, match="Walsh order"):
            partial_correlation_tables(generate_msequence(3)[None, :], generate_walsh(4), cfg, 1)

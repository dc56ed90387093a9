"""Transmit chain: subcarriers, the Walsh grid, modulation."""

import numpy as np
import pytest

from mcmccdma.codes import generate_msequence, generate_walsh
from mcmccdma.txchain import (
    LinkConfig,
    subcarrier_exponentials,
    substream_walsh_rows,
    walsh_chip_bounds,
)

from oracles import floor_chips
from reference_chain import modulate_user, modulation_table, slot_signatures


def _subcarrier_frequency(m, cfg):
    """Frequency of subcarrier m (1-based) in cycles per symbol: m walsh_order."""
    return m * cfg.walsh_order


class TestLinkConfig:
    def test_derived_quantities(self):
        cfg = LinkConfig(substreams=2, carriers=2, walsh_order=4,
                         pn_length=15, oversampling=4)
        assert cfg.samples_per_symbol == 60
        assert cfg.bits_per_symbol == 4
        assert cfg.samples_per_symbol % cfg.walsh_order == 0
        # time is counted in symbol periods and every branch is sent at unit
        # power, so neither a symbol duration nor a power is set
        with pytest.raises(TypeError, match="symbol_duration"):
            LinkConfig(symbol_duration=2.0)
        with pytest.raises(TypeError, match="power"):
            LinkConfig(power=1.0)

    def test_unaligned_sample_count(self):
        cfg = LinkConfig(substreams=8, carriers=1, walsh_order=8,
                         pn_length=63, oversampling=4)
        assert cfg.samples_per_symbol % cfg.walsh_order != 0        # 252 % 8 != 0

    @pytest.mark.parametrize("kwargs", [
        dict(users=0),
        dict(substreams=0),
        dict(walsh_order=3),
        dict(walsh_order=2, substreams=3),
        dict(oversampling=1),
        dict(carriers=0),
        dict(pn_length=0),
        dict(walsh_order=64, pn_length=7, oversampling=4),     # 64 > 28
        dict(carriers=8, walsh_order=8, pn_length=7, oversampling=2),  # 64 > 14
        dict(users=2.5),
        dict(pn_length=7.0),
        dict(oversampling=True),
        dict(users=True),
        dict(walsh_order="4"),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            LinkConfig(**kwargs)


class TestSubcarriers:
    def test_frequencies_and_spacing(self):
        # f_m = m walsh_order cycles per symbol: 8, 16, 24, 32 at walsh_order 8
        cfg = LinkConfig(carriers=4, walsh_order=8, substreams=8,
                         pn_length=63, oversampling=4)
        n = cfg.samples_per_symbol
        t = np.arange(n) / n
        tones = np.exp(2j * np.pi * np.array([8.0, 16.0, 24.0, 32.0])[:, None] * t)
        assert np.abs(subcarrier_exponentials(cfg) - tones).max() <= 1e-12

    def test_carrier_orthogonality_discrete(self):
        cfg = LinkConfig(carriers=6, walsh_order=8, substreams=1,
                         pn_length=31, oversampling=4)
        tones = subcarrier_exponentials(cfg)
        gram = tones @ tones.conj().T / cfg.samples_per_symbol
        assert np.abs(gram - np.eye(cfg.carriers)).max() < 1e-10


class TestWalshGrid:
    def test_aligned_grid_uniform(self):
        cfg = LinkConfig(substreams=2, carriers=2, walsh_order=4,
                         pn_length=15, oversampling=4)
        lengths = np.diff(walsh_chip_bounds(cfg))
        assert (lengths == 15).all()
        assert np.array_equal(lengths, np.bincount(floor_chips(cfg)))

    def test_unaligned_grid_near_uniform(self):
        cfg = LinkConfig(substreams=8, carriers=8, walsh_order=8,
                         pn_length=63, oversampling=4)
        bounds = walsh_chip_bounds(cfg)
        lengths = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == cfg.samples_per_symbol
        assert lengths.max() - lengths.min() <= 1
        assert np.array_equal(lengths, np.bincount(floor_chips(cfg)))


class TestModulateUser:
    def test_degenerate_tone(self):
        cfg = LinkConfig(pn_length=7, oversampling=4)
        walsh = generate_walsh(1)
        flat_pn = np.ones(7, dtype=np.int8)
        d = np.ones((1, 1, 1), dtype=np.int8)
        samples = modulate_user(d, walsh, flat_pn, cfg)
        n = cfg.samples_per_symbol
        i = np.arange(n)
        expected = np.sqrt(2) * np.exp(
            2j * np.pi * _subcarrier_frequency(1, cfg) * i / n)
        assert np.allclose(samples, expected, atol=1e-12)

    def test_mean_power(self):
        cfg = LinkConfig(substreams=4, carriers=4, walsh_order=4,
                         pn_length=63, oversampling=4)
        walsh = generate_walsh(4)
        pn = generate_msequence(6)
        rng = np.random.default_rng(5)
        d = rng.choice([-1, 1], size=(40, 4, 4)).astype(np.int8)
        samples = modulate_user(d, walsh, pn, cfg)
        expected = 2 * cfg.substreams * cfg.carriers
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
    t = np.arange(n) / n
    pn_up = np.repeat(chips, cfg.oversampling)
    walsh_up = walsh[:, floor_chips(cfg)]
    sig = np.empty((cfg.substreams, cfg.carriers, n), dtype=np.complex128)
    for r in range(cfg.substreams):
        for m in range(cfg.carriers):
            tone = np.exp(2j * np.pi * _subcarrier_frequency(m + 1, cfg) * t)
            sig[r, m] = walsh_up[r] * pn_up * tone
    return sig


class TestModulationTable:
    @pytest.mark.parametrize("degree, oversampling, aligned", [(6, 8, True), (5, 4, False)])
    @pytest.mark.parametrize("carriers", [1, 8])
    def test_shared_table_matches_signature_product(self, degree, oversampling, aligned,
                                                    carriers):
        cfg = LinkConfig(users=2, substreams=3, carriers=carriers, walsh_order=8,
                         pn_length=2**degree - 1, oversampling=oversampling)
        assert (cfg.samples_per_symbol % cfg.walsh_order == 0) == aligned
        walsh = generate_walsh(8)
        chips = np.roll(generate_msequence(degree), 5)
        sig = slot_signatures(walsh, chips, cfg)
        assert np.abs(sig - _loop_signatures(walsh, chips, cfg)).max() < 1e-12

        rng = np.random.default_rng(11)
        d = rng.choice([-1, 1], size=(9, 3, carriers)).astype(np.int8)
        n = cfg.samples_per_symbol
        expected = np.sqrt(2) * (d.reshape(9, -1) @ sig.reshape(-1, n))
        table = modulation_table(walsh, cfg)
        assert table.shape == (3 * carriers, 2 * n) and table.dtype == np.float64
        got = modulate_user(d, walsh, chips, cfg).reshape(9, n)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_walsh_order_mismatch_rejected(self):
        cfg = LinkConfig(substreams=2, walsh_order=2, pn_length=7)
        with pytest.raises(ValueError, match="Walsh order"):
            modulation_table(generate_walsh(4), cfg)
        # the engine's Walsh rows, which the tables' product and the Gram
        # matrix read, are cut from the matrix by the same check
        with pytest.raises(ValueError, match="Walsh order"):
            substream_walsh_rows(generate_walsh(4), cfg)

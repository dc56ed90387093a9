"""Correlator receiver: loopback, decomposition, interference statistics."""

import tracemalloc

import numpy as np
import pytest

from mcmccdma import harness
from mcmccdma.channel import ChannelRealization
from mcmccdma.codes import generate_msequence, generate_walsh
from mcmccdma.config import Scenario, preset
from mcmccdma.harness import estimate_interference_variances, measure_variances
from mcmccdma.receiver import (
    SOURCE_NAMES,
    chip_correlations,
    combine_walsh_chips,
    correlate_tables,
    decide_slots,
    partial_correlation_tables,
    signature_gram,
    slot_tables,
)
from mcmccdma.txchain import (LinkConfig, spread_symbols, subcarrier_exponentials,
                              walsh_chip_bounds)

from oracles import drawn_channel
from reference_chain import correlate_slots, modulate_user, propagate_samples, slot_signatures

REF_CHANNEL = ChannelRealization(gains=np.ones((1, 1)), phases=np.zeros((1, 1)))

LOOPBACK_CONFIGS = [
    # (substreams, carriers, walsh_order, pn degree)
    (1, 1, 1, 3),
    (2, 2, 4, 4),
    (8, 8, 8, 6),       # floor-grid Walsh: 8 does not divide 252
]


def _make(r, m, na, degree, **kw):
    cfg = LinkConfig(users=1, substreams=r, carriers=m, walsh_order=na,
                     pn_length=2 ** degree - 1, oversampling=4, **kw)
    return cfg, generate_walsh(na), generate_msequence(degree)


class TestLoopback:
    """A user's own frame through its own correlators decides every symbol
    right: the (substream, carrier) slots separate exactly."""

    @pytest.mark.parametrize("r,m,na,degree", LOOPBACK_CONFIGS)
    def test_noiseless_exact(self, r, m, na, degree):
        cfg, walsh, pn = _make(r, m, na, degree)
        rng = np.random.default_rng(degree)
        d = rng.choice([-1, 1], size=(50, r, m)).astype(np.int8)
        z = correlate_slots(modulate_user(d, walsh, pn, cfg), slot_signatures(walsh, pn, cfg), cfg)
        assert decide_slots(z, d) == 0

    def test_rotation_invariance(self):
        cfg, walsh, pn = _make(2, 2, 4, 4)
        rng = np.random.default_rng(1)
        d = rng.choice([-1, 1], size=(20, 2, 2)).astype(np.int8)
        rotated = modulate_user(d, walsh, pn, cfg) * np.exp(1j * np.pi / 3)
        z = correlate_slots(rotated, slot_signatures(walsh, pn, cfg), cfg,
                            reference_phase=np.pi / 3)
        assert decide_slots(z, d) == 0

    def test_delayed_reference_path(self):
        cfg, walsh, pn = _make(2, 2, 4, 4)
        rng = np.random.default_rng(2)
        d = rng.choice([-1, 1], size=(10, 2, 2)).astype(np.int8)
        # the only path is three chips late, with gain 0.7 at phase 1.2
        gains = np.zeros(4, dtype=np.complex128)
        gains[3] = 0.7 * np.exp(1.2j)
        received = propagate_samples(modulate_user(d, walsh, pn, cfg), gains, cfg.oversampling)
        z = correlate_slots(received[3 * cfg.oversampling:], slot_signatures(walsh, pn, cfg),
                            cfg, reference_phase=1.2)
        assert decide_slots(z, d) == 0


class TestCorrelatorIdentity:
    def test_correlate_matches_symbols(self):
        cfg, walsh, pn = _make(2, 2, 4, 4)
        rng = np.random.default_rng(3)
        d = rng.choice([-1, 1], size=(12, 2, 2)).astype(np.int8)
        z = correlate_slots(modulate_user(d, walsh, pn, cfg), slot_signatures(walsh, pn, cfg), cfg)
        assert np.allclose(z.real, np.sqrt(2) * d, atol=1e-10)
        assert np.abs(z.imag).max() < 1e-10

    def test_linearity(self):
        cfg, walsh, pn = _make(2, 1, 2, 3)
        sig = slot_signatures(walsh, pn, cfg)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(cfg.samples_per_symbol) * (1 + 0.5j)
        y = rng.standard_normal(cfg.samples_per_symbol) * (0.3 - 1j)
        zsum = correlate_slots(x, sig, cfg) + correlate_slots(y, sig, cfg)
        assert np.abs(correlate_slots(x + y, sig, cfg) - zsum).max() < 1e-12

    def test_too_short_frame(self):
        cfg, walsh, pn = _make(1, 1, 1, 3)
        sig = slot_signatures(walsh, pn, cfg)
        with pytest.raises(ValueError):
            correlate_slots(np.zeros(5, dtype=np.complex128), sig, cfg)


@pytest.mark.parametrize("r,m,na,degree", LOOPBACK_CONFIGS + [(5, 1, 16, 3)])
def test_factored_correlator_matches_signature_product(r, m, na, degree):
    """chip_correlations then combine_walsh_chips, with the Walsh chips
    taken out of the signatures, give correlate_slots' outputs on arbitrary
    received windows (the last case has Walsh chips 1-2 samples long)."""
    cfg, walsh, pn = _make(r, m, na, degree)
    rng = np.random.default_rng(degree)
    n = 5 * cfg.samples_per_symbol
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    expected = correlate_slots(samples, slot_signatures(walsh, pn, cfg), cfg, reference_phase=0.7)
    chips = np.repeat(pn, cfg.oversampling)
    correlator = chips[:, None] * subcarrier_exponentials(cfg).conj().T
    per_chip = chip_correlations(samples.reshape(5, -1), correlator, walsh_chip_bounds(cfg))
    z = combine_walsh_chips(per_chip, walsh[:r], cfg.samples_per_symbol, reference_phase=0.7)
    assert z.shape == (5, r * m)
    assert np.abs(z - expected.reshape(5, -1)).max() <= 1e-12 * np.abs(expected).max()


def _slice_tables(pn_chips, walsh, cfg, n_paths):
    """partial_correlation_tables from the signature waveforms themselves:
    one slice product per user, path and window."""
    n = cfg.samples_per_symbol
    own = slot_signatures(walsh, pn_chips[0], cfg).reshape(-1, n)
    slots = own.shape[0]
    windows = 2 if n_paths > 1 else 1
    out = np.zeros((len(pn_chips), windows, slots, n_paths, slots), dtype=np.complex128)
    for k, pn in enumerate(pn_chips):
        sig = slot_signatures(walsh, pn, cfg).reshape(-1, n)
        for path in range(n_paths):
            d = path * cfg.oversampling
            out[k, 0, :, path] = sig[:, :n - d] @ own[:, d:].conj().T / n
            if windows == 2:
                out[k, 1, :, path] = sig[:, n - d:] @ own[:, :d].conj().T / n
    return out


def _expanded_tables(tables, walsh_rows, windows):
    """The full (slot x slot) tables of the factored blocks: entry
    [k, w, (r, m), l, (r', m')] sums w_r(a) w_r'(b) [l, b, k, q, m, m'] over
    the lags q and user 1's chips b whose user-k chip a = w * order + b - q
    lies in window w (the current symbol, or the one before)."""
    paths, order, users, lags, n_car, _ = tables.shape
    n_sub = len(walsh_rows)
    full = np.zeros((users, 2, n_sub, n_car, paths, n_sub, n_car), dtype=np.complex128)
    for q in range(lags):
        for b in range(order):
            window = int(q > b)
            pair = np.outer(walsh_rows[:, window * order + b - q], walsh_rows[:, b])
            full[:, window] += np.einsum("rs,lkmn->krmlsn", pair, tables[:, b, :, q])
    assert np.all(full[:, windows:] == 0)
    return full[:, :windows].reshape(users, windows, n_sub * n_car, paths, n_sub * n_car)


def _expanded_product(full, symbols, gains):
    """User 1's noiseless outputs through the full tables:
    z[n, t] = sum_{k, l} gains[k, l] (d_k[n] @ full[k, 0, :, l, t]
    + d_k[n-1] @ full[k, 1, :, l, t]), d_k[-1] = 0."""
    users, windows, slots = full.shape[:3]
    d = symbols.reshape(users, symbols.shape[1], slots).astype(np.float64)
    z = np.einsum("kns,kslt,kl->nt", d, full[:, 0], gains)
    if windows == 2:
        z[1:] += np.einsum("kns,kslt,kl->nt", d[:, :-1], full[:, 1], gains)
    return z


class TestPartialCorrelationTables:
    @pytest.mark.parametrize("users, r, m, na, degree, oversampling, paths", [
        (1, 1, 1, 1, 3, 4, 1),      # one slot, one path
        (2, 4, 2, 4, 3, 4, 3),      # aligned Walsh grid: 4 divides 28
        (3, 2, 3, 4, 3, 3, 2),      # 4 does not divide 21
        (4, 8, 2, 8, 5, 4, 7),      # 8 does not divide 124, several paths
        (1, 4, 2, 4, 4, 2, 12),     # delays spanning several Walsh chips
        # Walsh bounds that split PN chips (oversampling 3 and 5), and
        # delayed bounds that wrap past the symbol end, up to delays of
        # more than half the symbol
        (2, 4, 2, 16, 5, 3, 20),
        (3, 8, 3, 32, 6, 5, 40),
        (1, 16, 2, 32, 5, 5, 31),
    ])
    def test_matches_slice_products(self, users, r, m, na, degree, oversampling, paths):
        cfg = LinkConfig(users=users, substreams=r, carriers=m, walsh_order=na,
                         pn_length=2 ** degree - 1, oversampling=oversampling)
        walsh = generate_walsh(na)
        base = generate_msequence(degree)
        stride = max(1, base.size // users)
        pn_chips = np.stack([np.roll(base, k * stride) for k in range(users)])
        tables = partial_correlation_tables(pn_chips, cfg, paths)
        reference = _slice_tables(pn_chips, walsh, cfg, paths)
        rows = walsh[:r].astype(np.float64)
        expanded = _expanded_tables(tables, rows, reference.shape[1])
        assert expanded.shape == reference.shape
        assert np.abs(expanded - reference).max() <= 1e-12 * np.abs(reference).max()
        # the package's own expansion, which the split and the Gram matrix read
        assert np.abs(slot_tables(tables, rows, rows) - reference).max() \
            <= 1e-12 * np.abs(reference).max()

    def test_build_peak_stays_at_chip_rate(self):
        """On the linearization preset's link (20 users, pn 4095, 64 slots)
        the build's traced peak, tables included, stays below the tables
        plus two (users, samples_per_symbol) float64 arrays: it forms no
        per-sample PN product or rotation table."""
        scenario = preset("linearization")[0]
        cfg = scenario.config
        walsh, pn_chips = harness._user_codes(cfg)
        tracemalloc.start()
        try:
            tables = partial_correlation_tables(pn_chips, cfg, scenario.paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tables.nbytes + 2 * cfg.users * cfg.samples_per_symbol * 8

    def test_aligned_own_table_is_identity(self):
        # orthonormal slots: user 1's own zero-delay table multiplied out
        # over the Walsh rows, its Gram matrix, is the identity
        cfg, walsh, pn = _make(4, 2, 4, 3)
        assert cfg.samples_per_symbol % cfg.walsh_order == 0
        tables = partial_correlation_tables(pn[None, :], cfg, 1)
        gram = signature_gram(tables, walsh.astype(np.float64))
        assert np.allclose(gram, np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("users, r, m, na, degree, oversampling, paths, lags", [
        (3, 4, 2, 4, 3, 4, 1, 1),       # one path: zero lag only
        (2, 4, 3, 8, 5, 4, 3, 2),       # delays within a Walsh chip: lags 0 and 1
        (2, 8, 2, 16, 5, 3, 20, 11),    # delays across up to ten Walsh chips
    ])
    def test_factored_product_matches_expanded_tables(self, users, r, m, na, degree,
                                                      oversampling, paths, lags):
        """correlate_tables' per-chip sums, Walsh-combined, equal the
        product of the symbols with the expanded (slot x slot) tables, on
        random symbols and complex path gains."""
        cfg = LinkConfig(users=users, substreams=r, carriers=m, walsh_order=na,
                         pn_length=2 ** degree - 1, oversampling=oversampling)
        base = generate_msequence(degree)
        pn_chips = np.stack([np.roll(base, 3 * k) for k in range(users)])
        rows = generate_walsh(na)[:r].astype(np.float64)
        tables = partial_correlation_tables(pn_chips, cfg, paths)
        assert tables.shape == (paths, na, users, lags, m, m)
        rng = np.random.default_rng(paths)
        symbols = rng.choice([-1, 1], size=(users, 6, r, m)).astype(np.int8)
        gains = rng.standard_normal((users, paths)) + 1j * rng.standard_normal((users, paths))
        per_chip = correlate_tables(tables, spread_symbols(rows, symbols, {}), gains, {})
        assert per_chip.shape == (na, 6, m)
        z = combine_walsh_chips(per_chip, rows, 1, 0.0)
        expected = _expanded_product(_expanded_tables(tables, rows, 1 + (paths > 1)),
                                     symbols, gains)
        assert np.abs(z - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_work_arrays_are_reused_without_changing_the_sums(self):
        """Calls that share a work dict reuse its arrays, and each call's
        sums are those of a call with fresh arrays, bit for bit."""
        cfg = LinkConfig(users=3, substreams=4, carriers=3, walsh_order=8, pn_length=15,
                         oversampling=4)
        base = generate_msequence(4)
        tables = partial_correlation_tables(np.stack([np.roll(base, 5 * k) for k in range(3)]),
                                            cfg, 4)
        assert tables.shape[3] > 1
        rows = generate_walsh(8)[:4].astype(np.float64)
        rng = np.random.default_rng(11)
        work = {}
        for call in range(3):
            symbols = rng.choice([-1, 1], size=(3, 5, 4, 3)).astype(np.int8)
            gains = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            shared = correlate_tables(tables, spread_symbols(rows, symbols, work), gains, work)
            if call == 0:
                arrays = {name: id(array) for name, array in work.items()}
            assert {name: id(array) for name, array in work.items()} == arrays
            assert np.array_equal(shared, correlate_tables(
                tables, spread_symbols(rows, symbols, {}), gains, {}))


def _linear_runtime(cfg, paths=1, fading=False, noise_enabled=False):
    """The harness's per-scenario tables for a linear-chain link."""
    return harness._prepare(Scenario(name="sources", config=cfg, paths=paths, fading=fading,
                                     noise_enabled=noise_enabled))


def _source_setup(users=1, paths=1, fading=False, seed=0, n_symbols=8,
                  noise_enabled=False, r=2, m=2, na=4, degree=4):
    cfg = LinkConfig(users=users, substreams=r, carriers=m, walsh_order=na,
                     pn_length=2 ** degree - 1, oversampling=4)
    runtime = _linear_runtime(cfg, paths, fading, noise_enabled)
    rng = np.random.default_rng(seed)
    channel = drawn_channel(rng, users, paths, 0.0, fading)
    symbols = rng.choice([-1, 1], size=(users, n_symbols, r, m)).astype(np.int8)
    sources = harness._source_outputs(harness._source_split(runtime, channel), symbols, {})
    return runtime, channel, symbols, sources


class TestDecomposition:
    def test_aligned_single_user_all_zero_interference(self):
        runtime, channel, symbols, sources = _source_setup()
        # a row per SOURCE_NAMES entry but the noise
        assert sources.shape == (len(SOURCE_NAMES) - 1, 8)
        desired, multipath, inter_substream, inter_carrier, multi_user = sources
        amp = np.sqrt(2)
        assert desired[3].real == pytest.approx(amp * symbols[0, 3, 0, 0], rel=1e-10)
        assert abs(inter_substream[3]) < 1e-10 * amp
        assert abs(inter_carrier[3]) < 1e-10 * amp
        assert multipath[3] == 0j
        assert multi_user[3] == 0j

    def test_identity_every_symbol(self):
        # The five noiseless sources sum to the BER engine's noiseless slot
        # (1, 1) output.
        runtime, channel, symbols, sources = _source_setup(users=3, paths=2, fading=True, seed=5)
        z_total = harness._correlation_outputs(runtime, channel, symbols)[:, 0, 0]
        assert len(sources) == len(SOURCE_NAMES) - 1
        total = sum(sources)
        assert total.shape == z_total.shape == (8,)
        assert np.all(np.abs(z_total - total) <= 1e-10 * np.maximum(np.abs(z_total), 1e-30))

    def test_multipath_and_mui_appear(self):
        *_, sources = _source_setup(users=4, paths=3, fading=True, seed=7, n_symbols=6)
        _, multipath, _, _, multi_user = sources
        assert np.abs(multipath).max() > 0.0
        assert np.abs(multi_user).max() > 0.0

    def test_nonlinear_mode_rejected(self):
        cfg = LinkConfig(users=1, substreams=2, carriers=2, walsh_order=4, pn_length=15)
        with pytest.raises(ValueError, match="linear"):
            measure_variances(Scenario(name="tube", config=cfg, hpa_mode="saleh"))


class TestVarianceEstimates:
    def test_single_user_clean_channel_zero(self):
        cfg = LinkConfig(users=1, substreams=2, carriers=2, walsh_order=4,
                         pn_length=15, oversampling=4)
        var = estimate_interference_variances(
            _linear_runtime(cfg), REF_CHANNEL, 0.0, rng=np.random.default_rng(0), n_symbols=200)
        assert var.desired_power == pytest.approx(2.0, rel=1e-10)
        for name in ("multipath", "inter_substream", "inter_carrier",
                     "multi_user", "noise"):
            assert getattr(var, name) <= 1e-18

    def test_awgn_variance_matches_analytic(self):
        # complex correlator noise variance: N0 per output, time counted in
        # symbol periods
        cfg = LinkConfig(users=1, substreams=1, carriers=1, walsh_order=1,
                         pn_length=31, oversampling=4)
        runtime = _linear_runtime(cfg, noise_enabled=True)
        eb, ebn0_db = 2.0, 5.0
        assert runtime.eb == eb
        var = estimate_interference_variances(
            runtime, REF_CHANNEL, ebn0_db, rng=np.random.default_rng(123), n_symbols=20_000)
        n0 = eb / 10 ** (ebn0_db / 10)
        expected = n0
        assert var.noise == pytest.approx(expected, rel=0.05)

    def test_mui_grows_with_users(self):
        def mui(users, seed):
            cfg = LinkConfig(users=users, substreams=2, carriers=2,
                             walsh_order=4, pn_length=63, oversampling=4)
            rng = np.random.default_rng(seed)
            channel = drawn_channel(rng, users, 1, 0.0, True)
            var = estimate_interference_variances(_linear_runtime(cfg), channel, 0.0,
                                                  rng=rng, n_symbols=400)
            return var.multi_user

        wins = sum(mui(20, s) > mui(10, s) for s in range(10))
        assert wins >= 8

    def test_total_is_sum(self):
        runtime, channel, *_ = _source_setup(users=2, paths=2, fading=True,
                                             noise_enabled=True, seed=9)
        var = estimate_interference_variances(runtime, channel, 6.0,
                                              rng=np.random.default_rng(2), n_symbols=300)
        parts = (var.multipath + var.inter_substream + var.inter_carrier
                 + var.multi_user + var.noise)
        assert var.noise > 0.0
        assert var.total == pytest.approx(parts, rel=1e-12)

    @pytest.mark.parametrize("ebn0_db", [np.nan, np.inf])
    def test_nonfinite_ebn0_needs_noise_off(self, ebn0_db):
        cfg = LinkConfig(users=2, substreams=2, carriers=2, walsh_order=4, pn_length=15)
        with pytest.raises(ValueError, match="ebn0_db must be finite"):
            measure_variances(Scenario(name="noisy", config=cfg), ebn0_db, n_symbols=16)
        var = measure_variances(Scenario(name="quiet", config=cfg, noise_enabled=False),
                                ebn0_db, n_symbols=16)
        assert var.noise == 0.0

    @pytest.mark.parametrize("ebn0_db", [4000.0, -4000.0])
    def test_ebn0_beyond_float_range_rejected(self, ebn0_db):
        # 10^(ebn0_db/10) overflows at 4000 dB and underflows to 0 at -4000 dB
        cfg = LinkConfig(users=2, substreams=2, carriers=2, walsh_order=4, pn_length=15)
        with pytest.raises(ValueError, match="give a positive noise density"):
            measure_variances(Scenario(name="noisy", config=cfg), ebn0_db, n_symbols=16)

    def test_too_few_symbols_rejected(self):
        runtime, channel, *_ = _source_setup()
        with pytest.raises(ValueError):
            estimate_interference_variances(runtime, channel, 6.0,
                                            rng=np.random.default_rng(0), n_symbols=1)

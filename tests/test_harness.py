"""Monte Carlo harness, CSV emission, presets, config files, CLI."""

import dataclasses
import math
import timeit
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmccdma.analysis import (CSV_HEADER, BerRecord, binomial_ci95, emit_csv, parse_csv,
                               theoretical_curve)
from mcmccdma.channel import draw_channel, propagate_samples
from mcmccdma.cli import main
from mcmccdma import harness
from mcmccdma.config import (HPA_MODES, ConfigError, Scenario, leaf_fields, load_config, preset,
                             scenario_echo, scenario_from_keys)
from mcmccdma.harness import measure_variances, run_scenario
from mcmccdma.hpa import SalehParams, amplify_samples, apply_predistorter, limiter_factor
from mcmccdma.receiver import SOURCE_NAMES, InterferenceVariances, correlate_slots
from mcmccdma.txchain import (LinkConfig, modulate_user, slot_signatures, subcarrier_exponentials,
                              walsh_chip_bounds)

TINY = Scenario(
    name="tiny",
    config=LinkConfig(users=1, substreams=1, carriers=1, walsh_order=1,
                      pn_length=7, oversampling=4),
    ebn0_grid=(0.0,), min_errors=100, symbols_per_block=16, master_seed=99)


@pytest.fixture
def pool_forks(monkeypatch):
    """The start method of every pool that run_scenario forks, in order."""
    forks = []
    get_context = harness.get_context

    def spy(method):
        forks.append(method)
        return get_context(method)

    monkeypatch.setattr(harness, "get_context", spy)
    return forks


@pytest.fixture
def forced_fork(monkeypatch, pool_forks):
    """A zero serial budget, so that a run with workers > 1 forks its pool
    before the first block; yields pool_forks."""
    monkeypatch.setattr(harness, "_SERIAL_BUDGET_S", 0.0)
    return pool_forks


class TestScenarioValidation:
    def test_comma_in_name_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY, name="a,b")

    def test_bad_hpa_mode(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY, hpa_mode="clipper")

    def test_small_min_errors_needs_override(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY, min_errors=10)
        ok = dataclasses.replace(TINY, min_errors=10, allow_small_min_errors=True)
        assert ok.min_errors == 10

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY, ebn0_grid=())

    def test_too_many_paths(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY, paths=8)   # 8 chips delay = full symbol

    @pytest.mark.parametrize("field, value", [
        ("decay_db", float("nan")),
        ("ibo_db", float("inf")),
        ("ebn0_grid", (0.0, float("nan"))),
        ("ebn0_grid", (float("-inf"),)),
    ])
    def test_nonfinite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(TINY, **{field: value})

    @pytest.mark.parametrize("hpa_mode, field, value", [
        ("bypass", "ebn0_grid", (4000.0,)),
        ("bypass", "ebn0_grid", (0.0, -4000.0)),
        ("saleh", "ibo_db", 4000.0),
        ("saleh", "ibo_db", -4000.0),
        ("saleh_pd", "ibo_db", 4000.0),
        ("saleh_pd", "ibo_db", -4000.0),
    ])
    def test_db_value_beyond_bound_rejected(self, hpa_mode, field, value):
        # 10^(x/10) overflows at 4000 dB and underflows to 0 at -4000 dB
        with pytest.raises(ValueError, match=rf"{field} must lie within \+-300 dB"):
            dataclasses.replace(TINY, hpa_mode=hpa_mode, **{field: value})

    @pytest.mark.parametrize("hpa_mode", HPA_MODES)
    def test_db_values_at_bound_run(self, hpa_mode):
        for ibo_db in (-300.0, 300.0):
            scenario = dataclasses.replace(TINY, hpa_mode=hpa_mode, ibo_db=ibo_db,
                                           ebn0_grid=(-300.0, 300.0), blocks_per_wave=4,
                                           max_bits=64)
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                report = run_scenario(scenario)
            assert [r.bits for r in report.records] == [64, 64]

    @pytest.mark.parametrize("pn_length", [8, 6, 8191])
    def test_pn_length_needs_known_msequence(self, pn_length):
        # 8191 = 2**13 - 1 has no built-in feedback taps
        with pytest.raises(ValueError, match="pn_length must be an m-sequence length"):
            dataclasses.replace(TINY, config=LinkConfig(pn_length=pn_length))

    def test_more_users_than_pn_shifts(self):
        with pytest.raises(ValueError, match="distinct shifts"):
            dataclasses.replace(TINY, config=LinkConfig(users=8, pn_length=7))

    def test_paths_alias_user_shift_spacing(self):
        # 3 users on 7 chips are 2 chips apart, so 3 paths reach the next user
        cfg = LinkConfig(users=3, substreams=2, carriers=2, walsh_order=4, pn_length=7)
        assert dataclasses.replace(TINY, config=cfg, paths=2).paths == 2
        with pytest.raises(ValueError, match="PN shift spacing"):
            dataclasses.replace(TINY, config=cfg, paths=3)

    @pytest.mark.parametrize("field, value, message", [
        ("max_bits", 0, "max_bits must be >= 1"),
        ("max_bits", -64, "max_bits must be >= 1"),
        ("min_bits", -1, "min_bits must be nonnegative"),
        ("min_blocks", -1, "min_blocks must be nonnegative"),
    ])
    def test_unusable_stopping_budget_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(TINY, **{field: value})

    def test_min_bits_may_exceed_the_max_bits_cap(self):
        sc = dataclasses.replace(TINY, min_bits=131_072, max_bits=4096)
        assert (sc.min_bits, sc.max_bits) == (131_072, 4096)

    @pytest.mark.parametrize("field", [
        "paths", "min_errors", "min_bits", "min_blocks", "max_bits",
        "symbols_per_block", "blocks_per_wave", "master_seed",
    ])
    @pytest.mark.parametrize("as_type", [float, bool])
    def test_non_integer_count_rejected(self, field, as_type):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            dataclasses.replace(TINY, **{field: as_type(getattr(TINY, field))})


class TestRunScenario:
    def test_deterministic(self):
        a = run_scenario(TINY)
        b = run_scenario(TINY)
        assert a.records == b.records

    def test_seed_changes_outcome(self):
        a = run_scenario(TINY)
        b = run_scenario(dataclasses.replace(TINY, master_seed=100))
        assert a.records != b.records

    def test_worker_invariance(self, forced_fork):
        seq = run_scenario(TINY, workers=1)
        assert forced_fork == []
        par = run_scenario(TINY, workers=4)
        assert forced_fork == ["fork"]
        assert seq.records == par.records

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5, 2.0])
    def test_bad_workers_rejected_before_any_work(self, workers, monkeypatch):
        def forbidden(*args):
            raise AssertionError("work started before the worker count was checked")

        monkeypatch.setattr(harness, "_prepare", forbidden)
        monkeypatch.setattr(harness, "get_context", forbidden)
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            run_scenario(TINY, workers=workers)

    def test_record_contents(self):
        rep = run_scenario(TINY)
        assert len(rep.records) == 1
        r = rep.records[0]
        assert r.scenario == "tiny"
        assert r.source == "monte-carlo"
        assert r.seed == 99
        assert r.ibo_db is None            # linear chain has no back-off
        assert r.errors >= TINY.min_errors
        assert not r.censored
        # 0 dB BPSK: expect about 7.9% error rate
        assert 0.05 < r.ber < 0.11

    def test_zero_noise_zero_errors(self):
        sc = dataclasses.replace(
            TINY, noise_enabled=False, min_errors=1, max_bits=500,
            allow_small_min_errors=True)
        rep = run_scenario(sc)
        assert rep.records[0].errors == 0
        assert rep.records[0].ber == 0.0
        assert rep.records[0].censored

    def test_censored_when_bits_exhausted(self):
        sc = dataclasses.replace(TINY, ebn0_grid=(9.0,), max_bits=2000)
        rep = run_scenario(sc)
        r = rep.records[0]
        assert r.censored
        assert r.errors < sc.min_errors

    def test_point_runtimes_recorded(self):
        rep = run_scenario(TINY)
        assert len(rep.point_seconds) == 1
        assert rep.point_seconds[0] > 0

    def test_multipoint_grid(self):
        sc = dataclasses.replace(TINY, ebn0_grid=(0.0, 4.0))
        rep = run_scenario(sc)
        assert [r.ebn0_db for r in rep.records] == [0.0, 4.0]
        assert rep.records[0].ber > rep.records[1].ber


def _preset_scenario(family, name):
    return next(s for s in preset(family) if s.name == name)


# A non-aligned Walsh grid (4 does not divide 21 samples) with two paths.
_TINY_UNALIGNED = dataclasses.replace(
    TINY, name="tiny-unaligned", paths=2, decay_db=2.0, fading=True,
    config=LinkConfig(users=3, substreams=2, carriers=3, walsh_order=4,
                      pn_length=7, oversampling=3))


def _sample_chain(runtime, symbols, gains, reference_phase, amplify=None):
    """User 1's correlator outputs from the sampled waveform: every user's
    symbols modulated, amplified when amplify is given, sent through its
    complex path gains (gains[k], zero where a path is dropped), summed and
    correlated against user 1's signatures, noise off."""
    cfg = runtime.scenario.config
    received = np.zeros(symbols.shape[1] * cfg.samples_per_symbol
                        + (runtime.scenario.paths - 1) * cfg.oversampling, dtype=np.complex128)
    for k in range(cfg.users):
        tx = modulate_user(symbols[k], runtime.walsh, runtime.pn_chips[k], cfg)
        propagate_samples(tx if amplify is None else amplify(tx), gains[k], cfg.oversampling,
                          out=received)
    own = slot_signatures(runtime.walsh, runtime.pn_chips[0], cfg)
    return correlate_slots(received, own, cfg, reference_phase=reference_phase)


def _recorded_block(scenario):
    """The runtime, channel, symbols and noiseless correlator outputs of
    block 3 at the first point of the scenario's engine."""
    runtime = harness._prepare(scenario)
    _, channel, symbols = harness._block_draws(runtime, 0, 3)
    return runtime, channel, symbols, harness._correlation_outputs(runtime, channel, symbols)


class TestCorrelationEngine:
    @pytest.mark.parametrize("scenario", [
        _preset_scenario("user-sweep", "users-50"),
        _preset_scenario("system-comparison", "multicode-only"),     # 8 paths
        _preset_scenario("carrier-sweep", "carriers-2"),             # 3 paths, 2 carriers
        _preset_scenario("system-comparison", "multicarrier-only"),  # walsh_order 1
        _TINY_UNALIGNED,
    ], ids=lambda sc: sc.name)
    def test_noiseless_outputs_match_sample_chain(self, scenario):
        runtime, channel, symbols, z = _recorded_block(scenario)
        reference = _sample_chain(runtime, symbols, harness._path_gains(channel),
                                  channel.phases[0, 0])
        assert z.shape == reference.shape
        assert np.abs(z - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("scenario", [
        _TINY_UNALIGNED,
        _preset_scenario("carrier-sweep", "carriers-2"),
        _preset_scenario("system-comparison", "multicode-only"),
    ], ids=lambda sc: sc.name)
    def test_sources_match_sample_chain(self, scenario):
        runtime, channel, symbols, z = _recorded_block(scenario)
        sources = harness._source_outputs(runtime, channel, symbols)
        # Each source through the sample chain, on its own symbols and path
        # gains, zero where the source drops a path or a user.
        gains = harness._path_gains(channel)
        wanted, substreams, carriers = (np.zeros_like(symbols) for _ in range(3))
        wanted[0, :, 0, 0] = symbols[0, :, 0, 0]
        substreams[0, :, 1:, 0] = symbols[0, :, 1:, 0]
        carriers[0, :, :, 1:] = symbols[0, :, :, 1:]
        others = symbols.copy()
        others[0] = 0
        user1, first, later, other_users = (np.zeros_like(gains) for _ in range(4))
        user1[0] = gains[0]
        first[0, 0] = gains[0, 0]
        later[0, 1:] = gains[0, 1:]
        other_users[1:] = gains[1:]
        oracle = {
            "desired": (wanted, first),
            "multipath": (wanted, later),
            "inter_substream": (substreams, user1),
            "inter_carrier": (carriers, user1),
            "multi_user": (others, other_users),
        }
        for name, (masked, kept) in oracle.items():
            reference = _sample_chain(runtime, masked, kept, channel.phases[0, 0])[:, 0, 0]
            assert sources[name].shape == reference.shape
            assert np.abs(sources[name] - reference).max() <= 1e-12 * np.abs(reference).max(), name
        # the split draws no noise, and the five sum to the BER engine's
        # noiseless slot (1, 1) output
        assert tuple(sources) == SOURCE_NAMES[:-1]
        total = sum(sources.values())
        assert np.abs(total - z[:, 0, 0]).max() <= 1e-12 * np.abs(z[:, 0, 0]).max()

    @pytest.mark.parametrize("config", [
        LinkConfig(users=2, substreams=4, carriers=2, walsh_order=4, pn_length=7),
        _TINY_UNALIGNED.config,
    ], ids=["aligned", "unaligned"])
    def test_noise_factor_reproduces_signature_gram(self, config):
        runtime = harness._prepare(dataclasses.replace(TINY, config=config))
        own = slot_signatures(runtime.walsh, runtime.pn_chips[0], config)
        own = own.reshape(-1, config.samples_per_symbol)
        gram = own.conj() @ own.T / config.samples_per_symbol
        factor = runtime.noise_factor
        assert np.array_equal(factor, np.tril(factor))
        assert np.abs(factor @ factor.conj().T - gram).max() <= 1e-12
        assert np.allclose(gram, np.eye(len(gram)), atol=1e-12) == config.walsh_aligned

    def test_every_mode_has_tables_and_noise_factor(self):
        linear = harness._prepare(_TINY_UNALIGNED)
        for hpa_mode in HPA_MODES:
            runtime = harness._prepare(dataclasses.replace(_TINY_UNALIGNED, hpa_mode=hpa_mode))
            assert np.array_equal(runtime.correlation, linear.correlation)
            assert np.array_equal(runtime.noise_factor, linear.noise_factor)
            assert (runtime.amplified is None) == (hpa_mode == "bypass")
            # only the limiter builds the cell grid, and it forms no tile
            assert (runtime.cells is None) == (hpa_mode != "saleh_pd")
            assert (runtime.carriers is None) == (hpa_mode != "saleh")
        assert linear.linear_gain == 1.0
        assert harness._prepare(dataclasses.replace(TINY, hpa_mode="saleh")).linear_gain == 0.0


def _reference_amplifier(runtime):
    """The amplifier of a runtime's scenario as the sample kernels apply it:
    the tube at its input scale, or the predistorter then the tube."""
    scenario = runtime.scenario

    def amplify(samples):
        if scenario.hpa_mode == "saleh":
            return amplify_samples(runtime.input_scale * samples, scenario.saleh)
        return amplify_samples(apply_predistorter(runtime.linear_gain * samples, scenario.saleh),
                               scenario.saleh)

    return amplify


def _reference_calibration(runtime):
    """(Eb, phase offset) from user 1's whole calibration frame through the
    reference amplifier."""
    scenario = runtime.scenario
    cfg = scenario.config
    rng = np.random.default_rng(np.random.SeedSequence([scenario.master_seed, 1]))
    symbols = harness._draw_symbols(rng, (harness._CALIBRATION_SYMBOLS, cfg.substreams,
                                          cfg.carriers))
    linear = modulate_user(symbols, runtime.walsh, runtime.pn_chips[0], cfg)
    tx = _reference_amplifier(runtime)(linear)
    eb = np.mean(np.abs(tx) ** 2) * cfg.symbol_duration / cfg.bits_per_symbol
    return eb, np.angle(np.vdot(linear, tx) / np.vdot(linear, linear))


# 508 samples per symbol: one full 256-sample tile and one short one.
_AMPLIFIER_BASE = dataclasses.replace(
    TINY, config=LinkConfig(users=3, substreams=2, carriers=2, walsh_order=4, pn_length=127))

# Bounds on the share of a predistorted block's transmitted samples above
# the limiter's A_sat, per case below.  Four slots peak 6 dB over their mean
# power, so "linearized" clips none at 7 dB.
_CLIPPED_SHARE = {"linearized": (0.0, 0.0), "unaligned-linearized": (0.1, 0.5),
                  "unclipped-linearized": (0.0, 0.0), "clipped-linearized": (0.5, 1.0),
                  "short-chips-linearized": (0.05, 0.5)}

_UNALIGNED_LINEARIZED = dataclasses.replace(_TINY_UNALIGNED, name="unaligned-linearized",
                                            hpa_mode="saleh_pd", ibo_db=1.0)
_CLIPPED_LINEARIZED = dataclasses.replace(_AMPLIFIER_BASE, name="clipped-linearized",
                                          hpa_mode="saleh_pd", paths=2, ibo_db=-4.0)

# Walsh chips 1-2 samples long (16 chips over 21 samples).
_SHORT_CHIPS = LinkConfig(users=3, substreams=5, carriers=1, walsh_order=16, pn_length=7,
                          oversampling=3)


class TestAmplifierEngine:
    @pytest.mark.parametrize("scenario, slab", [
        (dataclasses.replace(_AMPLIFIER_BASE, name="ibo-7db", hpa_mode="saleh", ibo_db=7.0), 256),
        (dataclasses.replace(_AMPLIFIER_BASE, name="ibo-9db", hpa_mode="saleh", ibo_db=9.0), 256),
        (dataclasses.replace(_AMPLIFIER_BASE, name="linearized", hpa_mode="saleh_pd"), 256),
        # two paths (a warmup symbol and a padded frame) on a non-aligned
        # grid, in 8-sample tiles that do not divide the 21-sample symbol
        (dataclasses.replace(_TINY_UNALIGNED, name="unaligned-saleh", hpa_mode="saleh",
                             ibo_db=3.0), 8),
        (_UNALIGNED_LINEARIZED, 8),
        # the limiter's two extremes: no sample clipped, most clipped
        (dataclasses.replace(_TINY_UNALIGNED, name="unclipped-linearized",
                             hpa_mode="saleh_pd", ibo_db=30.0), 8),
        (_CLIPPED_LINEARIZED, 256),
        # Walsh chips 1-2 samples long, so most segments of an 8-sample tile
        # are a single sample
        (dataclasses.replace(_TINY_UNALIGNED, name="short-chips-saleh", hpa_mode="saleh",
                             ibo_db=3.0, config=_SHORT_CHIPS), 8),
        # path delays of 3 and 6 samples, beyond a Walsh chip, so the delayed
        # span of a clipped cell falls into later chips and the next window
        (dataclasses.replace(_TINY_UNALIGNED, name="short-chips-linearized",
                             hpa_mode="saleh_pd", paths=3, ibo_db=3.0,
                             config=dataclasses.replace(_SHORT_CHIPS, users=2)), 8),
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_noiseless_outputs_match_per_user_chain(self, scenario, slab, monkeypatch):
        monkeypatch.setattr(harness, "_SLAB_SAMPLES", slab)
        runtime, channel, symbols, z = _recorded_block(scenario)
        if scenario.hpa_mode == "saleh_pd":
            linear = np.concatenate([
                modulate_user(d, runtime.walsh, pn, scenario.config)
                for d, pn in zip(symbols, runtime.pn_chips)])
            share = np.mean(np.abs(runtime.linear_gain * linear) > scenario.saleh.saturation_output)
            low, high = _CLIPPED_SHARE[scenario.name]
            assert low <= share <= high
        eb, phase_offset = _reference_calibration(runtime)
        assert abs(runtime.eb - eb) <= 1e-12 * eb
        assert abs(runtime.phase_offset - phase_offset) <= 1e-12
        reference = _sample_chain(runtime, symbols, harness._path_gains(channel),
                                  channel.phases[0, 0] + phase_offset,
                                  amplify=_reference_amplifier(runtime))
        assert z.shape == reference.shape
        assert np.abs(z - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("scenario", [
        dataclasses.replace(_AMPLIFIER_BASE, name="ibo-7db", hpa_mode="saleh", ibo_db=7.0),
        dataclasses.replace(_TINY_UNALIGNED, name="unaligned-saleh", hpa_mode="saleh",
                            ibo_db=3.0),
    ], ids=lambda sc: sc.name)
    def test_tube_block_skips_linear_product(self, scenario, monkeypatch):
        """A tube block has g = 0, so it forms no T: the tables' product is
        never called, and its outputs still match the sample chain."""
        calls = []
        correlate_tables = harness.correlate_tables

        def counted(*args):
            calls.append(args)
            return correlate_tables(*args)

        monkeypatch.setattr(harness, "correlate_tables", counted)
        runtime, channel, symbols, z = _recorded_block(scenario)
        assert runtime.linear_gain == 0.0 and calls == []
        reference = _sample_chain(runtime, symbols, harness._path_gains(channel),
                                  channel.phases[0, 0] + runtime.phase_offset,
                                  amplify=_reference_amplifier(runtime))
        assert np.abs(z - reference).max() <= 1e-12 * np.abs(reference).max()
        # the bypass block of the same draws does call it
        linear = harness._prepare(dataclasses.replace(scenario, hpa_mode="bypass"))
        harness._correlation_outputs(linear, channel, symbols)
        assert len(calls) == 1

    @pytest.mark.parametrize("hpa_mode, ibo_db, frames", [
        pytest.param("saleh", 7.0, 4, id="saleh"),
        pytest.param("saleh_pd", 7.0, 1, id="saleh_pd"),
        pytest.param("saleh_pd", -4.0, 4, id="saleh_pd-clipping"),
    ])
    def test_block_allocates_tiles_not_user_waveforms(self, hpa_mode, ibo_db, frames):
        """Peak traced allocation of one amplifier block against the bytes of
        its received frame.  Here a tile is a quarter of the frame.  The
        tube's block peaks at 2.65 frames; amplifying one user's whole
        waveform at a time took six to seven.  The predistorted tube forms
        no tile and no frame, only cells: at 7 dB its envelope bound rules
        out every row, and the block peaks at 0.022 frames.  At -4 dB most
        samples clip, and the block peaks at 1.67 frames, the working
        arrays of one _CELL_CHUNK of 1024 cells, of which the calibration
        has made some in runtime.work already (3.3 frames when the clipped
        excess was added into a dense frame tile by tile; 6.1 with chunks
        of 2048 cells)."""
        scenario = dataclasses.replace(
            TINY, name="guard", hpa_mode=hpa_mode, ibo_db=ibo_db, symbols_per_block=8,
            config=LinkConfig(users=4, substreams=2, carriers=2, walsh_order=2, pn_length=1023))
        runtime = harness._prepare(scenario)
        frame_bytes = scenario.symbols_per_block * scenario.config.samples_per_symbol * 16
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            harness._simulate_block(runtime, 0, 0, 8.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= frames * frame_bytes

    def test_unclippable_block_forms_no_tile(self, monkeypatch):
        """At 30 dB the envelope bound rules out every (Walsh chip, symbol
        row) pair, so neither the calibration nor a predistorted block forms
        a sample: no tile, and no cell for the limiter."""
        calls = []

        def counted(name, function):
            def wrapper(*args):
                calls.append(name)
                return function(*args)
            return wrapper

        monkeypatch.setattr(harness, "limiter_factor", counted("cell", harness.limiter_factor))
        monkeypatch.setattr(harness, "_waveform_tiles", counted("tile", harness._waveform_tiles))
        runtime = harness._prepare(dataclasses.replace(_AMPLIFIER_BASE, name="unclipped",
                                                       hpa_mode="saleh_pd", ibo_db=30.0))
        assert calls == []
        assert harness._excess_correlations(runtime, harness._draw_symbols(
            np.random.default_rng(0), (3, 16, 2, 2)), np.ones((3, 1))) is None
        harness._simulate_block(runtime, 0, 0, 8.0)
        assert calls == []

    @pytest.mark.parametrize("hpa_mode", HPA_MODES)
    def test_block_draws_noise_per_correlator_output(self, hpa_mode, monkeypatch):
        """Every mode's noise is one correlator_noise draw through the
        runtime's Gram factor, from the generator where the block's draws
        leave it, added to the noiseless outputs before the decisions; the
        producer draws none, a block with the noise off neither, and the
        block draws no other noise from its generator."""
        scenario = dataclasses.replace(_TINY_UNALIGNED, name="noisy", hpa_mode=hpa_mode,
                                       ibo_db=1.0)
        draws, decided = [], []
        correlator_noise = harness.correlator_noise
        decide_slots = harness.decide_slots

        def recorded(ebn0_db, eb, window_rate, factor, n_windows, rng):
            draws.append((factor, n_windows, eb, ebn0_db, rng))
            draws.append(correlator_noise(ebn0_db, eb, window_rate, factor, n_windows, rng))
            return draws[-1]

        monkeypatch.setattr(harness, "correlator_noise", recorded)
        monkeypatch.setattr(harness, "decide_slots",
                            lambda z, reference: decided.append(z) or decide_slots(z, reference))
        runtime, channel, symbols, z = _recorded_block(scenario)
        quiet = harness._prepare(dataclasses.replace(scenario, noise_enabled=False))
        harness._simulate_block(quiet, 0, 3, 8.0)
        assert draws == []          # noise off, nothing drawn
        warmup = runtime.warmup
        assert np.array_equal(decided[0], z[warmup:])
        harness._simulate_block(runtime, 0, 3, 8.0)
        (factor, n_windows, eb, ebn0_db, rng), noise = draws
        assert factor is runtime.noise_factor and eb == runtime.eb and ebn0_db == 8.0
        assert n_windows == symbols.shape[1]
        # the generator is left where that one draw leaves the block's draws
        alone, _, _ = harness._block_draws(runtime, 0, 3)
        correlator_noise(ebn0_db, eb, 1.0, factor, n_windows, alone)
        assert rng.bit_generator.state == alone.bit_generator.state
        difference = (decided[1] - z[warmup:]).reshape(n_windows - warmup, -1)
        assert np.abs(difference - noise[warmup:]).max() <= 1e-12 * np.abs(z).max()

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("scenario", [_CLIPPED_LINEARIZED, _UNALIGNED_LINEARIZED],
                             ids=lambda sc: sc.name)
    def test_cell_chunks_do_not_change_the_block(self, scenario, chunk, monkeypatch):
        """Kept cells formed and correlated 1 or 3 at a time give the block
        and the calibration of the default chunk, across every seam."""
        runtime, channel, symbols, z = _recorded_block(scenario)
        monkeypatch.setattr(harness, "_CELL_CHUNK", chunk)
        rechunked = harness._correlation_outputs(runtime, channel, symbols)
        assert np.abs(rechunked - z).max() <= 1e-12 * np.abs(z).max()
        eb, phase_offset = harness._calibrate(runtime)
        assert abs(eb - runtime.eb) <= 1e-12 * eb
        assert abs(phase_offset - runtime.phase_offset) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_limiter_block_rejects_nonfinite_tiles(self, bad):
        # at 1 dB some rows can clip in the poisoned cell's Walsh chip; the
        # cell's bound, which a NaN or inf cannot rule out, and its anchor
        # exponential, which enters every sample formed in it, are poisoned
        runtime = harness._prepare(dataclasses.replace(_AMPLIFIER_BASE, name="bad",
                                                       hpa_mode="saleh_pd", ibo_db=1.0))
        cell = np.searchsorted(runtime.cells.starts, 300, side="right") - 1
        runtime.cells.cos_terms[0, cell] = bad
        runtime.cells.centres[cell, 1] = bad
        with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
            harness._simulate_block(runtime, 0, 0, 8.0)


# Grids for the clip search: aligned, non-aligned, one Walsh chip per
# symbol, one carrier, and Walsh chips 1-2 samples long.
_BOUND_CONFIGS = {
    "aligned": _AMPLIFIER_BASE.config,
    "unaligned": _TINY_UNALIGNED.config,
    "walsh-order-1": LinkConfig(users=3, substreams=1, carriers=4, walsh_order=1, pn_length=7,
                                oversampling=3),
    "carriers-1": LinkConfig(users=3, substreams=4, carriers=1, walsh_order=4, pn_length=7,
                             oversampling=3),
    "short-chips": LinkConfig(users=3, substreams=5, carriers=1, walsh_order=16, pn_length=7,
                              oversampling=3),
}


def _floor_chips(cfg):
    """Each sample's Walsh chip on the floor grid, computed per sample."""
    return (np.arange(cfg.samples_per_symbol) * cfg.walsh_order) // cfg.samples_per_symbol


def _clip_power(runtime):
    """The linear waveform's power above which the predistorted tube clips:
    where linear_gain^2 |x|^2 exceeds the tube's peak output power."""
    return runtime.scenario.saleh.saturation_output_power / runtime.linear_gain**2


def _full_clip_search(runtime, symbols):
    """The limiter's clip search over every sample: each symbol row's
    PN-free linear waveform, sum_m b[c, n, m] E_m(i) during Walsh chip c as
    the tube's tiles form it, shape (rows, samples_per_symbol), the indices
    row * samples_per_symbol + position of its clipped samples in ascending
    order, and the excess at each."""
    cfg = runtime.scenario.config
    b = harness._carrier_coefficients(runtime, symbols)
    linear = np.einsum("inm,mi->ni", b[_floor_chips(cfg)], subcarrier_exponentials(cfg))
    power = np.square(linear.real) + np.square(linear.imag)
    index = np.flatnonzero(power > _clip_power(runtime))
    driven = runtime.linear_gain * linear.reshape(-1)[index]
    return linear, index, driven * limiter_factor(driven, runtime.scenario.saleh)


def _check_cell_search(runtime, symbols):
    """Hold the limiter's cell search (_clipped_cells, _formed_cells) to the
    search over every sample (_full_clip_search): it forms each sample of a
    kept cell as the full waveform has it (times linear_gain), to 1e-12, and
    no sample twice; the samples it forms include every clipped sample, so
    on the full waveform's values it clips exactly the samples the full
    search does; user 1's chips on every path (span_chips), which weigh what
    the limiter takes off, are zero outside its cells; and that excess is
    within 1e-12 A_sat of the full search's at every sample (zero where that
    clips nothing)."""
    cfg = runtime.scenario.config
    grid = runtime.cells
    linear, index, excess = _full_clip_search(runtime, symbols)
    offsets = np.arange(harness._CELL_SAMPLES)
    cell_excess = np.zeros(linear.size, dtype=np.complex128)
    formed = [np.zeros(0, dtype=np.int64)]
    b = harness._driven_coefficients(runtime, symbols)
    for chip, rows, cells in harness._clipped_cells(runtime, b):
        driven = harness._formed_cells(runtime, b[chip], rows, cells)
        inside = offsets < grid.lengths[cells, None]
        assert np.array_equal(grid.span_chips[:, cells] != 0,
                              np.broadcast_to(inside, grid.span_chips[:, cells].shape))
        at = rows[:, None] * cfg.samples_per_symbol + grid.starts[cells, None] + offsets
        assert np.abs(driven[inside] / runtime.linear_gain - linear.reshape(-1)[at[inside]]).max() <= (
            1e-12 * np.abs(linear).max())
        chunk_excess = driven * limiter_factor(driven, runtime.scenario.saleh)
        cell_excess[at[inside]] = chunk_excess[inside]
        formed.append(at[inside])
    formed = np.concatenate(formed)
    assert np.unique(formed).size == formed.size
    assert np.array_equal(np.intersect1d(formed, index), index)
    full_excess = np.zeros(linear.size, dtype=np.complex128)
    full_excess[index] = excess
    saturation = runtime.scenario.saleh.saturation_output
    assert np.abs(cell_excess - full_excess).max() <= 1e-12 * saturation


def _check_cell_geometry(runtime):
    """The Walsh chip bounds are where the floor grid's chips step, and at 1-3
    paths the limiter's cells tile the symbol, every cell's span delayed by
    any path lies in one (Walsh chip, window) bin, which bin_chips and
    bin_windows hold, and the per-cell chip tables hold each user's chips at
    the cell's positions (user_chips) and user 1's at its delayed span, zero
    past the cell's length (span_chips)."""
    cfg = runtime.scenario.config
    n_samp = cfg.samples_per_symbol
    chips = _floor_chips(cfg)
    assert np.array_equal(walsh_chip_bounds(cfg),
                          np.searchsorted(chips, np.arange(cfg.walsh_order + 1)))
    pn_samples = np.repeat(runtime.pn_chips, cfg.oversampling, axis=1)
    offsets = np.arange(harness._CELL_SAMPLES)
    for paths in (1, 2, 3):
        grid = harness._cell_grid(cfg, runtime.pn_chips, paths)
        assert np.array_equal(np.cumsum(grid.lengths)[:-1], grid.starts[1:])
        assert grid.starts[-1] + grid.lengths[-1] == cfg.samples_per_symbol
        positions = grid.starts[:, None] + offsets
        assert np.array_equal(grid.user_chips, pn_samples[:, positions % n_samp])
        inside = offsets < grid.lengths[:, None]
        for path, delay in enumerate(cfg.oversampling * np.arange(paths)):
            first, last = grid.starts + delay, grid.starts + grid.lengths - 1 + delay
            assert np.array_equal(first // n_samp, last // n_samp)
            assert np.array_equal(chips[first % n_samp], chips[last % n_samp])
            assert np.array_equal(grid.bin_windows[path], first // n_samp)
            assert np.array_equal(grid.bin_chips[path], chips[first % n_samp])
            assert np.array_equal(grid.span_chips[path],
                                  pn_samples[0, (positions + delay) % n_samp] * inside)
        if paths == runtime.scenario.paths:
            assert np.array_equal(grid.starts, runtime.cells.starts)


@pytest.mark.parametrize("name", sorted(_BOUND_CONFIGS))
@given(seed=st.integers(0, 2**32 - 1), ibo_db=st.sampled_from([-4.0, 1.0, 4.0, 7.0]))
@settings(max_examples=20, deadline=None)
def test_clip_search_skips_only_rows_that_cannot_clip(name, seed, ibo_db):
    """The envelope bound of a (Walsh chip, symbol row) pair holds at every
    sample of the row's full waveform, and no pair under the clip power
    holds a clipped sample.  The bound of each cell (_cell_power_bound)
    holds at every sample of the cell, and the cell search clips what the
    search over every sample clips (_check_cell_search).  Both bounds are
    read off the rows' autocorrelations (_autocorrelations).  The grid's
    geometry holds at 1-3 paths (_check_cell_geometry)."""
    cfg = _BOUND_CONFIGS[name]
    runtime = harness._prepare(dataclasses.replace(TINY, name="bound", hpa_mode="saleh_pd",
                                                   ibo_db=ibo_db, config=cfg))
    grid = runtime.cells
    symbols = harness._draw_symbols(np.random.default_rng(seed),
                                    (cfg.users, 5, cfg.substreams, cfg.carriers))
    b = harness._carrier_coefficients(runtime, symbols)
    rho = harness._autocorrelations(b)
    peak = harness._peak_power_bound(rho)
    clip_power = _clip_power(runtime)

    linear, index, excess = _full_clip_search(runtime, symbols)
    power = np.square(linear.real) + np.square(linear.imag)
    chips = _floor_chips(cfg)
    assert (power <= peak[chips].T * (1.0 + 1e-12)).all()
    row, position = np.divmod(index, cfg.samples_per_symbol)
    assert (peak[chips[position], row] >= clip_power).all()

    cell_bound = np.concatenate([
        harness._cell_power_bound(grid, rho[:, chip], peak[chip], lo, hi)
        for chip, (lo, hi) in enumerate(zip(grid.chip_cells[:-1], grid.chip_cells[1:]))], axis=1)
    cell = np.searchsorted(grid.starts, np.arange(cfg.samples_per_symbol), side="right") - 1
    assert (power <= cell_bound[:, cell] * (1.0 + 1e-12)).all()

    _check_cell_search(runtime, symbols)
    _check_cell_geometry(runtime)


def _pq_clip_search(runtime, b):
    """The (Walsh chip, row, cell) triples of the limiter's clip search as
    it bounded each cell from p and p' at the cell's anchor: p =
    sum_m b_m E_m(a) and p' = j sum_m (m+1) b_m E_m(a) as complex products,
    P(phi_0) = |p|^2 and P'(phi_0) = 2 Re(conj(p) p'), on the carrier
    coefficients b (_carrier_coefficients) against the clip power, each
    row's peak bound summed term by term."""
    grid = runtime.cells
    n_car = b.shape[-1]
    threshold = _clip_power(runtime) * (1.0 - 1e-12)
    peak = np.einsum("...m,...m->...", b, b)
    for k in range(1, n_car):
        peak += 2.0 * np.abs(np.einsum("...m,...m->...", b[..., :-k], b[..., k:]))
    centres = grid.centres.T
    kept = []
    for chip, (lo, hi) in enumerate(zip(grid.chip_cells[:-1], grid.chip_cells[1:])):
        rows = np.flatnonzero(~(peak[chip] < threshold))
        p = b[chip, rows] @ centres[:, lo:hi]
        q = (b[chip, rows] * np.arange(1, n_car + 1)) @ centres[:, lo:hi]
        bound = np.square(p.real) + np.square(p.imag)
        bound += 2.0 * grid.half_width * np.abs(p.imag * q.real - p.real * q.imag)
        bound += (0.5 * ((n_car - 1) * grid.half_width) ** 2) * peak[chip, rows, None]
        row, cell = np.nonzero(~(bound < threshold))
        kept.append(np.stack((np.full(row.size, chip), rows[row], cell + lo), axis=1))
    return np.concatenate(kept)


@pytest.mark.parametrize("seed", [7, 11])
def test_clip_search_keeps_the_pairs_of_the_anchor_products(seed):
    """On the first 8 blocks of amplifier-linearized, the search through the
    rows' autocorrelations keeps exactly the (row, cell) pairs, in the same
    order, that bounding each cell from p and p' at its anchor keeps
    (_pq_clip_search)."""
    scenario = dataclasses.replace(_preset_scenario("linearization", "amplifier-linearized"),
                                   master_seed=seed)
    runtime = harness._prepare(scenario)
    for block in range(8):
        _, _, symbols = harness._block_draws(runtime, 0, block)
        kept = [np.stack((np.full(rows.size, chip), rows, cells), axis=1) for chip, rows, cells
                in harness._clipped_cells(runtime, harness._driven_coefficients(runtime, symbols))]
        expected = _pq_clip_search(runtime, harness._carrier_coefficients(runtime, symbols))
        assert expected.shape[0] > 1000
        assert np.array_equal(np.concatenate(kept), expected)


def test_reused_cell_arrays_match_fresh_ones():
    """The limiter's working arrays, kept in runtime.work from block to
    block, give bit for bit the W of a runtime whose arrays are made afresh,
    on two blocks whose kept cells and chunk sizes differ."""
    scenario = dataclasses.replace(_CLIPPED_LINEARIZED, ibo_db=1.0)
    runtime = harness._prepare(scenario)
    cfg = scenario.config
    rng = np.random.default_rng(5)
    gains = harness._path_gains(draw_channel(rng, cfg.users, scenario.paths, scenario.decay_db,
                                             scenario.fading))
    blocks = [harness._draw_symbols(rng, (cfg.users, n, cfg.substreams, cfg.carriers))
              for n in (9, 5)]
    counts = [sum(rows.size for _, rows, _ in harness._clipped_cells(
        runtime, harness._driven_coefficients(runtime, symbols))) for symbols in blocks]
    assert counts[0] != counts[1] and min(counts) > 0
    reused = [harness._excess_correlations(runtime, symbols, gains).copy() for symbols in blocks]
    for symbols, w in zip(blocks, reused):
        fresh = dataclasses.replace(runtime, work={})
        assert np.array_equal(harness._excess_correlations(fresh, symbols, gains), w)


@st.composite
def _small_scenarios(draw):
    """Small valid scenarios in every hpa_mode: pn 7-63, oversampling 2-5
    and Walsh orders 1-8, so that many grids are not aligned, 1-4 carriers,
    1-3 paths, fading on and off, back-off -4 to 12 dB."""
    pn_length = draw(st.sampled_from([7, 15, 31, 63]))
    oversampling = draw(st.integers(2, 5))
    samples = pn_length * oversampling
    walsh_order = draw(st.sampled_from([w for w in (1, 2, 4, 8) if w <= samples]))
    carriers = draw(st.integers(1, min(4, samples // walsh_order)))
    users = draw(st.integers(1, 3))
    paths = draw(st.integers(1, 3 if users == 1 else min(3, pn_length // users)))
    return Scenario(
        name="random", paths=paths, decay_db=draw(st.sampled_from([0.0, 3.0])),
        fading=draw(st.booleans()), hpa_mode=draw(st.sampled_from(HPA_MODES)),
        ibo_db=draw(st.floats(-4.0, 12.0)), symbols_per_block=3,
        master_seed=draw(st.integers(0, 2**32 - 1)),
        config=LinkConfig(users=users, substreams=draw(st.integers(1, walsh_order)),
                          carriers=carriers, walsh_order=walsh_order, pn_length=pn_length,
                          oversampling=oversampling))


@given(scenario=_small_scenarios())
@settings(max_examples=100, deadline=None)
def test_random_block_matches_sample_chain(scenario):
    """One noiseless block of the engine against the sample-level reference
    chain, and an amplifier mode's calibration against the reference
    amplifier on user 1's whole frame, both to 1e-12.  The limiter's cell
    search clips what the search over every sample clips
    (_check_cell_search)."""
    runtime = harness._prepare(scenario)
    _, channel, symbols = harness._block_draws(runtime, 0, 0)
    z = harness._correlation_outputs(runtime, channel, symbols)
    amplify, phase_offset = None, 0.0
    if scenario.hpa_mode != "bypass":
        amplify = _reference_amplifier(runtime)
        eb, phase_offset = _reference_calibration(runtime)
        assert abs(runtime.eb - eb) <= 1e-12 * eb
        assert abs(runtime.phase_offset - phase_offset) <= 1e-12
    reference = _sample_chain(runtime, symbols, harness._path_gains(channel),
                              channel.phases[0, 0] + phase_offset, amplify=amplify)
    assert np.abs(z - reference).max() <= 1e-12 * np.abs(reference).max()
    if scenario.hpa_mode == "saleh_pd":
        _check_cell_search(runtime, symbols)


def _csv_bytes(scenario, workers, path):
    emit_csv(run_scenario(scenario, workers=workers), path)
    return path.read_bytes()


# Two waves of four blocks at one sweep point.
_POOLED = dict(ebn0_grid=(4.0,), blocks_per_wave=4, max_bits=2 * 4 * 16 * 4)


@pytest.mark.parametrize("scenario", [
    dataclasses.replace(
        TINY, name="tiny-saleh", hpa_mode="saleh", ibo_db=5.0,
        config=LinkConfig(users=2, substreams=2, carriers=2, walsh_order=4,
                          pn_length=15, oversampling=4), **_POOLED),
    dataclasses.replace(
        TINY, name="tiny-saleh-pd", hpa_mode="saleh_pd", ibo_db=5.0,
        config=LinkConfig(users=2, substreams=2, carriers=2, walsh_order=4,
                          pn_length=15, oversampling=4), **_POOLED),
    dataclasses.replace(
        TINY, name="tiny-3-path", paths=3, decay_db=3.0, fading=True,
        config=LinkConfig(users=2, substreams=2, carriers=2, walsh_order=4,
                          pn_length=15, oversampling=4), **_POOLED),
], ids=lambda sc: sc.name)
def test_pooled_csv_bytes_match_serial(scenario, tmp_path, forced_fork):
    serial = _csv_bytes(scenario, 1, tmp_path / "serial.csv")
    assert serial == _csv_bytes(scenario, 2, tmp_path / "pooled.csv")
    assert forced_fork == ["fork"]


def test_short_run_never_forks(tmp_path, monkeypatch):
    # one wave of four cheap blocks stays well inside the serial budget
    scenario = dataclasses.replace(TINY, ebn0_grid=(4.0,), blocks_per_wave=4,
                                   max_bits=4 * 16 * TINY.config.bits_per_symbol)
    serial = _csv_bytes(scenario, 1, tmp_path / "serial.csv")

    def forbidden(*args):
        raise AssertionError("a one-wave run forked a pool")

    monkeypatch.setattr(harness, "get_context", forbidden)
    assert _csv_bytes(scenario, 2, tmp_path / "two.csv") == serial


class _InlinePool:
    """A stand-in for a fork pool that runs its tasks in the calling
    process, recording its size and each map's chunk size; a map is its
    own pending result."""

    def __init__(self, sizes, chunks, processes):
        sizes.append(processes)
        self.chunks = chunks

    def map_async(self, function, tasks, chunksize):
        self.chunks.append(chunksize)
        self.results = [function(task) for task in tasks]
        return self

    def get(self):
        return self.results

    def close(self):
        pass

    def join(self):
        pass


def test_pool_is_capped_at_the_wave(tmp_path, monkeypatch):
    """workers above a wave's blocks fork a pool of one process less than
    the wave, and share each wave as that many processes would: a pool of
    3 for two 4-block waves at 64 workers, each taking one block per task.
    The pool here runs in this process, so no process starts."""
    scenario = dataclasses.replace(TINY, ebn0_grid=(4.0,), blocks_per_wave=4,
                                   max_bits=2 * 4 * 16 * TINY.config.bits_per_symbol)
    serial = _csv_bytes(scenario, 1, tmp_path / "serial.csv")
    sizes, chunks = [], []
    context = types.SimpleNamespace(Pool=lambda processes: _InlinePool(sizes, chunks, processes))
    monkeypatch.setattr(harness, "get_context", lambda method: context)
    monkeypatch.setattr(harness, "_SERIAL_BUDGET_S", 0.0)
    assert _csv_bytes(scenario, 64, tmp_path / "capped.csv") == serial
    assert sizes == [3] and chunks == [1, 1]


def test_fork_within_first_wave_keeps_csv_bytes(tmp_path, monkeypatch, pool_forks):
    # two waves of eight blocks, the serial budget 2.5 blocks long: the pool
    # forks after one to three blocks and shares the rest of the first wave
    scenario = dataclasses.replace(
        TINY, name="tiny-3-path", paths=3, decay_db=3.0, fading=True,
        config=LinkConfig(users=2, substreams=2, carriers=2, walsh_order=4,
                          pn_length=15, oversampling=4),
        ebn0_grid=(4.0,), blocks_per_wave=8, max_bits=2 * 8 * 16 * 4)
    serial = _csv_bytes(scenario, 1, tmp_path / "serial.csv")
    runtime = harness._prepare(scenario)
    block_s = min(timeit.repeat(lambda: harness._simulate_block(runtime, 0, 0, 4.0),
                                number=1, repeat=5))
    monkeypatch.setattr(harness, "_SERIAL_BUDGET_S", 2.5 * block_s)
    ran_here = []
    simulate = harness._simulate_block

    def recorded(runtime, point_index, block_index, ebn0_db):
        ran_here.append(block_index)  # a worker appends to its own copy
        return simulate(runtime, point_index, block_index, ebn0_db)

    monkeypatch.setattr(harness, "_simulate_block", recorded)
    assert _csv_bytes(scenario, 2, tmp_path / "pooled.csv") == serial
    assert pool_forks == ["fork"]
    assert ran_here[0] == 0 and set(range(8)) - set(ran_here)


@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("users,n_total,substreams,carriers", [(1, 17, 1, 1), (3, 9, 2, 4),
                                                               (20, 257, 8, 8)])
def test_symbol_draw_unpacks_raw_words(seed, users, n_total, substreams, carriers):
    # symbol i is bit i mod 64 of raw word i // 64, and the draw leaves the
    # stream ceil(n / 64) words on (n = 17 and 216 are not multiples of 64)
    shape = (users, n_total, substreams, carriers)
    n = math.prod(shape)
    drawn, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    symbols = harness._draw_symbols(drawn, shape)
    words = twin.bit_generator.random_raw(-(-n // 64))
    i = np.arange(n, dtype=np.uint64)
    bits = (words[i // np.uint64(64)] >> (i % np.uint64(64))) & np.uint64(1)
    assert symbols.dtype == np.int8 and symbols.shape == shape
    assert np.array_equal(symbols.reshape(-1), np.where(bits == 1, 1, -1))
    assert drawn.standard_normal(3).tolist() == twin.standard_normal(3).tolist()


def test_symbol_draw_is_balanced_and_uncorrelated():
    # 2^20 symbols: the mean at every (user, substream, carrier) position and
    # the lag-1 correlation along the symbols there lie within 5 sigma of 0
    n_symbols = 4096
    symbols = harness._draw_symbols(np.random.default_rng(2024), (4, n_symbols, 8, 8))
    d = symbols.astype(np.float64)
    assert np.abs(d.mean(axis=1)).max() <= 5.0 / math.sqrt(n_symbols)
    lag1 = (d[:, 1:] * d[:, :-1]).mean(axis=1)
    assert np.abs(lag1).max() <= 5.0 / math.sqrt(n_symbols - 1)


@pytest.mark.parametrize("point, block", [(1, 4), (4, 1)])
def test_seeded_block_draws(point, block):
    """A block's generator comes from SeedSequence([master_seed, 0, point,
    block]) and draws the channel, then the symbols: drawn by hand from that
    seed they are the same, and the hand generator ends in the state of the
    one the block goes on to draw its noise from."""
    scenario = dataclasses.replace(_TINY_UNALIGNED, master_seed=97)
    cfg = scenario.config
    runtime = harness._prepare(scenario)
    rng, channel, symbols = harness._block_draws(runtime, point, block)
    hand = np.random.default_rng(np.random.SeedSequence([97, 0, point, block]))
    expected = draw_channel(hand, cfg.users, scenario.paths, scenario.decay_db, scenario.fading)
    assert np.array_equal(channel.gains, expected.gains)
    assert np.array_equal(channel.phases, expected.phases)
    assert np.array_equal(symbols, harness._draw_symbols(hand, (
        cfg.users, scenario.symbols_per_block + 1, cfg.substreams, cfg.carriers)))
    assert rng.bit_generator.state == hand.bit_generator.state


def _numpy_blas_is_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "").lower()


@pytest.fixture
def blas_threads():
    """Thread counts of the loaded OpenBLAS libraries, set to 2 for the test.
    When numpy is built on OpenBLAS, its library must be among them, or the
    tests below would check nothing."""
    calls = harness._openblas_thread_calls()
    assert calls or not _numpy_blas_is_openblas()
    saved = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(2)
    yield lambda: [get() for get, _ in calls]
    for (_, set_), count in zip(calls, saved):
        set_(count)


class TestBlasThreads:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_run_single_threaded_and_count_restored(self, blas_threads, monkeypatch,
                                                          workers, forced_fork):
        before = blas_threads()
        simulate = harness._simulate_block

        def checked(*args):
            # runs in the forked workers too, where a failure reaches pool.map
            assert all(count == 1 for count in blas_threads())
            return simulate(*args)

        monkeypatch.setattr(harness, "_simulate_block", checked)
        run_scenario(TINY, workers=workers)
        assert blas_threads() == before
        assert forced_fork == (["fork"] if workers > 1 else [])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_count_restored_when_block_raises(self, blas_threads, monkeypatch, workers,
                                              forced_fork):
        before = blas_threads()

        def failing(*args):
            raise RuntimeError("block failed")

        monkeypatch.setattr(harness, "_simulate_block", failing)
        with pytest.raises(RuntimeError, match="block failed"):
            run_scenario(TINY, workers=workers)
        assert blas_threads() == before
        assert forced_fork == (["fork"] if workers > 1 else [])


    def test_nested_entry_scans_once_and_restores(self, blas_threads, monkeypatch):
        """A nested entry neither scans for OpenBLAS nor restores: the
        outer one does both, also when the body raises.  A run scans once,
        its setup's entry nesting in its own."""
        before = blas_threads()
        scan = harness._openblas_thread_calls
        scans = []
        monkeypatch.setattr(harness, "_openblas_thread_calls",
                            lambda: scans.append(None) or scan())
        with pytest.raises(RuntimeError, match="inner"):
            with harness._single_threaded_blas():
                with harness._single_threaded_blas():
                    pass
                assert all(count == 1 for count in blas_threads())
                with harness._single_threaded_blas():
                    raise RuntimeError("inner")
        assert blas_threads() == before
        assert len(scans) == 1
        run_scenario(TINY)
        measure_variances(TINY, n_symbols=16)
        assert len(scans) == 3
        assert blas_threads() == before


class TestCiCoverage:
    def test_nominal_coverage_synthetic(self):
        rng = np.random.default_rng(2024)
        p, n, trials = 0.1, 1000, 100
        hits = 0
        for _ in range(trials):
            k = rng.binomial(n, p)
            hits += abs(k / n - p) <= binomial_ci95(k, n)
        assert 90 <= hits <= 99


class TestCsv:
    RECORD = BerRecord(scenario="t", ebn0_db=1.0, users=2, substreams=3, carriers=4,
                       hpa_mode="saleh", ibo_db=7.0, bits=100, errors=5, ber=0.05, ci95=0.01,
                       source="theoretical", seed=None)

    def test_header_exact(self):
        assert CSV_HEADER == ("scenario,ebn0_db,k,r,m,hpa_mode,ibo_db,"
                              "bits,errors,ber,ci95,source,seed")

    def test_round_trip(self, tmp_path):
        rep = run_scenario(TINY)
        path = tmp_path / "out.csv"
        emit_csv([rep], path)
        text = path.read_text()
        assert text.startswith(CSV_HEADER + "\n")
        assert text.endswith("\n")
        rows = parse_csv(path)
        assert rows == rep.records   # repr floats round-trip exactly

    def test_emit_accepts_bare_records(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([self.RECORD], path)
        row = parse_csv(path)[0]
        assert (row.users, row.substreams, row.carriers) == (2, 3, 4)
        assert row.seed is None
        assert row.ibo_db == 7.0
        assert row.source == "theoretical"

    @pytest.mark.parametrize("field", ["scenario", "hpa_mode"])
    @pytest.mark.parametrize("separator", [",", "\n", "\r"])
    def test_record_rejects_csv_separators(self, field, separator):
        with pytest.raises(ValueError, match=f"{field} must hold no comma or line break"):
            dataclasses.replace(self.RECORD, **{field: f"a{separator}b"})

    def test_theory_curve_round_trips(self, tmp_path):
        variances = InterferenceVariances(desired_power=1.0, multipath=0.0, inter_substream=0.0,
                                          inter_carrier=0.0, multi_user=0.1, noise=0.2,
                                          n_symbols=10)
        with pytest.raises(ValueError, match="scenario must hold no comma"):
            theoretical_curve(variances, (0.0,), 0.0, scenario="a,b")
        records = theoretical_curve(variances, (0.0, 5.0, 10.0), 0.0, scenario="users-20 theory",
                                    users=20, hpa_mode="saleh", ibo_db=7.0)
        path = tmp_path / "theory.csv"
        emit_csv(records, path)
        assert parse_csv(path) == records

    def test_parse_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            parse_csv(path)


class TestPresets:
    def test_aliases_match_canonical(self):
        for alias, canon in (("fig5", "system-comparison"), ("fig6", "user-sweep"),
                             ("fig7", "carrier-sweep"), ("fig8", "linearization")):
            a = preset(alias)
            b = preset(canon)
            assert [s.name for s in a] == [s.name for s in b]

    def test_system_comparison_contents(self):
        scenarios = {s.name: s for s in preset("system-comparison")}
        assert set(scenarios) == {"multicode-multicarrier", "multicode-only",
                                  "multicarrier-only"}
        combined = scenarios["multicode-multicarrier"]
        assert combined.config.users == 20
        assert combined.config.substreams == 8
        assert combined.config.carriers == 8
        assert combined.fading
        assert scenarios["multicode-only"].config.carriers == 1
        assert scenarios["multicode-only"].paths > 1
        assert scenarios["multicarrier-only"].config.substreams == 1

    def test_user_sweep_contents(self):
        users = [s.config.users for s in preset("user-sweep")]
        assert users == [1, 10, 50]

    def test_carrier_sweep_contents(self):
        carriers = [s.config.carriers for s in preset("carrier-sweep")]
        assert carriers == [2, 4, 8]
        for s in preset("carrier-sweep"):
            assert s.config.substreams == 8
            assert s.config.users == 20

    def test_linearization_contents(self):
        modes = [(s.hpa_mode, s.ibo_db) for s in preset("linearization")]
        assert ("saleh", 7.0) in modes
        assert ("saleh", 9.0) in modes
        assert any(m == "saleh_pd" for m, _ in modes)
        for s in preset("linearization"):
            assert not s.fading

    def test_seed_override(self):
        for s in preset("fig6", master_seed=7):
            assert s.master_seed == 7

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("fig9")


class TestConfigFiles:
    def test_load_and_build(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "name = demo\n"
            "users=2\n"
            "substreams = 2\n"
            "carriers = 2   # trailing comment\n"
            "walsh_order = 4\n"
            "pn_length = 15\n"
            "ebn0_grid = 0, 4, 8\n"
            "fading = true\n"
            "min_errors = 150\n"
            "\n")
        keys = load_config(path)
        sc = scenario_from_keys(keys)
        assert sc.name == "demo"
        assert sc.config.users == 2
        assert sc.config.walsh_order == 4
        assert sc.ebn0_grid == (0.0, 4.0, 8.0)
        assert sc.fading
        assert sc.min_errors == 150

    def test_echo_round_trip(self):
        for family in ("system-comparison", "user-sweep", "carrier-sweep", "linearization"):
            for sc in preset(family):
                echoed = scenario_echo(sc)
                rebuilt = scenario_from_keys(echoed)
                assert rebuilt == sc, sc.name
                assert scenario_echo(rebuilt) == echoed, sc.name

    def test_leaf_names_unique_across_classes(self):
        # flat config keys need every leaf name to occur once
        names = [f.name for f, _ in leaf_fields(TINY)]
        assert len(names) == len(set(names)) == 29
        assert set(names) == {f.name for cls in (LinkConfig, Scenario, SalehParams)
                              for f in dataclasses.fields(cls)} - {"config", "saleh"}

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            scenario_from_keys({"warp_factor": "9"})

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="integer"):
            scenario_from_keys({"users": "two"})

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="boolean"):
            scenario_from_keys({"fading": "maybe"})

    def test_constraint_violation_becomes_config_error(self):
        with pytest.raises(ConfigError):
            scenario_from_keys({"walsh_order": "3"})

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("users 2\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path)

    def test_overrides_on_base(self):
        base = preset("fig6")[0]
        sc = scenario_from_keys({"min_errors": "123"}, base=base)
        assert sc.min_errors == 123
        assert sc.config == base.config


def _write_tiny_config(tmp_path, **extra):
    lines = {
        "name": "cli-tiny", "users": "1", "substreams": "1", "carriers": "1",
        "walsh_order": "1", "pn_length": "7", "oversampling": "4",
        "ebn0_grid": "0", "min_errors": "100", "symbols_per_block": "16",
        "master_seed": "7",
    }
    lines.update(extra)
    path = tmp_path / "tiny.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


class TestCli:
    def test_simulate_success(self, tmp_path):
        cfg = _write_tiny_config(tmp_path)
        out = tmp_path / "results.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = parse_csv(out)
        assert rows[0].scenario == "cli-tiny"
        assert rows[0].seed == 7

    def test_cli_seed_beats_config_and_env(self, tmp_path, monkeypatch):
        cfg = _write_tiny_config(tmp_path)
        out = tmp_path / "r.csv"
        monkeypatch.setenv("SIM_SEED", "1234")
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", "555"]) == 0
        assert parse_csv(out)[0].seed == 555

    def test_env_seed_beats_config(self, tmp_path, monkeypatch):
        cfg = _write_tiny_config(tmp_path)
        out = tmp_path / "r.csv"
        monkeypatch.setenv("SIM_SEED", "1234")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert parse_csv(out)[0].seed == 1234

    def test_workers_env(self, tmp_path, monkeypatch):
        cfg = _write_tiny_config(tmp_path)
        ref = tmp_path / "a.csv"
        par = tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(ref)]) == 0
        monkeypatch.setenv("SIM_WORKERS", "4")
        assert main(["simulate", "--config", str(cfg), "--out", str(par)]) == 0
        assert ref.read_bytes() == par.read_bytes()

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_bad_key_is_config_error(self, tmp_path, capsys):
        cfg = _write_tiny_config(tmp_path, hyperdrive="on")
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "error" in capsys.readouterr().err

    def test_nonfinite_decay_is_config_error(self, tmp_path, capsys):
        cfg = _write_tiny_config(tmp_path, decay_db="nan")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "decay_db" in capsys.readouterr().err

    @pytest.mark.parametrize("pn_length", ["8", "8191"])
    def test_bad_pn_length_is_config_error(self, tmp_path, capsys, pn_length):
        cfg = _write_tiny_config(tmp_path, pn_length=pn_length)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: pn_length must be an m-sequence length" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys, monkeypatch):
        cfg = _write_tiny_config(tmp_path)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", "-1"]) == 1
        assert "error: master_seed must be nonnegative" in capsys.readouterr().err
        monkeypatch.setenv("SIM_SEED", "-1")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: master_seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("max_bits", "0"), ("min_bits", "-1"),
                                            ("min_blocks", "-1")])
    def test_unusable_stopping_budget_is_config_error(self, tmp_path, capsys, key, value):
        cfg = _write_tiny_config(tmp_path, **{key: value})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("ebn0_grid", "4000"), ("ebn0_grid", "0,-4000"),
                                            ("ibo_db", "4000"), ("ibo_db", "-4000")])
    def test_db_value_beyond_bound_is_config_error(self, tmp_path, capsys, key, value):
        cfg = _write_tiny_config(tmp_path, hpa_mode="saleh_pd", **{key: value})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: {key} must lie within +-300 dB" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preset_is_config_error(self):
        assert main(["simulate", "--preset", "fig99"]) == 1

    def test_no_source_is_config_error(self):
        assert main(["simulate"]) == 1

    def test_usage_error_exit_code(self):
        assert main(["simulate", "--no-such-flag"]) == 1
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_decompose_writes_companion(self, tmp_path):
        cfg = _write_tiny_config(tmp_path, users="2", substreams="2",
                                 carriers="2", walsh_order="4", pn_length="15")
        out = tmp_path / "d.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--decompose"]) == 0
        companion = tmp_path / "d.csv.decomposition.csv"
        text = companion.read_text()
        assert text.splitlines()[0] == "scenario,ebn0_db,component,value"
        assert "multi_user" in text
        assert "total_interference" in text

    def test_decompose_rejects_nonlinear(self, tmp_path):
        cfg = _write_tiny_config(tmp_path, hpa_mode="saleh")
        assert main(["simulate", "--config", str(cfg), "--decompose",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_characterize_hpa_default_params(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["characterize-hpa", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("level,amam_output,ampm_rad,predistorted_input,"
                            "cascade_output,cascade_phase_rad")
        assert len(lines) == 302
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_characterize_hpa_param_file(self, tmp_path):
        params = tmp_path / "amp.cfg"
        params.write_text("alpha_am = 2.0\nbeta_am = 1.0\n")
        out = tmp_path / "c.csv"
        assert main(["characterize-hpa", "--params", str(params),
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        levels = np.array([float(r.split(",")[0]) for r in rows])
        assert levels[-1] == pytest.approx(1.5)   # 1.5 / sqrt(beta_am)

    def test_characterize_hpa_nonfinite_param(self, tmp_path, capsys):
        params = tmp_path / "amp.cfg"
        params.write_text("alpha_am = nan\n")
        assert main(["characterize-hpa", "--params", str(params),
                     "--out", str(tmp_path / "c.csv")]) == 1
        assert "error: alpha_am must be finite" in capsys.readouterr().err

    def test_nonfinite_saleh_param_is_config_error(self, tmp_path, capsys):
        cfg = _write_tiny_config(tmp_path, hpa_mode="saleh", alpha_am="inf")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: alpha_am must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_characterize_hpa_unknown_key(self, tmp_path):
        params = tmp_path / "amp.cfg"
        params.write_text("users = 5\n")
        assert main(["characterize-hpa", "--params", str(params),
                     "--out", str(tmp_path / "c.csv")]) == 1


class TestMeasureVariances:
    def test_linear_scenario_variances(self):
        sc = dataclasses.replace(
            TINY,
            config=LinkConfig(users=4, substreams=2, carriers=2, walsh_order=4,
                              pn_length=63, oversampling=4),
            fading=True)
        var = measure_variances(sc, n_symbols=300)
        assert var.multi_user > 0.0
        assert var.noise > 0.0
        assert var.total == pytest.approx(
            var.multipath + var.inter_substream + var.inter_carrier
            + var.multi_user + var.noise, rel=1e-12)

    def test_same_seed_same_fields(self):
        sc = dataclasses.replace(
            TINY, config=LinkConfig(users=3, substreams=2, carriers=2, walsh_order=4,
                                    pn_length=15, oversampling=4),
            paths=2, fading=True)
        first, second = (measure_variances(sc, n_symbols=300) for _ in range(2))
        assert first == second
        assert first != measure_variances(dataclasses.replace(sc, master_seed=sc.master_seed + 1),
                                          n_symbols=300)

    def test_nonlinear_rejected(self):
        sc = dataclasses.replace(TINY, hpa_mode="saleh")
        with pytest.raises(ValueError):
            measure_variances(sc)

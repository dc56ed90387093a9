"""Monte Carlo harness and scenario checks."""

import dataclasses
import math
import timeit
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmccdma.analysis import emit_csv
from mcmccdma.channel import ChannelRealization, noise_scale
from mcmccdma.codes import generate_msequence
from mcmccdma import harness, hpa
from mcmccdma.config import HPA_MODES, ConfigError, Scenario, preset
from mcmccdma.harness import estimate_interference_variances, measure_variances, run_scenario
from mcmccdma.hpa import SalehParams, amplify_samples, apply_predistorter, limiter_factor
from mcmccdma.receiver import SOURCE_NAMES
from mcmccdma.txchain import (LinkConfig, spread_symbols, subcarrier_exponentials,
                              walsh_chip_bounds)

from oracles import drawn_channel, drawn_symbols, floor_chips
from reference_chain import correlate_slots, modulate_user, propagate_samples, slot_signatures

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
        # the limiter's back-off stops above -300 dB, at its drive bound
        # (test_limiter_eb_at_the_drive_bound)
        lowest = _lowest_limiter_ibo(TINY.config) if hpa_mode == "saleh_pd" else -300.0
        for ibo_db in (lowest, 300.0):
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
        ("min_blocks", -1, "min_blocks must be nonnegative"),
    ])
    def test_unusable_stopping_budget_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(TINY, **{field: value})

    def test_min_blocks_may_exceed_the_max_bits_cap(self):
        sc = dataclasses.replace(TINY, min_blocks=64, max_bits=4096)
        assert (sc.min_blocks, sc.max_bits) == (64, 4096)

    @pytest.mark.parametrize("field", [
        "paths", "min_errors", "min_blocks", "max_bits",
        "symbols_per_block", "blocks_per_wave", "master_seed",
    ])
    @pytest.mark.parametrize("as_type", [float, bool])
    def test_non_integer_count_rejected(self, field, as_type):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            dataclasses.replace(TINY, **{field: as_type(getattr(TINY, field))})

    @pytest.mark.parametrize("field, value, message", [
        ("fading", "no", "fading must be true or false"),
        ("noise_enabled", "false", "noise_enabled must be true or false"),
        ("allow_small_min_errors", "0", "allow_small_min_errors must be true or false"),
        ("fading", 1, "fading must be true or false"),
        ("name", 5, "name must be a string"),
        ("decay_db", True, "decay_db must be a number"),
        ("ibo_db", "7", "ibo_db must be a number"),
        ("ebn0_grid", (True,), "ebn0_grid entries must be finite numbers"),
        ("ebn0_grid", (0.0, "8"), "ebn0_grid entries must be finite numbers"),
        ("ebn0_grid", 8.0, "ebn0_grid must be a nonempty tuple"),
        ("ebn0_grid", None, "ebn0_grid must be a nonempty tuple"),
    ])
    def test_mistyped_field_rejected(self, field, value, message):
        # a switch takes a bool only, a level or a grid entry no bool
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(TINY, **{field: value})


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

    def test_point_without_noise_level_rejected_before_any_block(self, monkeypatch):
        """The tube's calibrated Eb is ~1e-301 at alpha_am=1e-150, so at
        300 dB n0 underflows to 0: the setup names that point, and no block
        of the point before it runs."""
        def forbidden(*args):
            raise AssertionError("a block ran before every point's noise level was checked")

        monkeypatch.setattr(harness, "_simulate_blocks", forbidden)
        scenario = dataclasses.replace(TINY, hpa_mode="saleh", ebn0_grid=(0.0, 300.0),
                                       saleh=SalehParams(alpha_am=1e-150, beta_am=1.0))
        with pytest.raises(ConfigError, match="scenario 'tiny', Eb/N0 point 1: ebn0_db must be "
                                              "finite and give a positive noise density"):
            run_scenario(scenario)

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

    @pytest.mark.parametrize("min_blocks, blocks", [(0, 16), (16, 16), (17, 32), (32, 32)])
    def test_stops_on_the_wave_that_reaches_min_blocks(self, min_blocks, blocks):
        """At 0 dB every 16-block wave meets min_errors=1, so the block floor
        alone sets the run: it ends on the first wave that reaches it, and
        the record's bits are its blocks' bits."""
        sc = dataclasses.replace(TINY, min_errors=1, allow_small_min_errors=True,
                                 min_blocks=min_blocks)
        record = run_scenario(sc).records[0]
        assert record.bits == blocks * sc.symbols_per_block * sc.config.bits_per_symbol
        assert 0 < record.errors < record.bits and not record.censored

    def test_block_returns_its_error_count(self):
        runtime = harness._prepare(TINY)
        errors = harness._simulate_blocks(runtime, 0, range(3))
        assert len(errors) == 3
        assert all(type(e) is int and 0 <= e <= TINY.symbols_per_block for e in errors)

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


def _pn_chips(runtime):
    """Every user's PN chips in the runtime's scenario (harness._user_codes)."""
    return harness._user_codes(runtime.scenario.config)[1]


def _sample_chain(runtime, symbols, gains, reference_phase, amplify=None):
    """User 1's correlator outputs from the sampled waveform: every user's
    symbols modulated, amplified when amplify is given, sent through its
    complex path gains (gains[k], zero where a path is dropped), summed and
    correlated against user 1's signatures, noise off."""
    cfg = runtime.scenario.config
    received = np.zeros(symbols.shape[1] * cfg.samples_per_symbol
                        + (runtime.scenario.paths - 1) * cfg.oversampling, dtype=np.complex128)
    pn_chips = _pn_chips(runtime)
    for k in range(cfg.users):
        tx = modulate_user(symbols[k], runtime.walsh, pn_chips[k], cfg)
        propagate_samples(tx if amplify is None else amplify(tx), gains[k], cfg.oversampling,
                          out=received)
    own = slot_signatures(runtime.walsh, pn_chips[0], cfg)
    return correlate_slots(received, own, cfg, reference_phase=reference_phase)


def _block_draws(runtime, point_index, block_index):
    """(channel, symbols, normals) of one block, drawn as a batch of one
    (harness._batch_draws); normals is None with the noise off."""
    channel, symbols, normals = harness._batch_draws(runtime, point_index,
                                                     range(block_index, block_index + 1))
    return (ChannelRealization(gains=channel.gains[0], phases=channel.phases[0]), symbols[0],
            None if normals is None else normals[0])


def _recorded_block(scenario):
    """The runtime, channel, symbols and noiseless correlator outputs of
    block 3 at the first point of the scenario's engine."""
    runtime = harness._prepare(scenario)
    channel, symbols, _ = _block_draws(runtime, 0, 3)
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
        sources = harness._source_outputs(harness._source_split(runtime, channel), symbols, {})
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
        # the split draws no noise: a row per SOURCE_NAMES entry but the last
        assert tuple(oracle) == SOURCE_NAMES[:-1]
        assert len(sources) == len(oracle)
        for source, (name, (masked, kept)) in zip(sources, oracle.items()):
            reference = _sample_chain(runtime, masked, kept, channel.phases[0, 0])[:, 0, 0]
            assert source.shape == reference.shape
            assert np.abs(source - reference).max() <= 1e-12 * np.abs(reference).max(), name
        # the five sum to the BER engine's noiseless slot (1, 1) output
        total = sum(sources)
        assert np.abs(total - z[:, 0, 0]).max() <= 1e-12 * np.abs(z[:, 0, 0]).max()

    @pytest.mark.parametrize("config", [
        LinkConfig(users=2, substreams=4, carriers=2, walsh_order=4, pn_length=7),
        _TINY_UNALIGNED.config,
    ], ids=["aligned", "unaligned"])
    def test_noise_factor_reproduces_signature_gram(self, config):
        runtime = harness._prepare(dataclasses.replace(TINY, config=config))
        own = slot_signatures(runtime.walsh, _pn_chips(runtime)[0], config)
        own = own.reshape(-1, config.samples_per_symbol)
        gram = own.conj() @ own.T / config.samples_per_symbol
        factor = runtime.noise_factor
        assert np.array_equal(factor, np.tril(factor))
        assert np.abs(factor @ factor.conj().T - gram).max() <= 1e-12
        aligned = config.samples_per_symbol % config.walsh_order == 0
        assert np.allclose(gram, np.eye(len(gram)), atol=1e-12) == aligned

    def test_every_mode_has_tables_and_noise_factor(self):
        linear = harness._prepare(_TINY_UNALIGNED)
        for hpa_mode in HPA_MODES:
            runtime = harness._prepare(dataclasses.replace(_TINY_UNALIGNED, hpa_mode=hpa_mode))
            assert np.array_equal(runtime.correlation, linear.correlation)
            assert np.array_equal(runtime.noise_factor, linear.noise_factor)
            assert (runtime.amplifier is None) == (hpa_mode == "bypass")
            # only the limiter builds the cell grid, and it forms no tile
            assert (getattr(runtime.amplifier, "cells", None) is None) == (hpa_mode != "saleh_pd")
            assert (getattr(runtime.amplifier, "carriers", None) is None) == (hpa_mode != "saleh")
        assert linear.linear_gain == 1.0
        assert harness._prepare(dataclasses.replace(TINY, hpa_mode="saleh")).linear_gain == 0.0


def _reference_amplifier(runtime):
    """The amplifier of a runtime's scenario as the sample kernels apply it:
    the tube at its input scale, or the predistorter then the tube."""
    scenario = runtime.scenario

    def amplify(samples):
        if scenario.hpa_mode == "saleh":
            return amplify_samples(runtime.amplifier.input_scale * samples, scenario.saleh)
        return amplify_samples(apply_predistorter(runtime.linear_gain * samples, scenario.saleh),
                               scenario.saleh)

    return amplify


def _reference_calibration(runtime):
    """(Eb, phase offset) from user 1's whole calibration frame through the
    reference amplifier."""
    scenario = runtime.scenario
    cfg = scenario.config
    rng = np.random.default_rng(np.random.SeedSequence([scenario.master_seed, 1]))
    symbols = drawn_symbols(rng, (harness._CALIBRATION_SYMBOLS, cfg.substreams, cfg.carriers))
    linear = modulate_user(symbols, runtime.walsh, _pn_chips(runtime)[0], cfg)
    tx = _reference_amplifier(runtime)(linear)
    eb = np.mean(np.abs(tx) ** 2) / cfg.bits_per_symbol
    return eb, np.angle(np.vdot(linear, tx) / np.vdot(linear, linear))


def _direct_limiter_eb(runtime, zeros=None):
    """The energy per bit of the calibration frame through the limiter:
    sum min(g^2 |x|^2, A_sat^2) over the linear frame's samples x
    (modulate_user), over its samples and bits per symbol.  zeros, when
    given, is the power counted instead at the samples within 1e-14 max |x|
    of zero, the waveform's exact zeros, where x is round-off alone."""
    scenario = runtime.scenario
    cfg = scenario.config
    rng = np.random.default_rng(np.random.SeedSequence([scenario.master_seed, 1]))
    symbols = drawn_symbols(rng, (harness._CALIBRATION_SYMBOLS, cfg.substreams, cfg.carriers))
    modulus = np.abs(modulate_user(symbols, runtime.walsh, _pn_chips(runtime)[0], cfg))
    power = np.minimum((runtime.linear_gain * modulus) ** 2, scenario.saleh.saturation_output_power)
    if zeros is not None:
        power[modulus <= 1e-14 * modulus.max()] = zeros
    return float(power.sum()) / (modulus.size * cfg.bits_per_symbol)


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

# The one-user link with 1 x 2 slots on which the limiter's calibration
# once cancelled under overdrive.
_ONE_BY_TWO = LinkConfig(users=1, substreams=1, carriers=2, walsh_order=1, pn_length=7)


def _limiter_runtime(config, ibo_db):
    return harness._prepare(dataclasses.replace(TINY, config=config, hpa_mode="saleh_pd",
                                                ibo_db=ibo_db))


@pytest.mark.parametrize("config", [_ONE_BY_TWO, _AMPLIFIER_BASE.config],
                         ids=["1x2-slots", "pn-127"])
@pytest.mark.parametrize("ibo_db", [7.0, 0.0, -20.0, -60.0, -100.0, -200.0])
def test_limiter_eb_is_the_direct_sum(config, ibo_db):
    """On these two links, one user's 1 x 2 slots and 3 users' 2 x 2 slots
    at pn 127, the limiter's calibrated Eb is its output frame's energy, to
    1e-12 of the direct sum (_direct_limiter_eb) from no clipping down to
    -200 dB, where nearly every sample clips and the linear frame carries
    1e20 times the output's energy.  The bound is these links': the
    round-off at the frame's exact zeros grows with the drive and the
    slots, and _TINY_UNALIGNED's 2 x 3 slots are 3.1e-12 off at -200 dB."""
    runtime = _limiter_runtime(config, ibo_db)
    direct = _direct_limiter_eb(runtime)
    assert abs(runtime.eb - direct) <= 1e-12 * direct


def _lowest_limiter_ibo(config):
    """The lowest back-off, to 1e-9 dB, at which the limiter's round-off
    g eps peak stays within 1e-3 of A_sat on a link (hpa.amplifier_drive):
    20 log10(eps sqrt(substreams carriers) / 1e-3) dB."""
    slots = config.substreams * config.carriers
    return 20.0 * math.log10(np.finfo(float).eps * math.sqrt(slots) / 1e-3) + 1e-9


@pytest.mark.parametrize("config", [_ONE_BY_TWO, _AMPLIFIER_BASE.config],
                         ids=["1x2-slots", "pn-127"])
def test_limiter_eb_at_the_drive_bound(config):
    """At the lowest back-off the limiter accepts, g lifts the linear
    waveform's round-off at its exact zeros (|x| ~ 1e-16) to 1e-3 of A_sat:
    Eb lies, to 1e-12, between the direct sums that count those samples as
    silent and as clipped, and within 1e-8 of the direct sum.  2e-9 dB
    lower, and at -300 dB, where that round-off nears A_sat, the drive is
    rejected when the scenario is built."""
    lowest = _lowest_limiter_ibo(config)
    runtime = _limiter_runtime(config, lowest)
    low = _direct_limiter_eb(runtime, zeros=0.0)
    high = _direct_limiter_eb(runtime, zeros=runtime.scenario.saleh.saturation_output_power)
    assert low * (1.0 - 1e-12) <= runtime.eb <= high * (1.0 + 1e-12)
    direct = _direct_limiter_eb(runtime)
    assert abs(runtime.eb - direct) <= 1e-8 * direct
    for ibo_db in (lowest - 2e-9, -300.0):
        with pytest.raises(ValueError, match="round-off"):
            _limiter_runtime(config, ibo_db)


def test_tiny_limiter_runs_at_its_lowest_drive():
    """The one-slot link at its lowest accepted back-off (about -253 dB,
    where every sample clips): its calibration is the direct sum to 1e-12,
    and a run decides every bit with no warning."""
    scenario = dataclasses.replace(TINY, hpa_mode="saleh_pd",
                                   ibo_db=_lowest_limiter_ibo(TINY.config),
                                   ebn0_grid=(10.0,), max_bits=1024)
    runtime = harness._prepare(scenario)
    direct = _direct_limiter_eb(runtime)
    assert abs(runtime.eb - direct) <= 1e-12 * direct
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = run_scenario(scenario).records[0]
    assert record.bits == 1024 and 0 <= record.errors < 0.01 * record.bits


def test_overdriven_limiter_decides_at_10db():
    """At -200 dB the limiter clips nearly every sample, and with the
    energy of what it sends the 1 x 2-slot link still decides nearly every
    bit at 10 dB, where an Eb 2.3e5 times too large read a BER of 0.5."""
    scenario = dataclasses.replace(TINY, config=_ONE_BY_TWO, hpa_mode="saleh_pd",
                                   ibo_db=-200.0, ebn0_grid=(10.0,), max_bits=1024)
    record = run_scenario(scenario).records[0]
    assert record.bits == 1024 and record.errors < 0.01 * record.bits


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
        monkeypatch.setattr(hpa, "_SLAB_SAMPLES", slab)
        runtime, channel, symbols, z = _recorded_block(scenario)
        if scenario.hpa_mode == "saleh_pd":
            linear = np.concatenate([
                modulate_user(d, runtime.walsh, pn, scenario.config)
                for d, pn in zip(symbols, _pn_chips(runtime))])
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
            harness._simulate_blocks(runtime, 0, range(1))
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

        monkeypatch.setattr(hpa, "limiter_factor", counted("cell", hpa.limiter_factor))
        monkeypatch.setattr(hpa, "_waveform_tiles", counted("tile", hpa._waveform_tiles))
        runtime = harness._prepare(dataclasses.replace(_AMPLIFIER_BASE, name="unclipped",
                                                       hpa_mode="saleh_pd", ibo_db=30.0))
        assert calls == []
        symbols = drawn_symbols(np.random.default_rng(0), (3, 16, 2, 2))
        chips = spread_symbols(runtime.walsh, symbols, {})
        assert hpa._excess_correlations(runtime.amplifier, chips, np.ones((3, 1)),
                                        runtime.work) is None
        harness._simulate_blocks(runtime, 0, range(1))
        assert calls == []

    @pytest.mark.parametrize("hpa_mode", HPA_MODES)
    def test_block_draws_noise_per_correlator_output(self, hpa_mode, monkeypatch):
        """Every mode's noise is one correlator_noise call through the
        runtime's Gram factor at the point's noise scale, on the normals the
        block's draws end with, added to the noiseless outputs before the
        decisions; the producer takes none, a block with the noise off draws
        none and makes no call, and the block adds no other noise."""
        scenario = dataclasses.replace(_TINY_UNALIGNED, name="noisy", hpa_mode=hpa_mode,
                                       ibo_db=1.0, ebn0_grid=(8.0,))
        draws, decided = [], []
        correlator_noise = harness.correlator_noise
        decide_slots = harness.decide_slots

        def recorded(scale, factor, normals):
            draws.append((scale, factor, normals))
            draws.append(correlator_noise(scale, factor, normals))
            return draws[-1]

        monkeypatch.setattr(harness, "correlator_noise", recorded)
        monkeypatch.setattr(harness, "decide_slots",
                            lambda z, reference: decided.append(z) or decide_slots(z, reference))
        runtime, channel, symbols, z = _recorded_block(scenario)
        quiet = harness._prepare(dataclasses.replace(scenario, noise_enabled=False))
        assert quiet.noise_scales == ()
        assert _block_draws(quiet, 0, 3)[2] is None
        harness._simulate_blocks(quiet, 0, range(3, 4))
        assert draws == []          # noise off, nothing drawn
        warmup = runtime.warmup
        assert np.array_equal(decided[0], z[None, warmup:])
        harness._simulate_blocks(runtime, 0, range(3, 4))
        (scale, factor, normals), noise = draws
        assert factor is runtime.noise_factor
        assert scale == noise_scale(8.0, runtime.eb) == runtime.noise_scales[0]
        n_windows = symbols.shape[1]
        assert normals.shape == (1, n_windows, factor.shape[0], 2)
        assert np.array_equal(normals[0], _block_draws(runtime, 0, 3)[2])
        difference = (decided[1][0] - z[warmup:]).reshape(n_windows - warmup, -1)
        assert np.abs(difference - noise[0, warmup:]).max() <= 1e-12 * np.abs(z).max()

    def test_each_point_draws_its_own_noise_variance(self, monkeypatch):
        """On a two-point grid each point's blocks add noise of that point's
        variance, n0 = eb / 10^(ebn0_db/10) times user 1's Gram entry, per
        correlator output: the noise is what a decided block adds to the
        noiseless outputs of the same draws."""
        scenario = dataclasses.replace(TINY, name="two-point", ebn0_grid=(0.0, 10.0),
                                       symbols_per_block=4000)
        runtime = harness._prepare(scenario)
        decided = []
        decide_slots = harness.decide_slots
        monkeypatch.setattr(harness, "decide_slots",
                            lambda z, reference: decided.append(z) or decide_slots(z, reference))
        for point_index, ebn0_db in enumerate(scenario.ebn0_grid):
            harness._simulate_blocks(runtime, point_index, range(1))
            channel, symbols, _ = _block_draws(runtime, point_index, 0)
            noise = decided[-1][0] - harness._correlation_outputs(runtime, channel, symbols)
            n0 = runtime.eb / 10 ** (ebn0_db / 10)
            expected = n0 * abs(runtime.noise_factor[0, 0]) ** 2
            assert np.mean(np.abs(noise) ** 2) == pytest.approx(expected, rel=0.1)

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("scenario", [_CLIPPED_LINEARIZED, _UNALIGNED_LINEARIZED],
                             ids=lambda sc: sc.name)
    def test_cell_chunks_do_not_change_the_block(self, scenario, chunk, monkeypatch):
        """Kept cells formed and correlated 1 or 3 at a time give the block
        and the calibration of the default chunk, across every seam."""
        runtime, channel, symbols, z = _recorded_block(scenario)
        monkeypatch.setattr(hpa, "_CELL_CHUNK", chunk)
        rechunked = harness._correlation_outputs(runtime, channel, symbols)
        assert np.abs(rechunked - z).max() <= 1e-12 * np.abs(z).max()
        recalibrated = harness._prepare(scenario)
        assert abs(recalibrated.eb - runtime.eb) <= 1e-12 * runtime.eb
        assert abs(recalibrated.phase_offset - runtime.phase_offset) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_limiter_block_rejects_nonfinite_tiles(self, bad):
        # at 1 dB some rows can clip in the poisoned cell's Walsh chip; the
        # cell's bound, which a NaN or inf cannot rule out, and its anchor
        # exponential, which enters every sample formed in it, are poisoned
        runtime = harness._prepare(dataclasses.replace(_AMPLIFIER_BASE, name="bad",
                                                       hpa_mode="saleh_pd", ibo_db=1.0))
        grid = runtime.amplifier.cells
        cell = np.searchsorted(grid.starts, 300, side="right") - 1
        grid.cos_terms[0, cell] = bad
        grid.centres[cell, 1] = bad
        with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
            harness._simulate_blocks(runtime, 0, range(1))


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


def _clip_power(runtime):
    """The linear waveform's power above which the predistorted tube clips:
    where linear_gain^2 |x|^2 exceeds the tube's peak output power."""
    return runtime.scenario.saleh.saturation_output_power / runtime.linear_gain**2


def _einsum_row_coefficients(runtime, symbols):
    """b[c, (k, n), m] = sqrt(2) sum_r w_r(c) d_k[n, r, m]: each symbol
    row's real coefficient on carrier m during Walsh chip c, the rows in
    (user, symbol) order, by one einsum over the symbols."""
    b = np.sqrt(2.0) * np.einsum("rc,knrm->cknm", runtime.walsh, symbols)
    return b.reshape(len(b), -1, symbols.shape[-1])


def _full_clip_search(runtime, symbols):
    """The limiter's clip search over every sample: each symbol row's
    PN-free linear waveform, sum_m b[c, n, m] E_m(i) during Walsh chip c as
    the tube's tiles form it, shape (rows, samples_per_symbol), the indices
    row * samples_per_symbol + position of its clipped samples in ascending
    order, and the excess at each."""
    cfg = runtime.scenario.config
    b = _einsum_row_coefficients(runtime, symbols)
    linear = np.einsum("inm,mi->ni", b[floor_chips(cfg)], subcarrier_exponentials(cfg))
    power = np.square(linear.real) + np.square(linear.imag)
    index = np.flatnonzero(power > _clip_power(runtime))
    driven = runtime.linear_gain * linear.reshape(-1)[index]
    return linear, index, driven * limiter_factor(driven, runtime.scenario.saleh)


def _check_cell_search(runtime, symbols):
    """Hold the limiter's cell search (_driven_cells) to the
    search over every sample (_full_clip_search): it forms each sample of a
    kept cell as the full waveform has it (times linear_gain), to 1e-12, and
    no sample twice; the samples it forms include every clipped sample, so
    on the full waveform's values it clips exactly the samples the full
    search does; user 1's chips on every path (span_chips), which weigh what
    the limiter takes off, are zero outside its cells; and that excess is
    within 1e-12 A_sat of the full search's at every sample (zero where that
    clips nothing)."""
    cfg = runtime.scenario.config
    grid = runtime.amplifier.cells
    linear, index, excess = _full_clip_search(runtime, symbols)
    offsets = np.arange(hpa._CELL_SAMPLES)
    cell_excess = np.zeros(linear.size, dtype=np.complex128)
    formed = [np.zeros(0, dtype=np.int64)]
    chips = spread_symbols(runtime.walsh, symbols, {})
    b, rho = hpa._limiter_drive(runtime.amplifier, chips, runtime.work)
    for rows, cells, driven, _ in hpa._driven_cells(runtime.amplifier, b, rho, runtime.work):
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
    past the cell's length (span_chips), and the energy terms hold each
    cell's length and its cosine sums 2 sum_{s < length} cos(k phi_s)."""
    cfg = runtime.scenario.config
    n_samp = cfg.samples_per_symbol
    chips = floor_chips(cfg)
    assert np.array_equal(walsh_chip_bounds(cfg),
                          np.searchsorted(chips, np.arange(cfg.walsh_order + 1)))
    pn_chips = _pn_chips(runtime)
    pn_samples = np.repeat(pn_chips, cfg.oversampling, axis=1)
    offsets = np.arange(hpa._CELL_SAMPLES)
    for paths in (1, 2, 3):
        grid = hpa._cell_grid(cfg, pn_chips, paths)
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
        cosines = np.cos(np.arange(1, cfg.carriers)[:, None, None] * 2.0 * np.pi
                         * cfg.walsh_order / n_samp * positions) * inside
        assert np.allclose(grid.energy_terms, np.concatenate((
            grid.lengths[None], 2.0 * cosines.sum(axis=-1))), rtol=0.0, atol=1e-12)
        if paths == runtime.scenario.paths:
            assert np.array_equal(grid.starts, runtime.amplifier.cells.starts)


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
    grid = runtime.amplifier.cells
    symbols = drawn_symbols(np.random.default_rng(seed),
                            (cfg.users, 5, cfg.substreams, cfg.carriers))
    b = _einsum_row_coefficients(runtime, symbols)
    rho = hpa._autocorrelations(b, {})
    peak = hpa._peak_power_bound(rho, {})
    clip_power = _clip_power(runtime)

    linear, index, excess = _full_clip_search(runtime, symbols)
    power = np.square(linear.real) + np.square(linear.imag)
    chips = floor_chips(cfg)
    assert (power <= peak[chips].T * (1.0 + 1e-12)).all()
    row, position = np.divmod(index, cfg.samples_per_symbol)
    assert (peak[chips[position], row] >= clip_power).all()

    cell_bound = np.concatenate([
        hpa._cell_power_bound(grid, rho[:, chip], peak[chip], lo, hi, {})
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
    coefficients b (_einsum_row_coefficients) against the clip power, each
    row's peak bound summed term by term."""
    grid = runtime.amplifier.cells
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
    limiter = runtime.amplifier
    for block in range(8):
        _, symbols, _ = _block_draws(runtime, 0, block)
        b = _einsum_row_coefficients(runtime, symbols)
        rho = hpa._autocorrelations(limiter.linear_gain * b, {})
        kept = [np.stack((np.full(rows.size, chip), rows, cells), axis=1) for chip, rows, cells
                in hpa._clipped_cells(limiter, rho, {})]
        expected = _pq_clip_search(runtime, b)
        assert expected.shape[0] > 1000
        assert np.array_equal(np.concatenate(kept), expected)


def test_reused_cell_arrays_match_fresh_ones():
    """The limiter's working arrays, kept in runtime.work from block to
    block, give bit for bit the W formed in arrays made afresh, on two
    blocks whose kept cells and chunk sizes differ."""
    scenario = dataclasses.replace(_CLIPPED_LINEARIZED, ibo_db=1.0)
    runtime = harness._prepare(scenario)
    limiter = runtime.amplifier
    cfg = scenario.config
    rng = np.random.default_rng(5)
    gains = harness._path_gains(drawn_channel(rng, cfg.users, scenario.paths, scenario.decay_db,
                                              scenario.fading))
    blocks = [spread_symbols(runtime.walsh, drawn_symbols(
        rng, (cfg.users, n, cfg.substreams, cfg.carriers)), {}) for n in (9, 5)]
    counts = [sum(rows.size for rows, *_ in hpa._driven_cells(
        limiter, *hpa._limiter_drive(limiter, chips, {}), {})) for chips in blocks]
    assert counts[0] != counts[1] and min(counts) > 0
    reused = [hpa._excess_correlations(limiter, chips, gains, runtime.work).copy()
              for chips in blocks]
    for chips, w in zip(blocks, reused):
        assert np.array_equal(hpa._excess_correlations(limiter, chips, gains, {}), w)


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
    channel, symbols, _ = _block_draws(runtime, 0, 0)
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


def test_pooled_csv_bytes_match_serial_in_two_block_batches(tmp_path, forced_fork,
                                                           monkeypatch):
    """Each 4-block wave of tiny-3-path runs as one batch serially, and
    under a cap of two blocks per batch as one batch here and one in the
    pool, which gives the same CSV bytes."""
    scenario = dataclasses.replace(
        TINY, name="tiny-3-path", paths=3, decay_db=3.0, fading=True,
        config=LinkConfig(users=2, substreams=2, carriers=2, walsh_order=4,
                          pn_length=15, oversampling=4), **_POOLED)
    runtime = harness._prepare(scenario)
    assert runtime.batch_blocks >= scenario.blocks_per_wave
    serial = _csv_bytes(scenario, 1, tmp_path / "serial.csv")
    monkeypatch.setattr(harness, "_BATCH_VALUES", 2 * runtime.block_values)
    assert runtime.batch_blocks == 2
    assert _csv_bytes(scenario, 2, tmp_path / "pooled.csv") == serial
    assert forced_fork == ["fork"]


def _decided(runtime, point_index, block_ids, monkeypatch):
    """{block: (z, errors)} for each block of block_ids as _simulate_blocks
    decides it: the noisy outputs decide_slots is given, and the count."""
    decided = []
    decide_slots = harness.decide_slots
    with monkeypatch.context() as patch:
        patch.setattr(harness, "decide_slots",
                      lambda z, reference: decided.append(z.copy()) or decide_slots(z, reference))
        errors = harness._simulate_blocks(runtime, point_index, block_ids)
    return dict(zip(block_ids, zip(np.concatenate(decided), errors)))


@pytest.mark.parametrize("scenario", [
    dataclasses.replace(_TINY_UNALIGNED, name="batch-bypass", ebn0_grid=(2.0, 6.0)),
    dataclasses.replace(_TINY_UNALIGNED, name="batch-saleh-pd", hpa_mode="saleh_pd",
                        ibo_db=1.0, ebn0_grid=(2.0, 6.0)),
    dataclasses.replace(TINY, name="batch-saleh", hpa_mode="saleh", ibo_db=3.0,
                        ebn0_grid=(2.0, 6.0)),
], ids=lambda sc: sc.name)
def test_block_does_not_depend_on_its_batch(scenario, monkeypatch):
    """Block 3's noisy outputs and error count at the second point are bit
    for bit the same whether it runs alone, first, within or last in a
    batch, at the default cap (one batch of up to 8 blocks) or at one of 3
    blocks per batch.  With an amplifier every batch holds one block,
    whatever the cap."""
    runtime = harness._prepare(scenario)
    z, errors = _decided(runtime, 1, range(3, 4), monkeypatch)[3]
    for cap, batch in ((harness._BATCH_VALUES, 8), (3 * runtime.block_values, 3)):
        monkeypatch.setattr(harness, "_BATCH_VALUES", cap)
        if runtime.amplifier is None:
            assert min(runtime.batch_blocks, 8) == batch
        else:
            assert runtime.batch_blocks == 1
        for block_ids in (range(3, 8), range(2, 5), range(0, 8), range(1, 4), range(0, 4)):
            batched, batched_errors = _decided(runtime, 1, block_ids, monkeypatch)[3]
            assert batched.tobytes() == z.tobytes() and batched_errors == errors


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
    # two waves of eight blocks in batches of two, the serial budget 2.5
    # batches long: the pool forks after one to three batches and shares the
    # rest of the first wave
    scenario = dataclasses.replace(
        TINY, name="tiny-3-path", paths=3, decay_db=3.0, fading=True,
        config=LinkConfig(users=2, substreams=2, carriers=2, walsh_order=4,
                          pn_length=15, oversampling=4),
        ebn0_grid=(4.0,), blocks_per_wave=8, max_bits=2 * 8 * 16 * 4)
    serial = _csv_bytes(scenario, 1, tmp_path / "serial.csv")
    runtime = harness._prepare(scenario)
    monkeypatch.setattr(harness, "_BATCH_VALUES", 2 * runtime.block_values)
    assert runtime.batch_blocks == 2
    batch_s = min(timeit.repeat(lambda: harness._simulate_blocks(runtime, 0, range(2)),
                                number=1, repeat=5))
    monkeypatch.setattr(harness, "_SERIAL_BUDGET_S", 2.5 * batch_s)
    ran_here = []
    simulate = harness._simulate_blocks

    def recorded(runtime, point_index, block_ids):
        ran_here.extend(block_ids)  # a worker extends its own copy
        return simulate(runtime, point_index, block_ids)

    monkeypatch.setattr(harness, "_simulate_blocks", recorded)
    assert _csv_bytes(scenario, 2, tmp_path / "pooled.csv") == serial
    assert pool_forks == ["fork"]
    assert ran_here[:2] == [0, 1] and set(range(8)) - set(ran_here)


@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("users,n_total,substreams,carriers", [(1, 17, 1, 1), (3, 9, 2, 4),
                                                               (20, 257, 8, 8)])
def test_symbol_draw_unpacks_raw_words(seed, users, n_total, substreams, carriers):
    # symbol i is bit i mod 64 of raw word i // 64, and the symbols take
    # ceil(n / 64) words (n = 17 and 216 are not multiples of 64); a leading
    # axis holds one block's words per index
    shape = (users, n_total, substreams, carriers)
    n = math.prod(shape)
    assert harness._symbol_words(shape) == -(-n // 64)
    words = np.random.default_rng(seed).bit_generator.random_raw(-(-n // 64))
    symbols = harness._symbols_from_words(words, shape)
    i = np.arange(n, dtype=np.uint64)
    bits = (words[i // np.uint64(64)] >> (i % np.uint64(64))) & np.uint64(1)
    assert symbols.dtype == np.int8 and symbols.shape == shape
    assert np.array_equal(symbols.reshape(-1), np.where(bits == 1, 1, -1))
    batch = harness._symbols_from_words(np.stack((words, ~words)), shape)
    assert batch.shape == (2, *shape)
    assert np.array_equal(batch[0], symbols) and np.array_equal(batch[1], -symbols)


def test_symbol_draw_is_balanced_and_uncorrelated():
    # 2^20 symbols: the mean at every (user, substream, carrier) position and
    # the lag-1 correlation along the symbols there lie within 5 sigma of 0
    n_symbols = 4096
    symbols = drawn_symbols(np.random.default_rng(2024), (4, n_symbols, 8, 8))
    d = symbols.astype(np.float64)
    assert np.abs(d.mean(axis=1)).max() <= 5.0 / math.sqrt(n_symbols)
    lag1 = (d[:, 1:] * d[:, :-1]).mean(axis=1)
    assert np.abs(lag1).max() <= 5.0 / math.sqrt(n_symbols - 1)


@pytest.mark.parametrize("point, block", [(1, 4), (4, 1)])
def test_seeded_block_draws(point, block):
    """A block's generator comes from SeedSequence([master_seed, 0, point,
    block]) and draws its channel (the gains' standard exponentials, with
    fading, then the phases' uniforms), then its symbols' raw words, then
    its noise's standard normals: a twin generator drawn by hand in that
    order gives the block's gains, phases, symbols and normals bit for bit,
    whether the block is drawn alone or first, within or last in a batch,
    with fading and without."""
    for fading in (True, False):
        scenario = dataclasses.replace(_TINY_UNALIGNED, master_seed=97, fading=fading)
        cfg = scenario.config
        runtime = harness._prepare(scenario)
        shape = (cfg.users, scenario.symbols_per_block + 1, cfg.substreams, cfg.carriers)
        for block_ids in (range(block, block + 1), range(block, block + 3),
                          range(block - 1, block + 2), range(block - 1, block + 1)):
            channel, symbols, normals = harness._batch_draws(runtime, point, block_ids)
            at = block_ids.index(block)
            hand = np.random.default_rng(np.random.SeedSequence([97, 0, point, block]))
            expected = drawn_channel(hand, cfg.users, scenario.paths, scenario.decay_db, fading)
            words = hand.bit_generator.random_raw(harness._symbol_words(shape))
            assert np.array_equal(channel.gains[at], expected.gains)
            assert np.array_equal(channel.phases[at], expected.phases)
            assert np.array_equal(symbols[at], harness._symbols_from_words(words, shape))
            assert np.array_equal(normals[at], hand.standard_normal(
                (shape[1], cfg.substreams * cfg.carriers, 2)))


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
        simulate = harness._simulate_blocks

        def checked(*args):
            # runs in the forked workers too, where a failure reaches pool.map
            assert all(count == 1 for count in blas_threads())
            return simulate(*args)

        monkeypatch.setattr(harness, "_simulate_blocks", checked)
        run_scenario(TINY, workers=workers)
        assert blas_threads() == before
        assert forced_fork == (["fork"] if workers > 1 else [])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_count_restored_when_block_raises(self, blas_threads, monkeypatch, workers,
                                              forced_fork):
        before = blas_threads()

        def failing(*args):
            raise RuntimeError("block failed")

        monkeypatch.setattr(harness, "_simulate_blocks", failing)
        with pytest.raises(RuntimeError, match="block failed"):
            run_scenario(TINY, workers=workers)
        assert blas_threads() == before
        assert forced_fork == (["fork"] if workers > 1 else [])


    @pytest.mark.parametrize("scenario", [
        _preset_scenario("user-sweep", "users-1"),
        dataclasses.replace(TINY, name="small-saleh", hpa_mode="saleh",
                            config=LinkConfig(users=2, substreams=4, carriers=4, walsh_order=4,
                                              pn_length=63)),
    ], ids=lambda sc: sc.name)
    def test_setup_is_pinned_whoever_calls(self, blas_threads, scenario):
        """_prepare called outside any pin, at 2 OpenBLAS threads, gives the
        noise factor and calibration of one called inside a pin, bit for
        bit, and leaves the caller's counts as they were.  Unpinned at 2
        threads, users-1's Cholesky factor moves by up to 1.1e-16 and this tube's
        eb and phase_offset by 1-2 ulp."""
        before = blas_threads()
        unpinned = harness._prepare(scenario)
        assert blas_threads() == before
        with harness._single_threaded_blas():
            pinned = harness._prepare(scenario)
        assert float(unpinned.eb).hex() == float(pinned.eb).hex()
        assert float(unpinned.phase_offset).hex() == float(pinned.phase_offset).hex()
        assert np.array_equal(unpinned.noise_factor, pinned.noise_factor)

    def test_one_scan_per_public_call(self, blas_threads, monkeypatch):
        """An entry scans for OpenBLAS once and restores the counts, also
        when the body raises; a run and a measure_variances call each enter
        it once, around their setup and their blocks."""
        before = blas_threads()
        scan = harness._openblas_thread_calls
        scans = []
        monkeypatch.setattr(harness, "_openblas_thread_calls",
                            lambda: scans.append(None) or scan())
        with pytest.raises(RuntimeError, match="inner"):
            with harness._single_threaded_blas():
                assert all(count == 1 for count in blas_threads())
                raise RuntimeError("inner")
        assert blas_threads() == before
        assert len(scans) == 1
        run_scenario(TINY)
        measure_variances(TINY, n_symbols=16)
        assert len(scans) == 3
        assert blas_threads() == before


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

    def test_split_memory_stays_under_a_full_symbol_copy(self):
        # One 256-symbol chunk of multicode-multicarrier as float64 is
        # 20 users x 256 x 64 slots x 8 B = 2.6 MB; the split converts the
        # users a group at a time, so one whole call peaks well under it.
        scenario = _preset_scenario("system-comparison", "multicode-multicarrier")
        cfg = scenario.config
        runtime = harness._prepare(scenario)
        rng = np.random.default_rng(5)
        channel = drawn_channel(rng, cfg.users, scenario.paths, scenario.decay_db,
                                scenario.fading)
        full_copy = cfg.users * 256 * cfg.substreams * cfg.carriers * 8
        tracemalloc.start()
        try:
            estimate_interference_variances(runtime, channel, 8.0, rng, 2000, chunk=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_copy / 2

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_rejected(self, chunk):
        runtime = harness._prepare(TINY)
        rng = np.random.default_rng(0)
        channel = drawn_channel(rng, 1, 1, 0.0, False)
        with pytest.raises(ValueError, match="chunk must be at least 1 symbol, got"):
            estimate_interference_variances(runtime, channel, 0.0, rng, 16, chunk=chunk)


def _full_copy_column_outputs(weighted, symbols):
    """harness._column_outputs with every user's symbols converted to
    float64 at once."""
    users, windows, slots, _ = weighted.shape
    d = symbols.reshape(users, symbols.shape[1], slots).astype(np.float64)
    per_user = np.matmul(d, weighted[:, 0].view(np.float64))
    if windows == 2:
        per_user[:, 1:] += np.matmul(d[:, :-1], weighted[:, 1].view(np.float64))
    return per_user.sum(axis=0).view(np.complex128)


@pytest.mark.parametrize("users, n, slots, windows, values", [
    (5, 9, 4, 2, 3 * 9 * 4),     # groups of 3 users, the last one partial
    (5, 9, 4, 1, 3 * 9 * 4),
    (5, 9, 4, 2, 1),             # fewer values than one user's: one user a group
    (20, 257, 8, 2, None),       # multicode-only's chunks at the default buffer
    (0, 9, 4, 2, None),          # no other users
], ids=["partial-group", "partial-group-one-window", "user-per-group", "default", "no-users"])
def test_column_outputs_match_full_copy(users, n, slots, windows, values, monkeypatch):
    if values is not None:
        monkeypatch.setattr(harness, "_SPLIT_VALUES", values)
    rng = np.random.default_rng(users + n + windows)
    weighted = (rng.standard_normal((users, windows, slots, 3))
                + 1j * rng.standard_normal((users, windows, slots, 3)))
    work = {}
    buffers = []
    for length in (n, n - 4):   # a shorter last chunk reuses the buffer
        symbols = (2 * rng.integers(0, 2, size=(users, length, slots)) - 1).astype(np.int8)
        z = harness._column_outputs(weighted, symbols, work)
        assert z.shape == (length, 3)
        assert np.array_equal(z, _full_copy_column_outputs(weighted, symbols))
        if users == 0:
            assert not z.any()
        buffers.append(work["split"])
    assert buffers[0] is buffers[1]
    assert buffers[0].size == max(harness._SPLIT_VALUES, n * slots)


@pytest.mark.parametrize("config", [
    _preset_scenario("user-sweep", "users-50").config,
    _preset_scenario("system-comparison", "multicarrier-only").config,
    TINY.config,
], ids=["users-50", "multicarrier-only", "one-user"])
def test_user_codes_are_rolled_msequences(config):
    _, pn_chips = harness._user_codes(config)
    pn = generate_msequence(config.pn_length.bit_length())
    rolled = np.stack([np.roll(pn, k * config.shift_spacing) for k in range(config.users)])
    assert pn_chips.dtype == np.int8
    assert np.array_equal(pn_chips, rolled)

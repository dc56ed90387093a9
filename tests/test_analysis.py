"""BER theory: conditional BER against an independent erfc, fading-averaged
error rates, their confidence intervals, and the records with their CSV
form."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmccdma.analysis import (
    CSV_HEADER,
    BerRecord,
    binomial_ci95,
    conditional_ber,
    emit_csv,
    fading_averaged_ber,
    parse_csv,
    theoretical_curve,
)
from mcmccdma.config import Scenario
from mcmccdma.harness import run_scenario
from mcmccdma.receiver import InterferenceVariances
from mcmccdma.txchain import LinkConfig

from oracles import erfc_oracle


class TestErfc:
    """conditional_ber(gamma) = erfc(sqrt(gamma)) / 2, held to the
    independent series and continued fraction of oracles.erfc_oracle."""

    def test_against_independent_oracle(self):
        for x in np.linspace(0.0, 6.0, 1000):
            gamma = float(x) ** 2
            ref = 0.5 * erfc_oracle(math.sqrt(gamma))
            assert abs(conditional_ber(gamma) - ref) / ref <= 1e-7

    def test_anchors(self):
        assert conditional_ber(0.0) == 0.5
        assert conditional_ber(100.0) < 1e-40

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            conditional_ber(float("nan"))


class TestConditionalBer:
    def test_bpsk_6db_anchor(self):
        gamma = 10 ** 0.6
        assert conditional_ber(gamma) == pytest.approx(2.388290779e-3, rel=1e-6)

    def test_zero_snr(self):
        assert conditional_ber(0.0) == 0.5

    def test_monotone_decreasing(self):
        g = np.linspace(0.0, 20.0, 200)
        p = np.array([conditional_ber(x) for x in g])
        assert (np.diff(p) < 0).all()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            conditional_ber(-0.5)

    @pytest.mark.parametrize("gamma", [-1.0, float("nan")])
    def test_negative_and_nan_rejected(self, gamma):
        with pytest.raises(ValueError):
            conditional_ber(gamma)

    def test_infinite_snr(self):
        assert conditional_ber(float("inf")) == 0.0


class TestFadingAverage:
    @pytest.mark.parametrize("mean_gamma", [0.1, 1.0, 10.0, 100.0])
    def test_rayleigh_closed_form(self, mean_gamma):
        closed = 0.5 * (1.0 - math.sqrt(mean_gamma / (1.0 + mean_gamma)))
        assert fading_averaged_ber(mean_gamma) == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("mean_gamma", [1e4, 1e5, 1e6, 1e12])
    def test_high_snr_asymptote(self, mean_gamma):
        # the average falls as 1/(4 mean) (Proakis, sec. 14.3); the direct
        # closed form cancels to no correct digit here
        assert fading_averaged_ber(mean_gamma) == pytest.approx(0.25 / mean_gamma, rel=1e-3)

    def test_infinite_snr(self):
        assert fading_averaged_ber(float("inf")) == 0.0

    @pytest.mark.parametrize("mean_gamma", [-1.0, float("nan")])
    def test_negative_and_nan_rejected(self, mean_gamma):
        with pytest.raises(ValueError):
            fading_averaged_ber(mean_gamma)

    def test_zero_gamma(self):
        assert fading_averaged_ber(0.0) == 0.5

    def test_jensen_direction(self):
        # averaging over the fade distribution always hurts at these SNRs
        for g in (1.0, 10.0):
            assert fading_averaged_ber(g) > conditional_ber(g)

    def test_oracle_value_10db(self):
        assert fading_averaged_ber(10.0) == pytest.approx(0.02326870538, abs=1e-9)


class TestBinomialCi:
    def test_formula(self):
        errors, bits = 100, 10_000
        p = errors / bits
        expected = 1.96 * math.sqrt(p * (1 - p) / bits)
        assert binomial_ci95(errors, bits) == pytest.approx(expected, rel=1e-12)

    def test_degenerate(self):
        assert binomial_ci95(0, 1000) == 0.0
        assert binomial_ci95(1000, 1000) == 0.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            binomial_ci95(5, 0)
        with pytest.raises(ValueError):
            binomial_ci95(11, 10)


class TestCiCoverage:
    def test_nominal_coverage_synthetic(self):
        rng = np.random.default_rng(2024)
        p, n, trials = 0.1, 1000, 100
        hits = 0
        for _ in range(trials):
            k = rng.binomial(n, p)
            hits += abs(k / n - p) <= binomial_ci95(k, n)
        assert 90 <= hits <= 99


def _vars(noise, desired=2.0, mui=0.0, reference_gain=1.0):
    return InterferenceVariances(
        desired_power=desired, multipath=0.0, inter_substream=0.0,
        inter_carrier=0.0, multi_user=mui, noise=noise, n_symbols=1000,
        reference_gain=reference_gain)


def _theory_scenario(grid, name="theory", **fields):
    """A scenario whose theory curve runs over grid."""
    return Scenario(name=name, config=LinkConfig(), ebn0_grid=tuple(grid), **fields)


class TestTheoreticalCurve:
    def test_awgn_matches_closed_form(self):
        # pure-noise variances: scaling the noise floor must reproduce
        # 0.5*erfc(sqrt(Eb/N0)) across the grid
        eb = 2.0
        ref_db = 4.0
        n0 = eb / 10 ** (ref_db / 10)
        var = _vars(noise=n0 / 1.0)      # T_sym = 1: sigma^2 = N0/T
        grid = (0.0, 2.0, 4.0, 6.0, 8.0)
        records = theoretical_curve(var, _theory_scenario(grid, "awgn"), ref_db)
        assert [r.ebn0_db for r in records] == list(grid)
        assert {r.scenario for r in records} == {"awgn-theory"}
        for r in records:
            expected = 0.5 * math.erfc(math.sqrt(10 ** (r.ebn0_db / 10)))
            assert r.ber == pytest.approx(expected, rel=1e-9)
            assert r.source == "theoretical"
            assert r.bits == 0 and r.errors == 0

    def test_interference_floor(self):
        # non-noise variance does not scale with Eb/N0: BER floors out
        var = _vars(noise=0.2, mui=0.1)
        records = theoretical_curve(var, _theory_scenario(range(0, 41, 5)), 10.0)
        bers = [r.ber for r in records]
        assert all(np.diff(bers) < 0)
        floor = conditional_ber(var.desired_power / var.multi_user)
        assert bers[-1] > 0.9 * floor

    def test_fading_variant_uses_average(self):
        var = _vars(noise=0.2)
        ref = 10.0
        rec = theoretical_curve(var, _theory_scenario((ref,), fading=True), ref)[0]
        assert rec.ber == pytest.approx(fading_averaged_ber(2.0 / 0.2), rel=1e-9)

    def test_fading_divides_out_the_reference_gain(self):
        # the draw's reference path at 4x its mean power: the Rayleigh
        # average starts from a quarter of the measured desired power
        var = _vars(noise=0.2, desired=8.0, reference_gain=4.0)
        rec = theoretical_curve(var, _theory_scenario((10.0,), fading=True), 10.0)[0]
        assert rec.ber == pytest.approx(fading_averaged_ber(2.0 / 0.2), rel=1e-12)
        # without fading the measured power is the one the decisions see
        rec = theoretical_curve(var, _theory_scenario((10.0,)), 10.0)[0]
        assert rec.ber == pytest.approx(conditional_ber(8.0 / 0.2), rel=1e-12)

    def test_record_metadata(self):
        var = _vars(noise=0.5)
        config = LinkConfig(users=20, substreams=8, carriers=8, walsh_order=8, pn_length=1023)
        scenario = Scenario(name="meta", config=config, hpa_mode="saleh", ibo_db=7.0,
                            ebn0_grid=(3.0,))
        rec = theoretical_curve(var, scenario, 3.0)[0]
        assert rec.scenario == "meta-theory"
        assert (rec.users, rec.substreams, rec.carriers) == (20, 8, 8)
        assert rec.hpa_mode == "saleh"
        assert rec.ibo_db == 7.0
        assert rec.ci95 == 0.0
        assert rec.seed is None


class TestBerRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            BerRecord(scenario="x", ebn0_db=0.0, users=1, substreams=1,
                      carriers=1, hpa_mode="bypass", ibo_db=None, bits=10,
                      errors=20, ber=2.0, ci95=0.0, source="monte-carlo",
                      seed=None)

    def test_source_tag_checked(self):
        with pytest.raises(ValueError):
            BerRecord(scenario="x", ebn0_db=0.0, users=1, substreams=1,
                      carriers=1, hpa_mode="bypass", ibo_db=None, bits=10,
                      errors=1, ber=0.1, ci95=0.0, source="guesswork",
                      seed=None)


# a one-point run of the smallest link, for the CSV round trip
_ONE_POINT = Scenario(
    name="tiny",
    config=LinkConfig(users=1, substreams=1, carriers=1, walsh_order=1,
                      pn_length=7, oversampling=4),
    ebn0_grid=(0.0,), min_errors=100, symbols_per_block=16, master_seed=99)


class TestCsv:
    RECORD = BerRecord(scenario="t", ebn0_db=1.0, users=2, substreams=3, carriers=4,
                       hpa_mode="saleh", ibo_db=7.0, bits=100, errors=5, ber=0.05, ci95=0.01,
                       source="theoretical", seed=None)

    def test_header_exact(self):
        assert CSV_HEADER == ("scenario,ebn0_db,k,r,m,hpa_mode,ibo_db,"
                              "bits,errors,ber,ci95,source,seed")

    def test_round_trip(self, tmp_path):
        rep = run_scenario(_ONE_POINT)
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
        config = LinkConfig(users=20, pn_length=31)
        scenario = Scenario(name="users-20", config=config, hpa_mode="saleh", ibo_db=7.0,
                            ebn0_grid=(0.0, 5.0, 10.0))
        records = theoretical_curve(variances, scenario, 0.0)
        path = tmp_path / "theory.csv"
        emit_csv(records, path)
        assert parse_csv(path) == records

    def test_parse_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            parse_csv(path)


@given(st.floats(0.0, 5.5))
@settings(max_examples=300, deadline=None)
def test_erfc_oracle_property(x):
    gamma = x * x
    ref = 0.5 * erfc_oracle(math.sqrt(gamma))
    assert abs(conditional_ber(gamma) - ref) <= 1e-7 * max(ref, 1e-30)


@given(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
@settings(max_examples=100, deadline=None)
def test_conditional_ber_ordering_property(a, b):
    lo, hi = sorted((a, b))
    assert conditional_ber(hi) <= conditional_ber(lo) + 1e-300

"""Nonlinear amplifier model, operating point, and analytic predistorter."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmccdma.config import Scenario
from mcmccdma.hpa import (
    SalehParams,
    amam,
    amplify_samples,
    ampm,
    amplifier_drive,
    apply_predistorter,
    compute_obo,
    input_scale_for_power,
    limiter_factor,
    pd_amplitude,
)
from mcmccdma.txchain import LinkConfig

P = SalehParams()


class TestSalehCurves:
    def test_amam_anchor_values(self):
        # closed forms: peak at u = 1/sqrt(beta), value alpha/(2 sqrt(beta))
        u_peak = 1.0 / np.sqrt(P.beta_am)
        g_peak = P.alpha_am / (2.0 * np.sqrt(P.beta_am))
        assert P.saturation_input == pytest.approx(u_peak, abs=1e-15)
        assert P.saturation_output == pytest.approx(g_peak, abs=1e-15)
        assert amam(u_peak, P) == pytest.approx(g_peak, abs=1e-12)
        assert u_peak == pytest.approx(0.93181632877, abs=1e-9)
        assert g_peak == pytest.approx(1.00575595446, abs=1e-9)

    def test_amam_peak_is_maximum(self):
        u = np.linspace(0.0, 5.0, 20001)
        g = amam(u, P)
        assert g.max() <= P.saturation_output + 1e-12
        assert abs(u[g.argmax()] - P.saturation_input) < 5e-4

    def test_ampm_anchor(self):
        # printed transfer alpha_p*u/(1+beta_p*u^2): peak alpha_p/(2 sqrt(beta_p))
        u_peak = 1.0 / np.sqrt(P.beta_pm)
        phi_peak = P.alpha_pm / (2.0 * np.sqrt(P.beta_pm))
        assert ampm(u_peak, P) == pytest.approx(phi_peak, abs=1e-12)
        assert phi_peak == pytest.approx(0.66339472878, abs=1e-9)

    def test_ampm_quadratic_variant(self):
        quad = SalehParams(ampm_quadratic=True)
        u = np.linspace(0.0, 10.0, 500)
        phi = ampm(u, quad)
        # u^2 numerator saturates instead of peaking
        assert (np.diff(phi) > -1e-15).all()
        assert phi[-1] == pytest.approx(P.alpha_pm / P.beta_pm, rel=2e-3)

    def test_small_signal_linear(self):
        u = 1e-6
        assert amam(u, P) == pytest.approx(P.alpha_am * u, rel=1e-9)
        assert ampm(u, P) == pytest.approx(P.alpha_pm * u, rel=1e-9)

    def test_amam_zero(self):
        assert amam(0.0, P) == 0.0
        assert ampm(0.0, P) == 0.0

    def test_rejects_negative_modulus(self):
        with pytest.raises(ValueError):
            amam(-0.1, P)
        with pytest.raises(ValueError):
            ampm(np.array([0.2, -0.3]), P)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SalehParams(alpha_am=0.0)
        with pytest.raises(ValueError):
            SalehParams(beta_pm=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["alpha_am", "beta_am", "alpha_pm", "beta_pm"])
    def test_nonfinite_coefficient_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            SalehParams(**{name: value})

    @pytest.mark.parametrize("kwargs", [
        dict(beta_am=1e-320),    # input saturation power 1/beta_am overflows
        dict(alpha_am=1e-300),   # output saturation power underflows to 0
        dict(alpha_am=4e169),    # output saturation power overflows
    ], ids=["input-infinite", "output-zero", "output-overflows"])
    def test_degenerate_saturation_power_rejected(self, kwargs):
        # pytest turns warnings into errors, so this also holds the check
        # to computing the powers without an overflow warning
        with pytest.raises(ValueError, match="saturation input and output powers"):
            SalehParams(**kwargs)

    def test_extreme_coefficients_with_finite_saturation_accepted(self):
        params = SalehParams(alpha_am=1e200, beta_am=1e200)
        assert params.saturation_output_power == pytest.approx(2.5e199)
        assert params.saturation_input_power == 1e-200

    @pytest.mark.parametrize("kwargs, message", [
        (dict(ampm_quadratic="off"), "ampm_quadratic must be true or false"),
        (dict(ampm_quadratic=1), "ampm_quadratic must be true or false"),
        (dict(alpha_am=True), "alpha_am must be a number"),
        (dict(beta_pm="9.1"), "beta_pm must be a number"),
    ])
    def test_mistyped_param_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SalehParams(**kwargs)


class TestOperatingPoint:
    def test_scale_from_ibo(self):
        # IBO in dB: input saturation power over scaled mean input power
        mean_power = 4.0
        for ibo in (0.0, 3.0, 7.0, 9.0):
            scale = input_scale_for_power(mean_power, ibo, P)
            scaled = (scale ** 2) * mean_power
            ratio_db = 10 * np.log10(P.saturation_input_power / scaled)
            assert ratio_db == pytest.approx(ibo, abs=1e-10)

    def test_ibo_scale_ratio(self):
        scale7 = input_scale_for_power(1.0, 7.0, P)
        scale9 = input_scale_for_power(1.0, 9.0, P)
        assert scale7 / scale9 == pytest.approx(10 ** 0.1, rel=1e-12)

    @pytest.mark.parametrize("ibo_db", [-3.0, 0.0, 7.0])
    def test_amplifier_drives_back_off_their_saturation_powers(self, ibo_db):
        """The linear chain's mean power, 2 x 2 substreams x 4 carriers, is
        driven ibo_db below the tube's saturating input power and below the
        limiter's saturated output power, which the predistorter targets."""
        config = LinkConfig(substreams=2, carriers=4, walsh_order=2)
        for mode, saturation in (("saleh", P.saturation_input_power),
                                 ("saleh_pd", P.saturation_output_power)):
            drive = amplifier_drive(Scenario(name="drive", config=config, hpa_mode=mode,
                                             ibo_db=ibo_db))
            assert drive**2 * 16.0 * 10.0 ** (ibo_db / 10.0) == pytest.approx(saturation,
                                                                              rel=1e-12)


class TestApplyHpa:
    def test_pointwise_transfer(self):
        rng = np.random.default_rng(1)
        x = 0.4 * (rng.standard_normal(256) + 1j * rng.standard_normal(256))
        out = amplify_samples(x, P)
        u = np.abs(x)
        expected = amam(u, P) * np.exp(1j * (np.angle(x) + ampm(u, P)))
        assert np.allclose(out, expected, atol=1e-14)

    def test_memoryless_permutation(self):
        rng = np.random.default_rng(2)
        x = 0.5 * (rng.standard_normal(128) + 1j * rng.standard_normal(128))
        perm = rng.permutation(128)
        a = amplify_samples(x, P)[perm]
        b = amplify_samples(x[perm], P)
        assert np.array_equal(a, b)

    def test_obo_of_linear_regime(self):
        # deep back-off: nearly linear, so OBO(dB) is IBO minus the
        # small-signal power gain referred to saturation.  alpha*u_sat equals
        # 2*g_sat identically for this model, so the offset is 20*log10(2);
        # residual compression nudges OBO slightly above that.
        rng = np.random.default_rng(4)
        x = rng.standard_normal(65536) + 1j * rng.standard_normal(65536)
        ibo = 30.0
        scale = input_scale_for_power(float(np.mean(np.abs(x) ** 2)), ibo, P)
        obo = compute_obo(amplify_samples(scale * x, P), P)
        linear_estimate = ibo - 20 * np.log10(2.0)
        assert linear_estimate < obo < linear_estimate + 0.05

    def test_obo_regression_default_waveform(self):
        # pinned: complex-gaussian drive at 7 dB IBO, classical coefficients
        rng = np.random.default_rng(np.random.SeedSequence(12345))
        x = rng.standard_normal(2 ** 16) + 1j * rng.standard_normal(2 ** 16)
        scale = input_scale_for_power(float(np.mean(np.abs(x) ** 2)), 7.0, P)
        assert compute_obo(amplify_samples(scale * x, P), P) == pytest.approx(3.46646831,
                                                                          abs=1e-6)


class TestPredistorter:
    def test_round_trip_amplitude_and_phase(self):
        g = np.linspace(0.0, 0.99 * P.saturation_output, 10000)
        u = pd_amplitude(g, P)
        assert np.abs(amam(u, P) - g).max() <= 1e-9
        out = amplify_samples(apply_predistorter(g.astype(np.complex128), P), P)
        assert np.abs(np.abs(out) - g).max() <= 1e-9
        phase = np.angle(out)
        phase[g == 0] = 0.0
        assert np.abs(phase).max() <= 1e-9

    def test_pd_amplitude_frozen_value(self):
        # hand-derived inverse at g = 0.5: u = 2g/(alpha + sqrt(alpha^2-4 beta g^2))
        assert pd_amplitude(0.5, P) == pytest.approx(0.24803175466689, abs=1e-11)

    def test_clamp_beyond_saturation(self):
        g_max = P.saturation_output
        assert pd_amplitude(2.0 * g_max, P) == pytest.approx(P.saturation_input, rel=1e-12)
        out = amam(pd_amplitude(np.array([1.5 * g_max]), P), P)
        assert out[0] == pytest.approx(g_max, rel=1e-12)

    def test_monotone_on_invertible_range(self):
        g = np.linspace(0.0, P.saturation_output, 512)
        u = pd_amplitude(g, P)
        assert (np.diff(u) > 0).all()
        assert u[-1] == pytest.approx(P.saturation_input, rel=1e-12)

    def test_phase_precompensation(self):
        x = np.array([0.3 + 0.4j])
        pre = apply_predistorter(x, P)
        u = np.abs(pre)
        assert np.angle(pre)[0] == pytest.approx(
            np.angle(x)[0] - ampm(u, P)[0], abs=1e-12)


@given(st.floats(0.0, 0.999))
@settings(max_examples=200, deadline=None)
def test_pd_inverse_property(frac):
    g = frac * P.saturation_output
    u = pd_amplitude(g, P)
    assert abs(amam(u, P) - g) <= 1e-9
    assert 0.0 <= u <= P.saturation_input + 1e-12


@given(st.floats(1.0, 50.0), st.floats(0.01, 10.0))
@settings(max_examples=100, deadline=None)
def test_operating_point_property(ibo_db, mean_power):
    scale = input_scale_for_power(mean_power, ibo_db, P)
    assert scale > 0
    back_off = P.saturation_input_power / (scale ** 2 * mean_power)
    assert 10 * np.log10(back_off) == pytest.approx(ibo_db, abs=1e-9)


@pytest.mark.parametrize("mean_power, ibo_db", [
    (float("nan"), 7.0), (float("inf"), 7.0), (0.0, 7.0), (-1.0, 7.0),
    (1.0, float("nan")), (1.0, float("inf")), (1.0, float("-inf")),
    (1.0, 4000.0),      # the scale underflows to zero
    (1.0, -4000.0),     # the scale overflows
])
def test_input_scale_rejects_nonfinite_or_degenerate(mean_power, ibo_db):
    with pytest.raises(ValueError):
        input_scale_for_power(mean_power, ibo_db, P)


def _drive(max_modulus):
    """Complex samples from 0 to max_modulus at scattered phases, zero included."""
    rng = np.random.default_rng(21)
    modulus = np.linspace(0.0, max_modulus, 2001)
    return modulus * np.exp(1j * rng.uniform(-np.pi, np.pi, modulus.size))


def _close(got, expected):
    return np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("quadratic", [False, True])
@pytest.mark.parametrize("ibo_db", [None, 3.0])
def test_apply_hpa_matches_curve_formulas(quadratic, ibo_db):
    params = SalehParams(ampm_quadratic=quadratic)
    x = _drive(2.0 * params.saturation_input)
    scaled = (x if ibo_db is None
              else input_scale_for_power(float(np.mean(np.abs(x) ** 2)), ibo_db, params) * x)
    u = np.abs(scaled)
    expected = amam(u, params) * np.exp(1j * (np.angle(scaled) + ampm(u, params)))
    assert _close(amplify_samples(scaled, params), expected)


@pytest.mark.parametrize("quadratic", [False, True])
def test_apply_predistorter_matches_curve_formulas(quadratic):
    params = SalehParams(ampm_quadratic=quadratic)
    x = _drive(1.5 * params.saturation_output)      # the top third clamps
    u = pd_amplitude(np.abs(x), params)
    expected = u * np.exp(1j * (np.angle(x) - ampm(u, params)))
    assert _close(apply_predistorter(x, params), expected)


@pytest.mark.parametrize("quadratic", [False, True])
def test_limiter_is_the_predistorted_tube(quadratic):
    params = SalehParams(ampm_quadratic=quadratic)
    sat = params.saturation_output
    # moduli at 0, below, exactly at and above the peak output, each at
    # scattered phases
    modulus = np.concatenate([[0.0, sat, sat], np.linspace(0.0, 0.999 * sat, 497),
                              np.linspace(1.001 * sat, 4.0 * sat, 500)])
    rng = np.random.default_rng(5)
    x = modulus * np.exp(1j * rng.uniform(-np.pi, np.pi, modulus.size))
    reference = amplify_samples(apply_predistorter(x, params), params)
    excess = x * limiter_factor(x, params)
    got = x + excess
    assert got[0] == 0.0
    assert np.all(np.abs(got - reference) <= 1e-12 * np.abs(reference))
    assert np.abs(got).max() <= sat * (1.0 + 1e-15)
    # a tile keeps its shape
    tile = x.reshape(20, -1)
    assert np.array_equal(tile * limiter_factor(tile, params), excess.reshape(20, -1))
    # the excess is x times the real limiter factor, which a working array
    # receives bit for bit
    factor = limiter_factor(x, params)
    assert factor.dtype == np.float64 and np.array_equal(x * factor, excess)
    out = np.full(x.size, np.nan)
    assert limiter_factor(x, params, out=out) is out and np.array_equal(out, factor)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                                 complex(np.nan, 0.0), complex(1e200, 0.0)])
@pytest.mark.parametrize("stage", ["hpa", "predistorter", "limiter", "obo"])
def test_frame_kernels_reject_nonfinite_samples(bad, stage):
    # a finite sample whose squared modulus overflows is named as such,
    # with no overflow warning on the way
    x = np.full(16, 0.3 + 0.1j)
    x[7] = bad
    with pytest.raises(ValueError, match="overflows" if np.isfinite(bad) else "finite"):
        if stage == "hpa":
            amplify_samples(x, P)
        elif stage == "predistorter":
            apply_predistorter(x, P)
        elif stage == "limiter":
            tile = x.reshape(4, 4)
            tile * limiter_factor(tile, P)
        else:
            compute_obo(x, P)


def test_obo_rejects_empty_samples():
    with pytest.raises(ValueError, match="no samples"):
        compute_obo(np.empty(0, dtype=np.complex128), P)


def _exact_curves(u: float, params: SalehParams) -> tuple:
    """amam(u) and ampm(u) in exact rational arithmetic, rounded once."""
    u, power = Fraction(u), Fraction(u) ** 2
    gain = Fraction(params.alpha_am) * u / (1 + Fraction(params.beta_am) * power)
    phase = (Fraction(params.alpha_pm) * (power if params.ampm_quadratic else u)
             / (1 + Fraction(params.beta_pm) * power))
    return float(gain), float(phase)


@pytest.mark.parametrize("quadratic", [False, True])
def test_curves_hold_where_beta_times_power_overflows(quadratic):
    # beta_pm |x|^2 overflows above |x| ~ 4.4e153, beta_am |x|^2 above
    # ~1.25e154 and |x|^2 itself above ~1.34e154
    params = SalehParams(ampm_quadratic=quadratic)
    moduli = np.array([1e153, 5e153, 1e154, 1.3e154])
    x = moduli * np.exp(0.7j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = amplify_samples(x, params)
        gains, phases = amam(moduli, params), ampm(moduli, params)
        mixed = amplify_samples(np.array([0.3 + 0.1j, x[-1]]), params)
    assert np.isfinite(out).all()
    for k, u in enumerate(moduli):
        gain, phase = _exact_curves(u, params)
        reference = gain * np.exp(1j * (0.7 + phase))
        assert abs(out[k] - reference) <= 1e-12 * abs(reference)
        assert gains[k] == pytest.approx(gain, rel=1e-12, abs=0.0)
        assert phases[k] == pytest.approx(phase, rel=1e-12, abs=0.0)
    # the asymptote is taken only where the product overflows
    assert mixed[0] == amplify_samples(np.array([0.3 + 0.1j]), params)[0]
    assert mixed[1] == out[-1]

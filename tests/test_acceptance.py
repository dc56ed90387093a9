"""End-to-end acceptance checks for the whole toolkit.

Every test here exercises a released behavior at its required tolerance and
prints one summary line.  Monte Carlo tests pin their seeds, so they are
deterministic pass/fail, and each carries its own wall-clock budget sized
for a single CPU.
"""

import dataclasses
import math
import time

import numpy as np

from mcmccdma.analysis import conditional_ber, emit_csv, erfc, fading_averaged_ber
from mcmccdma import harness
from mcmccdma.channel import draw_channel
from mcmccdma.codes import PRIMITIVE_TAPS, generate_msequence, generate_walsh
from mcmccdma.config import Scenario, preset
from mcmccdma.harness import run_scenario
from mcmccdma.hpa import (SalehParams, amam, amplify_samples, ampm, apply_predistorter)
from mcmccdma.txchain import LinkConfig


def _erfc_oracle(x: float) -> float:
    """Independent erfc: Maclaurin series below 3, Laplace continued
    fraction above; both converge well past the tested tolerance."""
    if x < 0:
        return 2.0 - _erfc_oracle(-x)
    if x < 3.0:
        total = 0.0
        term = x
        n = 0
        while abs(term) > 1e-18 * max(abs(total), 1.0) and n <= 200:
            total += term / (2 * n + 1)
            n += 1
            term *= -x * x / n
        return 1.0 - 2.0 / math.sqrt(math.pi) * total
    f = 0.0
    for k in range(120, 0, -1):
        f = (k / 2.0) / (x + f)
    return math.exp(-x * x) / math.sqrt(math.pi) / (x + f)


def _report(label: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_walsh_and_msequence_properties():
    started = time.perf_counter()
    for order in (2, 4, 8, 16, 32, 64):
        rows = generate_walsh(order).astype(np.int64)
        gram = rows @ rows.T
        assert np.array_equal(gram, order * np.eye(order, dtype=np.int64))
    for degree in sorted(PRIMITIVE_TAPS):
        n = (1 << degree) - 1
        chips = generate_msequence(degree, PRIMITIVE_TAPS[degree]).astype(np.int64)
        assert chips.size == n
        assert chips.sum() == -1
        for shift in range(1, n):
            assert int(chips @ np.roll(chips, shift)) == -1
        assert int(chips @ chips) == n
    elapsed = time.perf_counter() - started
    _report("code properties", elapsed < 1.0,
            f"Walsh orders 2..64 exactly orthogonal, register lengths "
            f"{min(PRIMITIVE_TAPS)}..{max(PRIMITIVE_TAPS)} balanced with "
            f"two-valued autocorrelation ({elapsed:.2f} s)")


def test_erfc_accuracy():
    xs = np.linspace(-6.0, 6.0, 1000)
    worst = 0.0
    for x in xs:
        ref = _erfc_oracle(float(x))
        worst = max(worst, abs(erfc(float(x)) - ref) / abs(ref))
    _report("erfc accuracy", worst <= 1e-7,
            f"worst relative error {worst:.2e} over 1000 points in [-6, 6]")


def test_bpsk_awgn_closure():
    started = time.perf_counter()
    scenario = Scenario(
        name="bpsk-baseline",
        config=LinkConfig(users=1, substreams=1, carriers=1, walsh_order=1,
                          pn_length=7, oversampling=4),
        ebn0_grid=(0.0, 2.0, 4.0, 6.0, 8.0),
        min_errors=1, min_bits=200_000, allow_small_min_errors=True,
        symbols_per_block=256, master_seed=20260817)
    report = run_scenario(scenario)
    deviations = []
    for record in report.records:
        theory = conditional_ber(10.0 ** (record.ebn0_db / 10.0))
        assert record.bits >= 200_000
        assert abs(record.ber - theory) <= record.ci95, (
            f"{record.ebn0_db} dB: measured {record.ber:.4e} vs {theory:.4e} "
            f"outside +-{record.ci95:.2e}")
        deviations.append(abs(record.ber - theory) / record.ci95)
    elapsed = time.perf_counter() - started
    _report("BPSK/AWGN closure", elapsed < 60.0,
            f"5 points at 0..8 dB inside the 95% interval "
            f"(worst deviation {max(deviations):.2f} of one halfwidth, "
            f"{record.bits} bits/point, {elapsed:.1f} s)")


def test_noiseless_reconstruction():
    started = time.perf_counter()
    scenario = Scenario(
        name="loopback",
        config=LinkConfig(users=1, substreams=8, carriers=8, walsh_order=8,
                          pn_length=63, oversampling=4),
        noise_enabled=False, ebn0_grid=(0.0,),
        min_errors=1, allow_small_min_errors=True, max_bits=10_000,
        symbols_per_block=32, blocks_per_wave=5, master_seed=20260817)
    report = run_scenario(scenario)
    record = report.records[0]
    elapsed = time.perf_counter() - started
    ok = record.errors == 0 and record.bits >= 10_000 and elapsed < 10.0
    _report("noiseless reconstruction", ok,
            f"{record.errors} errors over {record.bits} bits, 8 substreams x "
            f"8 carriers, 63-chip spreading ({elapsed:.1f} s)")


def test_predistorter_cancellation():
    started = time.perf_counter()
    params = SalehParams()
    targets = np.linspace(0.0, 0.99 * params.saturation_output, 10_000)
    cascade = amplify_samples(apply_predistorter(targets.astype(np.complex128), params), params)
    amp_residual = float(np.max(np.abs(np.abs(cascade) - targets)))
    phase = np.angle(cascade)
    phase[targets == 0.0] = 0.0
    phase_residual = float(np.max(np.abs(phase)))
    elapsed = time.perf_counter() - started
    ok = amp_residual <= 1e-9 and phase_residual <= 1e-9 and elapsed < 1.0
    _report("predistorter cancellation", ok,
            f"amplitude residual {amp_residual:.1e}, phase residual "
            f"{phase_residual:.1e} rad over 10^4 points up to 99% of "
            f"saturation ({elapsed:.2f} s)")


def test_saleh_curve_anchors():
    params = SalehParams()
    u_am = 1.0 / math.sqrt(params.beta_am)
    peak_am = params.alpha_am / (2.0 * math.sqrt(params.beta_am))
    u_pm = 1.0 / math.sqrt(params.beta_pm)
    peak_pm = params.alpha_pm / (2.0 * math.sqrt(params.beta_pm))
    err_am = abs(float(amam(u_am, params)) - peak_am)
    err_pm = abs(float(ampm(u_pm, params)) - peak_pm)
    grid = np.linspace(0.0, 5.0, 200_001)
    grid_max_am = float(np.max(amam(grid, params)))
    grid_max_pm = float(np.max(ampm(grid, params)))
    ok = (err_am <= 1e-12 and err_pm <= 1e-12
          and grid_max_am <= peak_am + 1e-12 and grid_max_pm <= peak_pm + 1e-12)
    _report("amplifier curve anchors", ok,
            f"gain peak {peak_am:.5f} at drive {u_am:.5f}, phase peak "
            f"{peak_pm:.5f} rad at drive {u_pm:.5f}, both exact to 1e-12 "
            f"and global maxima on a 200k-point grid")


def test_linearization_ordering():
    started = time.perf_counter()
    results = {}
    for scenario in preset("linearization"):
        scenario = dataclasses.replace(scenario, ebn0_grid=(10.0,))
        # records are the same at any worker count, and two take the tube
        # arms from about 44 s to 27 s on two cores
        results[scenario.name] = run_scenario(scenario, workers=2).records[0]
    pd = results["amplifier-linearized"]
    i9 = results["amplifier-ibo-9db"]
    i7 = results["amplifier-ibo-7db"]
    elapsed = time.perf_counter() - started
    ok = (all(r.errors >= 200 for r in results.values())
          and pd.ber + pd.ci95 < i9.ber - i9.ci95
          and i9.ber + i9.ci95 < i7.ber - i7.ci95
          and elapsed < 600.0)
    _report("linearization ordering", ok,
            f"predistorted {pd.ber:.4e} < 9 dB back-off {i9.ber:.4e} < "
            f"7 dB back-off {i7.ber:.4e} at 10 dB, 20 users, intervals "
            f"disjoint ({elapsed:.0f} s)")


def test_user_count_ordering():
    started = time.perf_counter()
    records = {}
    for scenario in preset("user-sweep"):
        scenario = dataclasses.replace(scenario, ebn0_grid=(8.0,))
        records[scenario.config.users] = run_scenario(scenario).records[0]
    b1, b10, b50 = records[1], records[10], records[50]
    elapsed = time.perf_counter() - started
    ok = (b1.ber + b1.ci95 < b10.ber - b10.ci95
          and b10.ber + b10.ci95 < b50.ber - b50.ci95)
    _report("user count ordering", ok,
            f"BER grows with load at 8 dB: {b1.ber:.4e} (1 user) < "
            f"{b10.ber:.4e} (10) < {b50.ber:.4e} (50), intervals disjoint "
            f"({elapsed:.0f} s)")


def test_carrier_count_ordering():
    started = time.perf_counter()
    records = {}
    for scenario in preset("carrier-sweep"):
        scenario = dataclasses.replace(scenario, ebn0_grid=(8.0,))
        records[scenario.config.carriers] = run_scenario(scenario).records[0]
    c2, c4, c8 = records[2], records[4], records[8]
    elapsed = time.perf_counter() - started
    ok = (c8.ber + c8.ci95 < c4.ber - c4.ci95
          and c4.ber + c4.ci95 < c2.ber - c2.ci95)
    _report("carrier count ordering", ok,
            f"more carriers help at 8 dB, 20 users: {c8.ber:.4e} (8) < "
            f"{c4.ber:.4e} (4) < {c2.ber:.4e} (2), intervals disjoint "
            f"({elapsed:.0f} s)")


def test_system_comparison_ordering():
    started = time.perf_counter()
    sweeps = {}
    for scenario in preset("system-comparison"):
        scenario = dataclasses.replace(scenario, ebn0_grid=(4.0, 8.0, 12.0))
        sweeps[scenario.name] = run_scenario(scenario).records
    ok = True
    for i in range(3):
        combined = sweeps["multicode-multicarrier"][i]
        for name in ("multicode-only", "multicarrier-only"):
            other = sweeps[name][i]
            ok &= combined.ber + combined.ci95 < other.ber - other.ci95
    elapsed = time.perf_counter() - started
    row = [sweeps["multicode-multicarrier"][i].ber for i in range(3)]
    _report("system comparison ordering", ok,
            f"combined spreading lowest at 4/8/12 dB with 20 users "
            f"({row[0]:.3e}/{row[1]:.3e}/{row[2]:.3e}), intervals disjoint "
            f"from both single-technique systems ({elapsed:.0f} s)")


def test_rayleigh_averaging():
    worst = 0.0
    for mean_gamma in (0.1, 1.0, 10.0, 100.0):
        closed = 0.5 * (1.0 - math.sqrt(mean_gamma / (1.0 + mean_gamma)))
        worst = max(worst, abs(fading_averaged_ber(mean_gamma) - closed))
    assert worst <= 1e-6, f"quadrature deviates {worst:.2e} from closed form"

    started = time.perf_counter()
    scenario = Scenario(
        name="flat-rayleigh",
        config=LinkConfig(users=1, substreams=1, carriers=1, walsh_order=1,
                          pn_length=7, oversampling=4),
        fading=True, ebn0_grid=(10.0,), min_errors=1000,
        symbols_per_block=1, blocks_per_wave=256, master_seed=20260817)
    record = run_scenario(scenario).records[0]
    closed = 0.5 * (1.0 - math.sqrt(10.0 / 11.0))
    elapsed = time.perf_counter() - started
    ok = abs(record.ber - closed) <= record.ci95
    _report("Rayleigh averaging", ok,
            f"quadrature within {worst:.1e} of closed form; flat-fading run "
            f"{record.ber:.5f} vs {closed:.5f} inside +-{record.ci95:.5f} "
            f"({elapsed:.0f} s)")


def test_decomposition_identity():
    cfg = LinkConfig(users=3, substreams=2, carriers=2, walsh_order=4,
                     pn_length=15, oversampling=4)
    scenario = Scenario(name="split", config=cfg, paths=2, decay_db=3.0, fading=True)
    runtime = harness._prepare(scenario)
    rng = np.random.default_rng(424242)
    channel = draw_channel(rng, users=3, n_paths=2, decay_db=3.0, fading=True)
    symbols = (2 * rng.integers(0, 2, size=(3, 1000, 2, 2)) - 1).astype(np.int8)
    sources = harness._source_outputs(runtime, channel, symbols)
    # The BER engine's noiseless slot (1, 1) output.
    z_total = harness._correlation_outputs(runtime, channel, symbols)[:, 0, 0]
    residual = np.abs(z_total - sum(sources.values()))
    worst = float(np.max(residual / np.maximum(np.abs(z_total), 1e-6)))
    assert worst <= 1e-10, f"split misses the total by {worst:.2e} relative"

    lone_scenario = dataclasses.replace(scenario, config=dataclasses.replace(cfg, users=1),
                                        paths=1, decay_db=0.0, fading=False)
    lone = draw_channel(rng, users=1, n_paths=1, decay_db=0.0, fading=False)
    symbols1 = (2 * rng.integers(0, 2, size=(1, 200, 2, 2)) - 1).astype(np.int8)
    sources1 = harness._source_outputs(harness._prepare(lone_scenario), lone, symbols1)
    lone_ok = bool(np.all(sources1["multipath"] == 0j) and np.all(sources1["multi_user"] == 0j))
    _report("decomposition identity", lone_ok,
            f"five-way noiseless split matches the correlator total within {worst:.1e} "
            f"relative over 1000 symbols; single-user single-path run has "
            f"exactly zero multipath and multi-user terms")


def test_reproducibility_across_workers(tmp_path):
    scenario = Scenario(
        name="repro-check",
        config=LinkConfig(users=3, substreams=2, carriers=2, walsh_order=4,
                          pn_length=15, oversampling=4),
        paths=2, fading=True, ebn0_grid=(6.0,), min_errors=100,
        symbols_per_block=16, master_seed=31415)
    blobs = {}
    for workers in (1, 4, 8):
        report = run_scenario(scenario, workers=workers)
        path = tmp_path / f"repro_{workers}.csv"
        emit_csv([report], path)
        blobs[workers] = path.read_bytes()
    ok = blobs[1] == blobs[4] == blobs[8]
    _report("reproducibility", ok,
            f"identical CSV bytes ({len(blobs[1])} B) at 1, 4 and 8 workers")

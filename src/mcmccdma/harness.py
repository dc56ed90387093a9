"""Monte Carlo engine, scenario presets and CSV emission.

Determinism contract: every simulated block derives its generator from
SeedSequence([master_seed, 0, point_index, block_index]), blocks are grouped
into fixed-size waves, and the stopping rule is evaluated only on completed
waves.  Error and bit counts are integer sums over a wave, so the emitted
records (and CSV bytes) are identical for any worker count and any
execution order.

Noise calibration: the energy per information bit is taken from the actual
transmitted (post-amplifier) waveform, once per scenario, so that back-off
settings change the signal the noise is matched to rather than silently
shifting the operating SNR.
"""

from __future__ import annotations

import ctypes
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from multiprocessing import get_context

import numpy as np

from .analysis import BerRecord, binomial_ci95
from .channel import NoiseSpec, add_awgn, draw_channel, propagate_samples
from .codes import PRIMITIVE_TAPS, WalshMatrix, generate_msequence, generate_walsh
from .hpa import (OperatingPoint, SalehParams, apply_hpa, apply_predistorter,
                  operating_point_for_power)
from .receiver import estimate_interference_variances, recover_bits
from .txchain import BasebandFrame, LinkConfig, modulate_user, modulation_table, slot_signatures

HPA_MODES = ("bypass", "saleh", "saleh_pd")

# Feedback taps for the longer shift registers the presets use; degrees up
# to 10 are covered by the built-in table in `codes`.
EXTENDED_TAPS = {11: (11, 2), 12: (12, 6, 4, 1)}

CSV_HEADER = "scenario,ebn0_db,k,r,m,hpa_mode,ibo_db,bits,errors,ber,ci95,source,seed"

_CALIBRATION_SYMBOLS = 256


@dataclass(frozen=True)
class Scenario:
    """Everything one Monte Carlo run needs, seeds included."""

    name: str
    config: LinkConfig
    paths: int = 1
    decay_db: float = 0.0
    fading: bool = False
    hpa_mode: str = "bypass"
    ibo_db: float = 7.0
    saleh: SalehParams = field(default_factory=SalehParams)
    ebn0_grid: tuple = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0)
    noise_enabled: bool = True
    min_errors: int = 100
    min_bits: int = 0
    min_blocks: int = 0
    max_bits: int = 10_000_000
    symbols_per_block: int = 16
    blocks_per_wave: int = 16
    master_seed: int = 20260817
    allow_small_min_errors: bool = False

    def __post_init__(self):
        if not self.name or any(c in self.name for c in ",\n\r"):
            raise ValueError(f"scenario name must be nonempty and comma-free, got {self.name!r}")
        if self.hpa_mode not in HPA_MODES:
            raise ValueError(f"hpa_mode must be one of {HPA_MODES}, got {self.hpa_mode!r}")
        if len(self.ebn0_grid) == 0:
            raise ValueError("ebn0_grid must not be empty")
        if not all(math.isfinite(x) for x in self.ebn0_grid):
            raise ValueError(f"ebn0_grid entries must be finite, got {self.ebn0_grid}")
        for name in ("decay_db", "ibo_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.paths < 1:
            raise ValueError(f"paths must be >= 1, got {self.paths}")
        if self.decay_db < 0:
            raise ValueError(f"decay_db must be nonnegative, got {self.decay_db}")
        if self.min_errors < 100 and not self.allow_small_min_errors:
            raise ValueError(
                f"min_errors={self.min_errors} is below 100; set allow_small_min_errors "
                "to accept the wider confidence interval"
            )
        if self.min_errors < 1:
            raise ValueError(f"min_errors must be >= 1, got {self.min_errors}")
        if self.symbols_per_block < 1 or self.blocks_per_wave < 1:
            raise ValueError("symbols_per_block and blocks_per_wave must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.paths > self.config.pn_length:
            raise ValueError(f"{self.paths} chip-spaced paths do not fit one symbol "
                             f"of {self.config.pn_length} chips")


@dataclass
class RunReport:
    """Records plus reproduction metadata for one scenario run."""

    scenario: Scenario
    records: list
    point_seconds: list
    master_seed: int
    config_echo: dict


@dataclass
class _Runtime:
    """Precomputed per-scenario tables shared by every block."""

    scenario: Scenario
    walsh: WalshMatrix
    pn_chips: np.ndarray       # (users, pn_length) +-1
    table: np.ndarray          # txchain.modulation_table, shared by every user
    signatures_user1: np.ndarray
    op: OperatingPoint | None
    pd_scale: float | None
    eb: float
    phase_offset: float
    warmup: int
    pad_samples: int


def _resolve_taps(degree: int):
    taps = PRIMITIVE_TAPS.get(degree) or EXTENDED_TAPS.get(degree)
    if taps is None:
        raise ValueError(f"no feedback taps known for register length {degree}; "
                         f"built-in coverage is degrees {sorted(PRIMITIVE_TAPS)} "
                         f"plus {sorted(EXTENDED_TAPS)}")
    return taps


def _prepare(scenario: Scenario) -> _Runtime:
    cfg = scenario.config
    degree = cfg.pn_length.bit_length()
    if (1 << degree) - 1 != cfg.pn_length:
        raise ValueError(f"pn_length must be 2**d - 1 for some register length d, got {cfg.pn_length}")
    if cfg.users > cfg.pn_length:
        raise ValueError(f"{cfg.users} users cannot get distinct shifts of a "
                         f"{cfg.pn_length}-chip sequence")
    pn = generate_msequence(degree, _resolve_taps(degree))
    stride = max(1, cfg.pn_length // cfg.users)
    if cfg.users > 1 and scenario.paths - 1 >= stride:
        raise ValueError(f"path delays up to {scenario.paths - 1} chips alias the "
                         f"{stride}-chip PN shift spacing between users")
    pn_chips = np.stack([np.roll(pn.chips, k * stride) for k in range(cfg.users)])

    walsh = generate_walsh(cfg.walsh_order)
    table = modulation_table(walsh, cfg)
    signatures_user1 = slot_signatures(walsh, pn_chips[0], cfg)

    mean_tx_power = 2.0 * cfg.power * cfg.substreams * cfg.carriers
    op = None
    pd_scale = None
    if scenario.hpa_mode == "saleh":
        op = operating_point_for_power(mean_tx_power, scenario.ibo_db, scenario.saleh)
    elif scenario.hpa_mode == "saleh_pd":
        # Output-referred back-off: the predistorter expects desired output
        # moduli, so the back-off is set against the saturated output power.
        pd_scale = float(np.sqrt(scenario.saleh.saturation_output_power
                                 / (mean_tx_power * 10.0 ** (scenario.ibo_db / 10.0))))

    runtime = _Runtime(scenario=scenario, walsh=walsh, pn_chips=pn_chips, table=table,
                       signatures_user1=signatures_user1, op=op, pd_scale=pd_scale,
                       eb=0.0, phase_offset=0.0, warmup=1 if scenario.paths > 1 else 0,
                       pad_samples=(scenario.paths - 1) * cfg.oversampling)
    runtime.eb, runtime.phase_offset = _calibrate(runtime)
    return runtime


def _amplify(runtime: _Runtime, samples: np.ndarray) -> np.ndarray:
    scenario = runtime.scenario
    if scenario.hpa_mode == "bypass":
        return samples
    rate = scenario.config.sample_rate
    if scenario.hpa_mode == "saleh":
        return apply_hpa(BasebandFrame(samples, rate), scenario.saleh, runtime.op).samples
    scaled = BasebandFrame(runtime.pd_scale * samples, rate)
    return apply_hpa(apply_predistorter(scaled, scenario.saleh), scenario.saleh).samples


def _calibrate(runtime: _Runtime) -> tuple:
    """Per-scenario waveform calibration: (energy per information bit,
    mean carrier rotation of the amplifier).

    The linear chain has the exact closed form 2 * power * symbol_duration
    and no rotation.  Amplifier modes measure both from one long fixed-seed
    frame: the phase-transfer curve rotates the whole constellation by the
    mean shift at the operating drive level, and a coherent receiver tracks
    that rotation as part of its carrier reference, so it is folded into the
    reference path phase rather than left as a pointing error."""
    scenario = runtime.scenario
    cfg = scenario.config
    if scenario.hpa_mode == "bypass":
        return 2.0 * cfg.power * cfg.symbol_duration, 0.0
    rng = np.random.default_rng(np.random.SeedSequence([scenario.master_seed, 1]))
    symbols = 2 * rng.integers(0, 2, size=(_CALIBRATION_SYMBOLS, cfg.substreams, cfg.carriers)) - 1
    linear = modulate_user(symbols, runtime.walsh, runtime.pn_chips[0], cfg,
                           table=runtime.table).samples
    tx = _amplify(runtime, linear)
    mean_power = float(np.mean(np.abs(tx) ** 2))
    static_gain = np.vdot(linear, tx) / np.vdot(linear, linear)
    return mean_power * cfg.symbol_duration / cfg.bits_per_symbol, float(np.angle(static_gain))


def _simulate_block(runtime: _Runtime, point_index: int, block_index: int, ebn0_db: float):
    """One independent trial block: fresh channel, fresh data, fresh noise.
    Returns (errors, bits) for user 1's counted symbols."""
    scenario = runtime.scenario
    cfg = scenario.config
    rng = np.random.default_rng(
        np.random.SeedSequence([scenario.master_seed, 0, point_index, block_index]))

    channel = draw_channel(rng, cfg.users, scenario.paths, scenario.decay_db, scenario.fading)
    n_data = scenario.symbols_per_block
    n_total = n_data + runtime.warmup
    symbols = (2 * rng.integers(0, 2, size=(cfg.users, n_total, cfg.substreams, cfg.carriers)) - 1
               ).astype(np.int8)

    out_len = n_total * cfg.samples_per_symbol + runtime.pad_samples
    received = np.zeros(out_len, dtype=np.complex128)
    for k in range(cfg.users):
        tx = modulate_user(symbols[k], runtime.walsh, runtime.pn_chips[k], cfg, table=runtime.table)
        tx = _amplify(runtime, tx.samples)
        propagate_samples(tx, channel.taps(k), cfg.oversampling, out=received)

    frame = BasebandFrame(received, cfg.sample_rate)
    if scenario.noise_enabled:
        frame = add_awgn(frame, NoiseSpec(ebn0_db=ebn0_db, enabled=True), runtime.eb, rng)

    ref_tap = channel.taps(0)[0]
    if runtime.phase_offset != 0.0:
        ref_tap = replace(ref_tap, phase=ref_tap.phase + runtime.phase_offset)
    decisions = recover_bits(frame, 1, runtime.walsh, runtime.pn_chips[0], cfg,
                             ref_tap, reference=symbols[0, runtime.warmup:],
                             signatures=runtime.signatures_user1,
                             skip_symbols=runtime.warmup, n_symbols=n_data)
    return decisions.errors, decisions.bits


# Thread-count calls of the OpenBLAS builds numpy and scipy ship (64-bit
# integer and plain interfaces), as (getter, setter) symbol names.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_calls() -> list:
    """(get, set) thread-count functions of every OpenBLAS mapped into this
    process; empty when there is none or /proc/self/maps cannot be read."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return []
    calls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                calls.append((get, set_))
                break
    return calls


@contextmanager
def _single_threaded_blas():
    """Run the body with every loaded OpenBLAS at one thread, then restore
    the caller's counts.

    A block's GEMMs are small, so BLAS threads only add synchronization, and
    under the fork pool they oversubscribe the cores.  The count is set in
    the parent before the pool forks, which is what workers inherit; setting
    OPENBLAS_NUM_THREADS in os.environ at that point has no effect, because
    the library reads it only when it is loaded.
    """
    calls = _openblas_thread_calls()
    saved = [get() for get, _ in calls]
    for _, set_ in calls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(calls, saved):
            set_(count)


# Set in the parent before the pool forks so workers inherit the prepared
# tables instead of receiving them pickled with every task.
_WORKER_RUNTIME: _Runtime | None = None


def _worker_block(args):
    point_index, block_index, ebn0_db = args
    return _simulate_block(_WORKER_RUNTIME, point_index, block_index, ebn0_db)


def run_scenario(scenario: Scenario, workers: int = 1) -> RunReport:
    """Monte Carlo BER sweep with the scenario's stopping rule.

    Stops a point once the wave totals reach min_errors (and any configured
    min_bits / min_blocks floors), or flags the record censored when
    max_bits runs out first.  Identical (scenario, master_seed) give
    identical records at any worker count.
    """
    runtime = _prepare(scenario)
    cfg = scenario.config
    bits_per_block = scenario.symbols_per_block * cfg.bits_per_symbol
    records = []
    point_seconds = []

    pool = None
    with _single_threaded_blas():
        try:
            if workers > 1:
                global _WORKER_RUNTIME
                _WORKER_RUNTIME = runtime
                pool = get_context("fork").Pool(workers)

            for point_index, ebn0_db in enumerate(scenario.ebn0_grid):
                started = time.perf_counter()
                errors = 0
                bits = 0
                blocks = 0
                while True:
                    block_ids = range(blocks, blocks + scenario.blocks_per_wave)
                    if pool is None:
                        results = [_simulate_block(runtime, point_index, b, float(ebn0_db))
                                   for b in block_ids]
                    else:
                        results = pool.map(
                            _worker_block,
                            [(point_index, b, float(ebn0_db)) for b in block_ids])
                    for block_errors, block_bits in results:
                        errors += block_errors
                        bits += block_bits
                    blocks += scenario.blocks_per_wave
                    if bits >= scenario.max_bits:
                        break
                    if (errors >= scenario.min_errors and bits >= scenario.min_bits
                            and blocks >= scenario.min_blocks):
                        break
                censored = errors < scenario.min_errors
                records.append(BerRecord(
                    scenario=scenario.name, ebn0_db=float(ebn0_db), users=cfg.users,
                    substreams=cfg.substreams, carriers=cfg.carriers, hpa_mode=scenario.hpa_mode,
                    ibo_db=None if scenario.hpa_mode == "bypass" else float(scenario.ibo_db),
                    bits=bits, errors=errors, ber=errors / bits, ci95=binomial_ci95(errors, bits),
                    source="monte-carlo", seed=scenario.master_seed, censored=censored))
                point_seconds.append(time.perf_counter() - started)
        finally:
            if pool is not None:
                pool.close()
                pool.join()
                _WORKER_RUNTIME = None

    return RunReport(scenario=scenario, records=records, point_seconds=point_seconds,
                     master_seed=scenario.master_seed, config_echo=scenario_echo(scenario))


def measure_variances(scenario: Scenario, ebn0_db: float | None = None, n_symbols: int = 2000):
    """Interference-variance diagnostic for one scenario at one sweep point.

    Only the linear chain supports the source split; amplifier modes raise."""
    if scenario.hpa_mode != "bypass":
        raise ValueError("interference decomposition needs the linear chain; "
                         f"hpa_mode={scenario.hpa_mode!r} breaks superposition")
    runtime = _prepare(scenario)
    cfg = scenario.config
    point = scenario.ebn0_grid[0] if ebn0_db is None else ebn0_db
    rng = np.random.default_rng(np.random.SeedSequence([scenario.master_seed, 2]))
    channel = draw_channel(rng, cfg.users, scenario.paths, scenario.decay_db, scenario.fading)
    noise = NoiseSpec(ebn0_db=float(point), enabled=scenario.noise_enabled)
    with _single_threaded_blas():
        return estimate_interference_variances(
            cfg, runtime.walsh, list(runtime.pn_chips), channel, noise, runtime.eb, rng,
            n_symbols)


def scenario_echo(scenario: Scenario) -> dict:
    """Flat key=value view of a scenario, matching the config-file keys."""
    cfg = scenario.config
    saleh = scenario.saleh

    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    echo = {
        "name": scenario.name,
        "users": cfg.users, "substreams": cfg.substreams, "carriers": cfg.carriers,
        "walsh_order": cfg.walsh_order, "pn_length": cfg.pn_length,
        "symbol_duration": cfg.symbol_duration, "oversampling": cfg.oversampling,
        "power": cfg.power,
        "paths": scenario.paths, "decay_db": scenario.decay_db, "fading": scenario.fading,
        "hpa_mode": scenario.hpa_mode, "ibo_db": scenario.ibo_db,
        "alpha_am": saleh.alpha_am, "beta_am": saleh.beta_am,
        "alpha_pm": saleh.alpha_pm, "beta_pm": saleh.beta_pm,
        "ampm_quadratic": saleh.ampm_quadratic,
        "ebn0_grid": ",".join(repr(float(x)) for x in scenario.ebn0_grid),
        "noise_enabled": scenario.noise_enabled,
        "min_errors": scenario.min_errors, "min_bits": scenario.min_bits,
        "min_blocks": scenario.min_blocks, "max_bits": scenario.max_bits,
        "symbols_per_block": scenario.symbols_per_block,
        "blocks_per_wave": scenario.blocks_per_wave,
        "master_seed": scenario.master_seed,
        "allow_small_min_errors": scenario.allow_small_min_errors,
    }
    return {key: fmt(value) for key, value in echo.items()}


def preset(name: str, master_seed: int | None = None) -> list:
    """Named scenario families for the standard experiments.

    system-comparison: multicode-multicarrier vs the two degenerate systems,
    20 users, Rayleigh fading, bandwidth allocations matched to each system's
    spreading structure.  user-sweep: 1/10/50 simultaneous users.
    carrier-sweep: 2/4/8 carriers resolving the same physical delay spread.
    linearization: tube amplifier at 7 and 9 dB back-off against the
    predistorted chain.  Aliases fig5..fig8 name the same families.
    """
    canonical = {"fig5": "system-comparison", "fig6": "user-sweep",
                 "fig7": "carrier-sweep", "fig8": "linearization"}
    key = canonical.get(name, name)
    builders = {"system-comparison": _preset_system_comparison,
                "user-sweep": _preset_user_sweep,
                "carrier-sweep": _preset_carrier_sweep,
                "linearization": _preset_linearization}
    if key not in builders:
        raise ValueError(f"unknown preset {name!r}; choose from "
                         f"{sorted(builders) + sorted(canonical)}")
    scenarios = builders[key]()
    if master_seed is not None:
        scenarios = [replace(s, master_seed=master_seed) for s in scenarios]
    return scenarios


_FADING_STOP = dict(min_errors=300, min_blocks=256, max_bits=10_000_000)


def _preset_system_comparison() -> list:
    """Three systems at the same per-branch power and user count; each gets
    the bandwidth its own spreading structure calls for, and the wideband
    single-carrier system resolves correspondingly more chip-spaced paths."""
    combined = Scenario(
        name="multicode-multicarrier",
        config=LinkConfig(users=20, substreams=8, carriers=8, walsh_order=8, pn_length=1023),
        paths=1, fading=True, **_FADING_STOP)
    multicode = Scenario(
        name="multicode-only",
        config=LinkConfig(users=20, substreams=8, carriers=1, walsh_order=8, pn_length=1023),
        paths=8, decay_db=0.0, fading=True, **_FADING_STOP)
    multicarrier = Scenario(
        name="multicarrier-only",
        config=LinkConfig(users=20, substreams=1, carriers=8, walsh_order=1, pn_length=31),
        paths=1, fading=True, **_FADING_STOP)
    return [combined, multicode, multicarrier]


def _preset_user_sweep() -> list:
    scenarios = []
    for users in (1, 10, 50):
        scenarios.append(Scenario(
            name=f"users-{users}",
            config=LinkConfig(users=users, substreams=8, carriers=8, walsh_order=8,
                              pn_length=1023),
            paths=1, fading=True, **_FADING_STOP))
    return scenarios


def _preset_carrier_sweep() -> list:
    """More carriers stretch the symbol and shrink the resolvable delay
    spread: the same physical channel collapses from three chip-spaced paths
    at 2 carriers to a single path at 8."""
    plans = [
        (2, 255, 3, 0.0),
        (4, 511, 2, 10.0 * np.log10(2.0)),
        (8, 1023, 1, 0.0),
    ]
    scenarios = []
    for carriers, pn_length, paths, decay_db in plans:
        scenarios.append(Scenario(
            name=f"carriers-{carriers}",
            config=LinkConfig(users=20, substreams=8, carriers=carriers, walsh_order=8,
                              pn_length=pn_length),
            paths=paths, decay_db=decay_db, fading=True, **_FADING_STOP))
    return scenarios


def _preset_linearization() -> list:
    base = LinkConfig(users=20, substreams=8, carriers=8, walsh_order=8, pn_length=4095)
    # The three curves sit within a factor of two of each other near 10 dB,
    # so the error floor alone (min_errors=200) leaves overlapping intervals;
    # the bits floor tightens them enough to separate the arms.
    stop = dict(min_errors=200, min_bits=131_072, max_bits=10_000_000,
                symbols_per_block=32)
    return [
        Scenario(name="amplifier-ibo-7db", config=base, hpa_mode="saleh", ibo_db=7.0, **stop),
        Scenario(name="amplifier-ibo-9db", config=base, hpa_mode="saleh", ibo_db=9.0, **stop),
        Scenario(name="amplifier-linearized", config=base, hpa_mode="saleh_pd", ibo_db=7.0, **stop),
    ]


def _iter_records(reports):
    if isinstance(reports, RunReport):
        yield from reports.records
    elif isinstance(reports, BerRecord):
        yield reports
    else:
        for item in reports:
            yield from _iter_records(item)


def _format_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(reports, path) -> None:
    """Write records (a RunReport, a record list, or a list of either) to a
    CSV file with deterministic bytes; floats use shortest round-trip form."""
    lines = [CSV_HEADER]
    for rec in _iter_records(reports):
        lines.append(",".join([
            rec.scenario, repr(float(rec.ebn0_db)), str(rec.users), str(rec.substreams),
            str(rec.carriers), rec.hpa_mode, _format_field(rec.ibo_db), str(rec.bits),
            str(rec.errors), repr(float(rec.ber)), repr(float(rec.ci95)), rec.source,
            _format_field(rec.seed),
        ]))
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def parse_csv(path) -> list:
    """Read back an emit_csv file into BerRecord values."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized CSV header in {path}")
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 13:
            raise ValueError(f"malformed CSV row: {line!r}")
        records.append(BerRecord(
            scenario=parts[0], ebn0_db=float(parts[1]), users=int(parts[2]),
            substreams=int(parts[3]), carriers=int(parts[4]), hpa_mode=parts[5],
            ibo_db=None if parts[6] == "" else float(parts[6]), bits=int(parts[7]),
            errors=int(parts[8]), ber=float(parts[9]), ci95=float(parts[10]),
            source=parts[11], seed=None if parts[12] == "" else int(parts[12])))
    return records

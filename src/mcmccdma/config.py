"""Scenarios, their presets, and flat key=value configuration files.

A `Scenario` is everything one Monte Carlo run needs, seeds included, and
is checked when it is built.  `preset` names the scenario families of the
standard experiments.

A configuration file holds one key per line; `#` starts a comment, blank
lines are ignored.  The keys are the leaf fields of `Scenario`, its
`LinkConfig` and its `SalehParams` (leaf_fields), each parsed and echoed by
its declared type (_KINDS); `ebn0_grid` takes a comma-separated list.
Values parsed here override the base scenario they are applied to, and the
command line overrides both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .codes import PRIMITIVE_TAPS
from .hpa import SalehParams, amplifier_drive
from .txchain import LinkConfig, check_field_types, declared_type

HPA_MODES = ("bypass", "saleh", "saleh_pd")

# Bound on the magnitude of Eb/N0 and back-off values in dB.  Within it
# 10^(x/10) and the noise and drive levels formed from it stay normal
# doubles; 4000 dB overflows the conversion and -4000 dB underflows it to 0.
_DB_LIMIT = 300.0


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
    min_blocks: int = 0
    max_bits: int = 10_000_000
    symbols_per_block: int = 16
    blocks_per_wave: int = 16
    master_seed: int = 20260817
    allow_small_min_errors: bool = False

    def __post_init__(self):
        check_field_types(self)
        if not self.name or any(c in self.name for c in ",\n\r"):
            raise ValueError(f"scenario name must be nonempty and comma-free, got {self.name!r}")
        if self.hpa_mode not in HPA_MODES:
            raise ValueError(f"hpa_mode must be one of {HPA_MODES}, got {self.hpa_mode!r}")
        for name, values in (("ebn0_grid", self.ebn0_grid), ("ibo_db", (self.ibo_db,))):
            if not all(abs(x) <= _DB_LIMIT for x in values):
                raise ValueError(f"{name} must lie within +-{_DB_LIMIT:g} dB, "
                                 f"got {getattr(self, name)}")
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
        # min_blocks past max_bits is allowed: max_bits is the cap.
        if self.min_blocks < 0:
            raise ValueError(f"min_blocks must be nonnegative, got {self.min_blocks}")
        if self.max_bits < 1:
            raise ValueError(f"max_bits must be >= 1, got {self.max_bits}")
        if self.symbols_per_block < 1 or self.blocks_per_wave < 1:
            raise ValueError("symbols_per_block and blocks_per_wave must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        cfg = self.config
        if self.paths > cfg.pn_length:
            raise ValueError(f"{self.paths} chip-spaced paths do not fit one symbol "
                             f"of {cfg.pn_length} chips")
        degree = cfg.pn_length.bit_length()
        if (1 << degree) - 1 != cfg.pn_length or degree not in PRIMITIVE_TAPS:
            lengths = ", ".join(str((1 << d) - 1) for d in sorted(PRIMITIVE_TAPS))
            raise ValueError(f"pn_length must be an m-sequence length ({lengths}), "
                             f"got {cfg.pn_length}")
        if cfg.users > cfg.pn_length:
            raise ValueError(f"{cfg.users} users cannot get distinct shifts of a "
                             f"{cfg.pn_length}-chip sequence")
        stride = cfg.shift_spacing
        if cfg.users > 1 and self.paths - 1 >= stride:
            raise ValueError(f"path delays up to {self.paths - 1} chips alias the "
                             f"{stride}-chip PN shift spacing between users")
        if self.hpa_mode != "bypass":
            amplifier_drive(self)


def preset(name: str, master_seed: int | None = None) -> list:
    """Named scenario families for the standard experiments.

    system-comparison: multicode-multicarrier vs the two degenerate systems,
    20 users, Rayleigh fading, bandwidth allocations matched to each system's
    spreading structure.  user-sweep: 1/10/50 simultaneous users.
    carrier-sweep: 2/4/8 carriers resolving the same physical delay spread.
    linearization: tube amplifier at 7 and 9 dB back-off against the
    predistorted chain.  Aliases fig5..fig8 name the same families.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESETS)}")
    scenarios = PRESETS[name]()
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
    return [Scenario(name=f"users-{users}",
                     config=LinkConfig(users=users, substreams=8, carriers=8, walsh_order=8,
                                       pn_length=1023),
                     paths=1, fading=True, **_FADING_STOP)
            for users in (1, 10, 50)]


def _preset_carrier_sweep() -> list:
    """More carriers stretch the symbol and shrink the resolvable delay
    spread: the same physical channel collapses from three chip-spaced paths
    at 2 carriers to a single path at 8."""
    plans = [
        (2, 255, 3, 0.0),
        (4, 511, 2, 10.0 * np.log10(2.0)),
        (8, 1023, 1, 0.0),
    ]
    return [Scenario(name=f"carriers-{carriers}",
                     config=LinkConfig(users=20, substreams=8, carriers=carriers, walsh_order=8,
                                       pn_length=pn_length),
                     paths=paths, decay_db=decay_db, fading=True, **_FADING_STOP)
            for carriers, pn_length, paths, decay_db in plans]


def _preset_linearization() -> list:
    base = LinkConfig(users=20, substreams=8, carriers=8, walsh_order=8, pn_length=4095)
    # The three curves sit within a factor of two of each other near 10 dB,
    # so the error floor alone (min_errors=200) leaves overlapping intervals;
    # the block floor, 131072 bits at 2048 per block, tightens them enough to
    # separate the arms.
    stop = dict(min_errors=200, min_blocks=64, max_bits=10_000_000, symbols_per_block=32)
    return [
        Scenario(name="amplifier-ibo-7db", config=base, hpa_mode="saleh", ibo_db=7.0, **stop),
        Scenario(name="amplifier-ibo-9db", config=base, hpa_mode="saleh", ibo_db=9.0, **stop),
        Scenario(name="amplifier-linearized", config=base, hpa_mode="saleh_pd", ibo_db=7.0, **stop),
    ]


# Every name preset() accepts, mapped to its family's builder.
PRESETS = {
    "fig5": _preset_system_comparison, "system-comparison": _preset_system_comparison,
    "fig6": _preset_user_sweep, "user-sweep": _preset_user_sweep,
    "fig7": _preset_carrier_sweep, "carrier-sweep": _preset_carrier_sweep,
    "fig8": _preset_linearization, "linearization": _preset_linearization,
}


class ConfigError(ValueError):
    """Bad key, value or combination in a configuration source."""


def load_config(path) -> dict:
    """Read a key=value file into a string-to-string dict; later duplicates win."""
    keys = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            keys[key.strip()] = value.strip()
    return keys


def _parse_int(key, text) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"key {key!r} needs an integer, got {text!r}") from None


def _parse_float(key, text) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"key {key!r} needs a number, got {text!r}") from None


def _parse_bool(key, text) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key {key!r} needs a boolean, got {text!r}")


def _parse_grid(key, text) -> tuple:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ConfigError(f"key {key!r} needs a comma-separated list of numbers")
    return tuple(_parse_float(key, item) for item in items)


def _echo_float(value) -> str:
    return repr(float(value))


# Per declared leaf-field type: (parse a key's text, echo a value as text
# that the parser reads back to the same value).
_KINDS = {
    "int": (_parse_int, str),
    "float": (_parse_float, _echo_float),
    "bool": (_parse_bool, lambda value: "true" if value else "false"),
    "str": (lambda key, text: text, str),
    "tuple": (_parse_grid, lambda value: ",".join(map(_echo_float, value))),
}


def leaf_fields(instance):
    """(field, value) for every leaf field of a dataclass instance, in
    declaration order, walking into nested dataclass fields such as
    Scenario.config and Scenario.saleh.  The leaf names of a Scenario are the
    config-file keys, so they must be unique across the nested classes."""
    for f in fields(instance):
        value = getattr(instance, f.name)
        if is_dataclass(value):
            yield from leaf_fields(value)
        else:
            yield f, value


def scenario_echo(scenario: Scenario) -> dict:
    """Flat key=value view of a scenario, one entry per config-file key,
    in a form the config reader parses back to the same scenario."""
    return {f.name: _KINDS[declared_type(f)][1](value) for f, value in leaf_fields(scenario)}


def _replace_leaves(instance, values: dict):
    """instance rebuilt with the named leaf fields set to values, nested
    dataclass fields rebuilt the same way."""
    changes = {}
    for f in fields(instance):
        value = getattr(instance, f.name)
        if is_dataclass(value):
            changes[f.name] = _replace_leaves(value, values)
        elif f.name in values:
            changes[f.name] = values[f.name]
    return replace(instance, **changes)


def _from_keys(base, keys: dict, kind: str):
    """base with every key parsed by its leaf field's declared type; a key
    that names no leaf field is rejected."""
    leaves = {f.name: declared_type(f) for f, _ in leaf_fields(base)}
    values = {}
    for key, raw in keys.items():
        if key not in leaves:
            raise ConfigError(f"unknown {kind} key {key!r}")
        values[key] = _KINDS[leaves[key]][0](key, raw)
    try:
        return _replace_leaves(base, values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def saleh_from_keys(keys: dict) -> SalehParams:
    """Amplifier parameters from config keys over the classical defaults;
    unknown keys are rejected."""
    return _from_keys(SalehParams(), keys, "amplifier parameter")


def scenario_from_keys(keys: dict, base: Scenario | None = None) -> Scenario:
    """Build (or override) a scenario from parsed config keys."""
    if base is None:
        base = Scenario(name="custom", config=LinkConfig())
    return _from_keys(base, keys, "configuration")

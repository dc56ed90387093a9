"""Flat key=value configuration files.

One key per line, `#` starts a comment, blank lines are ignored.  Every
scenario field is addressable; `ebn0_grid` takes a comma-separated list.
Values parsed here override the base scenario they are applied to, and the
command line overrides both.
"""

from __future__ import annotations

import dataclasses

from .harness import Scenario
from .hpa import SalehParams
from .txchain import LinkConfig


class ConfigError(ValueError):
    """Bad key, value or combination in a configuration source."""


_LINK_INT = {"users", "substreams", "carriers", "walsh_order", "pn_length", "oversampling"}
_LINK_FLOAT = {"symbol_duration", "power"}
_SCEN_INT = {"paths", "min_errors", "min_bits", "min_blocks", "max_bits",
             "symbols_per_block", "blocks_per_wave", "master_seed"}
_SCEN_FLOAT = {"decay_db", "ibo_db"}
_SCEN_BOOL = {"fading", "noise_enabled", "allow_small_min_errors"}
_SCEN_STR = {"name", "hpa_mode"}
_SALEH_FLOAT = {"alpha_am", "beta_am", "alpha_pm", "beta_pm"}
_SALEH_BOOL = {"ampm_quadratic"}

KNOWN_KEYS = (_LINK_INT | _LINK_FLOAT | _SCEN_INT | _SCEN_FLOAT | _SCEN_BOOL | _SCEN_STR
              | _SALEH_FLOAT | _SALEH_BOOL | {"ebn0_grid"})

SALEH_KEYS = _SALEH_FLOAT | _SALEH_BOOL


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


def saleh_from_keys(keys: dict, base: SalehParams | None = None) -> SalehParams:
    """Amplifier parameters from config keys; unknown keys are rejected."""
    fields = dataclasses.asdict(base if base is not None else SalehParams())
    for key, raw in keys.items():
        if key in _SALEH_FLOAT:
            fields[key] = _parse_float(key, raw)
        elif key in _SALEH_BOOL:
            fields[key] = _parse_bool(key, raw)
        else:
            raise ConfigError(f"unknown amplifier parameter key {key!r}")
    try:
        return SalehParams(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def scenario_from_keys(keys: dict, base: Scenario | None = None) -> Scenario:
    """Build (or override) a scenario from parsed config keys."""
    if base is None:
        base = Scenario(name="custom", config=LinkConfig())
    link = dataclasses.asdict(base.config)
    saleh = dataclasses.asdict(base.saleh)
    scen = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)
            if f.name not in ("config", "saleh")}

    for key, raw in keys.items():
        if key in _LINK_INT:
            link[key] = _parse_int(key, raw)
        elif key in _LINK_FLOAT:
            link[key] = _parse_float(key, raw)
        elif key in _SCEN_INT:
            scen[key] = _parse_int(key, raw)
        elif key in _SCEN_FLOAT:
            scen[key] = _parse_float(key, raw)
        elif key in _SCEN_BOOL:
            scen[key] = _parse_bool(key, raw)
        elif key in _SCEN_STR:
            scen[key] = raw
        elif key in _SALEH_FLOAT:
            saleh[key] = _parse_float(key, raw)
        elif key in _SALEH_BOOL:
            saleh[key] = _parse_bool(key, raw)
        elif key == "ebn0_grid":
            scen["ebn0_grid"] = _parse_grid(key, raw)
        else:
            raise ConfigError(f"unknown configuration key {key!r}")

    try:
        return Scenario(config=LinkConfig(**link), saleh=SalehParams(**saleh), **scen)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

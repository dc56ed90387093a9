"""Flat key=value configuration files.

One key per line, `#` starts a comment, blank lines are ignored.  The keys
are the leaf fields of `Scenario`, its `LinkConfig` and its `SalehParams`,
each parsed by its declared type; `ebn0_grid` takes a comma-separated list.
Values parsed here override the base scenario they are applied to, and the
command line overrides both.
"""

from __future__ import annotations

import dataclasses

from .harness import Scenario, leaf_fields
from .hpa import SalehParams
from .txchain import LinkConfig, declared_type


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


# Value parser of each declared leaf-field type.
_PARSERS = {"int": _parse_int, "float": _parse_float, "bool": _parse_bool,
            "str": lambda key, text: text, "tuple": _parse_grid}


def _replace_leaves(instance, values: dict):
    """instance rebuilt with the named leaf fields set to values, nested
    dataclass fields rebuilt the same way."""
    changes = {}
    for f in dataclasses.fields(instance):
        value = getattr(instance, f.name)
        if dataclasses.is_dataclass(value):
            changes[f.name] = _replace_leaves(value, values)
        elif f.name in values:
            changes[f.name] = values[f.name]
    return dataclasses.replace(instance, **changes)


def _from_keys(base, keys: dict, kind: str):
    """base with every key parsed by its leaf field's declared type; a key
    that names no leaf field is rejected."""
    leaves = {f.name: declared_type(f) for f, _ in leaf_fields(base)}
    values = {}
    for key, raw in keys.items():
        if key not in leaves:
            raise ConfigError(f"unknown {kind} key {key!r}")
        values[key] = _PARSERS[leaves[key]](key, raw)
    try:
        return _replace_leaves(base, values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def saleh_from_keys(keys: dict, base: SalehParams | None = None) -> SalehParams:
    """Amplifier parameters from config keys; unknown keys are rejected."""
    return _from_keys(base if base is not None else SalehParams(), keys, "amplifier parameter")


def scenario_from_keys(keys: dict, base: Scenario | None = None) -> Scenario:
    """Build (or override) a scenario from parsed config keys."""
    if base is None:
        base = Scenario(name="custom", config=LinkConfig())
    return _from_keys(base, keys, "configuration")

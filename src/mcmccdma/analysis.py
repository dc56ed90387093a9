"""Theoretical bit-error-rate machinery, the shared result record and its
CSV form.

The post-correlator decision statistic is treated as a Gaussian: signal
power S over total interference-plus-noise variance gives the ratio
gamma = S / var_total, conditional BER 0.5*erfc(sqrt(gamma)), and a
Rayleigh-faded reference gain turns gamma exponential, averaged in closed
form.  Variances follow the complex-power convention of
`receiver.InterferenceVariances`, which makes gamma equal Eb/N0 in the
noise-only case and reproduces the textbook BPSK curve.

Monte Carlo runs and theory curves (theoretical_curve(variances, scenario,
reference_ebn0_db)) share one record (BerRecord), its link columns taken
from the Scenario (scenario_columns), and one CSV schema (_CSV_COLUMNS),
which emit_csv writes and parse_csv reads back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import Scenario


def conditional_ber(gamma: float) -> float:
    """BER at a fixed post-correlator signal-to-interference ratio."""
    if not gamma >= 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return 0.5 * math.erfc(math.sqrt(gamma))


def fading_averaged_ber(mean_gamma: float) -> float:
    """Average of conditional_ber over a Rayleigh-faded reference gain.

    A Rayleigh amplitude makes gamma exponentially distributed with the
    given mean, and the average is 0.5 (1 - sqrt(mean/(1 + mean)))
    (Proakis, Digital Communications, sec. 14.3), here in the form
    0.5 / (r (r + sqrt(mean))), r = sqrt(1 + mean), which does not cancel.
    """
    if not mean_gamma >= 0:
        raise ValueError(f"mean gamma must be nonnegative, got {mean_gamma}")
    r = math.sqrt(1.0 + mean_gamma)
    return 0.5 / (r * (r + math.sqrt(mean_gamma)))


def binomial_ci95(errors: int, bits: int) -> float:
    """95% confidence halfwidth for an error rate, normal approximation."""
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    if not 0 <= errors <= bits:
        raise ValueError(f"errors {errors} outside [0, {bits}]")
    p = errors / bits
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / bits)


@dataclass(frozen=True)
class BerRecord:
    """One BER point, measured or theoretical.

    censored marks a Monte Carlo point that hit its bit budget before
    collecting the requested error count; it is programmatic metadata and
    is not part of the CSV schema.
    """

    scenario: str
    ebn0_db: float
    users: int
    substreams: int
    carriers: int
    hpa_mode: str
    ibo_db: float | None
    bits: int
    errors: int
    ber: float
    ci95: float
    source: str
    seed: int | None
    censored: bool = False

    def __post_init__(self):
        if not 0.0 <= self.ber <= 1.0:
            raise ValueError(f"ber must be in [0, 1], got {self.ber}")
        if self.source not in ("monte-carlo", "theoretical"):
            raise ValueError(f"source must be monte-carlo or theoretical, got {self.source!r}")
        # a CSV cell holds no column or row separator
        for name in ("scenario", "hpa_mode"):
            if any(c in getattr(self, name) for c in ",\n\r"):
                raise ValueError(f"{name} must hold no comma or line break, "
                                 f"got {getattr(self, name)!r}")


@dataclass
class RunReport:
    """Records plus reproduction metadata for one scenario run."""

    scenario: Scenario
    records: list
    point_seconds: list


def scenario_columns(scenario: Scenario) -> dict:
    """The BerRecord fields that describe a scenario's link, which its Monte
    Carlo and theory records share: users, substreams, carriers, hpa_mode,
    and ibo_db, None without an amplifier."""
    cfg = scenario.config
    return dict(users=cfg.users, substreams=cfg.substreams, carriers=cfg.carriers,
                hpa_mode=scenario.hpa_mode,
                ibo_db=None if scenario.hpa_mode == "bypass" else float(scenario.ibo_db))


def theoretical_curve(variances, scenario: Scenario,
                      reference_ebn0_db: float) -> list[BerRecord]:
    """The scenario's BER over its ebn0_grid predicted from correlator
    variances measured at reference_ebn0_db, one record per point named
    <name>-theory.

    `variances` is an InterferenceVariances or anything with the same
    attributes.  Only the noise variance scales along the sweep, by
    10**((reference - point)/10); interference terms are treated as
    noise-independent.  Under fading the Rayleigh average starts from the
    desired power at the reference path's mean gain, so the measured draw's
    own gain (variances.reference_gain) is divided out of it.
    """
    s = variances.desired_power
    if scenario.fading:
        s = s / variances.reference_gain
    interference = variances.total - variances.noise
    columns = scenario_columns(scenario)
    records = []
    for point in scenario.ebn0_grid:
        noise_var = variances.noise * 10.0 ** ((reference_ebn0_db - point) / 10.0)
        total = interference + noise_var
        if total <= 0.0:
            ber = 0.0
        else:
            gamma = s / total
            ber = fading_averaged_ber(gamma) if scenario.fading else conditional_ber(gamma)
        records.append(BerRecord(scenario=scenario.name + "-theory", ebn0_db=float(point),
                                 bits=0, errors=0, ber=ber, ci95=0.0, source="theoretical",
                                 seed=None, **columns))
    return records


# The CSV columns in order, as (header name, BerRecord field).  Each cell is
# written and read by its field's declared type (_CSV_KINDS); an optional
# field's None is the empty cell.
_CSV_COLUMNS = (
    ("scenario", "scenario"), ("ebn0_db", "ebn0_db"), ("k", "users"), ("r", "substreams"),
    ("m", "carriers"), ("hpa_mode", "hpa_mode"), ("ibo_db", "ibo_db"), ("bits", "bits"),
    ("errors", "errors"), ("ber", "ber"), ("ci95", "ci95"), ("source", "source"),
    ("seed", "seed"),
)

CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)

# Per declared type: (read a cell, write a value); floats in shortest
# round-trip form.
_CSV_KINDS = {"str": (str, str), "int": (int, str), "float": (float, lambda v: repr(float(v)))}


def _csv_fields() -> list:
    """(BerRecord field, read, write, optional) per CSV column, in order."""
    declared = {f.name: f.type.partition(" | ") for f in fields(BerRecord)}
    return [(name, *_CSV_KINDS[declared[name][0]], declared[name][2] == "None")
            for _, name in _CSV_COLUMNS]


_CSV_FIELDS = _csv_fields()


def _iter_records(reports):
    if isinstance(reports, RunReport):
        yield from reports.records
    elif isinstance(reports, BerRecord):
        yield reports
    else:
        for item in reports:
            yield from _iter_records(item)


def emit_csv(reports, path) -> None:
    """Write records (a RunReport, a record list, or a list of either) to a
    CSV file with deterministic bytes; floats use shortest round-trip form."""
    lines = [CSV_HEADER]
    for rec in _iter_records(reports):
        lines.append(",".join("" if (value := getattr(rec, name)) is None else write(value)
                              for name, _, write, _ in _CSV_FIELDS))
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
        cells = line.split(",")
        if len(cells) != len(_CSV_FIELDS):
            raise ValueError(f"malformed CSV row: {line!r}")
        records.append(BerRecord(**{
            name: None if optional and cell == "" else read(cell)
            for cell, (name, read, _, optional) in zip(cells, _CSV_FIELDS)}))
    return records

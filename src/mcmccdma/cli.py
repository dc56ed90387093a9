"""Command line front end.

Two subcommands:

  simulate          run one or more scenarios and write a BER table
  characterize-hpa  tabulate amplifier transfer and predistortion curves

Exit codes: 0 on success, 1 for configuration problems (bad keys, bad
values, usage errors), 2 for I/O failures.  `SIM_SEED` and `SIM_WORKERS`
in the environment act as defaults that explicit flags override.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .analysis import emit_csv
from .config import PRESETS, ConfigError, load_config, preset, saleh_from_keys, scenario_from_keys
from .harness import measure_variances, run_scenario
from .hpa import amam, ampm, amplify_samples, apply_predistorter
from .receiver import SOURCE_NAMES

DECOMPOSITION_HEADER = "scenario,ebn0_db,component,value"
HPA_CURVE_HEADER = ("level,amam_output,ampm_rad,predistorted_input,"
                    "cascade_output,cascade_phase_rad")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcmccdma",
        description="Multi-code multi-carrier CDMA link simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run scenarios and write a BER table")
    sim.add_argument("--config", metavar="FILE",
                     help="flat key=value scenario file; overrides preset fields")
    sim.add_argument("--preset", metavar="NAME", choices=PRESETS,
                     help="named scenario family: " + ", ".join(PRESETS))
    sim.add_argument("--seed", type=int, metavar="N",
                     help="master seed (overrides SIM_SEED and config)")
    sim.add_argument("--out", default="results.csv", metavar="FILE",
                     help="output CSV path (default results.csv)")
    sim.add_argument("--workers", type=int, metavar="N",
                     help="parallel block workers (overrides SIM_WORKERS)")
    sim.add_argument("--decompose", action="store_true",
                     help="also write per-source interference variances "
                          "(linear scenarios only)")

    hpa = sub.add_parser("characterize-hpa",
                         help="tabulate amplifier and predistorter curves")
    hpa.add_argument("--params", metavar="FILE",
                     help="flat key=value amplifier parameter file "
                          "(defaults to the classical coefficient set)")
    hpa.add_argument("--out", default="curves.csv", metavar="FILE",
                     help="output CSV path (default curves.csv)")
    return parser


def _env_int(name: str):
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"environment variable {name} needs an integer, got {raw!r}") from None


def _cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _env_int("SIM_SEED")
    workers = args.workers if args.workers is not None else _env_int("SIM_WORKERS")
    if workers is None:
        workers = 1
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")

    overrides = dict(load_config(args.config)) if args.config else {}

    if args.preset is not None:
        scenarios = preset(args.preset)
        # A shared config file must not collapse distinct preset scenarios
        # into one name.
        overrides.pop("name", None)
        if overrides:
            scenarios = [scenario_from_keys(overrides, base=s) for s in scenarios]
    elif overrides or args.config:
        scenarios = [scenario_from_keys(overrides)]
    else:
        raise ConfigError("simulate needs --config and/or --preset")

    if seed is not None:
        try:
            scenarios = [dataclasses.replace(s, master_seed=seed) for s in scenarios]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    if args.decompose:
        for s in scenarios:
            if s.hpa_mode != "bypass":
                raise ConfigError(
                    "--decompose needs a linear scenario; "
                    f"{s.name!r} runs hpa_mode={s.hpa_mode!r}")

    reports = []
    for scenario in scenarios:
        report = run_scenario(scenario, workers=workers)
        reports.append(report)
        total_bits = sum(r.bits for r in report.records)
        print(f"{scenario.name}: {len(report.records)} points, "
              f"{total_bits} bits simulated")

    emit_csv(reports, args.out)
    print(f"wrote {args.out}")

    if args.decompose:
        lines = [DECOMPOSITION_HEADER]
        for scenario in scenarios:
            var = measure_variances(scenario)
            ebn0 = scenario.ebn0_grid[0]
            rows = (("desired_power", var.desired_power),)
            rows += tuple((name, getattr(var, name)) for name in SOURCE_NAMES[1:])
            rows += (("total_interference", var.total),)
            for component, value in rows:
                lines.append(f"{scenario.name},{repr(float(ebn0))},{component},{repr(float(value))}")
        decomp_path = args.out + ".decomposition.csv"
        with open(decomp_path, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
        print(f"wrote {decomp_path}")
    return 0


def _cmd_characterize(args) -> int:
    params = saleh_from_keys(load_config(args.params) if args.params else {})

    # One level axis serves both readings: input modulus for the bare
    # amplifier columns, target output modulus for the cascade columns.
    # The grid tops out past the input saturation point so the compressive
    # region and the predistorter clamp both show up.
    levels = np.linspace(0.0, 1.5 * params.saturation_input, 301)
    bare_out = amam(levels, params)
    bare_phase = ampm(levels, params)

    predistorted = apply_predistorter(levels.astype(np.complex128), params)
    pd_in = np.abs(predistorted)
    cascaded = amplify_samples(predistorted, params)
    cascade_out = np.abs(cascaded)
    cascade_phase = np.angle(cascaded)
    cascade_phase[cascade_out == 0.0] = 0.0

    lines = [HPA_CURVE_HEADER]
    for row in zip(levels, bare_out, bare_phase, pd_in, cascade_out, cascade_phase):
        lines.append(",".join(repr(float(v)) for v in row))
    with open(args.out, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; usage errors
        # are configuration errors under this tool's exit code contract.
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_characterize(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

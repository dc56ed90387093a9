#!/usr/bin/env python3
"""Run the standard experiment families and write one BER table per family.

Families (aliases fig5..fig8 also accepted):

  system-comparison   combined multicode+multicarrier vs each technique alone
  user-sweep          1 / 10 / 50 simultaneous users
  carrier-sweep       2 / 4 / 8 carriers over the same delay spread
  linearization       tube amplifier at 7 / 9 dB back-off vs predistortion

Linear (bypass) scenarios also get a theoretical overlay, <name>-theory with
source=theoretical, predicted on the scenario's own grid from its measured
interference variances.  Every family's full sweep, overlays included, took
464 s at one worker and 238 s at two on a 2-core VM, all but about 10 s
of it in linearization's two tube arms; --quick trims the grid to
4/8/12 dB.
"""

import argparse
import dataclasses
import pathlib
import sys
import time

from mcmccdma.analysis import emit_csv, theoretical_curve
from mcmccdma.config import preset
from mcmccdma.harness import measure_variances, run_scenario

FAMILIES = ("system-comparison", "user-sweep", "carrier-sweep", "linearization")

QUICK_GRID = (4.0, 8.0, 12.0)
THEORY_REFERENCE_DB = 8.0


def theory_overlay(scenario) -> list:
    """The scenario's BER predicted from its interference variances,
    measured at THEORY_REFERENCE_DB on one channel draw
    (analysis.theoretical_curve)."""
    return theoretical_curve(measure_variances(scenario, ebn0_db=THEORY_REFERENCE_DB),
                             scenario, THEORY_REFERENCE_DB)


def run_family(family: str, out_dir: pathlib.Path, seed, workers: int,
               quick: bool, theory: bool) -> pathlib.Path:
    rows = []
    for scenario in preset(family, master_seed=seed):
        if quick:
            scenario = dataclasses.replace(scenario, ebn0_grid=QUICK_GRID)
        started = time.perf_counter()
        report = run_scenario(scenario, workers=workers)
        rows.append(report)
        total_bits = sum(r.bits for r in report.records)
        print(f"  {scenario.name}: {len(report.records)} points, {total_bits} bits "
              f"({time.perf_counter() - started:.0f} s)")
        if theory and scenario.hpa_mode == "bypass":
            rows.append(theory_overlay(scenario))
    out_path = out_dir / f"{family}.csv"
    emit_csv(rows, out_path)
    print(f"  wrote {out_path}")
    return out_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", default="all",
                        help="one of %s, a fig5..fig8 alias, or 'all'" % (FAMILIES,))
    parser.add_argument("--out-dir", default="figures", metavar="DIR")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every scenario's master seed")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--quick", action="store_true",
                        help="trim the sweep to 4/8/12 dB")
    parser.add_argument("--no-theory", dest="theory", action="store_false",
                        help="skip the variance-based theoretical overlay")
    args = parser.parse_args(argv)

    families = FAMILIES if args.family == "all" else (args.family,)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for family in families:
        print(f"{family}:")
        run_family(family, out_dir, args.seed, args.workers, args.quick, args.theory)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Amplifier characterization report.

Tabulates the gain and phase transfer curves plus the predistorted cascade
(same CSV the `mcmccdma characterize-hpa` subcommand writes), then prints
the analytic anchors and a measured input/output back-off table for a
noise-like multicarrier drive.
"""

import argparse
import sys

import numpy as np

from mcmccdma.cli import main as cli_main
from mcmccdma.hpa import SalehParams, amam, compute_obo, input_scale_for_power

# Complex-normal surrogate for the many-branch multicode signal; fixed seed
# so the printed OBO table is reproducible.
_DRIVE_SAMPLES = 1 << 16
_DRIVE_SEED = 12345


def measured_obo(params: SalehParams, ibo_db: float, mean_power: float) -> float:
    rng = np.random.default_rng(np.random.SeedSequence(_DRIVE_SEED))
    x = rng.normal(size=_DRIVE_SAMPLES) + 1j * rng.normal(size=_DRIVE_SAMPLES)
    x *= np.sqrt(mean_power / 2.0)
    scale = input_scale_for_power(mean_power, ibo_db, params)
    return compute_obo(amam(np.abs(scale * x), params), params)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--params", metavar="FILE", help="key=value amplifier file")
    parser.add_argument("--out", default="curves.csv", metavar="FILE")
    parser.add_argument("--mean-power", type=float, default=128.0,
                        help="drive power for the back-off table (default: the "
                             "8-substream 8-carrier unit-power load)")
    args = parser.parse_args(argv)

    cli_args = ["characterize-hpa", "--out", args.out]
    if args.params:
        cli_args += ["--params", args.params]
    status = cli_main(cli_args)
    if status != 0:
        return status

    params = SalehParams()  # printed anchors always use the classical set
    print(f"saturation: input {params.saturation_input:.6f} -> "
          f"output {params.saturation_output:.6f}")
    print(f"phase shift peaks at drive {1 / np.sqrt(params.beta_pm):.6f} "
          f"({params.alpha_pm / (2 * np.sqrt(params.beta_pm)):.6f} rad)")
    print("back-off for a complex-normal drive "
          f"(mean power {args.mean_power:g}):")
    print("  IBO dB   OBO dB")
    for ibo in (3.0, 5.0, 7.0, 9.0, 12.0):
        print(f"  {ibo:6.1f}   {measured_obo(params, ibo, args.mean_power):6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

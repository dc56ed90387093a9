"""One public call of one benchmark workload, in a fresh interpreter.

    python3 perfbench/call.py --workload NAME --seed N [--workers K] [--trace]

The runner starts this script once per measured call, with the checkout's
`src` on PYTHONPATH, so allocator and cache state never carries over from
one call to the next.  It prints one JSON object: the timings, resource
usage, the work done, the call's outputs for checking, the environment and,
with --trace, the per-function span table.  The tracer is imported only
with --trace.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from workloads import EBN0_DB, WORKLOADS

TMP_DIR = Path(".perfbench_tmp")


def _environment(np_module) -> dict:
    import scipy

    deps = np_module.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np_module.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("OPENBLAS_", "OMP_", "MALLOC_"))},
    }


def _scenario(harness, workload, seed: int):
    base = next(s for s in harness.preset(workload.family, master_seed=seed)
                if s.name == workload.scenario)
    if workload.kind == "decompose":
        return base
    bits_per_block = base.symbols_per_block * base.config.bits_per_symbol
    budget = bits_per_block * workload.blocks
    # min_errors above the budget is never reached, so every call does the
    # same work whatever the BER and the record comes out censored.
    return dataclasses.replace(base, ebn0_grid=(EBN0_DB,), max_bits=budget,
                               min_errors=budget + 1, blocks_per_wave=workload.blocks)


def _csv_text(harness, report) -> str:
    TMP_DIR.mkdir(exist_ok=True)
    path = TMP_DIR / f"{os.getpid()}.csv"
    try:
        harness.emit_csv(report, path)
        return path.read_text()
    finally:
        path.unlink(missing_ok=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    workers = workload.workers if args.workers is None else args.workers

    started = time.perf_counter()
    import numpy as np
    import mcmccdma
    from mcmccdma import harness

    scenario = _scenario(harness, workload, args.seed)
    setup_s = time.perf_counter() - started
    cfg = scenario.config
    if workload.kind == "ber":
        work = {"blocks": scenario.max_bits // (scenario.symbols_per_block * cfg.bits_per_symbol)}
    else:
        # measure_variances runs at its default length and synthesizes in
        # chunks of estimate_interference_variances' default size.  Read both
        # before the tracer replaces the functions.
        n_symbols = inspect.signature(harness.measure_variances).parameters["n_symbols"].default
        chunk = inspect.signature(harness.estimate_interference_variances).parameters["chunk"].default
        work = {"n_symbols": n_symbols, "blocks": math.ceil(n_symbols / chunk)}

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(mcmccdma)

    out = {"workers": workers, "tracer_loaded": "tracer" in sys.modules, **work}
    before = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    with tracer.root() if tracer else nullcontext():
        started = time.perf_counter()
        if workload.kind == "ber":
            report = harness.run_scenario(scenario, workers=workers)
        else:
            variances = harness.measure_variances(scenario, EBN0_DB)
        wall_s = time.perf_counter() - started

    after = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    # CPU time and minor faults of the call alone (self plus pool workers);
    # peak RSS covers the whole process, import included.
    out.update(
        wall_s=wall_s,
        users=cfg.users,
        bits_per_symbol=cfg.bits_per_symbol,
        cpu_s=sum(a.ru_utime + a.ru_stime - b.ru_utime - b.ru_stime
                  for a, b in zip(after, before)),
        minflt=sum(a.ru_minflt - b.ru_minflt for a, b in zip(after, before)),
        peak_rss_mb=max(a.ru_maxrss for a in after) / 1024.0,
    )
    if workload.kind == "ber":
        out.update(
            setup_s=setup_s + wall_s - sum(report.point_seconds),
            sweep_s=sum(report.point_seconds),
            budget_bits=scenario.max_bits,
            symbols_per_block=scenario.symbols_per_block,
            records=[{"bits": r.bits, "errors": r.errors, "ber": r.ber, "censored": r.censored}
                     for r in report.records],
            csv=_csv_text(harness, report),
        )
    else:
        from mcmccdma.receiver import SOURCE_NAMES

        fields = dataclasses.asdict(variances)
        fields["total"] = variances.total
        out.update(setup_s=setup_s, sweep_s=wall_s, variances=fields,
                   sources=len(SOURCE_NAMES),
                   finite=all(math.isfinite(v) for v in fields.values()))
    if tracer is not None:
        out["trace"] = tracer.report()
    out["environment"] = _environment(np)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

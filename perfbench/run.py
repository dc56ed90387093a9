"""Monte Carlo benchmark: times the simulator's public entry points from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Every measured call runs in a fresh interpreter (perfbench/call.py), so
allocator and cache state cannot carry over between calls.  With --trace 0
the runner repeats the untraced call for --seconds seconds (at least three
times) and reports the end-to-end metrics over all calls.  With --trace 1 it
makes one untraced and one traced call (plus a one-worker pair for the pooled
workload) and reports the per-layer metrics.  Every call's output is checked;
the last stdout line is one JSON object with keys correct, attempted, failed
and metrics, and the exit code is nonzero when any check fails.

BLAS threads and allocator settings are left as the environment sets them,
and recorded, because oversubscription and page-fault cost are part of what
the pooled workload measures.  See perfbench/README.md for the workloads and
how each per-layer metric maps to an end-to-end one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from call import TMP_DIR
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CALLS = 3
# Every run must end within 180 s; stop starting calls well before that.
RUN_DEADLINE_S = 165.0

END_TO_END_UNITS = {"bits_per_s": "1/s", "wall_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class CallFailed(Exception):
    pass


def _spawn(workload: str, seed: int, deadline: float, *, workers: int | None = None,
           trace: bool = False) -> dict:
    """Run perfbench/call.py in its own session and return its JSON output.
    The whole process group (pool workers included) is killed afterwards."""
    cmd = [sys.executable, str(HERE / "call.py"), "--workload", workload, "--seed", str(seed)]
    if workers is not None:
        cmd += ["--workers", str(workers)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise CallFailed("call timed out") from None
    finally:
        _kill_group(proc.pid)
        proc.wait()
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise CallFailed(f"call exited {proc.returncode}: {tail[0]}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise CallFailed(f"unreadable call output: {exc}") from None


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _check(workload, out: dict, reference: dict | None, traced: bool) -> list:
    """Problems with one call's output; an empty list means it passed."""
    problems = []
    if out["tracer_loaded"] != traced:
        problems.append(f"tracer loaded={out['tracer_loaded']} in a call with trace={traced}")
    low, high = workload.band
    if workload.kind == "ber":
        records = out["records"]
        if len(records) != 1:
            return problems + [f"expected one record, got {len(records)}"]
        rec = records[0]
        if rec["bits"] != out["budget_bits"]:
            problems.append(f"bits {rec['bits']} != budget {out['budget_bits']}")
        if rec["errors"] <= 0:
            problems.append("no bit errors at 8 dB")
        if not rec["censored"]:
            problems.append("record not censored although min_errors exceeds the budget")
        if not low <= rec["ber"] <= high:
            problems.append(f"BER {rec['ber']:.4g} outside [{low}, {high}]")
        if reference is not None and out["csv"] != reference["csv"]:
            problems.append(f"CSV bytes differ from the first call "
                            f"(workers {out['workers']} vs {reference['workers']})")
    else:
        fields = out["variances"]
        if not out["finite"] or any(v < 0 for v in fields.values()):
            problems.append(f"variances not finite and nonnegative: {fields}")
        if not low <= fields["total"] <= high:
            problems.append(f"total variance {fields['total']:.4g} outside [{low}, {high}]")
        if reference is not None and any(
                not math.isclose(v, reference["variances"][k], rel_tol=1e-9, abs_tol=1e-15)
                for k, v in fields.items()):
            problems.append("variances differ from the first call at the same seed")
    if traced:
        # Self times add up to the traced wall by construction; what can go
        # wrong is that the tracer no longer wraps the layers the workload
        # runs through, or never sees the block loop start.
        functions = out["trace"]["functions"]
        missing = [m for m in workload.layers
                   if not any(name.startswith(m + ".") for name in functions)]
        if "channel.draw_channel" not in functions:
            missing.append("channel.draw_channel")
        if missing:
            problems.append(f"traced call has no spans in {', '.join(missing)}")
    return problems


def _bits(workload, out: dict) -> int:
    if workload.kind == "ber":
        return sum(r["bits"] for r in out["records"])
    # decompose: user-1 information bits over the decomposed stretch
    return out["n_symbols"] * out["bits_per_symbol"]


def _bits_per_s(workload, outs: list) -> float:
    """Bits over sweep seconds, summed over all calls."""
    return sum(_bits(workload, o) for o in outs) / sum(o["sweep_s"] for o in outs)


class Run:
    """Calls made for one workload run, with their checks."""

    def __init__(self, workload, seed: int, started: float):
        self.workload = workload
        self.seed = seed
        self.deadline = started + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def call(self, *, workers: int | None = None, trace: bool = False) -> dict | None:
        self.attempted += 1
        label = f"{self.workload.name} call {self.attempted}"
        try:
            out = _spawn(self.workload.name, self.seed, self.deadline, workers=workers,
                         trace=trace)
        except CallFailed as exc:
            self.failed += 1
            print(f"{label}: FAILED: {exc}")
            return None
        problems = _check(self.workload, out, self.reference, trace)
        if self.reference is None and not problems:
            self.reference = out
        environment = out.pop("environment")
        if self.attempted == 1:
            print("environment: " + json.dumps(environment, sort_keys=True))
        summary = (f"{label}: workers {out['workers']}{' traced' if trace else ''}, "
                   f"wall {out['wall_s']:.4f} s, setup {out['setup_s']:.4f} s, "
                   f"{_bits_per_s(self.workload, [out]):.1f} bits/s, "
                   f"peak RSS {out['peak_rss_mb']:.1f} MB")
        if problems:
            self.failed += 1
            print(f"{summary}: FAILED: {'; '.join(problems)}")
            return None
        print(f"{summary}: ok")
        return out


def _end_to_end(run: Run, seconds: float, started: float) -> dict:
    outs = []
    last = 0.0
    while run.attempted < MIN_CALLS or time.monotonic() - started + last <= seconds:
        if time.monotonic() + last > run.deadline:
            break
        call_started = time.monotonic()
        out = run.call()
        last = time.monotonic() - call_started
        # A failed call is counted and the run goes on, so that ok_ratio
        # covers every attempt.
        if out is not None:
            outs.append(out)
    metrics = {"ok_ratio": (run.attempted - run.failed) / run.attempted}
    if outs:
        # Wall time and throughput average over every call, because the calls
        # do identical work and the block time varies from call to call;
        # setup and memory are per-process figures and take the median.
        metrics.update({name: statistics.median(o[name] for o in outs)
                        for name in ("setup_s", "peak_rss_mb")})
        metrics["wall_s"] = statistics.fmean(o["wall_s"] for o in outs)
        metrics["bits_per_s"] = _bits_per_s(run.workload, outs)
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def _module_sum(functions: dict, module: str, field: str) -> float:
    return sum(f[field] for name, f in functions.items() if name.startswith(module + "."))


def _per_layer(run: Run) -> dict:
    workload = run.workload
    pooled = workload.workers > 1
    untraced = run.call()
    serial = run.call(workers=1) if pooled else untraced
    traced = run.call(workers=1 if pooled else None, trace=True)
    if untraced is None or serial is None or traced is None:
        return {}
    functions = traced["trace"]["functions"]
    for name, f in functions.items():
        print(f"  {name}: calls {f['calls']}, total {f['total_s']:.4f} s, "
              f"self {f['self_s']:.4f} s (setup {f['setup_self_s']:.4f} s)")

    def fn(name, field):
        return functions.get(name, {}).get(field, 0)

    hpa_s = _module_sum(functions, "hpa", "self_s")
    if workload.kind == "ber":
        decided = sum(r["bits"] for r in traced["records"])
        modulated = (traced["blocks"] * traced["users"] * traced["symbols_per_block"]
                     * traced["bits_per_symbol"])
        counted_windows = decided / traced["bits_per_symbol"]
    else:
        decided = traced["n_symbols"]
        modulated = traced["n_symbols"] * traced["users"] * traced["bits_per_symbol"]
        counted_windows = traced["n_symbols"] * traced["sources"]
    windows = fn("receiver.correlate_slots", "rows_out")
    metrics = {
        "harness.self_s": (traced["trace"]["root_self_s"], "s"),
        "hpa.s": (hpa_s, "s"),
        "hpa.setup_s": (_module_sum(functions, "hpa", "setup_self_s"), "s"),
        "hpa.calls": (_module_sum(functions, "hpa", "calls"), "count"),
        "hpa.samples_per_s": (_module_sum(functions, "hpa", "samples_in") / hpa_s
                              if hpa_s else 0.0, "1/s"),
        "channel.propagate_s": (fn("channel.propagate_samples", "self_s")
                                + fn("channel.apply_multipath", "self_s"), "s"),
        "channel.noise_s": (fn("channel.add_awgn", "self_s"), "s"),
        "channel.draw_s": (fn("channel.draw_channel", "self_s"), "s"),
        "process.minflt_per_block": (untraced["minflt"] / untraced["blocks"], "count"),
        "process.cpu_per_wall": (untraced["cpu_s"] / untraced["wall_s"], "ratio"),
        "harness.pool_scaling": (serial["sweep_s"] / (untraced["workers"] * untraced["sweep_s"]),
                                 "ratio"),
        "harness.decoded_bit_ratio": (decided / modulated, "ratio"),
        "harness.counted_symbol_ratio": (counted_windows / windows if windows else 0.0, "ratio"),
        "trace.overhead": (traced["wall_s"] / serial["wall_s"], "ratio"),
        "trace.wall_s": (traced["wall_s"], "s"),
    }
    for module in ("txchain", "receiver", "codes"):
        metrics[f"{module}.s"] = (_module_sum(functions, module, "self_s"), "s")
        metrics[f"{module}.calls"] = (_module_sum(functions, module, "calls"), "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    run = Run(WORKLOADS[name], seed, started)
    metrics = _per_layer(run) if trace else _end_to_end(run, seconds, started)
    return {"correct": run.failed == 0 and bool(metrics), "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so that _spawn's cleanup stops the call.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "mcmccdma" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            if len(names) > 1:
                print(f"{name}: " + json.dumps(results[name]))
    finally:
        tmp = ROOT / TMP_DIR
        if tmp.is_dir() and not any(tmp.iterdir()):
            tmp.rmdir()
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{m}": v for n, r in results.items()
                              for m, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

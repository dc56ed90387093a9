"""Workload definitions shared by the benchmark runner and its per-call child.

Plain data only: importing this module must not import the simulator, so
the runner can parse arguments and check results without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

EBN0_DB = 8.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which preset scenario, how much work, how it
    runs and which result band counts as correct."""

    name: str
    kind: str                  # "ber" (run_scenario) or "decompose" (measure_variances)
    family: str                # harness.preset family holding the scenario
    scenario: str              # scenario name inside that family
    workers: int = 1
    blocks: int = 16           # ber only: one wave of this many blocks per call
    band: tuple = (0.0, 0.0)   # BER band (ber) or band on variances.total (decompose)
    # traced modules the call must go through, so that a traced run that
    # misses a layer fails its check
    layers: tuple = ("codes", "txchain", "channel", "receiver")


WORKLOADS = {w.name: w for w in (
    # 50 users, pn 1023, bypass, one Rayleigh path: the sample-level
    # modulation dominates, with no amplifier and no pool.
    Workload("linear-users50", "ber", "user-sweep", "users-50",
             band=(0.1, 0.45)),
    # Predistorter plus tube at pn 4095: the amplifier dominates the blocks,
    # and the calibration frame is the only sizeable setup of any workload.
    # Two blocks per call, so that a run still holds three calls.
    Workload("amplifier-linearized", "ber", "linearization", "amplifier-linearized",
             blocks=2, band=(0.004, 0.08),
             layers=("codes", "txchain", "hpa", "channel", "receiver")),
    # Eight Rayleigh paths on small blocks through the fork pool at two
    # workers: propagation, allocation and BLAS-thread oversubscription.
    # Its calls vary most (a cold pool's BLAS threads land differently each
    # time), so a call is one wave and a run gets more of them.
    Workload("multipath-pooled", "ber", "system-comparison", "multicode-only",
             workers=2, band=(0.08, 0.42)),
    # The --decompose path: per-source synthesis and correlation.
    Workload("decompose-mcmc", "decompose", "system-comparison", "multicode-multicarrier",
             band=(0.8, 8.0)),
)}

"""Deterministic fault injection for the TABS simulation.

The chaos harness has three layers:

- :mod:`repro.chaos.plan` -- declarative, immutable fault schedules
  (:class:`FaultPlan`) built from timed actions (crash, restart,
  partition, link faults, disk slowdowns, storage corruption: torn
  writes, bit rot, lost writes, log-sector rot) and log-triggered
  crashes (:class:`CrashWhenLogged`, which fires the instant a record
  opening an exact commit-protocol window turns durable);
- :mod:`repro.chaos.controller` -- :class:`ChaosController` installs a
  plan onto a live cluster, records a deterministic event trace, and
  provides repair/quiescence helpers;
- :mod:`repro.chaos.workload` -- :class:`ChaosWorkload` drives seeded
  randomized transfer/queue traffic and audits the transaction
  guarantees afterwards (conservation, atomicity, durability, drainage).

Every run is exactly reproducible from ``(seed, plan)``; the determinism
regression tests assert trace-for-trace equality across reruns.
"""

from repro.chaos.controller import ChaosController
from repro.chaos.plan import (
    BitRotAt,
    CrashAt,
    CrashOnGroupForce,
    CrashWhenLogged,
    DiskSlowdown,
    FaultAction,
    FaultPlan,
    HealAt,
    LinkFaultWindow,
    LogSectorRotAt,
    LostWriteAt,
    MigrationFault,
    PartitionAt,
    RestartAt,
    TornWriteAt,
    crash_one_replica_per_shard,
    isolate_replica,
    random_plan,
)
from repro.chaos.workload import ChaosWorkload, TxnRecord, build_cluster
from repro.workloads.harness import WorkloadStats

__all__ = [
    "BitRotAt",
    "ChaosController",
    "ChaosWorkload",
    "CrashAt",
    "CrashOnGroupForce",
    "CrashWhenLogged",
    "DiskSlowdown",
    "FaultAction",
    "FaultPlan",
    "HealAt",
    "LinkFaultWindow",
    "LogSectorRotAt",
    "LostWriteAt",
    "MigrationFault",
    "PartitionAt",
    "RestartAt",
    "TornWriteAt",
    "TxnRecord",
    "WorkloadStats",
    "build_cluster",
    "crash_one_replica_per_shard",
    "isolate_replica",
    "random_plan",
]

"""Primitive-operation cost model and instrumentation.

Section 5.1 of the paper decomposes every benchmark into repeated executions
of nine *primitive operations* (Table 5-1) plus TABS system-process CPU time.
This module defines:

- :class:`Primitive` -- the nine primitives,
- :class:`CostProfile` -- a named table of primitive times.
  :data:`MEASURED_1985` is the paper's Table 5-1 (measured on a Perq T2);
  :data:`ACHIEVABLE_1985` is Table 5-5 (projected achievable times);
  :data:`ZERO_COST` makes the simulation free (useful in unit tests).
- :class:`CpuCosts` -- per-component CPU processing times, calibrated from
  the itemised accounting in Section 5.2's prose.
- :class:`CostMeter` -- the instrument: every primitive executed and every
  millisecond of component CPU is recorded here, split into pre-commit and
  commit phases so that Tables 5-2 and 5-3 can be regenerated by measurement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Primitive(enum.Enum):
    """The nine primitive operations of Table 5-1."""

    #: ``enum.Enum.__hash__`` is a Python-level call and these members key
    #: the hottest dicts in the simulator (cost tables, the meter).  The
    #: C-level identity hash is safe here: members are singletons, and no
    #: *set* of them is ever iterated into output (dicts keep insertion
    #: order regardless of hash).
    __hash__ = object.__hash__

    DATA_SERVER_CALL = "data_server_call"
    INTER_NODE_DATA_SERVER_CALL = "inter_node_data_server_call"
    DATAGRAM = "datagram"
    SMALL_MESSAGE = "small_message"
    LARGE_MESSAGE = "large_message"
    POINTER_MESSAGE = "pointer_message"
    RANDOM_PAGED_IO = "random_paged_io"
    SEQUENTIAL_READ = "sequential_read"
    STABLE_STORAGE_WRITE = "stable_storage_write"


class Phase(enum.Enum):
    """Which part of a transaction a primitive was charged to."""

    __hash__ = object.__hash__  # see Primitive: identity hash, C fast path

    PRE_COMMIT = "pre_commit"
    COMMIT = "commit"
    #: Work outside any benchmarked transaction (setup, recovery, ...).
    BACKGROUND = "background"


@dataclass(frozen=True)
class CostProfile:
    """A named assignment of times (milliseconds) to primitives."""

    name: str
    times: dict[Primitive, float]

    def time_of(self, primitive: Primitive) -> float:
        return self.times[primitive]


#: Table 5-1: primitive times measured on a Perq T2 (milliseconds).
MEASURED_1985 = CostProfile(
    name="measured-1985 (Table 5-1)",
    times={
        Primitive.DATA_SERVER_CALL: 26.1,
        Primitive.INTER_NODE_DATA_SERVER_CALL: 89.0,
        Primitive.DATAGRAM: 25.0,
        Primitive.SMALL_MESSAGE: 3.0,
        Primitive.LARGE_MESSAGE: 4.4,
        Primitive.POINTER_MESSAGE: 18.3,
        Primitive.RANDOM_PAGED_IO: 32.0,
        Primitive.SEQUENTIAL_READ: 16.0,
        Primitive.STABLE_STORAGE_WRITE: 79.0,
    })

#: Table 5-5: times "achievable by tuning software and adding disks".
ACHIEVABLE_1985 = CostProfile(
    name="achievable-1985 (Table 5-5)",
    times={
        Primitive.DATA_SERVER_CALL: 2.5,
        Primitive.INTER_NODE_DATA_SERVER_CALL: 9.0,
        Primitive.DATAGRAM: 2.0,
        Primitive.SMALL_MESSAGE: 1.0,
        Primitive.LARGE_MESSAGE: 1.25,
        Primitive.POINTER_MESSAGE: 15.0,
        Primitive.RANDOM_PAGED_IO: 32.0,
        Primitive.SEQUENTIAL_READ: 10.0,
        Primitive.STABLE_STORAGE_WRITE: 32.0,
    })

#: All primitives free: unit tests that assert on logic, not latency.
ZERO_COST = CostProfile(
    name="zero-cost", times={p: 0.0 for p in Primitive})


@dataclass(frozen=True)
class CpuCosts:
    """Per-component CPU times (ms), calibrated from Section 5.2 prose.

    The paper accounts the measured elapsed time of a 1-node read-only
    transaction as 110 ms = 53 ms of primitives + 41 ms of TABS system
    process time (36 Transaction Manager + 5 Recovery Manager) + ~3 ms
    application + ~4 ms data server + ~9 ms unaccounted.  A write adds 78 ms
    stable write, 5 ms data-server log formatting, 10 ms Recovery Manager
    spooling, and 8/24/4 ms extra commit work in the Recovery Manager /
    Transaction Manager / data server.  The fields below carve those
    aggregates into the points in our protocol where the work happens.
    """

    # Transaction Manager: 36 ms per local read txn, split begin/commit.
    tm_begin: float = 12.0
    tm_commit_read: float = 24.0
    #: extra Transaction Manager work for an update-transaction commit.
    tm_commit_write_extra: float = 24.0
    # Recovery Manager: 5 ms per read-only txn (bookkeeping).
    rm_read_txn: float = 5.0
    #: spooling one value-log record to the volatile log buffer.
    rm_spool_record: float = 10.0
    #: extra commit-time work in the Recovery Manager for update txns.
    rm_commit_write_extra: float = 8.0
    # Data server: ~4 ms to initiate/commit, +5 to format a log record,
    # +4 during an update commit.
    ds_txn_overhead: float = 4.0
    ds_log_format: float = 5.0
    ds_commit_write_extra: float = 4.0
    # Application runtime overhead per transaction.
    app_txn_overhead: float = 3.0
    #: the ~9 ms of the read path the paper could not attribute; we charge it
    #: to the Transaction Manager's dispatch loop to keep elapsed times true.
    tm_dispatch_slop: float = 9.0
    # Communication Manager CPU per inter-node interaction.  Session CPU is
    # already inside the 89 ms inter-node-call primitive (recorded but not
    # re-added to latency); datagram handling is on the commit critical
    # path and calibrated so the two-node benchmarks land near Table 5-4.
    cm_session_msg: float = 18.0
    cm_datagram: float = 14.0


#: CPU costs with everything free, for logic-only tests.
ZERO_CPU = CpuCosts(**{name: 0.0 for name in CpuCosts.__dataclass_fields__})


def round_count(value: float, digits: int = 2) -> float:
    """Round an accumulated primitive count for presentation.

    Meters keep *exact* fractions internally (a force amortised over two
    transactions records ``fraction=0.5`` twice); rounding happens only at
    the report boundary, and with Python's half-even :func:`round` so
    amortised half-counts never bias a printed table up or down.
    """
    return round(value, digits)


@dataclass
class CostMeter:
    """Counts and times every primitive and every ms of component CPU.

    One meter instruments a whole simulated cluster.  ``phase`` is switched
    by the transaction-management library when commit processing begins;
    because the paper's methodology evaluates latency *under no load* (one
    transaction at a time), a single global phase flag is sufficient and is
    how we regenerate the pre-commit (Table 5-2) versus commit (Table 5-3)
    primitive counts.
    """

    phase: Phase = Phase.BACKGROUND
    #: counts[(phase, primitive)] -> number of executions
    counts: dict[tuple[Phase, Primitive], int] = field(default_factory=dict)
    #: primitive_time[phase] -> total primitive milliseconds
    primitive_time: dict[Phase, float] = field(default_factory=dict)
    #: cpu_time[component-name] -> total CPU milliseconds
    cpu_time: dict[str, float] = field(default_factory=dict)
    #: robustness event counters (``failures_detected``, ``false_suspicions``,
    #: ``aborts_on_failure``, ``rpc_retries``, ``self_recoveries``, ...)
    counters: dict[str, int] = field(default_factory=dict)

    def record(self, primitive: Primitive, time_ms: float,
               fraction: float = 1.0) -> None:
        """Record ``fraction`` executions of ``primitive`` taking ``time_ms``."""
        key = (self.phase, primitive)
        self.counts[key] = self.counts.get(key, 0) + fraction
        self.primitive_time[self.phase] = (
            self.primitive_time.get(self.phase, 0.0) + time_ms)

    def record_cpu(self, component: str, time_ms: float) -> None:
        """Record CPU time consumed by a named component."""
        self.cpu_time[component] = self.cpu_time.get(component, 0.0) + time_ms

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a named robustness counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def reset(self) -> None:
        """Clear all counters (start of a benchmark iteration)."""
        self.counts.clear()
        self.primitive_time.clear()
        self.cpu_time.clear()
        self.counters.clear()
        self.phase = Phase.BACKGROUND

    # -- reporting helpers --------------------------------------------------

    def count(self, primitive: Primitive, phase: Phase | None = None) -> float:
        """Executions of ``primitive``, in one phase or across all phases."""
        if phase is not None:
            return self.counts.get((phase, primitive), 0)
        return sum(count for (_, prim), count in self.counts.items()
                   if prim is primitive)

    def phase_counts(self, phase: Phase) -> dict[Primitive, float]:
        """All primitive counts recorded in ``phase``."""
        return {prim: count for (ph, prim), count in self.counts.items()
                if ph is phase and count}

    def total_cpu(self, components: tuple[str, ...] | None = None) -> float:
        """Total CPU ms, optionally restricted to named components."""
        if components is None:
            return sum(self.cpu_time.values())
        return sum(time for name, time in self.cpu_time.items()
                   if name in components)

"""Cluster configuration.

A :class:`TabsConfig` fixes the cost model (which primitive-time profile,
which per-component CPU calibration), the architecture variant (separate
processes as measured, or the Section 5.3 merged projection), and the
capacity knobs of the substrate.  The performance harness sweeps these to
regenerate Table 5-4's four columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.kernel.costs import (
    ACHIEVABLE_1985,
    MEASURED_1985,
    CostProfile,
    CpuCosts,
)


@dataclass(frozen=True)
class CommitConfig:
    """How log-force requests become physical log forces on every node.

    ``pipeline="paper"`` (the default) reproduces the system exactly as
    measured: every prepare and commit record is forced individually, so
    Tables 5-1 through 5-5 and all historical chaos seeds replay
    byte-identically.

    ``pipeline="grouped"`` is the Section 7 scale-out direction (Gray's
    group commit): log forces arriving within ``force_window_ms`` of each
    other are coalesced into a single physical log force that completes
    all waiters at once.  The two-phase-commit messages are the paper's
    under either value: one datagram per prepare, vote, commit and ack.

    ``serial_log_device`` models the log disk as a serial resource (one
    force in flight at a time, FIFO).  It is off by default because the
    paper's no-load latency accounting lets concurrent forces overlap
    freely; the throughput harness turns it on for both pipelines so the
    comparison is between equal device models.
    """

    #: "paper" | "grouped"
    pipeline: str = "paper"
    #: group-commit accumulation window in simulated milliseconds
    force_window_ms: float = 2.0
    #: one physical log force in flight at a time (FIFO device queue)
    serial_log_device: bool = False

    def __post_init__(self) -> None:
        if self.pipeline not in ("paper", "grouped"):
            raise ValueError(f"unknown commit pipeline {self.pipeline!r}")
        if self.force_window_ms < 0:
            raise ValueError("force_window_ms must be >= 0")

    @classmethod
    def grouped(cls, force_window_ms: float = 2.0) -> "CommitConfig":
        """Group commit over a serial log device."""
        return cls(pipeline="grouped", force_window_ms=force_window_ms,
                   serial_log_device=True)


@dataclass(frozen=True)
class ReplicationConfig:
    """Available-copies replication over sharded key-spaces.

    Off by default: the paper's system keeps every recoverable object on
    exactly one node, and all historical goldens replay byte-identically.
    With ``enabled``, workload builders shard their logical key-spaces
    across the data-server nodes via a
    :class:`~repro.replication.placement.PlacementMap` with
    ``replication_factor`` copies each, clients route writes to *all
    available* copies and reads to *any available* copy, and the
    Transaction Manager validates at commit time that no written replica
    failed (erasing its in-memory CC state) while the transaction was
    open -- the RepCRec available-copies protocol layered on the
    existing 2PC/2PL facility.

    A recovering replica observes a read barrier: it refuses reads until
    a catch-up pass has merged current versions from its live peers.
    The bounds of that pass (chunk size, back-off, lock and call
    time-outs, retry budget) are constants in
    :mod:`repro.replication.catchup`, and the prepared-inquiry interval
    replication tightens is ``PREPARED_INQUIRY_MS`` in
    :mod:`repro.replication.runtime` -- no workload ever set them, so
    they are not configuration.
    """

    enabled: bool = False
    #: copies of each key-space (clamped to the node count at build time)
    replication_factor: int = 2

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")

    @classmethod
    def available_copies(cls,
                         replication_factor: int = 2) -> "ReplicationConfig":
        """Write-all-available / read-any-available replication."""
        return cls(enabled=True, replication_factor=replication_factor)


@dataclass(frozen=True)
class ReconfigConfig:
    """Online reconfiguration: live join/retire and shard migration.

    Off by default: cluster membership and the placement map stay fixed
    at construction exactly as before, no epoch ever rides in a message
    body, and all historical goldens and bench baselines replay
    byte-identically.  With ``enabled``, placement becomes
    epoch-versioned (:class:`~repro.reconfig.epoch.PlacementEpoch`):
    routers stamp each transaction with the epoch it routed under and
    the Transaction Manager aborts it at commit if the epoch moved
    meanwhile (a migration re-homed something it touched), nodes may
    join a *running* cluster and retire from it, and a
    :class:`~repro.reconfig.migration.MigrationCoordinator` moves one
    shard between nodes as a crash-safe transaction (durable intent in
    the originator's WAL, chunked copy behind a read barrier, epoch
    install as the commit action, presumed-abort rollback).

    The copy is :func:`repro.replication.catchup.copy_shard`, the loop
    replica catch-up runs, under that module's constants;
    ``COPY_MAX_RETRIES`` in :mod:`repro.reconfig.migration` bounds how
    long a migration keeps retrying a failing source or destination
    before rolling back to the old epoch.
    """

    enabled: bool = False

    @classmethod
    def off(cls) -> "ReconfigConfig":
        """Static membership and placement, byte-identical to PR 7."""
        return cls()

    @classmethod
    def online(cls) -> "ReconfigConfig":
        """Live join/retire and transactional shard migration."""
        return cls(enabled=True)


@dataclass(frozen=True)
class WorkloadConfig:
    """The banking schema a workload-driven cluster is built around.

    An immutable block of scale knobs hanging off :class:`TabsConfig`,
    consumed by :meth:`~repro.core.cluster.TabsCluster.build_workload`.
    The schema is Jim Gray's DebitCredit / TPC-B banking workload
    (*Thousands of DebitCredit Transactions-Per-Second in Low-Cost
    Systems*): each branch comprises the branch balance row
    (the hot row every local transaction updates), its tellers, its
    account partition, and its history strands, with
    ``branches_per_node`` branches co-hosted per cluster node.

    ``branches_per_node`` matters for the commit pipeline: within one
    branch, strict two-phase locking on the hot row serializes commits,
    so a node hosting a single branch never has two log forces in
    flight and group commit has nothing to coalesce.  Co-hosted
    branches commit independently against the *same* serial log device
    -- the regime where the ``grouped`` pipeline amortizes one physical
    force across every branch committing in the window.

    ``accounts_per_branch`` scales to millions of *logical* accounts:
    account cells live in a sparse recoverable segment whose pages
    materialize only when written, so segment size is address-space, not
    memory.  ``locality`` is the probability that a transaction debits an
    account of its home branch; the remainder pick a uniformly random
    remote branch, making the transaction a cross-node 2PC.
    """

    branches: int = 2
    #: branches co-hosted on one cluster node (ceil-divided; the last
    #: node may hold fewer)
    branches_per_node: int = 1
    tellers_per_branch: int = 10
    #: logical accounts per branch (sparse; pages materialize on write)
    accounts_per_branch: int = 100_000
    #: probability a transaction's account belongs to its home branch
    locality: float = 0.9
    #: transaction amounts are drawn uniformly from [1, max_delta], signed
    max_delta: int = 999
    #: history capacity per teller strand (rows, not bytes)
    history_slots_per_teller: int = 4096

    def __post_init__(self) -> None:
        if self.branches < 1:
            raise ValueError("need at least one branch")
        if self.branches_per_node < 1:
            raise ValueError("need at least one branch per node")
        if self.tellers_per_branch < 1:
            raise ValueError("need at least one teller per branch")
        if self.accounts_per_branch < 1:
            raise ValueError("need at least one account per branch")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError("locality is a probability")
        if self.max_delta < 1:
            raise ValueError("max_delta must be >= 1")
        if self.history_slots_per_teller < 1:
            raise ValueError("need at least one history slot per teller")
        from repro.core.facility import SEGMENT_VA_STRIDE

        for rows, what in ((self.accounts_per_branch, "accounts"),
                           ((self.tellers_per_branch
                             * (1 + self.history_slots_per_teller)),
                            "history slots")):
            if rows * 4 > SEGMENT_VA_STRIDE:  # 4-byte cells, one segment
                raise ValueError(
                    f"{what} per branch exceed one recoverable segment "
                    f"({SEGMENT_VA_STRIDE // 4} cells)")


@dataclass(frozen=True)
class TabsConfig:
    """Everything needed to build a cluster."""

    profile: CostProfile = MEASURED_1985
    cpu_costs: CpuCosts = field(default_factory=CpuCosts)
    #: Section 5.3 "Improved TABS Architecture": TM/RM merged into the kernel
    merged_architecture: bool = False
    #: page frames of physical memory per node ("more than three times" less
    #: than the 5000-page benchmark array on a real Perq)
    vm_capacity_pages: int = 1500
    #: common-log slots per node; reclamation starts at half of them
    log_capacity_records: int = 8_192
    lock_timeout_ms: float = 10_000.0
    datagram_loss_rate: float = 0.0
    #: proactive failure detection (Section 3.2: the Communication Manager
    #: reports node failures).  Probes are uncharged background daemons, so
    #: they do not perturb the paper's cost accounting.
    probe_interval_ms: float = 250.0
    suspicion_timeout_ms: float = 1500.0
    #: TM-driven checkpoint cadence (Section 3.2.2), in commits; None = off
    checkpoint_every_commits: int | None = None
    #: log-force pipeline (group commit); the default reproduces the
    #: paper's per-record forces exactly
    commit: CommitConfig = field(default_factory=CommitConfig)
    #: banking schema built by :meth:`TabsCluster.build_workload`
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: available-copies replication of the workload's key-spaces; the
    #: default (off) keeps every object single-copy as in the paper
    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    #: online reconfiguration (live join/retire, shard migration); the
    #: default (off) keeps membership and placement fixed at construction
    reconfig: ReconfigConfig = field(default_factory=ReconfigConfig)
    seed: int = 1985

    @classmethod
    def measured(cls) -> "TabsConfig":
        """The system as measured in Table 5-4's 'Measured Elapsed Time'."""
        return cls()

    @classmethod
    def improved_architecture(cls) -> "TabsConfig":
        """Table 5-4's 'Improved TABS Architecture' column."""
        return cls(merged_architecture=True)

    @classmethod
    def new_primitives(cls) -> "TabsConfig":
        """Table 5-4's 'New Primitive Times' column: the improved
        architecture running on Table 5-5's achievable primitives."""
        return cls(merged_architecture=True, profile=ACHIEVABLE_1985)

    def with_(self, **changes) -> "TabsConfig":
        """A modified copy (ablation sweeps)."""
        return replace(self, **changes)

"""``repro.workloads``: application schemas layered on the facility.

A *workload* is a complete banking-style schema -- data servers, node
topology, a seeded load generator, and the invariant audits that make its
results credible -- scaled by :class:`~repro.core.config.WorkloadConfig`
and built over a :class:`~repro.core.cluster.TabsCluster` via
:meth:`~repro.core.cluster.TabsCluster.build_workload`.

The workload is Gray's DebitCredit / TPC-B banking benchmark
(:mod:`repro.workloads.debitcredit`): the "heavy traffic" stressor whose
hot branch row punishes two-phase locking and whose history append
rewards group commit.  Its seeded driver sits on
:mod:`repro.workloads.harness`, the client harness it shares with the
chaos transfer workload.
"""

from repro.workloads.debitcredit import (
    AccountServer,
    BranchServer,
    DebitCreditTopology,
    DebitCreditWorkload,
    HistoryServer,
    ReplicatedAccountServer,
    ReplicatedBranchServer,
    ReplicatedHistoryServer,
    ReplicatedTellerServer,
    TellerServer,
    TxnSpec,
    build_debitcredit,
    debitcredit_txn,
    draw_spec,
    replicated_debitcredit_txn,
)

__all__ = [
    "AccountServer",
    "BranchServer",
    "DebitCreditTopology",
    "DebitCreditWorkload",
    "HistoryServer",
    "ReplicatedAccountServer",
    "ReplicatedBranchServer",
    "ReplicatedHistoryServer",
    "ReplicatedTellerServer",
    "TellerServer",
    "TxnSpec",
    "build_debitcredit",
    "debitcredit_txn",
    "draw_spec",
    "replicated_debitcredit_txn",
]

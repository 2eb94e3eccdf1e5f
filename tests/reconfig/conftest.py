"""Shared builder for a reconfigurable replicated DebitCredit cluster."""

from repro.app.library import run_transaction
from repro.core.cluster import TabsCluster
from repro.core.config import (ReconfigConfig, ReplicationConfig, TabsConfig,
                               WorkloadConfig)
from repro.errors import LockTimeout, ReplicaUnavailable, TransactionAborted
from repro.reconfig import ReconfigManager
from repro.replication.router import ReplicatedApp

#: two branches on two nodes, rf=2, tiny partitions: every key-space has
#: a copy on each node and the audits stay cheap
WORKLOAD = WorkloadConfig(branches=2, accounts_per_branch=10,
                          tellers_per_branch=2)


def build_reconfig(seed: int = 7, originator: str = "bank0",
                   replication: ReplicationConfig | None = None,
                   reconfig: ReconfigConfig | None = None,
                   workload: WorkloadConfig | None = None):
    """A started rf=2 DebitCredit cluster with online reconfiguration;
    returns ``(cluster, topology, manager)``."""
    config = TabsConfig(
        seed=seed,
        workload=workload or WORKLOAD,
        replication=replication or ReplicationConfig.available_copies(2),
        reconfig=reconfig or ReconfigConfig.online())
    cluster = TabsCluster(config)
    topology = cluster.build_workload()
    manager = ReconfigManager(cluster, originator)
    cluster.settle()
    return cluster, topology, manager


def counter(cluster, node, name):
    return cluster.metrics.counter(node, name).value


def gauge(cluster, node, name):
    return cluster.metrics.gauge(node, name).value


def phases(manager):
    """The migration phase names in event order."""
    return [event[1] for event in manager.events]


def commit_one(cluster, topology, home_node: str, branch: int = 0) -> bool:
    """One fresh replicated DebitCredit transaction; True iff it commits."""
    from repro.workloads.debitcredit import (TxnSpec,
                                             replicated_debitcredit_txn)

    rapp = ReplicatedApp(cluster, home_node)
    spec = TxnSpec(home_branch=branch, teller=1, account_branch=branch,
                   account=2, amount=7)

    def body(tid):
        yield from replicated_debitcredit_txn(rapp, topology, spec, tid)

    try:
        cluster.run_on(home_node, run_transaction(
            rapp, body, retries=2,
            retryable=(TransactionAborted, LockTimeout, ReplicaUnavailable)))
    except Exception:
        return False
    return True

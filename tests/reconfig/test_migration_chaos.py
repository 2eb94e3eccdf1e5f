"""Crashes and partitions at migration phase boundaries.

Every scenario runs live DebitCredit traffic, injects one
:class:`MigrationFault` through the chaos controller, finishes with the
workload's crash-recover-all finale, and audits conservation plus the
single-copy-serializability invariants.  The migration itself must end
in a *decided* state either way: committed with the shard re-homed, or
rolled back with the old placement re-installed as a fresh epoch.
"""

from tests.reconfig.conftest import (build_reconfig, commit_one, counter,
                                     phases)

from repro.chaos import ChaosController, FaultPlan, MigrationFault
from repro.workloads.debitcredit import DebitCreditWorkload


def run_scenario(fault: MigrationFault, seed: int = 7, txns: int = 24,
                 traffic: bool = True):
    """Traffic + one armed migration fault + finale; returns the lot."""
    cluster, topology, manager = build_reconfig(seed=seed)
    plan = FaultPlan.of(fault)
    controller = ChaosController(cluster, plan, seed=3)
    controller.install()
    manager.join("bank2")
    workload = DebitCreditWorkload(cluster, topology, controller=controller,
                                   seed=11)
    keyspace = topology.account_server(1)
    if traffic:
        workload.schedule_traffic(txns=txns, first_at_ms=5.0,
                                  spacing_ms=60.0)
    holder = {}
    cluster.engine.schedule(
        400.0, lambda: holder.update(
            c=manager.spawn_migration(keyspace, "bank0", "bank2")))
    _, report = workload.play()
    return cluster, topology, manager, workload, report, holder["c"]


class TestOriginatorCrash:
    def test_crash_mid_copy_resumes_on_recovery(self):
        """The coordinator dies with its node; the durable intent
        settles the migration at the originator's next recovery."""
        cluster, topology, manager, workload, report, coordinator = \
            run_scenario(MigrationFault(phase="copy", role="originator",
                                        kind="crash",
                                        restart_after_ms=4_000.0))
        assert coordinator.result is None
        resumed = [p for p in phases(manager) if p.startswith("resumed")]
        assert len(resumed) == 1
        assert report.violations == []
        # whatever direction it resumed, the shard is fully placed and
        # the cluster still commits fresh traffic
        keyspace = topology.account_server(1)
        assert len(cluster.placement.replicas(keyspace)) == 2
        assert commit_one(cluster, topology, "bank1", branch=1)


class TestDestinationCrash:
    def test_crash_before_copy_without_restart_rolls_back(self):
        """A destination that dies right after extend and never returns
        exhausts the copy retry budget; the old placement comes back as
        a fresh epoch and the audits hold."""
        cluster, topology, manager, workload, report, coordinator = \
            run_scenario(MigrationFault(phase="extend", role="dest",
                                        kind="crash"))
        assert coordinator.result is False
        assert "rolled-back" in phases(manager)
        keyspace = topology.account_server(1)
        assert cluster.placement.replicas(keyspace) == ("bank1", "bank0")
        assert counter(cluster, "bank0",
                       "reconfig.migrations_rolled_back") == 1
        assert report.violations == []
        assert commit_one(cluster, topology, "bank1", branch=1)

    def test_crash_mid_copy_with_restart_still_commits(self):
        """The copy retries through the outage; the restarted
        destination catches up behind its read barrier and the
        migration lands."""
        cluster, topology, manager, workload, report, coordinator = \
            run_scenario(MigrationFault(phase="copy", role="dest",
                                        kind="crash",
                                        restart_after_ms=4_000.0))
        assert coordinator.result is True
        keyspace = topology.account_server(1)
        assert cluster.placement.replicas(keyspace) == ("bank1", "bank2")
        assert report.violations == []
        # The crash lands at the phase boundary's own instant.
        trace = workload.controller.trace
        (fault,) = [e for e in trace if e[1] == "migration-fault"]
        assert (fault[0], "crash", "bank2") in {e[:3] for e in trace}

    def test_crash_after_commit_is_an_ordinary_replica_failure(self):
        """Past the commit point the shard is re-homed; the dead copy
        recovers like any crashed replica (barrier + catch-up)."""
        cluster, topology, manager, workload, report, coordinator = \
            run_scenario(MigrationFault(phase="commit", role="dest",
                                        kind="crash",
                                        restart_after_ms=4_000.0))
        assert coordinator.result is True
        assert "done" in phases(manager)
        keyspace = topology.account_server(1)
        assert cluster.placement.replicas(keyspace) == ("bank1", "bank2")
        assert report.violations == []


class TestSourcePartition:
    def test_partitioned_source_commits_after_heal(self):
        """The copy's retry loop outlives a partition window.  No
        traffic rides through the partition: available-copies is
        documented as unsound under symmetric partitions (split-brain
        writers), migration or not -- here we isolate the migration's
        own behavior.  The fault arms at "extend" because a quiet
        cluster copies zero chunks and never emits a "copy" phase."""
        cluster, topology, manager, workload, report, coordinator = \
            run_scenario(MigrationFault(phase="extend", role="source",
                                        kind="partition",
                                        heal_after_ms=4_000.0),
                         traffic=False)
        assert coordinator.result is True
        keyspace = topology.account_server(1)
        assert cluster.placement.replicas(keyspace) == ("bank1", "bank2")
        assert report.violations == []
        assert commit_one(cluster, topology, "bank1", branch=1)

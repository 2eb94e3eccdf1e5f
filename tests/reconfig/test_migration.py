"""Shard migration: the happy path, validation, and crash resume."""

import pytest

from tests.reconfig.conftest import build_reconfig, counter, phases

from repro.core.config import WorkloadConfig
from repro.errors import TabsError
from repro.reconfig.registry import registry_call
from repro.workloads.debitcredit import DebitCreditWorkload


class TestHappyPath:
    def test_migration_moves_the_shard(self):
        cluster, topology, manager = build_reconfig(seed=61)
        keyspace = topology.account_server(1)
        assert cluster.placement.replicas(keyspace) == ("bank1", "bank0")
        manager.join("bank2")

        assert manager.run_migration(keyspace, "bank0", "bank2") is True

        # dest takes the source's position; intent -> extend -> copy
        # passes -> barrier -> commit -> done; extend + shrink epochs
        assert cluster.placement.replicas(keyspace) == ("bank1", "bank2")
        assert cluster.placement_epoch == 2
        # "copy" phases only appear for cells written through the
        # replicated write path; a quiet cluster migrates zero chunks
        # and the destination liveness probe stands in for them
        seen = [p for p in phases(manager) if p != "copy"]
        assert seen == ["intent", "extend", "barrier", "commit", "done"]
        assert counter(cluster, "bank0",
                       "reconfig.migrations_committed") == 1

    def test_registry_intent_is_cleared_after_commit(self):
        cluster, topology, manager = build_reconfig(seed=67)
        keyspace = topology.account_server(1)
        manager.join("bank2")
        manager.run_migration(keyspace, "bank0", "bank2")

        app = cluster.application("bank0")
        state = cluster.run_on(
            "bank0", registry_call(app, "bank0", "reconfig_state", {}))
        assert state["seq"] == 1
        assert state["intent"] == 0

    def test_destination_answering_last_is_still_found(self):
        """The originator holds no copy of ``accounts1``: its lookups of
        the destination's copy are broadcasts that the source and the
        other copy answer too, and here both answer first.  A
        node-filtered lookup completes on the destination's answer, so
        the copy's calls reach it and the migration commits; completed
        on the first answer, every one of them failed and the migration
        rolled back."""
        cluster, topology, manager = build_reconfig(
            seed=103, workload=WorkloadConfig(branches=3,
                                              accounts_per_branch=10,
                                              tellers_per_branch=2))
        keyspace = topology.account_server(1)
        assert cluster.placement.replicas(keyspace) == ("bank1", "bank2")
        manager.join("bank3")
        cluster.network.set_link_fault("bank3", "bank0", reorder=1.0,
                                       reorder_delay_ms=50.0,
                                       both_ways=False)

        assert manager.run_migration(keyspace, "bank1", "bank3") is True
        assert cluster.placement.replicas(keyspace) == ("bank3", "bank2")
        assert counter(cluster, "bank0",
                       "reconfig.migrations_rolled_back") == 0

    def test_migrated_copy_serves_the_committed_balances(self):
        """Move a shard, then read every account through the new
        placement: the copy must be byte-for-byte current."""
        cluster, topology, manager = build_reconfig(seed=71)
        workload = DebitCreditWorkload(cluster, topology, seed=5)
        workload.schedule_traffic(txns=10, first_at_ms=5.0, spacing_ms=40.0)
        keyspace = topology.account_server(1)
        manager.join("bank2")
        cluster.engine.schedule(
            200.0,
            lambda: manager.spawn_migration(keyspace, "bank0", "bank2"))
        cluster.settle()
        workload.crash_and_recover_all()
        report = workload.check_invariants()
        assert report.violations == []
        assert cluster.placement.replicas(keyspace) == ("bank1", "bank2")
        outcomes = workload.stats.outcomes()
        assert outcomes.get("committed", 0) > 0


class TestValidation:
    def test_source_must_hold_a_copy(self):
        cluster, topology, manager = build_reconfig(seed=73)
        manager.join("bank2")
        with pytest.raises(TabsError):
            manager.run_migration(topology.account_server(0), "bank2",
                                  "bank1")

    def test_dest_must_not_already_hold_a_copy(self):
        cluster, topology, manager = build_reconfig(seed=79)
        with pytest.raises(TabsError):
            manager.run_migration(topology.account_server(0), "bank0",
                                  "bank1")


class TestCrashResume:
    def crash_at(self, cluster, manager, phase_name):
        """Arm a one-shot originator crash at the next message boundary
        after ``phase_name`` fires (exactly where the chaos controller
        lands its migration faults)."""
        fired = {}

        def hook(phase, info):
            if phase == phase_name and "at" not in fired:
                fired["at"] = cluster.ctx.now
                cluster.engine.schedule(
                    0.0, lambda: cluster.crash_node("bank0"))

        manager.phase_hooks.append(hook)
        return fired

    def test_crash_before_commit_resumes_backward(self):
        cluster, topology, manager = build_reconfig(seed=83)
        keyspace = topology.account_server(1)
        manager.join("bank2")
        self.crash_at(cluster, manager, "extend")
        coordinator = manager.spawn_migration(keyspace, "bank0", "bank2")
        cluster.settle()
        assert coordinator.result is None  # the crash killed it mid-flight

        cluster.restart_node("bank0")
        cluster.settle()
        assert "resumed-back" in phases(manager)
        assert cluster.placement.replicas(keyspace) == ("bank1", "bank0")
        assert counter(cluster, "bank0", "reconfig.resumed-back") == 1
        # the orphaned destination copy must not serve reads
        server = cluster.node("bank2").servers.get(keyspace)
        assert server is None or server.catchup_pending is True

    def test_crash_after_commit_resumes_forward(self):
        cluster, topology, manager = build_reconfig(seed=89)
        keyspace = topology.account_server(1)
        manager.join("bank2")
        self.crash_at(cluster, manager, "commit")
        coordinator = manager.spawn_migration(keyspace, "bank0", "bank2")
        cluster.settle()
        assert coordinator.result is None

        cluster.restart_node("bank0")
        cluster.settle()
        assert "resumed-forward" in phases(manager)
        assert cluster.placement.replicas(keyspace) == ("bank1", "bank2")
        assert counter(cluster, "bank0", "reconfig.resumed-forward") == 1

    def test_resume_is_idempotent_across_repeated_crashes(self):
        cluster, topology, manager = build_reconfig(seed=97)
        keyspace = topology.account_server(1)
        manager.join("bank2")
        self.crash_at(cluster, manager, "extend")
        manager.spawn_migration(keyspace, "bank0", "bank2")
        cluster.settle()
        cluster.restart_node("bank0")
        cluster.settle()
        # a second power-cycle finds a clean registry: no second resume
        cluster.crash_node("bank0")
        cluster.restart_node("bank0")
        cluster.settle()
        assert counter(cluster, "bank0", "reconfig.resumed-back") == 1
        assert cluster.placement.replicas(keyspace) == ("bank1", "bank0")

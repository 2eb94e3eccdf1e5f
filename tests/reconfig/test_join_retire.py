"""Live membership: nodes join a running cluster and retire from it."""

import pytest

from tests.reconfig.conftest import build_reconfig, commit_one, counter

from repro.errors import TabsError


class TestJoin:
    def test_joined_node_is_live_and_discoverable(self):
        cluster, topology, manager = build_reconfig(seed=31)
        tabs_node = manager.join("bank2")
        assert tabs_node.node.alive
        assert "bank2" in cluster.nodes
        assert counter(cluster, "bank0", "reconfig.nodes_joined") == 1
        # hosts nothing until a shard is migrated to it
        assert cluster.placement.keyspaces_on("bank2") == []

    def test_joined_node_accepts_a_migration(self):
        cluster, topology, manager = build_reconfig(seed=37)
        manager.join("bank2")
        keyspace = topology.account_server(0)
        assert manager.run_migration(keyspace, "bank0", "bank2") is True
        assert "bank2" in cluster.placement.replicas(keyspace)


class TestRetire:
    def test_retire_drains_every_shard_and_powers_off(self):
        cluster, topology, manager = build_reconfig(seed=41)
        manager.join("bank2")
        hosted = cluster.placement.keyspaces_on("bank1")
        assert hosted  # rf=2 over two nodes: bank1 holds a copy of all
        manager.retire("bank1")
        assert cluster.placement.keyspaces_on("bank1") == []
        assert cluster.node("bank1").retired is True
        assert not cluster.node("bank1").node.alive
        assert counter(cluster, "bank0", "reconfig.nodes_retired") == 1
        assert counter(cluster, "bank0",
                       "reconfig.migrations_committed") == len(hosted)
        # the survivors keep committing DebitCredit traffic
        assert commit_one(cluster, topology, "bank0")

    def test_retiring_the_originator_is_refused(self):
        cluster, topology, manager = build_reconfig(seed=43)
        with pytest.raises(TabsError):
            manager.retire("bank0")

    def test_retire_without_a_destination_leaves_the_node_in_service(self):
        """Two nodes, rf=2: there is nowhere to drain bank1 to."""
        cluster, topology, manager = build_reconfig(seed=47)
        with pytest.raises(TabsError):
            manager.retire("bank1")
        assert cluster.node("bank1").retired is False
        assert cluster.node("bank1").node.alive

    def test_a_failed_drain_leaves_the_node_in_service_until_it_heals(self):
        """bank2, the only destination, is cut off: the first shard's
        copy exhausts its budget and rolls back, and the retirement is
        aborted.  Healed, the drain succeeds, and the shard that rolled
        back re-migrates onto the copy it left orphaned on bank2."""
        cluster, topology, manager = build_reconfig(seed=61)
        manager.join("bank2")
        cluster.network.partition([["bank0", "bank1"], ["bank2"]])
        with pytest.raises(TabsError, match="retirement aborted"):
            manager.retire("bank1")
        assert cluster.node("bank1").retired is False
        assert cluster.node("bank1").node.alive
        assert counter(cluster, "bank0",
                       "reconfig.migrations_rolled_back") == 1
        orphaned = [keyspace for keyspace
                    in cluster.node("bank2")._server_factories
                    if keyspace in cluster.placement.keyspaces_on("bank1")]
        assert len(orphaned) == 1
        cluster.network.heal()
        cluster.settle(extra_ms=5_000.0)
        manager.retire("bank1")
        assert cluster.placement.keyspaces_on("bank1") == []
        assert orphaned[0] in cluster.placement.keyspaces_on("bank2")
        assert commit_one(cluster, topology, "bank0")

    def test_retired_node_cannot_be_retired_again(self):
        cluster, topology, manager = build_reconfig(seed=53)
        manager.join("bank2")
        manager.retire("bank1")
        with pytest.raises(TabsError):
            manager.retire("bank1")

    def test_migrating_to_a_retired_node_is_refused(self):
        cluster, topology, manager = build_reconfig(seed=59)
        manager.join("bank2")
        manager.retire("bank1")
        keyspace = topology.account_server(0)
        with pytest.raises(TabsError):
            manager.run_migration(keyspace, "bank0", "bank1")

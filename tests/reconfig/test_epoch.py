"""Epoch-versioned placement: successor builders and forward-only installs."""

import pytest

from tests.reconfig.conftest import build_reconfig, gauge

from repro.errors import TabsError
from repro.reconfig import PlacementEpoch
from repro.replication import PlacementMap

MAP = PlacementMap({"a": ("n0", "n1"), "b": ("n1", "n2")})


class TestPlacementEpoch:
    def test_negative_epoch_rejected(self):
        with pytest.raises(TabsError):
            PlacementEpoch(-1, MAP)

    def test_successor_increments_and_rebuilds_the_map(self):
        epoch = PlacementEpoch(3, MAP)
        succ = epoch.successor({"a": ("n0",), "b": ("n1", "n2")})
        assert succ.epoch == 4
        assert succ.replicas("a") == ("n0",)
        # the original is untouched (maps are immutable)
        assert epoch.replicas("a") == ("n0", "n1")

    def test_with_replicas_replaces_one_keyspace(self):
        succ = PlacementEpoch(0, MAP).with_replicas("a", ("n2", "n0"))
        assert succ.epoch == 1
        assert succ.replicas("a") == ("n2", "n0")
        assert succ.replicas("b") == ("n1", "n2")

    def test_with_replicas_unknown_keyspace_rejected(self):
        with pytest.raises(TabsError):
            PlacementEpoch(0, MAP).with_replicas("zz", ("n0",))

    def placements_at(self, phase_name):
        """Migrate ``accounts1`` from bank0 to a joined bank2; the key-
        space's replicas when ``phase_name`` fires and at the end."""
        cluster, topology, manager = build_reconfig(seed=61)
        keyspace = topology.account_server(1)
        manager.join("bank2")
        seen = []
        manager.phase_hooks.append(
            lambda phase, info: phase == phase_name and seen.append(
                (cluster.placement_epoch,
                 cluster.placement.replicas(keyspace))))
        assert manager.run_migration(keyspace, "bank0", "bank2") is True
        return seen, cluster.placement.replicas(keyspace)

    def test_with_replica_added_is_the_extend_step(self):
        """Extend: the destination is appended, so writes fan to it."""
        seen, _ = self.placements_at("extend")
        assert seen == [(1, ("bank1", "bank0", "bank2"))]

    def test_with_replica_removed_is_the_shrink_step(self):
        """Shrink: the destination takes the source's place."""
        seen, final = self.placements_at("commit")
        assert seen == [(2, ("bank1", "bank2"))]
        assert final == ("bank1", "bank2")


class TestInstallEpoch:
    def test_install_moves_the_cluster_and_every_node_forward(self):
        cluster, topology, manager = build_reconfig(seed=11)
        keyspace = topology.account_server(0)
        old = cluster.placement.replicas(keyspace)
        manager.install_epoch(
            manager.current_epoch().with_replicas(keyspace, old[::-1]))
        assert cluster.placement_epoch == 1
        assert cluster.placement.replicas(keyspace) == old[::-1]
        for name, tabs_node in cluster.nodes.items():
            assert tabs_node.replication.epoch == 1
            assert gauge(cluster, name, "reconfig.placement_epoch") == 1

    def test_epochs_only_go_forward(self):
        cluster, topology, manager = build_reconfig(seed=13)
        current = manager.current_epoch()
        with pytest.raises(TabsError):
            manager.install_epoch(
                PlacementEpoch(current.epoch, current.placement))

    def test_manager_requires_the_feature_flag(self):
        from tests.reconfig.conftest import WORKLOAD

        from repro.core.cluster import TabsCluster
        from repro.core.config import ReplicationConfig, TabsConfig
        from repro.reconfig import ReconfigManager

        config = TabsConfig(
            seed=7, workload=WORKLOAD,
            replication=ReplicationConfig.available_copies(2))
        cluster = TabsCluster(config)
        cluster.build_workload()
        with pytest.raises(TabsError):
            ReconfigManager(cluster, "bank0")

    def test_manager_requires_a_placement_map(self):
        from repro.core.cluster import TabsCluster
        from repro.core.config import (ReconfigConfig, ReplicationConfig,
                                       TabsConfig)
        from repro.reconfig import ReconfigManager

        cluster = TabsCluster(TabsConfig(
            replication=ReplicationConfig.available_copies(2),
            reconfig=ReconfigConfig.online()))
        cluster.add_node("bank0")
        cluster.start()
        with pytest.raises(TabsError, match="placement map"):
            ReconfigManager(cluster, "bank0")

"""Unit tests for the key-space placement map."""

import pytest

from repro import TabsCluster, TabsConfig
from repro.core.config import ReplicationConfig
from repro.errors import ReplicaUnavailable, TabsError
from repro.replication import PlacementMap


class TestPlacementMap:
    def test_replicas_are_ordered_and_queryable(self):
        placement = PlacementMap({"a": ("n0", "n1"), "b": ("n1",)})
        assert placement.replicas("a") == ("n0", "n1")
        assert placement.replicas("b") == ("n1",)
        assert "a" in placement and "c" not in placement
        assert len(placement) == 2

    def test_unknown_keyspace_raises(self):
        placement = PlacementMap({"a": ("n0",)})
        with pytest.raises(TabsError):
            placement.replicas("missing")

    def test_empty_replica_list_rejected(self):
        with pytest.raises(TabsError):
            PlacementMap({"a": ()})

    def test_duplicate_replica_rejected(self):
        with pytest.raises(TabsError):
            PlacementMap({"a": ("n0", "n0")})

    def test_keyspaces_on_and_nodes(self):
        placement = PlacementMap({"a": ("n0", "n1"), "b": ("n2", "n0")})
        assert placement.keyspaces_on("n0") == ["a", "b"]
        assert placement.keyspaces_on("n1") == ["a"]
        assert placement.nodes() == ["n0", "n1", "n2"]


class TestRingPlacement:
    def test_anchored_ring(self):
        placement = PlacementMap.ring(
            ["b0", "b1"], ["bank0", "bank1"], 2,
            anchors={"b0": 0, "b1": 1})
        assert placement.replicas("b0") == ("bank0", "bank1")
        assert placement.replicas("b1") == ("bank1", "bank0")

    def test_round_robin_without_anchors(self):
        placement = PlacementMap.ring(["a", "b", "c"],
                                      ["n0", "n1", "n2"], 1)
        assert placement.replicas("a") == ("n0",)
        assert placement.replicas("b") == ("n1",)
        assert placement.replicas("c") == ("n2",)

    def test_factor_clamped_to_node_count(self):
        placement = PlacementMap.ring(["a"], ["n0", "n1"], 5)
        assert placement.replicas("a") == ("n0", "n1")

    def test_factor_floor_is_one(self):
        placement = PlacementMap.ring(["a"], ["n0", "n1"], 0)
        assert placement.replicas("a") == ("n0",)

    def test_no_nodes_rejected(self):
        with pytest.raises(TabsError):
            PlacementMap.ring(["a"], [], 1)


class TestWithoutAPlacement:
    """Replication on, but no workload built: no key-space is placed."""

    def cluster(self):
        cluster = TabsCluster(TabsConfig(
            replication=ReplicationConfig.available_copies()))
        for name in ("n0", "n1"):
            cluster.add_node(name)
        cluster.start()
        return cluster

    def test_no_router_routes_without_a_map(self):
        cluster = self.cluster()
        with pytest.raises(ReplicaUnavailable, match="no placement map"):
            cluster.replicated_application("n0")

    def test_a_failure_seen_without_a_map_sets_no_copy_gauge(self):
        cluster = self.cluster()
        cluster.crash_node("n1")
        cluster.settle(extra_ms=5_000.0)
        assert not cluster.node("n0").replication.view.available("n1")
        assert not [name for name in cluster.metrics.snapshot()["gauges"]
                    if "available_copies" in name]

"""Replica-targeted chaos-plan helpers and seed compatibility."""

from repro.chaos import CrashAt, PartitionAt, random_plan
from repro.chaos.plan import crash_one_replica_per_shard, isolate_replica
from repro.replication import PlacementMap

PLACEMENT = PlacementMap.ring(["a", "b", "c"], ["n0", "n1", "n2"], 2,
                              anchors={"a": 0, "b": 1, "c": 2})


class TestCrashOneReplicaPerShard:
    def test_targets_are_deduped_and_sorted(self):
        actions = crash_one_replica_per_shard(PLACEMENT, at_ms=1_000.0,
                                              restart_after_ms=500.0)
        # rank -1 of a/b/c is n1/n2/n0: every node, once each, sorted.
        assert [a.node for a in actions] == ["n0", "n1", "n2"]
        assert all(isinstance(a, CrashAt) for a in actions)
        assert all(a.restart_after_ms == 500.0 for a in actions)

    def test_stagger_spaces_the_crashes(self):
        actions = crash_one_replica_per_shard(PLACEMENT, at_ms=1_000.0,
                                              stagger_ms=6_000.0)
        assert [a.at_ms for a in actions] == [1_000.0, 7_000.0, 13_000.0]

    def test_anchor_rank_targets_the_home_copies(self):
        actions = crash_one_replica_per_shard(PLACEMENT, at_ms=0.0, rank=0)
        assert [a.node for a in actions] == ["n0", "n1", "n2"]


class TestIsolateReplica:
    def test_partitions_the_replica_from_every_other_node(self):
        action = isolate_replica(PLACEMENT, "a", at_ms=2_000.0,
                                 heal_after_ms=1_000.0)
        assert isinstance(action, PartitionAt)
        assert action.groups == (("n1",), ("n0", "n2"))
        assert action.heal_after_ms == 1_000.0

    def test_rank_selects_the_copy(self):
        action = isolate_replica(PLACEMENT, "a", at_ms=0.0, rank=0)
        assert action.groups[0] == ("n0",)


class TestRandomPlanReplicationWeight:
    NODES = ["n0", "n1", "n2"]

    def test_weight_zero_reproduces_historical_seeds(self):
        """The new knob defaults off and, even passed explicitly as 0,
        draws nothing from the RNG: old (seed, args) pairs keep
        producing byte-identical plans."""
        for seed in (1, 7, 99, 2306):
            old = random_plan(seed, self.NODES, 30_000.0, episodes=6)
            new = random_plan(seed, self.NODES, 30_000.0, episodes=6,
                              replication_weight=0, placement=PLACEMENT)
            assert old == new

    def test_weight_without_placement_is_inert(self):
        old = random_plan(5, self.NODES, 30_000.0, episodes=6)
        new = random_plan(5, self.NODES, 30_000.0, episodes=6,
                          replication_weight=100)
        assert old == new

    def test_replica_episodes_target_placement_nodes(self):
        plan = random_plan(5, self.NODES, 30_000.0, episodes=12,
                           crash_weight=0, partition_weight=0,
                           link_weight=0, disk_weight=0,
                           replication_weight=1, placement=PLACEMENT)
        assert len(plan.actions) == 12
        for action in plan:
            assert isinstance(action, (CrashAt, PartitionAt))
            if isinstance(action, CrashAt):
                assert action.node in self.NODES
                assert action.restart_after_ms is not None
            else:
                assert len(action.groups[0]) == 1
                assert action.heal_after_ms is not None

    def test_replica_plans_are_reproducible(self):
        kwargs = dict(episodes=8, replication_weight=3,
                      placement=PLACEMENT)
        assert random_plan(11, self.NODES, 20_000.0, **kwargs) \
            == random_plan(11, self.NODES, 20_000.0, **kwargs)

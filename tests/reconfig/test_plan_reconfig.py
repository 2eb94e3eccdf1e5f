"""random_plan's reconfig episodes: seed compatibility and shape."""

from repro.chaos import MigrationFault, random_plan
from repro.replication import PlacementMap

NODES = ["n0", "n1", "n2"]
PLACEMENT = PlacementMap.ring(["a", "b"], NODES, 2)

PHASES = {"intent", "extend", "copy", "barrier", "commit"}
ROLES = {"originator", "source", "dest"}


class TestRandomPlanReconfigWeight:
    def test_weight_zero_reproduces_historical_seeds(self):
        """The knob defaults off and, even passed explicitly as 0,
        draws nothing from the RNG."""
        for seed in (1, 7, 99, 2306):
            old = random_plan(seed, NODES, 30_000.0, episodes=6)
            new = random_plan(seed, NODES, 30_000.0, episodes=6,
                              reconfig_weight=0, placement=PLACEMENT)
            assert old == new

    def test_reconfig_episodes_target_migration_phases(self):
        plan = random_plan(5, NODES, 30_000.0, episodes=12,
                           crash_weight=0, partition_weight=0,
                           link_weight=0, disk_weight=0,
                           reconfig_weight=1, placement=PLACEMENT)
        assert len(plan.actions) == 12
        for action in plan:
            assert isinstance(action, MigrationFault)
            assert action.phase in PHASES
            assert action.role in ROLES
            assert action.kind in ("crash", "partition")
            if action.kind == "crash":
                assert action.restart_after_ms is not None
            else:
                assert action.heal_after_ms is not None

    def test_reconfig_plans_are_reproducible(self):
        kwargs = dict(episodes=8, reconfig_weight=3, placement=PLACEMENT)
        assert random_plan(11, NODES, 20_000.0, **kwargs) \
            == random_plan(11, NODES, 20_000.0, **kwargs)

    def test_mixed_weights_still_bound_every_episode(self):
        """Every reconfig episode carries a repair: a restart or a
        heal, so the post-run audits always see a repairable cluster."""
        plan = random_plan(23, NODES, 40_000.0, episodes=20,
                           reconfig_weight=4, placement=PLACEMENT)
        for action in plan:
            if isinstance(action, MigrationFault):
                assert (action.restart_after_ms is not None
                        or action.heal_after_ms is not None)

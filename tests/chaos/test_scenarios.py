"""The seeded torture scenarios.

Each test pins one hazardous window of the commit/recovery protocol --
crash mid-prepare, crash mid-commit, the in-doubt window, partitions,
datagram duplication/reordering/loss, disk latency spikes -- and asserts
the full audit suite afterwards: conservation of account totals,
cross-node atomicity, no lost commits, disk-vs-log agreement, and clean
lock/port drainage.  Every scenario is reproducible from its ``(plan,
seed)`` pair.
"""

from repro.chaos import (
    ChaosController,
    CrashAt,
    CrashWhenLogged,
    DiskSlowdown,
    FaultPlan,
    LinkFaultWindow,
    PartitionAt,
    build_cluster,
    random_plan,
)
from tests.chaos.conftest import DurableWitness, run_scenario


def test_participant_crash_mid_prepare():
    """n1 dies the instant it has durably voted (PREPARED logged) but has
    not yet learned the outcome: the classic in-doubt participant."""
    trigger = CrashWhenLogged(
        crash_node="n1",
        seen=(("n1", "prepared"),),
        not_seen=(("n1", "committed"), ("n1", "aborted")),
        restart_after_ms=700.0)
    witness = DurableWitness()
    run = run_scenario(FaultPlan.of(trigger), seed=101, instrument=witness)
    assert run.events("trigger"), "the prepare window was never hit"
    witness.assert_fired_at_boundary(run.controller.trace, trigger)
    run.assert_clean()


def test_coordinator_crash_mid_commit():
    """The coordinator dies right after forcing its COMMITTED record,
    before phase two reaches a prepared participant: the participant
    blocks in doubt until the coordinator recovers and answers its
    outcome query.  At this seed the one cross-node family that commits
    in the window is coordinated by n2 with n1 participating."""
    trigger = CrashWhenLogged(
        crash_node="n2",
        seen=(("n2", "committed"), ("n1", "prepared")),
        not_seen=(("n1", "committed"),),
        restart_after_ms=900.0)
    witness = DurableWitness()
    run = run_scenario(FaultPlan.of(trigger), seed=202, instrument=witness)
    assert run.events("trigger"), "the commit window was never hit"
    tid = witness.assert_fired_at_boundary(run.controller.trace, trigger)
    traffic = {str(record.tid) for record in run.workload.stats.records}
    assert tid in traffic, f"{tid} is a setup transaction"
    run.assert_clean()


def test_participant_crash_in_doubt_window():
    """n1 prepared, the coordinator committed, n1 has not heard: n1's
    recovery must re-acquire the write locks and resolve to commit."""
    trigger = CrashWhenLogged(
        crash_node="n1",
        seen=(("n1", "prepared"), ("n0", "committed")),
        not_seen=(("n1", "committed"),),
        restart_after_ms=600.0)
    witness = DurableWitness()
    run = run_scenario(FaultPlan.of(trigger), seed=303, instrument=witness)
    witness.assert_fired_at_boundary(run.controller.trace, trigger)
    run.assert_clean()


def test_unmatched_trigger_leaves_the_simulation_quiet():
    """An armed trigger is an observer, not a process: with no traffic
    nothing is scheduled, so the engine drains at once."""
    cluster = build_cluster(3)
    controller = ChaosController(cluster, FaultPlan.of(CrashWhenLogged(
        crash_node="n1", seen=(("n1", "prepared"),))))
    controller.install()
    armed_at = cluster.engine.now
    assert controller.quiesce(max_ms=60_000)
    assert cluster.engine.now == armed_at


def test_partition_then_heal():
    """A partition splits the coordinator from a participant mid-run."""
    plan = FaultPlan.of(PartitionAt(
        400.0, (("n0",), ("n1", "n2")), heal_after_ms=900.0))
    run = run_scenario(plan, seed=404)
    assert run.events("partition") and run.events("heal")
    run.assert_clean()


def test_repeated_partitions():
    """The network flaps: two partition episodes with different cuts."""
    plan = FaultPlan.of(
        PartitionAt(300.0, (("n0", "n1"), ("n2",)), heal_after_ms=500.0),
        PartitionAt(1_500.0, (("n0", "n2"), ("n1",)), heal_after_ms=600.0))
    run = run_scenario(plan, seed=505)
    assert len(run.events("partition")) == 2
    run.assert_clean()


def test_duplicated_datagrams():
    """Heavy datagram duplication: at-most-once delivery must hold."""
    plan = FaultPlan.of(
        LinkFaultWindow(100.0, 4_000.0, "n0", "n1", duplicate=0.8),
        LinkFaultWindow(100.0, 4_000.0, "n0", "n2", duplicate=0.8))
    run = run_scenario(plan, seed=606)
    assert run.cluster.network.datagrams_duplicated > 0
    run.assert_clean()


def test_reordered_datagrams():
    """Datagram reordering between every pair of nodes."""
    plan = FaultPlan.of(
        LinkFaultWindow(100.0, 4_000.0, "n0", "n1", reorder=0.7,
                        reorder_delay_ms=80.0),
        LinkFaultWindow(100.0, 4_000.0, "n1", "n2", reorder=0.7,
                        reorder_delay_ms=80.0))
    run = run_scenario(plan, seed=707)
    assert run.cluster.network.datagrams_reordered > 0
    run.assert_clean()


def test_lossy_link():
    """A badly lossy link: retries and time-outs must mask the loss."""
    plan = FaultPlan.of(
        LinkFaultWindow(100.0, 3_500.0, "n0", "n2", loss=0.4))
    run = run_scenario(plan, seed=808)
    run.assert_clean()


def test_disk_latency_spike():
    """One node's disk slows 6x mid-run, stretching the force-write
    window that crashes love to hit."""
    plan = FaultPlan.of(
        DiskSlowdown(200.0, 2_500.0, "n1", factor=6.0),
        CrashAt(1_200.0, "n2", restart_after_ms=600.0))
    run = run_scenario(plan, seed=909)
    assert run.events("disk-latency")
    run.assert_clean()


def test_double_crash_same_node():
    """n1 crashes, recovers, and crashes again while recovering traffic
    is still replaying -- recovery must be idempotent."""
    plan = FaultPlan.of(
        CrashAt(400.0, "n1", restart_after_ms=500.0),
        CrashAt(1_600.0, "n1", restart_after_ms=500.0))
    run = run_scenario(plan, seed=111)
    assert run.cluster.node("n1").node.crashes >= 2
    run.assert_clean()


def test_staggered_crash_of_every_node():
    """All three nodes power-fail at staggered instants."""
    plan = FaultPlan.of(
        CrashAt(500.0, "n0", restart_after_ms=800.0),
        CrashAt(900.0, "n1", restart_after_ms=800.0),
        CrashAt(1_300.0, "n2", restart_after_ms=800.0))
    run = run_scenario(plan, seed=222)
    run.assert_clean()


def test_queue_survives_crash_of_its_node():
    """Enqueues race a crash of the queue's home node: committed items
    drain exactly once, aborted enqueues leave only gaps."""
    plan = FaultPlan.of(
        CrashAt(600.0, "n0", restart_after_ms=700.0))
    run = run_scenario(plan, seed=333, with_queue=True, transfers=6,
                       enqueues=8)
    assert any(r.kind == "enqueue" for r in run.workload.stats.records)
    run.assert_clean()


def test_combined_mayhem():
    """Crash + partition + duplication + disk spike, overlapping."""
    trigger = CrashWhenLogged(crash_node="n1", seen=(("n1", "prepared"),),
                              restart_after_ms=600.0)
    plan = FaultPlan.of(
        DiskSlowdown(100.0, 2_000.0, "n0", factor=4.0),
        trigger,
        PartitionAt(1_200.0, (("n0", "n1"), ("n2",)), heal_after_ms=700.0),
        LinkFaultWindow(2_200.0, 3_800.0, "n0", "n2", loss=0.3,
                        duplicate=0.3))
    witness = DurableWitness()
    run = run_scenario(plan, seed=444, instrument=witness)
    witness.assert_fired_at_boundary(run.controller.trace, trigger)
    run.assert_clean()


def test_random_plan_smoke():
    """A seeded random fault schedule (the soak's little sibling)."""
    plan = random_plan(seed=31, nodes=["n0", "n1", "n2"],
                       duration_ms=4_000.0, episodes=3)
    assert plan.actions
    run = run_scenario(plan, seed=31)
    run.assert_clean()

"""Chaos scenarios for the replicated DebitCredit workload.

The available-copies promise: a replica crash degrades service (writes
fan out to fewer copies, reads fail over) but never stops it, and the
replicated cluster stays indistinguishable from a single-copy one --
money conservation *and* replica convergence are audited after repair.
"""

import pytest

from repro.chaos import (
    ChaosController,
    CrashAt,
    CrashWhenLogged,
    FaultPlan,
    crash_one_replica_per_shard,
    random_plan,
)
from repro.core.cluster import TabsCluster
from repro.core.config import ReplicationConfig, TabsConfig, WorkloadConfig
from repro.workloads import DebitCreditWorkload
from tests.chaos.conftest import DurableWitness

#: two branches on two nodes, rf=2: every key-space has a copy on both
#: nodes, so writes fan out and 2PC crosses nodes on every transaction
WORKLOAD = WorkloadConfig(branches=2, accounts_per_branch=200,
                          tellers_per_branch=4, locality=0.3)


def run_replicated_chaos(plan: FaultPlan, seed: int, txns: int = 24,
                         run_ms: float = 24_000.0, instrument=None):
    config = TabsConfig(seed=seed, workload=WORKLOAD,
                        replication=ReplicationConfig.available_copies())
    cluster = TabsCluster(config)
    topology = cluster.build_workload()
    if instrument is not None:
        instrument(cluster)
    controller = ChaosController(cluster, plan, seed=seed)
    controller.install()
    driver = DebitCreditWorkload(cluster, topology, controller=controller,
                                 seed=seed)
    driver.schedule_traffic(txns=txns, spacing_ms=400.0)
    _, report = driver.play(run_ms)
    return driver, controller, report


MID_2PC_PLAN = FaultPlan.of(
    CrashWhenLogged(
        crash_node="bank1",
        # bank1 durably prepared as a replica participant but its own
        # commit record not yet logged: the write already fanned out to
        # it, so commit-time state is exactly the in-flight-2PC window.
        seen=(("bank1", "prepared"),),
        not_seen=(("bank1", "committed"),),
        restart_after_ms=5_000.0))


@pytest.fixture(scope="module")
def mid_2pc_witness():
    return DurableWitness()


@pytest.fixture(scope="module")
def mid_2pc_run(mid_2pc_witness):
    # Traffic extends well past the restart: the commits that prove
    # liveness come once the in-doubt locks resolve (PREPARED_INQUIRY_MS)
    # and the crashed replica is back in the write set.
    return run_replicated_chaos(MID_2PC_PLAN, seed=2306, txns=48,
                                run_ms=28_000.0, instrument=mid_2pc_witness)


def test_replica_crash_mid_2pc_keeps_invariants(mid_2pc_run,
                                                mid_2pc_witness):
    driver, controller, report = mid_2pc_run
    assert [e for e in controller.trace if e[1] == "crash"], \
        "the mid-2PC trigger never fired"
    mid_2pc_witness.assert_fired_at_boundary(controller.trace,
                                             MID_2PC_PLAN.actions[0])
    assert report.ok, report.violations


def test_replica_crash_mid_2pc_still_commits(mid_2pc_run):
    driver, _, _ = mid_2pc_run
    assert driver.stats.outcomes().get("committed", 0) > 0


def test_recovered_replica_caught_up(mid_2pc_run):
    driver, _, _ = mid_2pc_run
    metrics = driver.cluster.metrics
    assert metrics.counter("bank1", "replica.catchup_pages").value > 0


#: rolling restarts: each shard loses one replica in turn, never both
#: copies at once (stagger > restart window), so commits never stop
ROLLING_PLAN = FaultPlan.of(
    CrashAt(2_000.0, "bank1", restart_after_ms=5_000.0),
    CrashAt(11_000.0, "bank0", restart_after_ms=5_000.0))


def test_one_replica_per_shard_rolling_crash_never_outages():
    driver, controller, report = run_replicated_chaos(ROLLING_PLAN,
                                                      seed=515, txns=40)
    assert {e[1] for e in controller.trace} >= {"crash", "restart"}
    assert report.ok, report.violations
    outcomes = driver.stats.outcomes()
    assert outcomes.get("committed", 0) > 0, outcomes
    # Degraded service showed up as routing, not refusal.
    metrics = driver.cluster.metrics
    degraded = sum(metrics.counter(node, "replication.write_all_degraded")
                   .value for node in ("bank0", "bank1"))
    assert degraded > 0


def test_crash_one_replica_per_shard_helper_builds_the_rolling_plan():
    """The helper derives the same schedule from the placement map."""
    config = TabsConfig(seed=1, workload=WORKLOAD,
                        replication=ReplicationConfig.available_copies())
    cluster = TabsCluster(config)
    cluster.build_workload()
    actions = crash_one_replica_per_shard(cluster.placement, at_ms=2_000.0,
                                          restart_after_ms=5_000.0,
                                          stagger_ms=9_000.0)
    assert [(a.node, a.at_ms) for a in actions] == \
        [("bank0", 2_000.0), ("bank1", 11_000.0)]


MID_CATCHUP_PLAN = FaultPlan.of(
    # First crash heals at 7s; the second hits moments after the
    # restart, while the catch-up merge (and its read barrier) is live.
    CrashAt(2_000.0, "bank1", restart_after_ms=5_000.0),
    CrashAt(7_250.0, "bank1", restart_after_ms=5_000.0))


def test_replica_killed_mid_catchup_recovers_cleanly():
    driver, controller, report = run_replicated_chaos(MID_CATCHUP_PLAN,
                                                      seed=99, txns=32)
    crashes = [e for e in controller.trace if e[1] == "crash"]
    assert len(crashes) >= 2
    assert report.ok, report.violations
    assert driver.stats.outcomes().get("committed", 0) > 0


def replica_fault_plan(seed: int) -> FaultPlan:
    """Three episodes over 18 s, crashes and replication faults only."""
    config = TabsConfig(seed=seed, workload=WORKLOAD,
                        replication=ReplicationConfig.available_copies())
    probe = TabsCluster(config)
    probe.build_workload()
    return random_plan(seed, ["bank0", "bank1"], 18_000.0, episodes=3,
                       crash_weight=1, partition_weight=0, link_weight=0,
                       disk_weight=0, replication_weight=3,
                       placement=probe.placement)


def test_replicated_chaos_runs_are_deterministic():
    """Same (seed, plan) -> identical outcomes, counters, and clock."""
    plan = replica_fault_plan(77)

    def fingerprint():
        driver, _, report = run_replicated_chaos(plan, seed=77, txns=20,
                                                 run_ms=20_000.0)
        counters = sorted((node, name, counter.value) for (node, name),
                          counter in driver.cluster.metrics.counters()
                          .items())
        return (driver.stats.outcomes(), report.ok,
                driver.cluster.engine.now, counters)

    first = fingerprint()
    second = fingerprint()
    assert first == second
    assert first[1], "replicated chaos run failed its audits"


@pytest.mark.parametrize("seed", [320, 323])
def test_catchup_after_the_last_recovery_is_on_disk_when_audited(seed):
    """One node crashes again during its own recovery.  The finale's
    last recovery is followed by a catch-up whose committed apply
    transactions would sit in the log and in memory only; the disk audit
    (a strict log-versus-disk comparison) must not call them lost."""
    _, _, report = run_replicated_chaos(replica_fault_plan(seed), seed=seed)
    assert report.ok, report.violations

"""Failure detection, graceful degradation, and self-healing acceptance.

The robustness acceptance scenarios: a partition that isolates a
participant must abort every spanning transaction family and release its
locks within the suspicion bound (no waiting for vote/ack timeouts); pure
message-mangling fault windows must never cause a false suspicion; and a
crashed node must self-recover on power-on with no controller-driven
recovery call.
"""

from repro import TabsCluster, TabsConfig
from repro.chaos import CrashAt, FaultPlan, LinkFaultWindow
from repro.servers.int_array import IntegerArrayServer
from tests.chaos.conftest import run_scenario


def make_cluster(nodes=2):
    cluster = TabsCluster(TabsConfig())
    for index in range(nodes):
        name = f"n{index}"
        cluster.add_node(name)
        cluster.add_server(name, IntegerArrayServer.factory(f"arr{index}"))
    cluster.start()
    return cluster


def read_cell(cluster, node, array, cell):
    app = cluster.application(node)

    def body(tid):
        ref = yield from app.lookup_one(array)
        result = yield from app.call(ref, "get_cell", {"cell": cell}, tid)
        return result["value"]

    return cluster.run_transaction(node, body)


def test_partition_aborts_spanning_family_within_suspicion_bound():
    """An ACTIVE transaction spans n0 -> n1 and holds write locks on both
    when a partition isolates n1.  Without detection the family would hold
    its locks until the client (or a 60 s vote timeout) intervened; with
    it, both sides abort within the suspicion bound and the locks free."""
    cluster = make_cluster(2)
    config = cluster.config
    suspect_times = []
    cluster.node("n0").fd_observers.append(
        lambda t, local, event, peer:
        suspect_times.append(t) if event == "suspect" else None)
    app = cluster.application("n0")

    def body():
        tid = yield from app.begin_transaction()
        local = yield from app.lookup_one("arr0")
        remote = yield from app.lookup_one("arr1")
        yield from app.call(local, "set_cell", {"cell": 1, "value": 8}, tid)
        yield from app.call(remote, "set_cell", {"cell": 1, "value": 9}, tid)
        return tid  # deliberately left ACTIVE, locks held on both nodes

    tid = cluster.run_on("n0", body())
    cut_at = cluster.engine.now
    cluster.partition(("n0",), ("n1",))
    bound = (config.suspicion_timeout_ms + 2 * config.probe_interval_ms)
    # Run the clock exactly to the detection bound (plus abort-processing
    # slack): everything asserted below therefore happened *within* it --
    # nowhere near the 60 s vote timeout or the 10 s lock timeout.
    cluster.engine.run(until=cut_at + bound + 1_000.0)

    # Detection happened within the bound, on the coordinator's side.
    assert suspect_times and suspect_times[0] <= cut_at + bound
    assert cluster.node("n0").tm.phase_of(tid) is None
    assert cluster.node("n0").node.aborted[tid] == "peer n1 failed"
    assert cluster.meter.counter("aborts_on_failure") >= 1
    assert cluster.meter.counter("failures_detected") >= 1

    # Locks on *both* sides are free: after healing, a conflicting writer
    # takes the same cells immediately instead of waiting out a 10 s lock
    # timeout.
    cluster.heal_partition()
    started = cluster.engine.now

    def conflicting(tid):
        local = yield from app.lookup_one("arr0")
        remote = yield from app.lookup_one("arr1")
        yield from app.call(local, "set_cell", {"cell": 1, "value": 3}, tid)
        yield from app.call(remote, "set_cell", {"cell": 1, "value": 4},
                            tid)

    cluster.run_transaction("n0", conflicting)
    assert cluster.engine.now - started < config.lock_timeout_ms
    cluster.settle()
    # The aborted family's writes never became visible.
    assert read_cell(cluster, "n0", "arr0", 1) == 3
    assert read_cell(cluster, "n0", "arr1", 1) == 4


def test_no_false_suspicions_under_message_mangling():
    """Loss, duplication, and reordering windows mangle the workload's
    traffic but must never fool the detector: probes ride beneath the
    injected faults and the suspicion timeout outlives every window."""
    plan = FaultPlan.of(
        LinkFaultWindow(100.0, 1_000.0, "n0", "n1", loss=0.5,
                        duplicate=0.5),
        LinkFaultWindow(1_200.0, 2_100.0, "n1", "n2", reorder=0.8,
                        reorder_delay_ms=60.0),
        LinkFaultWindow(2_300.0, 3_200.0, "n0", "n2", loss=0.3,
                        duplicate=0.4, reorder=0.3, reorder_delay_ms=40.0))
    run = run_scenario(plan, seed=1212)
    suspicions = [entry for entry in run.events("fd")
                  if entry[3] == "suspect"]
    assert suspicions == []
    assert run.cluster.meter.counter("failures_detected") == 0
    assert run.cluster.meter.counter("false_suspicions") == 0
    run.assert_clean()


def test_crashed_node_self_recovers_unattended():
    """The plan only powers the node back on; the RecoverySupervisor --
    not the chaos controller -- drives the rebuild and crash recovery."""
    plan = FaultPlan.of(CrashAt(500.0, "n1", restart_after_ms=600.0))
    run = run_scenario(plan, seed=1313)
    assert run.cluster.meter.counter("self_recoveries") >= 1
    # The 600 ms outage is shorter than the suspicion timeout, so peers
    # learn of the crash from the epoch bump, not from silence.
    restarts = [entry for entry in run.events("fd")
                if entry[3] == "restart-observed"]
    assert restarts
    run.assert_clean()


def test_bare_restart_self_heals_without_any_driver():
    """node.restart() alone -- no controller, no cluster.restart_node() --
    must bring a crashed node all the way back through crash recovery."""
    cluster = make_cluster(2)
    app = cluster.application("n0")

    def write(tid):
        ref = yield from app.lookup_one("arr1")
        yield from app.call(ref, "set_cell", {"cell": 2, "value": 5}, tid)

    cluster.run_transaction("n0", write)
    tabs_node = cluster.node("n1")
    boot_recovery = tabs_node.last_recovery
    tabs_node.crash()
    tabs_node.node.restart()  # just the power switch
    cluster.settle(extra_ms=2_000.0)
    assert tabs_node.node.alive
    assert tabs_node.last_recovery is not boot_recovery
    assert cluster.meter.counter("self_recoveries") == 1
    # ... and the node serves committed state again.
    assert read_cell(cluster, "n0", "arr1", 2) == 5

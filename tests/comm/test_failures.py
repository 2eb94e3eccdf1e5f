"""Unit tests for the heartbeat failure detector (repro.comm.failures)."""

import pytest

from repro.comm.failures import FailureDetector
from repro.comm.manager import CommunicationManager
from repro.comm.network import Network
from repro.kernel.context import SimContext
from repro.kernel.costs import ZERO_COST, Primitive, ZERO_CPU
from repro.kernel.node import Node

INTERVAL = 250.0
SUSPICION = 1500.0
#: worst-case detection latency: a full unheard window plus the tick that
#: notices it, plus one tick of scheduling granularity
DETECTION_BOUND = SUSPICION + 2 * INTERVAL


@pytest.fixture
def ctx():
    return SimContext(profile=ZERO_COST, cpu_costs=ZERO_CPU)


def attach_detector(manager, events):
    name = manager.node.name
    events.setdefault(name, [])
    manager.failure_detector = FailureDetector(
        manager, probe_interval_ms=INTERVAL,
        suspicion_timeout_ms=SUSPICION,
        observers=[lambda t, local, event, peer:
                   events[local].append((t, event, peer))])
    return manager.failure_detector


def make_world(ctx, names=("a", "b")):
    network = Network(ctx)
    nodes, detectors, events = {}, {}, {}
    for name in names:
        node = Node(ctx, name)
        manager = CommunicationManager(node, network)
        detectors[name] = attach_detector(manager, events)
        nodes[name] = node
    return network, nodes, detectors, events


class TestHealthy:
    def test_live_peers_are_never_suspected(self, ctx):
        _, _, detectors, events = make_world(ctx)
        ctx.engine.run(until=10 * SUSPICION)
        assert detectors["a"].suspects() == []
        assert detectors["b"].suspects() == []
        assert events["a"] == [] and events["b"] == []

    def test_peer_epochs_learned_from_probes(self, ctx):
        _, _, detectors, _ = make_world(ctx)
        ctx.engine.run(until=2 * INTERVAL)
        assert detectors["a"].peers["b"].epoch == 0
        assert detectors["b"].peers["a"].epoch == 0

    def test_probes_are_uncharged_daemons(self, ctx):
        """Heartbeats must neither pollute the paper's primitive counts
        nor keep the engine from quiescing."""
        _, _, _, _ = make_world(ctx)
        ctx.engine.run(until=5_000.0)
        assert ctx.meter.count(Primitive.DATAGRAM) == 0
        assert ctx.engine.pending_count() == 0
        ctx.engine.run()  # returns immediately: only daemon ticks remain
        assert ctx.engine.now == 5_000.0


class TestCrashDetection:
    def test_crashed_peer_suspected_within_bound(self, ctx):
        _, nodes, detectors, events = make_world(ctx)
        ctx.engine.schedule(1_000.0, nodes["b"].crash)
        ctx.engine.run(until=1_000.0 + DETECTION_BOUND)
        assert detectors["a"].suspects() == ["b"]
        assert ctx.meter.counter("failures_detected") == 1
        (when, event, peer), = events["a"]
        assert event == "suspect" and peer == "b"
        assert when <= 1_000.0 + DETECTION_BOUND

    def test_dead_peer_is_suspected_only_once(self, ctx):
        _, nodes, _, events = make_world(ctx)
        ctx.engine.schedule(1_000.0, nodes["b"].crash)
        ctx.engine.run(until=10_000.0)
        assert [event for _, event, _ in events["a"]] == ["suspect"]
        assert ctx.meter.counter("failures_detected") == 1

    def test_suspicion_breaks_the_session_proactively(self, ctx):
        network, nodes, _, _ = make_world(ctx)
        session = network.manager("a").sessions.session_to("b")
        ctx.engine.schedule(500.0, nodes["b"].crash)
        ctx.engine.run(until=500.0 + DETECTION_BOUND)
        assert session.broken

    def test_fast_restart_observed_via_epoch_bump(self, ctx):
        """An outage shorter than the suspicion timeout is still detected:
        the survivor sees the peer's epoch jump."""
        network, nodes, _, events = make_world(ctx)

        def revive():
            nodes["b"].restart()
            attach_detector(CommunicationManager(nodes["b"], network),
                            events)

        ctx.engine.schedule(600.0, nodes["b"].crash)
        ctx.engine.schedule(900.0, revive)  # 300 ms outage << suspicion
        ctx.engine.run(until=3_000.0)
        kinds = [event for _, event, _ in events["a"]]
        assert "restart-observed" in kinds
        assert "suspect" not in kinds


class TestFalseSuspicion:
    def test_healed_partition_counts_a_false_suspicion(self, ctx):
        network, _, detectors, events = make_world(ctx)
        ctx.engine.schedule(100.0, lambda: network.partition([["a"], ["b"]]))
        ctx.engine.schedule(2_100.0, network.heal)
        ctx.engine.run(until=4_000.0)
        assert detectors["a"].suspects() == []
        assert ctx.meter.counter("false_suspicions") == 2  # a and b
        kinds = [event for _, event, _ in events["a"]]
        assert kinds.count("suspect") == 1
        assert kinds.count("recovered") == 1

    def test_short_partition_causes_no_suspicion(self, ctx):
        """A blip shorter than the suspicion timeout passes unnoticed."""
        network, _, _, events = make_world(ctx)
        ctx.engine.schedule(100.0, lambda: network.partition([["a"], ["b"]]))
        ctx.engine.schedule(1_000.0, network.heal)  # 900 ms < 1500 ms
        ctx.engine.run(until=4_000.0)
        assert ctx.meter.counter("failures_detected") == 0
        assert events["a"] == []


class TestStaleness:
    def test_replaced_detector_falls_silent(self, ctx):
        """After a rebuild registers a fresh CM, the old detector's pending
        tick must not double-probe."""
        network, nodes, detectors, events = make_world(ctx)
        old = detectors["a"]
        fresh = attach_detector(CommunicationManager(nodes["a"], network),
                                events)
        ctx.engine.run(until=2_000.0)
        assert old.peers == {}  # never ticked after being superseded
        assert fresh.peers["b"].epoch == 0

    def test_a_detector_whose_node_left_the_registry_falls_silent(self, ctx):
        """A node deregistered while up is neither probed nor probing."""
        network, _, detectors, events = make_world(ctx)
        network.deregister("b")
        ctx.engine.run(until=DETECTION_BOUND + INTERVAL)
        assert detectors["b"].peers == {}  # never ticked after it left
        assert detectors["a"].peers == {} and events["a"] == []

    def test_stopped_detector_neither_probes_nor_answers(self, ctx):
        """A Communication Manager registered for b without a detector
        stops b's old one."""
        network, nodes, detectors, _ = make_world(ctx)
        CommunicationManager(nodes["b"], network)
        ctx.engine.run(until=DETECTION_BOUND + INTERVAL)
        assert detectors["b"].peers == {}
        # b went mute, so a (correctly, from its vantage) suspects it.
        assert detectors["a"].suspects() == ["b"]

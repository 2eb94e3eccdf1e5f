"""Heartbeat probes travel between detectors, in runs (docs/SIMULATOR.md).

A probe joins the run of probes queued last when it is due at the same
instant and no other entry has been queued since; one entry then
delivers the run in order.  Probes are not datagrams: no trace hook and
no ``net.*`` counter sees them.  Once the fabric is steady a tick is one
entry and sends nothing.
"""

from repro.comm.failures import FailureDetector
from repro.comm.manager import CommunicationManager
from repro.comm.network import Network
from repro.kernel.context import SimContext
from repro.kernel.node import Node

INTERVAL = 250.0


def make_world(names=("a", "b", "c", "d")):
    ctx = SimContext()
    network = Network(ctx)
    nodes, detectors, events = {}, {}, []
    for name in names:
        node = Node(ctx, name)
        manager = CommunicationManager(node, network)
        manager.failure_detector = FailureDetector(
            manager, probe_interval_ms=INTERVAL,
            observers=[lambda *event: events.append(event)])
        nodes[name], detectors[name] = node, manager.failure_detector
    return ctx, network, nodes, detectors, events


def arrival_log(ctx, network):
    """(time, [(kind, source, target)], entries run so far) per entry
    that delivers probes."""
    log = []
    heartbeats = network.heartbeats
    deliver = heartbeats.arrive

    def arrive(run):
        log.append((ctx.now, [(kind, source, target)
                              for kind, source, _, target, _ in run],
                    ctx.engine.events_executed))
        deliver(run)

    heartbeats.arrive = arrive
    return log


def test_one_ticks_pings_arrive_in_one_entry():
    ctx, network, _, _, _ = make_world()
    log = arrival_log(ctx, network)
    ctx.engine.run(until=INTERVAL + 30.0)  # the first ticks probe
    pings = [run for _, run, _ in log if run[0][:2] == ("ping", "a")]
    assert pings == [[("ping", "a", "b"), ("ping", "a", "c"),
                      ("ping", "a", "d")]]
    # Answering queues nothing else, so every pong due then joins one run.
    pongs = [run for _, run, _ in log if run[0][0] == "pong"]
    assert len(pongs) == 1 and len(pongs[0]) == 12
    assert pongs[0][:3] == [("pong", "b", "a"), ("pong", "c", "a"),
                            ("pong", "d", "a")]


def test_an_entry_scheduled_between_two_probes_splits_the_run():
    ctx, network, _, _, _ = make_world(("a", "b", "c"))
    log = arrival_log(ctx, network)
    engine = ctx.engine
    order = []

    def send():
        network.heartbeats.send("ping", "a", 0, "b", 1.0)
        engine.schedule(1.0, lambda: order.append("between"))
        network.heartbeats.send("ping", "a", 0, "c", 1.0)

    engine.schedule(10.0, send)
    engine.run(until=12.0)
    runs = [run for time, run, _ in log if time == 11.0]
    assert runs == [[("ping", "a", "b")], [("ping", "a", "c")]]
    assert order == ["between"]


def test_a_steady_tick_is_one_entry_and_sends_nothing():
    ctx, network, _, detectors, events = make_world()
    engine = ctx.engine
    engine.run(until=3 * INTERVAL)
    assert network.heartbeats.steady
    log = arrival_log(ctx, network)
    executed = engine.events_executed
    engine.run(until=23 * INTERVAL)
    assert log == []
    assert engine.events_executed - executed == 4 * 20  # the ticks alone
    assert events == []
    assert all(detector.suspects() == [] for detector in detectors.values())


def test_trace_hooks_and_net_counters_never_see_a_probe():
    ctx, network, nodes, _, events = make_world(("a", "b", "c"))
    hooked = []
    network.add_trace_hook(lambda *event: hooked.append(event))
    ctx.engine.schedule(700.0, nodes["c"].crash)
    ctx.engine.schedule(1_000.0, lambda: network.partition([["a"], ["b"]]))
    ctx.engine.run(until=4_000.0)
    assert [event[2] for event in events].count("suspect") >= 2
    assert hooked == []
    assert network.datagrams_sent == 0
    assert not any("net." in key for key
                   in ctx.metrics.snapshot()["counters"])


def test_a_probe_to_a_crashed_incarnation_is_lost():
    """Even when the node is back up, in a new epoch, when it lands."""
    ctx, network, nodes, _, _ = make_world(("a", "b"))
    heartbeats = network.heartbeats
    received = []
    detector = network.manager("b").failure_detector
    detector.receive = lambda *probe: received.append(probe)

    def send_then_bounce():
        heartbeats.send("ping", "a", 0, "b", 5.0)
        nodes["b"].crash()
        nodes["b"].restart()
        heartbeats.send("ping", "a", 0, "b", 5.0)

    ctx.engine.schedule(10.0, send_then_bounce)
    ctx.engine.run(until=20.0)
    assert received == [("ping", "a", 0)]


def test_a_restarted_nodes_probes_carry_its_new_epoch():
    ctx, _, nodes, detectors, events = make_world(("a", "b"))
    ctx.engine.schedule(600.0, nodes["b"].crash)
    ctx.engine.schedule(900.0, nodes["b"].restart)  # same detector
    ctx.engine.run(until=3_000.0)
    assert detectors["a"].peers["b"].epoch == 1
    assert ("restart-observed", "b") in [(event[2], event[3])
                                         for event in events]

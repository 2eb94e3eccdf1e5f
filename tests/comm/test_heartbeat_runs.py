"""Heartbeats due at one instant share one queue entry (docs/SIMULATOR.md).

A daemon datagram joins the run of daemon datagrams scheduled last when
it is due at the same instant and no other entry has been scheduled
since; one entry then delivers the run in order.  The reference below
queues one entry per datagram, as the network did before.
"""

from repro.comm.failures import FailureDetector
from repro.comm.manager import CommunicationManager
from repro.comm.network import Network
from repro.kernel.context import SimContext
from repro.kernel.messages import Message
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


def hook_log(ctx, network):
    """(time, event, source, target, op, entries run so far) per hook."""
    log = []
    network.add_trace_hook(
        lambda time, event, source, target, op: log.append(
            (time, event, source, target, op, ctx.engine.events_executed)))
    return log


def per_datagram(self, latency_ms, arrival):
    self.ctx.engine.schedule(latency_ms, self._arrive, daemon=True,
                             args=arrival)


def probe(origin):
    return Message(op="fd.ping", body={"service": "failure_detector",
                                       "kind": "ping", "origin": origin,
                                       "epoch": 0})


def test_one_ticks_pings_arrive_in_one_entry():
    ctx, network, _, _, _ = make_world()
    log = hook_log(ctx, network)
    ctx.engine.run(until=2 * INTERVAL)
    pings = [entry for entry in log
             if entry[1] == "recv" and entry[4] == "fd.ping"
             and entry[2] == "a"]
    assert [entry[3] for entry in pings] == ["b", "c", "d"]
    assert len({entry[5] for entry in pings}) == 1


def test_an_entry_scheduled_between_two_probes_splits_the_run():
    ctx = SimContext()
    network = Network(ctx)
    for name in ("a", "b", "c"):
        CommunicationManager(Node(ctx, name), network)
    log = hook_log(ctx, network)
    engine = ctx.engine

    def send():
        network.deliver_datagram("b", probe("a"), 1.0, source="a",
                                 daemon=True)
        engine.schedule(1.0, lambda: log.append(("between",)))
        network.deliver_datagram("c", probe("a"), 1.0, source="a",
                                 daemon=True)

    engine.schedule(0.0, send)
    engine.run(until=5.0)
    arrivals = [entry for entry in log if entry[0] == "between"
                or entry[1] == "recv"]
    assert [entry[3] if len(entry) > 1 else entry[0]
            for entry in arrivals] == ["b", "between", "c"]
    assert arrivals[0][5] != arrivals[2][5]


def test_hooks_and_counters_see_what_the_per_datagram_path_shows(
        monkeypatch):
    """A crash, a restart and real datagrams at the probes' instants."""
    def play():
        ctx, network, nodes, _, events = make_world(("a", "b", "c"))
        log = hook_log(ctx, network)

        def chatter():
            network.deliver_datagram("b", probe("a"), 1.5, source="a")
            if ctx.now < 3_000.0:
                ctx.engine.schedule(125.0, chatter)

        def revive():
            nodes["c"].restart()
            FailureDetector(CommunicationManager(nodes["c"], network),
                            probe_interval_ms=INTERVAL)

        ctx.engine.schedule(0.0, chatter)
        ctx.engine.schedule(700.0, nodes["c"].crash)
        ctx.engine.schedule(2_600.0, revive)
        ctx.engine.run(until=4_000.0)
        counters = {key: value for key, value
                    in ctx.metrics.snapshot()["counters"].items()
                    if "net." in key}
        return [entry[:5] for entry in log], counters, events

    runs = play()
    monkeypatch.setattr(Network, "_schedule_daemon", per_datagram)
    assert play() == runs
    log, counters, events = runs
    assert counters and any(entry[1] == "undeliverable" for entry in log)
    assert [event[2] for event in events].count("suspect") == 2


def test_a_restarted_nodes_probes_carry_its_new_epoch():
    ctx, _, nodes, detectors, events = make_world(("a", "b"))
    ctx.engine.schedule(600.0, nodes["b"].crash)
    ctx.engine.schedule(900.0, nodes["b"].restart)  # same detector
    ctx.engine.run(until=3_000.0)
    assert detectors["a"].peers["b"].epoch == 1
    assert ("restart-observed", "b") in [(event[2], event[3])
                                         for event in events]

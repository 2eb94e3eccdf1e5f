"""Tests for the node abstraction and its crash/restart semantics."""

import pytest

from repro.errors import InvalidPort, NodeDown
from repro.kernel.context import SimContext
from repro.kernel.costs import ZERO_COST
from repro.kernel.messages import Message
from repro.kernel.node import Node
from repro.kernel.ports import Port
from repro.kernel.vm import ObjectID, RecoverableSegment
from repro.sim import Process, Timeout


@pytest.fixture
def ctx():
    return SimContext(profile=ZERO_COST)


def test_spawn_runs_process(ctx):
    node = Node(ctx, "n")
    seen = []

    def body():
        yield Timeout(ctx.engine, 1.0)
        seen.append("ran")

    node.spawn(body())
    ctx.engine.run()
    assert seen == ["ran"]


def test_crash_kills_processes(ctx):
    node = Node(ctx, "n")
    seen = []

    def body():
        yield Timeout(ctx.engine, 100.0)
        seen.append("should never run")

    node.spawn(body())
    ctx.engine.run(until=1.0)
    node.crash()
    ctx.engine.run()
    assert seen == []
    assert not node.alive


def test_crash_kills_live_processes_in_spawn_order_after_compaction(ctx):
    node = Node(ctx, "n")
    killed = []

    def short():
        yield Timeout(ctx.engine, 0.5)

    def long(tag):
        try:
            yield Timeout(ctx.engine, 1000.0)
        finally:
            killed.append(tag)  # generator.close() runs this at the kill

    # Interleave long-lived processes with many short ones, letting the
    # short ones finish, so spawn() compacts the table more than once.
    long_lived = []
    for tag in range(5):
        long_lived.append(node.spawn(long(tag)))
        for _ in range(100):
            node.spawn(short())
        ctx.engine.run(until=ctx.engine.now + 1.0)
    assert len(node._processes) < 200  # 505 spawned, 5 live
    assert [p for p in node._processes if p.alive] == long_lived
    node.crash()
    assert killed == [0, 1, 2, 3, 4]
    assert node._processes == []


def test_crash_destroys_ports(ctx):
    node = Node(ctx, "n")
    port = node.create_port("svc")
    node.crash()
    port.send(Message(op="lost"))
    ctx.engine.run()
    assert port.dropped == 1


def assert_dead(ctx, port):
    """A send is dropped and counted; receive() refuses."""
    assert not port.alive
    dropped = port.dropped
    port.send(Message(op="lost"))
    ctx.engine.run()
    assert port.dropped == dropped + 1
    with pytest.raises(InvalidPort):
        port.receive()


def test_port_made_before_crash_stays_dead_after_restart(ctx):
    node = Node(ctx, "n")
    port = node.create_port("svc")
    port.send(Message(op="queued"))
    ctx.engine.run()
    assert port.queued == 1
    node.crash()
    node.restart()
    # No destroy() sweep ran, yet the dead port reads as empty.
    assert port.queued == 0
    assert port.try_receive() is None
    assert_dead(ctx, port)


def test_port_made_while_node_down_stays_dead_after_restart(ctx):
    node = Node(ctx, "n")
    node.crash()
    port = Port(ctx, node=node, name="made-while-down")
    assert_dead(ctx, port)
    node.restart()
    assert_dead(ctx, port)


def test_message_in_flight_across_crash_and_restart_is_dropped():
    ctx = SimContext()  # measured costs: sends take simulated time
    node = Node(ctx, "n")
    port = node.create_port("svc")
    port.send(Message(op="in-flight"))
    node.crash()
    node.restart()
    ctx.engine.run()
    assert port.dropped == 1 and port.queued == 0


def test_port_made_after_restart_is_alive_and_delivers(ctx):
    node = Node(ctx, "n")
    node.crash()
    node.restart()
    port = node.create_port("svc")
    assert port.alive
    port.send(Message(op="hello"))
    ctx.engine.run()
    assert port.try_receive().op == "hello"


def test_crash_clears_volatile_memory_but_not_disk(ctx):
    node = Node(ctx, "n")
    node.vm.map_segment(RecoverableSegment("seg", 4, base_va=0))
    oid = ObjectID("seg", 0, 4)

    def body():
        yield from node.vm.write_object(oid, "dirty")
        yield from node.vm.flush_all()
        yield from node.vm.write_object(oid, "volatile-only")

    ctx.engine.run_until(Process(ctx.engine, body()))
    node.crash()
    # The flushed value survives on disk; the later update is lost.
    assert node.disk.peek_page("seg", 0) == {0: "dirty"}


def test_spawn_on_crashed_node_rejected(ctx):
    node = Node(ctx, "n")
    node.crash()
    with pytest.raises(NodeDown):
        node.spawn(iter(()))
    with pytest.raises(NodeDown):
        node.create_port()


def test_restart_bumps_epoch_and_resets_vm(ctx):
    node = Node(ctx, "n")
    node.vm.map_segment(RecoverableSegment("seg", 4, base_va=0))
    node.crash()
    node.restart()
    assert node.alive
    assert node.epoch == 1
    # The new address space has no segments mapped yet.
    with pytest.raises(Exception):
        node.vm.segment("seg")


def test_restart_preserves_disk(ctx):
    node = Node(ctx, "n")
    node.vm.map_segment(RecoverableSegment("seg", 4, base_va=0))
    ctx.engine.run_until(Process(
        ctx.engine, node.disk.write_page("seg", 0, {0: "persisted"})))
    node.crash()
    node.restart()
    assert node.disk.peek_page("seg", 0) == {0: "persisted"}


def test_crash_and_restart_idempotent(ctx):
    node = Node(ctx, "n")
    node.crash()
    node.crash()
    node.restart()
    node.restart()
    assert node.epoch == 1


def test_service_registry(ctx):
    node = Node(ctx, "n")
    port = node.create_port("tm")
    node.register_service("transaction_manager", port)
    assert node.service("transaction_manager") is port
    with pytest.raises(NodeDown):
        node.service("missing")


def test_crash_clears_services(ctx):
    node = Node(ctx, "n")
    node.register_service("transaction_manager", node.create_port())
    node.crash()
    node.restart()
    with pytest.raises(NodeDown):
        node.service("transaction_manager")

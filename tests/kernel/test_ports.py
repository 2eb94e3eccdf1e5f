"""Tests for ports and typed messages."""

import pytest

from repro.errors import InvalidPort
from repro.kernel.context import SimContext
from repro.kernel.costs import MEASURED_1985, Phase, Primitive
from repro.kernel.messages import Message, MessageKind, classify_size
from repro.kernel.node import Node
from repro.kernel.ports import Port
from repro.obs.tracer import Tracer
from repro.sim import Process


@pytest.fixture
def ctx():
    return SimContext()


def test_classify_size_thresholds():
    assert classify_size(0) is MessageKind.SMALL
    assert classify_size(499) is MessageKind.SMALL
    assert classify_size(500) is MessageKind.LARGE
    assert classify_size(1100) is MessageKind.LARGE


def test_send_receive_roundtrip_charges_small_message(ctx):
    port = Port(ctx, name="p")
    port.send(Message(op="ping"))
    event = port.receive()
    message = ctx.engine.run_until(event)
    assert message.op == "ping"
    assert ctx.engine.now == MEASURED_1985.time_of(Primitive.SMALL_MESSAGE)
    assert ctx.meter.count(Primitive.SMALL_MESSAGE) == 1


def test_large_and_pointer_messages_charge_their_primitives(ctx):
    port = Port(ctx, name="p")
    port.send(Message(op="a", kind=MessageKind.LARGE))
    port.send(Message(op="b", kind=MessageKind.POINTER))
    ctx.engine.run()
    assert ctx.meter.count(Primitive.LARGE_MESSAGE) == 1
    assert ctx.meter.count(Primitive.POINTER_MESSAGE) == 1


def test_uncharged_send_records_nothing(ctx):
    port = Port(ctx, name="p")
    port.send(Message(op="rpc", kind=MessageKind.UNCHARGED))
    message = ctx.engine.run_until(port.receive())
    assert message.op == "rpc"
    assert ctx.engine.now == 0.0
    assert not ctx.meter.counts


def test_fifo_ordering(ctx):
    port = Port(ctx, name="p")
    for i in range(5):
        port.send(Message(op=str(i)))
    received = []

    def consumer():
        for _ in range(5):
            message = yield port.receive()
            received.append(message.op)

    ctx.engine.run_until(Process(ctx.engine, consumer()))
    assert received == ["0", "1", "2", "3", "4"]


def test_receive_blocks_until_message(ctx):
    port = Port(ctx, name="p")
    event = port.receive()
    ctx.engine.run()
    assert not event.triggered
    port.send(Message(op="late"))
    assert ctx.engine.run_until(event).op == "late"


def test_send_to_dead_port_is_dropped(ctx):
    port = Port(ctx, name="p")
    port.destroy()
    port.send(Message(op="lost"))
    ctx.engine.run()
    assert port.dropped == 1
    assert port.queued == 0


def test_receive_on_dead_port_raises(ctx):
    port = Port(ctx, name="p")
    port.destroy()
    with pytest.raises(InvalidPort):
        port.receive()


def test_message_in_flight_to_crashing_port_is_lost(ctx):
    node = Node(ctx, "n")
    port = node.create_port("svc")
    port.send(Message(op="doomed"))
    node.crash()
    ctx.engine.run()
    assert port.dropped == 1


def test_sender_node_stamped(ctx):
    node = Node(ctx, "alpha")
    port = node.create_port("svc")
    port.send(Message(op="hello"))
    message = ctx.engine.run_until(port.receive())
    assert message.sender_node == "alpha"


def test_traced_send_stamps_the_senders_context_and_its_payloads(ctx):
    """A message leaves in the sending process's causal context, and so
    does a datagram riding inside it; untraced, nothing is stamped."""
    port = Port(ctx, name="p")
    sent = []

    def sender():
        with ctx.span("2pc.prepare", "n", "TM", tid="T1") as span:
            datagram = Message(op="tm.prepare_req")
            port.send(Message(op="cm.send_datagram",
                              body={"payload": datagram}))
            sent.append((span.span_id, datagram))
        yield from ()

    Process(ctx.engine, sender())
    ctx.engine.run()
    assert port.receive().result().trace_parent == 0
    assert sent[0][1].trace_parent == 0
    ctx.tracer = Tracer(ctx.engine)
    Process(ctx.engine, sender())
    ctx.engine.run()
    span_id, datagram = sent[1]
    assert span_id != 0
    assert port.receive().result().trace_parent == span_id
    assert datagram.trace_parent == span_id
    # From a plain callback there is no context to carry.
    port.send(Message(op="tick"))
    ctx.engine.run()
    assert port.receive().result().trace_parent == 0


def test_phase_attribution_follows_meter_phase(ctx):
    port = Port(ctx, name="p")
    ctx.meter.phase = Phase.PRE_COMMIT
    port.send(Message(op="before"))
    ctx.engine.run()
    ctx.meter.phase = Phase.COMMIT
    port.send(Message(op="during"))
    ctx.engine.run()
    assert ctx.meter.count(Primitive.SMALL_MESSAGE, Phase.PRE_COMMIT) == 1
    assert ctx.meter.count(Primitive.SMALL_MESSAGE, Phase.COMMIT) == 1

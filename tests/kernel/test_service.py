"""The service kit: dispatch loop, request/reply, span scope."""

from inspect import CO_GENERATOR

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServerError
from repro.kernel.context import SimContext
from repro.kernel.costs import MEASURED_1985, Primitive
from repro.kernel.messages import Message, MessageKind
from repro.kernel.node import Node
from repro.kernel.service import (
    Service,
    answer,
    handlers_of,
    post,
    request,
    respond,
    respond_error,
    spawn_handler,
)
from repro.obs.tracer import NO_SPAN, Tracer
from repro.sim import Event, Timeout


class Echo:
    """A component with one waiting and one never-waiting handler."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.port = node.create_port("echo")
        self.seen: list[tuple] = []
        self.service = Service(node, self.port, "echo", handlers_of(self),
                               "echo-loop")

    def _note(self, message: Message) -> None:
        engine = self.node.ctx.engine
        self.seen.append((message.op, engine.now, engine.events_executed))

    def _handle_ping(self, message: Message) -> None:
        self._note(message)
        respond(message, {"pong": message.body["n"]})

    def _handle_slow(self, message: Message):
        yield Timeout(self.node.ctx.engine, 7.0)
        self._note(message)
        respond(message, {"pong": message.body["n"]})

    def _handle_fail(self, message: Message) -> None:
        respond_error(message, ServerError("no such cell"))


class OldStyleEcho(Echo):
    """The pre-kit spelling of a handler that never waits."""

    def _handle_ping(self, message: Message):
        self._note(message)
        respond(message, {"pong": message.body["n"]})
        return
        yield  # pragma: no cover


def make(component=Echo):
    ctx = SimContext()
    node = Node(ctx, "n")
    return ctx, node, component(node)


def ask(ctx, node, echo, op, n=0):
    return ctx.engine.run_until(node.spawn(
        request(node, echo.port, op, {"n": n}, reply=f"test-reply:{op}")))


class TestDispatch:
    def test_unknown_op_is_dropped_and_the_loop_keeps_serving(self):
        ctx, node, echo = make()
        echo.port.send(Message(op="echo.nonsense"))
        ctx.engine.run()
        assert echo.seen == []
        assert ask(ctx, node, echo, "echo.ping", 3) == {"pong": 3}

    def test_each_message_runs_in_a_process_named_prefix_op(self):
        ctx, node, echo = make()
        echo.port.send(Message(op="echo.slow", body={"n": 1}))
        ctx.engine.run(until=5.0)
        assert "n:echo:echo.slow" in [p.name for p in node._processes
                                      if p.alive]

    def test_a_waiting_handler_does_not_hold_up_the_port(self):
        ctx, node, echo = make()
        echo.port.send(Message(op="echo.slow", body={"n": 1}))
        echo.port.send(Message(op="echo.ping", body={"n": 2}))
        ctx.engine.run()
        assert [op for op, _, _ in echo.seen] == ["echo.ping", "echo.slow"]

    def test_plain_handler_costs_the_same_events_as_return_yield(self):
        """A plain method runs as the one queue entry that starts the
        process a ``return; yield`` generator gets: same event count, and
        the handler body runs at the same position in the event order."""
        runs = []
        for component in (Echo, OldStyleEcho):
            ctx, node, echo = make(component)
            for n in range(3):
                echo.port.send(Message(op="echo.ping", body={"n": n}))
            echo.port.send(Message(op="echo.slow", body={"n": 9}))
            ctx.engine.run()
            runs.append((echo.seen, ctx.engine.events_executed,
                         ctx.engine.events_scheduled, ctx.engine.now))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == 4

    def test_gate_holds_messages_without_dropping_them(self):
        ctx, node, echo = make()
        echo.service.gate = Event(ctx.engine, name="gate")
        echo.port.send(Message(op="echo.ping", body={"n": 1}))
        echo.port.send(Message(op="echo.ping", body={"n": 2}))
        ctx.engine.run()
        assert echo.seen == []
        gate, echo.service.gate = echo.service.gate, None
        gate.succeed()
        ctx.engine.run()
        assert [op for op, _, _ in echo.seen] == ["echo.ping", "echo.ping"]


class TestWakeUps:
    def test_a_delivery_with_an_entry_due_queues_one_wake_up(self):
        ctx, node, echo = make()
        ctx.engine.run()
        echo.port.send(Message(op="echo.ping", body={"n": 1},
                               kind=MessageKind.UNCHARGED))
        seen = []
        ctx.engine.schedule(0.0, lambda: seen.append(echo.seen[:]))
        ctx.engine.run()
        # the no-op ran before the handler: the delivery queued a wake-up
        assert seen == [[]] and len(echo.seen) == 1

    def test_a_wake_up_whose_port_died_does_nothing(self):
        ctx, node, echo = make()
        ctx.engine.run()
        echo.port.send(Message(op="echo.ping", body={"n": 1},
                               kind=MessageKind.UNCHARGED))
        ctx.engine.schedule(0.0, lambda: None)
        ctx.engine.step()  # the delivery queues its wake-up behind the no-op
        echo.port.destroy()
        ctx.engine.run()
        assert echo.seen == []


class TestNeverWaitingHandlers:
    def test_one_whose_node_crashed_and_restarted_does_not_run(self):
        ctx, node, echo = make()
        ctx.engine.run()
        echo.port.send(Message(op="echo.ping", body={"n": 1},
                               kind=MessageKind.UNCHARGED))
        ctx.engine.step()  # delivered and dispatched; the handler is queued
        node.crash()
        node.restart()
        ctx.engine.run()
        assert echo.seen == []

    def test_it_runs_in_the_context_its_message_carried(self):
        ctx = traced_context()
        node = Node(ctx, "n")
        port = node.create_port("svc")
        sink = node.create_port("sink")

        def handle(message: Message) -> None:
            sink.send(Message(op="outside", kind=MessageKind.UNCHARGED))
            with ctx.span("handle", "n", "TM"):
                sink.send(Message(op="inside", kind=MessageKind.UNCHARGED))

        Service(node, port, "svc", lambda op: handle, "svc-loop")

        def client():
            with ctx.span("client", "n", "APP"):
                port.send(Message(op="svc.go", kind=MessageKind.UNCHARGED))
                yield Timeout(ctx.engine, 1.0)

        ctx.engine.run_until(node.spawn(client()))
        client_span, handle_span = ctx.tracer.spans
        assert handle_span.parent_id == client_span.span_id
        outside, inside = sink.receive().result(), sink.receive().result()
        assert outside.trace_parent == client_span.span_id
        assert inside.trace_parent == handle_span.span_id
        assert ctx.engine.active_process is None

    def test_one_that_raises_does_not_stop_the_service(self):
        ctx, node, echo = make()
        echo._handle_boom = lambda message: 1 / 0
        echo.port.send(Message(op="echo.boom"))
        ctx.engine.run()
        assert ask(ctx, node, echo, "echo.ping", 4) == {"pong": 4}


class TestRequest:
    def test_reply_body_is_returned(self):
        ctx, node, echo = make()
        assert ask(ctx, node, echo, "echo.slow", 5) == {"pong": 5}

    def test_marshalled_error_raises_at_the_caller(self):
        ctx, node, echo = make()
        with pytest.raises(ServerError, match="no such cell"):
            ask(ctx, node, echo, "echo.fail")

    @pytest.mark.parametrize("kind, small_messages", [
        (MessageKind.SMALL, 2), (MessageKind.UNCHARGED, 0)])
    def test_the_reply_costs_what_the_request_costs(self, kind,
                                                    small_messages):
        ctx, node, echo = make()
        ctx.engine.run()
        started = ctx.engine.now
        assert ctx.engine.run_until(node.spawn(request(
            node, echo.port, "echo.ping", {"n": 1}, reply="r",
            kind=kind))) == {"pong": 1}
        assert ctx.meter.count(Primitive.SMALL_MESSAGE) == small_messages
        assert ctx.engine.now - started == small_messages * (
            MEASURED_1985.time_of(Primitive.SMALL_MESSAGE))

    @pytest.mark.parametrize("deadline_ms, body", [
        (5.0, None), (8.0, {"pong": 3}), (None, {"pong": 3})])
    def test_answer_is_the_reply_or_none_past_its_deadline(self,
                                                           deadline_ms,
                                                           body):
        ctx, node, echo = make()
        ctx.engine.run()
        reply_port = post(node, echo.port, "echo.slow", {"n": 3}, reply="r",
                          kind=MessageKind.UNCHARGED)
        assert ctx.engine.run_until(node.spawn(
            answer(reply_port, deadline_ms))) == body


def traced_context():
    ctx = SimContext()
    ctx.tracer = Tracer(ctx.engine)
    return ctx


class TestSpanScope:
    def test_untraced_span_is_one_shared_noop(self):
        ctx = SimContext()
        first = ctx.span("a", "n", "DS", tid="T", key=lambda: 1 / 0)
        assert first is NO_SPAN
        assert ctx.span("b", "m", "TM") is first
        with first as span:
            span.set(anything=1)
        assert span.span_id == 0

    def test_closes_on_normal_return_with_end_attributes(self):
        ctx = traced_context()

        def body():
            with ctx.span("work", "n", "DS", key=lambda: "k7") as span:
                yield Timeout(ctx.engine, 4.0)
                span.set(outcome="done")
                return 42

        assert ctx.engine.run_until(Node(ctx, "n").spawn(body())) == 42
        (span,) = ctx.tracer.spans
        assert (span.start_ms, span.end_ms) == (0.0, 4.0)
        assert span.attrs == {"key": "k7", "outcome": "done"}

    def test_closes_on_exception_with_its_type(self):
        ctx = traced_context()

        def body():
            with ctx.span("work", "n", "DS"):
                yield Timeout(ctx.engine, 2.0)
                raise ServerError("boom")

        process = Node(ctx, "n").spawn(body(), defused=True)
        ctx.engine.run()
        assert not process.ok
        (span,) = ctx.tracer.spans
        assert span.end_ms == 2.0
        assert span.attrs == {"error": "ServerError"}

    def test_closes_on_process_kill(self):
        ctx = traced_context()

        def body():
            with ctx.span("work", "n", "DS"):
                yield Timeout(ctx.engine, 100.0)

        process = Node(ctx, "n").spawn(body())
        ctx.engine.run(until=3.0)
        process.kill("test")
        (span,) = ctx.tracer.spans
        assert span.end_ms == 3.0
        assert span.attrs == {"truncated": "killed"}

    def test_node_crash_truncates_before_the_kill_closes(self):
        ctx = traced_context()
        node = Node(ctx, "n")

        def body():
            with ctx.span("work", "n", "DS"):
                yield Timeout(ctx.engine, 100.0)

        node.spawn(body())
        ctx.engine.run(until=3.0)
        node.crash()
        (span,) = ctx.tracer.spans
        assert span.end_ms == 3.0
        assert span.attrs == {"truncated": "crash"}


# -- the same schedule as a request-loop process -------------------------------


def _run(handler, message):
    handler(message)
    return
    yield  # pragma: no cover - makes this a generator


class LoopService:
    """The service kit as it was: a request-loop process that receives
    from the port and starts a process for every message."""

    def __init__(self, node, port, prefix, resolve, name):
        self.node, self.port, self.prefix = node, port, prefix
        self.resolve = resolve
        self.gate = None
        self.process = node.spawn(self._loop(), name=name, defused=True)

    def _loop(self):
        while True:
            message = yield self.port.receive()
            if self.gate is not None:
                yield self.gate
            handler = self.resolve(message.op)
            if handler is None:
                continue
            waits = handler.__code__.co_flags & CO_GENERATOR
            body = handler(message) if waits else _run(handler, message)
            spawn_handler(self.node, message, body,
                          f"{self.prefix}:{message.op}")


class World:
    """One node running one service, driven by a program of actions."""

    def __init__(self, service_class):
        self.ctx = SimContext()
        self.engine = self.ctx.engine
        self.node = Node(self.ctx, "n")
        self.service_class = service_class
        self.trace: list[tuple] = []
        self.build()

    def build(self):
        self.port = self.node.create_port("svc")
        self.service = self.service_class(self.node, self.port, "svc",
                                          handlers_of(self), "svc-loop")

    def note(self, what, number):
        self.trace.append((self.engine.now, what, number))

    def _handle_plain(self, message):
        self.note("plain", message.body["n"])

    def _handle_wait(self, message):
        yield Timeout(self.engine, 1.0)
        self.note("wait", message.body["n"])

    def _handle_echo(self, message):
        number = message.body["n"]
        self.note("echo", number)
        self.port.send(Message(op="svc.plain", body={"n": number + 1000},
                               kind=MessageKind.UNCHARGED))
        self.engine.schedule_now(lambda: self.note("echo2", number))

    def _handle_raise(self, message):
        self.note("raise", message.body["n"])
        raise ServerError("boom")

    def act(self, number, hops, action):
        """Run ``action``, first re-queueing it ``hops`` times at this
        instant so it lands behind entries queued meanwhile."""
        if hops:
            self.engine.schedule_now(self.act,
                                     args=(number, hops - 1, action))
            return
        kind = action[0]
        if kind == "send":
            self.port.send(Message(op=action[1], body={"n": number},
                                   kind=action[2]))
        elif kind == "noise":
            self.note("noise", number)
            self.engine.schedule_now(lambda: self.note("noise2", number))
        elif kind == "close":
            if self.service.gate is None:
                self.service.gate = Event(self.engine)
        elif kind == "open":
            gate, self.service.gate = self.service.gate, None
            if gate is not None:
                gate.succeed()
        elif kind == "crash":
            self.node.crash()
        elif kind == "restart":
            if not self.node.alive:
                self.node.restart()
                self.build()
        elif kind == "fail":  # DataServerLibrary.fail
            self.port.destroy()
            loop = getattr(self.service, "process", None)
            if loop is not None:
                loop.kill("failed")
        elif kind == "recover":
            if self.node.alive and not self.port.alive:
                self.build()

    def play(self, program):
        for number, (at, hops, action) in enumerate(program):
            self.engine.schedule(at, self.act, args=(number, hops, action))
        self.engine.run()
        return self.trace, self.engine.now


ACTION = st.one_of(
    st.tuples(st.just("send"),
              st.sampled_from(["svc.plain", "svc.wait", "svc.echo",
                               "svc.raise", "svc.unknown"]),
              st.sampled_from([MessageKind.SMALL, MessageKind.UNCHARGED])),
    st.sampled_from([("noise",), ("close",), ("open",), ("crash",),
                     ("restart",), ("fail",), ("recover",)]),
)
PROGRAM = st.lists(st.tuples(st.sampled_from([0.0, 1.0, 3.0, 4.0]),
                             st.integers(0, 2), ACTION),
                   max_size=14)


@given(program=PROGRAM)
@settings(max_examples=300, deadline=None)
def test_the_schedule_is_the_request_loop_processs(program):
    """Same-instant and spread sends, handlers that wait and that never
    do, the gate, a node crash and restart and a data server's ``fail``:
    every handler runs at the same time and in the same order as under a
    request-loop process that spawns a process per message."""
    assert World(Service).play(program) == World(LoopService).play(program)

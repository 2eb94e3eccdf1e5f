"""The service kit: dispatch loop, local request/reply, span scope."""

import pytest

from repro.errors import ServerError
from repro.kernel.context import SimContext
from repro.kernel.messages import Message
from repro.kernel.node import Node
from repro.kernel.service import Service, handlers_of, request
from repro.obs.tracer import NO_SPAN, Tracer
from repro.rpc.stubs import respond, respond_error
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
        """A plain method runs inside the same per-message process the
        old ``return; yield`` generator got: same event count, and the
        handler body runs at the same position in the event order."""
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


class TestRequest:
    def test_reply_body_is_returned(self):
        ctx, node, echo = make()
        assert ask(ctx, node, echo, "echo.slow", 5) == {"pong": 5}

    def test_marshalled_error_raises_at_the_caller(self):
        ctx, node, echo = make()
        with pytest.raises(ServerError, match="no such cell"):
            ask(ctx, node, echo, "echo.fail")


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

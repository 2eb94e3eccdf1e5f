"""Unit tests for the causal span tracer."""

from repro.kernel.context import SimContext
from repro.kernel.messages import Message
from repro.kernel.node import Node
from repro.kernel.service import Service, request, respond
from repro.obs.tracer import Tracer, family_of
from repro.sim import Timeout
from repro.txn.ids import TransactionID


class FakeEngine:
    """A clock and the running process -- all the tracer reads."""

    def __init__(self) -> None:
        self.now = 0.0
        self.active_process = None


class FakeProcess:
    """A process as the tracer sees it: the span stack it opens spans on,
    started in the context ``context`` (0: none)."""

    def __init__(self, context: int = 0) -> None:
        self.trace_stack = [context] if context else None


def make():
    engine = FakeEngine()
    return engine, Tracer(engine)


class TestSpanLifecycle:
    def test_begin_end_records_interval(self):
        engine, tracer = make()
        span_id = tracer.begin("work", "a", "DS")
        engine.now = 5.0
        tracer.end(span_id, outcome="done")
        (span,) = tracer.spans
        assert (span.start_ms, span.end_ms) == (0.0, 5.0)
        assert span.attrs["outcome"] == "done"
        assert not span.open

    def test_span_ids_are_a_plain_counter(self):
        _, tracer = make()
        first = tracer.begin("a", "n", "DS")
        second = tracer.begin("b", "n", "DS")
        assert (first, second) == (1, 2)

    def test_end_is_idempotent_and_ignores_unknown_ids(self):
        engine, tracer = make()
        span_id = tracer.begin("work", "a", "DS")
        engine.now = 3.0
        tracer.end(span_id)
        engine.now = 9.0
        tracer.end(span_id)   # second end must not move end_ms
        tracer.end(999)       # unknown id: no-op
        assert tracer.spans[0].end_ms == 3.0


class TestParentResolution:
    """The one rule: the process's innermost open span, else the context
    it started in, else the family root, else nothing."""

    def test_same_family_nests_on_the_node(self):
        """Within one process, a span nests under the innermost open one."""
        engine, tracer = make()
        engine.active_process = FakeProcess()
        outer = tracer.begin("outer", "a", "DS", tid="T1")
        inner = tracer.begin("inner", "a", "LOCK", tid="T1")
        assert tracer.spans[1].parent_id == outer
        tracer.end(inner)
        tracer.begin("next", "a", "LOCK", tid="T1")
        assert tracer.spans[2].parent_id == outer

    def test_families_do_not_cross_nest(self):
        """Two transactions on one node run in two processes: neither's
        open span is a parent of the other's."""
        engine, tracer = make()
        engine.active_process = FakeProcess()
        tracer.begin("outer", "a", "DS", tid="T1")
        engine.active_process = FakeProcess()
        tracer.begin("other", "a", "DS", tid="T2")
        assert tracer.spans[1].parent_id == 0

    def test_a_process_starts_in_the_context_its_message_carried(self):
        engine, tracer = make()
        sender = FakeProcess()
        engine.active_process = sender
        prepare = tracer.begin("2pc.prepare", "a", "TM", tid="T1")
        carried = tracer.context()
        engine.active_process = FakeProcess(carried)
        tracer.begin("ds:ds.prepare", "a", "DS", tid="T1")
        assert tracer.spans[1].parent_id == prepare
        # A sibling handler of the same message is a sibling, not a child.
        engine.active_process = FakeProcess(carried)
        tracer.begin("ds:ds.prepare", "a", "DS", tid="T1")
        assert tracer.spans[2].parent_id == prepare

    def test_the_carried_context_outlives_the_span_it_names(self):
        engine, tracer = make()
        engine.active_process = FakeProcess()
        vote = tracer.begin("2pc.prepare_req", "b", "TM", tid="T1")
        carried = tracer.context()
        tracer.end(vote)
        engine.active_process = FakeProcess(carried)
        tracer.begin("2pc.vote", "a", "TM", tid="T1")
        assert tracer.spans[1].parent_id == vote

    def test_a_spawned_process_hangs_off_the_family_root(self):
        engine, tracer = make()
        root = tracer.begin_root("T1", "a")
        engine.active_process = FakeProcess()
        tracer.begin("rpc:put", "a", "RPC", tid="T1")
        engine.active_process = FakeProcess()
        tracer.begin("rpc:x", "a", "RPC", tid="T2")   # untraced family
        assert [span.parent_id for span in tracer.spans] == [0, root, 0]

    def test_family_less_span_inherits_node_stack_top(self):
        """A WAL force with no tid joins the enclosing span's family."""
        engine, tracer = make()
        engine.active_process = FakeProcess()
        outer = tracer.begin("rm.force_status", "a", "RM", tid="T1")
        tracer.begin("wal.force", "a", "WAL")
        span = tracer.spans[1]
        assert span.parent_id == outer
        assert span.family == "T1"

    def test_family_falls_back_to_registered_root(self):
        # Outside a process only the family root can be a parent.
        engine, tracer = make()
        root = tracer.begin_root("T1", "a")
        tracer.begin("remote", "b", "DS", tid="T1")
        tracer.begin("other", "a", "DS", tid="T2")
        assert tracer.spans[1].parent_id == root
        assert tracer.spans[2].parent_id == 0

    def test_explicit_parent_wins(self):
        engine, tracer = make()
        engine.active_process = FakeProcess()
        tracer.begin("outer", "a", "DS", tid="T1")
        tracer.begin("inner", "a", "DS", tid="T1", parent_id=77)
        assert tracer.spans[1].parent_id == 77

    def test_family_of_uses_toplevel(self):
        parent = TransactionID("a", 1)
        child = parent.child(1)
        assert family_of(child) == family_of(parent)
        assert family_of(None) == ""


class TestCurrentSpanId:
    """The running process's current span id, :meth:`Tracer.context` --
    what a port stamps into ``Message.trace_parent``."""

    def test_innermost_open_family_span(self):
        engine, tracer = make()
        engine.active_process = FakeProcess()
        outer = tracer.begin("outer", "a", "DS", tid="T1")
        inner = tracer.begin("inner", "a", "LOCK", tid="T1")
        assert tracer.context() == inner
        tracer.end(inner)
        assert tracer.context() == outer

    def test_family_root_fallback_and_zero(self):
        """With no open span a process is in the context it started in,
        else 0; the family root stands in only when a span opens."""
        engine, tracer = make()
        root = tracer.begin_root("T1", "a")
        assert tracer.context() == 0                  # a plain callback
        engine.active_process = FakeProcess()
        assert tracer.context() == 0
        handler = tracer.begin("ds:op", "b", "DS", tid="T1")
        assert tracer.spans[1].parent_id == root
        tracer.end(handler)
        assert tracer.context() == 0
        engine.active_process = FakeProcess(41)
        assert tracer.context() == 41
        tracer.end(tracer.begin("ds:op", "b", "DS", tid="T1"))
        assert tracer.context() == 41

    def test_family_less_returns_node_stack_top(self):
        """The context ignores families, and belongs to one process."""
        engine, tracer = make()
        engine.active_process = FakeProcess()
        top = tracer.begin("any", "a", "DS")
        assert tracer.context() == top
        engine.active_process = FakeProcess()
        assert tracer.context() == 0

    def test_node_crash_empties_the_stacks_of_its_processes(self):
        engine, tracer = make()
        tracer.begin_root("T1", "a")
        on_a, on_b = FakeProcess(), FakeProcess()
        engine.active_process = on_a
        tracer.begin("rpc:put", "a", "RPC", tid="T1")
        engine.active_process = on_b
        remote = tracer.begin("ds:put", "b", "DS", tid="T1")
        engine.now = 6.0
        tracer.node_crashed("a")
        assert [(span.end_ms, span.attrs.get("truncated"))
                for span in tracer.spans] == [(6.0, "crash")] * 2 + [
                    (None, None)]
        assert on_a.trace_stack == [0]
        assert tracer.context() == remote


class TestDetachedSpans:
    """A family's second thread of control on a node -- a write-behind
    copy beside the client's next call -- is a spawned process: its spans
    hang off the family root and never adopt, nor are adopted by, the
    other process's."""

    def test_parent_is_the_root_and_it_is_never_an_implicit_parent(self):
        engine, tracer = make()
        root = tracer.begin_root("T1", "a")
        client, copy = FakeProcess(), FakeProcess()
        engine.active_process = client
        read = tracer.begin("rpc:read", "a", "RPC", tid="T1")
        engine.active_process = copy
        put = tracer.begin("rpc:put", "a", "RPC", tid="T1")
        assert tracer.spans[2].parent_id == root     # not the open read
        engine.active_process = client
        tracer.begin("lock.acquire", "a", "LOCK", tid="T1")
        assert tracer.spans[3].parent_id == read     # not the newer put
        tracer.end(read)
        engine.active_process = copy
        tracer.begin("wal.force", "a", "WAL")
        assert tracer.spans[4].parent_id == put
        engine.now = 4.0
        tracer.end(put, attempts=1)
        assert (tracer.spans[2].end_ms, tracer.spans[2].attrs) == \
            (4.0, {"attempts": 1})

    def test_node_crash_truncates_a_detached_span_too(self):
        engine, tracer = make()
        tracer.begin_root("T1", "a")
        engine.active_process = FakeProcess()
        tracer.begin("rpc:put", "a", "RPC", tid="T1")
        engine.now = 6.0
        tracer.node_crashed("a")
        assert [(span.end_ms, span.attrs.get("truncated"))
                for span in tracer.spans] == [(6.0, "crash")] * 2


class TestAcrossTheKit:
    """The rule on a real engine: ports stamp, the kit's handlers start in
    what the message carried, a spawned process starts in nothing."""

    def test_handler_span_parents_under_the_sender_and_spawns_do_not(self):
        ctx = SimContext()
        tracer = ctx.tracer = Tracer(ctx.engine)
        node = Node(ctx, "n")
        port = node.create_port("svc")

        def handle(message: Message):
            with ctx.span("svc:op", "n", "DS", tid="T1"):
                yield Timeout(ctx.engine, 1.0)
            respond(message, {})

        Service(node, port, "svc", lambda op: handle, "svc-loop")

        def beside():
            with ctx.span("rpc:put", "n", "RPC", tid="T1"):
                yield Timeout(ctx.engine, 1.0)

        def client():
            with ctx.span("rpc:op", "n", "RPC", tid="T1"):
                node.spawn(beside())
                yield from request(node, port, "svc.op", {}, reply="r")

        root = tracer.begin_root("T1", "n")
        ctx.engine.run_until(node.spawn(client()))
        ctx.engine.run()
        parents = {span.name: span.parent_id for span in tracer.spans}
        by_name = {span.name: span.span_id for span in tracer.spans}
        assert parents == {"txn": 0, "rpc:op": root,
                           "svc:op": by_name["rpc:op"], "rpc:put": root}
        assert ctx.engine.active_process is None


class TestFailureAndEvents:
    def test_node_crash_truncates_open_spans(self):
        engine, tracer = make()
        mine = tracer.begin("work", "a", "DS", tid="T1")
        other = tracer.begin("work", "b", "DS", tid="T1")
        engine.now = 7.0
        tracer.node_crashed("a")
        span = tracer.spans[0]
        assert span.end_ms == 7.0
        assert span.attrs["truncated"] == "crash"
        assert tracer.spans[1].open  # other node untouched
        assert mine != other
        assert [e.name for e in tracer.events] == ["node.crash"]

    def test_network_event_subscriber_shape(self):
        _, tracer = make()
        tracer.network_event(2.0, "send", "a", "b", "tm.vote")
        (event,) = tracer.events
        assert event.name == "net.send"
        assert (event.node, event.component) == ("a", "NET")
        assert event.attrs == {"source": "a", "target": "b",
                               "op": "tm.vote"}

    def test_introspection_helpers(self):
        _, tracer = make()
        root = tracer.begin_root("T1", "a")
        child = tracer.begin("inner", "a", "DS", tid="T1")
        assert tracer.family_root("T1") == root
        assert [s.span_id for s in tracer.spans_of_family("T1")] == \
            [root, child]
        assert [s.span_id for s in tracer.span_children(root)] == [child]

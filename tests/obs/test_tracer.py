"""Unit tests for the causal span tracer."""

from repro.obs.tracer import Tracer, family_of
from repro.txn.ids import TransactionID


class FakeEngine:
    """Just a clock; the tracer only ever reads ``now``."""

    def __init__(self) -> None:
        self.now = 0.0


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
    def test_same_family_nests_on_the_node(self):
        _, tracer = make()
        outer = tracer.begin("outer", "a", "DS", tid="T1")
        inner = tracer.begin("inner", "a", "LOCK", tid="T1")
        assert tracer.spans[1].parent_id == outer
        assert inner != outer

    def test_families_do_not_cross_nest(self):
        _, tracer = make()
        tracer.begin("outer", "a", "DS", tid="T1")
        tracer.begin("other", "a", "DS", tid="T2")
        assert tracer.spans[1].parent_id == 0

    def test_explicit_parent_wins(self):
        _, tracer = make()
        tracer.begin("outer", "a", "DS", tid="T1")
        tracer.begin("inner", "a", "DS", tid="T1", parent_id=77)
        assert tracer.spans[1].parent_id == 77

    def test_family_less_span_inherits_node_stack_top(self):
        """A WAL force with no tid joins the enclosing span's family."""
        _, tracer = make()
        outer = tracer.begin("rm.force_status", "a", "RM", tid="T1")
        tracer.begin("wal.force", "a", "WAL")
        span = tracer.spans[1]
        assert span.parent_id == outer
        assert span.family == "T1"

    def test_family_falls_back_to_registered_root(self):
        engine, tracer = make()
        root = tracer.begin_root("T1", "a")
        # No open T1 span on node b, but the family root is registered.
        tracer.begin("remote", "b", "DS", tid="T1")
        assert tracer.spans[1].parent_id == root

    def test_family_of_uses_toplevel(self):
        parent = TransactionID("a", 1)
        child = parent.child(1)
        assert family_of(child) == family_of(parent)
        assert family_of(None) == ""


class TestCurrentSpanId:
    def test_innermost_open_family_span(self):
        _, tracer = make()
        tracer.begin("outer", "a", "DS", tid="T1")
        inner = tracer.begin("inner", "a", "LOCK", tid="T1")
        assert tracer.current_span_id("T1", "a") == inner

    def test_family_root_fallback_and_zero(self):
        _, tracer = make()
        root = tracer.begin_root("T1", "a")
        assert tracer.current_span_id("T1", "b") == root
        assert tracer.current_span_id("T9", "b") == 0

    def test_family_less_returns_node_stack_top(self):
        _, tracer = make()
        top = tracer.begin("any", "a", "DS")
        assert tracer.current_span_id(None, "a") == top
        assert tracer.current_span_id(None, "b") == 0


class TestDetachedSpans:
    """A family's second thread of control on a node: its span is
    recorded and closed like any other but never adopts anything."""

    def test_parent_is_the_root_and_it_is_never_an_implicit_parent(self):
        engine, tracer = make()
        root = tracer.begin_root("T1", "a")
        foreground = tracer.begin("rpc:read", "a", "RPC", tid="T1")
        tracer.detach_next("T1", "a")
        behind = tracer.begin("rpc:put", "a", "RPC", tid="T1")
        assert tracer.spans[2].parent_id == root   # not the open rpc:read
        assert tracer.current_span_id("T1", "a") == foreground
        tracer.end(foreground)
        # With only the detached span open the family is back at its root,
        # for same-family and family-less spans alike.
        assert tracer.current_span_id("T1", "a") == root
        tracer.begin("lock.acquire", "a", "LOCK", tid="T1")
        tracer.begin("wal.force", "a", "WAL")
        assert tracer.spans[3].parent_id == root
        assert tracer.spans[4].parent_id == tracer.spans[3].span_id
        engine.now = 4.0
        tracer.end(behind, attempts=1)
        assert (tracer.spans[2].end_ms, tracer.spans[2].attrs) == \
            (4.0, {"attempts": 1})

    def test_the_mark_is_one_shot_and_scoped_to_family_and_node(self):
        _, tracer = make()
        root = tracer.begin_root("T1", "a")
        tracer.begin_root("T2", "a")
        tracer.detach_next("T1", "a")
        elsewhere = tracer.begin("ds:op", "b", "DS", tid="T1")
        other = tracer.begin("rpc:x", "a", "RPC", tid="T2")
        assert tracer.current_span_id("T1", "b") == elsewhere
        assert tracer.current_span_id("T2", "a") == other
        tracer.begin("rpc:put", "a", "RPC", tid="T1")        # consumes it
        attached = tracer.begin("rpc:next", "a", "RPC", tid="T1")
        assert tracer.spans[4].parent_id == root
        assert tracer.spans[5].parent_id == root
        assert tracer.current_span_id("T1", "a") == attached

    def test_node_crash_truncates_a_detached_span_too(self):
        engine, tracer = make()
        tracer.begin_root("T1", "a")
        tracer.detach_next("T1", "a")
        tracer.begin("rpc:put", "a", "RPC", tid="T1")
        engine.now = 6.0
        tracer.node_crashed("a")
        assert [(span.end_ms, span.attrs.get("truncated"))
                for span in tracer.spans] == [(6.0, "crash")] * 2


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

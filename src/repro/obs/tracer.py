"""Causal span tracing over the discrete-event simulation.

A :class:`Tracer` records *spans* (named intervals of simulated time with a
node, a Figure 3-1 component, and an optional transaction family) and
*instant events* (votes, acks, network datagram events).  Spans form a
tree: each carries the id of its parent, and the whole family of one
distributed transaction -- client call on the birth node, lock waits and
log forces on every participant, the 2PC prepare/vote/commit/ack exchange
-- stitches into a single cross-node tree rooted at the application's
``txn`` span.

Parent resolution, in priority order:

1. an explicit ``parent_id`` (used when span context crosses nodes: RPC
   stubs and the Transaction Manager's protocol datagrams carry the
   sender's current span id in ``Message.trace_parent``);
2. the innermost open span *of the same transaction family on the same
   node* (so a lock wait inside a data-server operation nests under it);
3. for family-less spans (a WAL force issued for page cleaning, say), the
   innermost open span on the node, whose family is inherited;
4. the family's registered root span;
5. no parent (a top-level span on the node's track).

Rule 2 assumes a family runs one thread of control per node.  Where it
runs a second one -- a write-behind replica copy beside the client's
next call -- that thread's span is opened *detached*
(:meth:`Tracer.detach_next`): recorded, timed and closed like any other,
but never on the node's stack, so rules 2 and 3 never pick it and
:meth:`Tracer.current_span_id` never returns it.

Determinism: span ids are a plain counter, timestamps come exclusively
from the engine's simulated clock, and recording draws no randomness and
schedules no events.  Two same-seed runs therefore produce identical
traces, and a traced run executes the exact event sequence of an untraced
one -- the regression suite asserts both properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim import Engine


@dataclass
class Span:
    """One named interval on a (node, component) track."""

    span_id: int
    name: str
    node: str
    component: str
    start_ms: float
    end_ms: float | None = None
    parent_id: int = 0
    #: transaction-family key (``str(tid.toplevel)``), or "" when the span
    #: is not tied to a transaction
    family: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.end_ms is None

    def duration_ms(self, fallback_end: float | None = None) -> float:
        end = self.end_ms if self.end_ms is not None else fallback_end
        if end is None:
            return 0.0
        return max(0.0, end - self.start_ms)


@dataclass
class TraceEvent:
    """One instant event (a vote arriving, a datagram dropped, ...)."""

    event_id: int
    name: str
    node: str
    component: str
    time_ms: float
    family: str = ""
    attrs: dict = field(default_factory=dict)


def family_of(tid) -> str:
    """The family key of a transaction identifier (its top level)."""
    if tid is None:
        return ""
    toplevel = getattr(tid, "toplevel", tid)
    return str(toplevel)


class SpanScope:
    """One open span as a context manager, usable inside a generator.

    The span closes when the block is left: by falling off the end or
    ``return``, by an exception (its type lands in the ``error`` end
    attribute), or by ``Process.kill`` closing the suspended generator
    (``truncated="killed"``; a node crash has already closed the node's
    spans with ``truncated="crash"`` by then, and closing is idempotent).
    """

    __slots__ = ("_tracer", "span_id", "_end_attrs")

    def __init__(self, tracer: "Tracer", span_id: int) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self._end_attrs: dict = {}

    def set(self, **attrs) -> None:
        """Attributes recorded when the span closes."""
        self._end_attrs.update(attrs)

    def __enter__(self) -> "SpanScope":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is GeneratorExit:
            self._end_attrs["truncated"] = "killed"
        elif exc_type is not None:
            self._end_attrs["error"] = exc_type.__name__
        self._tracer.end(self.span_id, **self._end_attrs)


class _NoSpan(SpanScope):
    """What :meth:`SimContext.span` hands out when no tracer is attached."""

    __slots__ = ()

    def __init__(self) -> None:
        self.span_id = 0

    def set(self, **attrs) -> None:
        pass

    def __exit__(self, exc_type, exc, traceback) -> None:
        pass


#: the one shared no-op scope
NO_SPAN = _NoSpan()


class Tracer:
    """Collects spans and events for one simulated cluster run."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self._next_id = 1
        self._open: dict[int, Span] = {}
        #: innermost-last open spans per node (all families interleaved)
        self._node_stacks: dict[str, list[Span]] = {}
        #: family key -> root span id (the application's ``txn`` span)
        self._family_roots: dict[str, int] = {}
        #: (family key, node) pairs whose next span opens detached
        self._detach_next: set[tuple[str, str]] = set()

    # -- span lifecycle ------------------------------------------------------

    def begin(self, name: str, node: str, component: str, tid=None,
              parent_id: int | None = None, **attrs) -> int:
        """Open a span; returns its id (pass to :meth:`end`)."""
        family = family_of(tid)
        stack = self._node_stacks.setdefault(node, [])
        detached = (family, node) in self._detach_next
        if detached:
            self._detach_next.discard((family, node))
            parent_id = self._family_roots.get(family, 0)
        elif parent_id is None or parent_id == 0:
            parent_id = 0
            if family:
                for open_span in reversed(stack):
                    if open_span.family == family:
                        parent_id = open_span.span_id
                        break
                if not parent_id:
                    parent_id = self._family_roots.get(family, 0)
            elif stack:
                parent = stack[-1]
                parent_id = parent.span_id
                family = parent.family
        span = Span(self._next_id, name, node, component, self.engine.now,
                    parent_id=parent_id, family=family, attrs=dict(attrs))
        self._next_id += 1
        self.spans.append(span)
        self._open[span.span_id] = span
        if not detached:
            stack.append(span)
        return span.span_id

    def detach_next(self, tid, node: str) -> None:
        """Open the next span of ``tid``'s family on ``node`` detached.

        For a process that runs beside the family's main thread of
        control on one node: call it immediately before the call that
        opens the span (nothing may wait in between).  The span's parent
        is the family's root, and it is never an implicit parent nor the
        :meth:`current_span_id` -- whoever opened it passes its id on
        explicitly.
        """
        self._detach_next.add((family_of(tid), node))

    def span(self, name: str, node: str, component: str, tid=None,
             parent_id: int | None = None, **attrs) -> "SpanScope":
        """Open a span as a ``with`` scope that closes it on every exit.

        Parent resolution is :meth:`begin`'s.  An attribute value may be
        a zero-argument callable; it is called here, so sites reached
        through :meth:`SimContext.span` build costly values only when a
        tracer is attached.
        """
        for key, value in attrs.items():
            if callable(value):
                attrs[key] = value()
        return SpanScope(self, self.begin(name, node, component, tid,
                                          parent_id, **attrs))

    def begin_root(self, tid, node: str, component: str = "APP",
                   name: str = "txn") -> int:
        """Open a transaction family's root span and register it."""
        family = family_of(tid)
        span_id = self.begin(name, node, component, tid=tid, parent_id=0)
        self._family_roots.setdefault(family, span_id)
        return span_id

    def annotate(self, span_id: int, **attrs) -> None:
        """Add attributes to a span that is still open (else ignored)."""
        span = self._open.get(span_id)
        if span is not None:
            span.attrs.update(attrs)

    def end(self, span_id: int, **attrs) -> None:
        """Close a span (idempotent; unknown/closed ids are ignored)."""
        span = self._open.pop(span_id, None)
        if span is None:
            return
        span.end_ms = self.engine.now
        span.attrs.update(attrs)
        stack = self._node_stacks.get(span.node)
        if stack is not None:
            try:
                stack.remove(span)
            except ValueError:  # a detached span was never on it
                pass

    def current_span_id(self, tid, node: str) -> int:
        """The innermost open span of ``tid``'s family at ``node``.

        Falls back to the family root; 0 when the family is untraced.
        This is what message senders stamp into ``Message.trace_parent``
        so the receiving node's spans parent across the wire.
        """
        family = family_of(tid)
        stack = self._node_stacks.get(node, ())
        if not family:
            return stack[-1].span_id if stack else 0
        for open_span in reversed(stack):
            if open_span.family == family:
                return open_span.span_id
        return self._family_roots.get(family, 0)

    # -- instant events ------------------------------------------------------

    def event(self, name: str, node: str, component: str, tid=None,
              **attrs) -> None:
        self.events.append(TraceEvent(
            self._next_id, name, node, component, self.engine.now,
            family=family_of(tid), attrs=dict(attrs)))
        self._next_id += 1

    def network_event(self, time_ms: float, event: str, source: str,
                      target: str, op: str) -> None:
        """Subscriber for :meth:`repro.comm.network.Network.add_trace_hook`."""
        self.events.append(TraceEvent(
            self._next_id, f"net.{event}", source or target, "NET", time_ms,
            attrs={"source": source, "target": target, "op": op}))
        self._next_id += 1

    # -- failure model -------------------------------------------------------

    def node_crashed(self, node: str) -> None:
        """Close every open span on a crashing node (volatile state gone)."""
        # From the open table, not the node's stack: detached spans too.
        for open_span in [span for span in self._open.values()
                          if span.node == node]:
            self.end(open_span.span_id, truncated="crash")
        self.event("node.crash", node, "KERNEL")

    # -- introspection -------------------------------------------------------

    def last_time_ms(self) -> float:
        """The newest timestamp recorded (export bound for open spans)."""
        last = 0.0
        for span in self.spans:
            last = max(last, span.start_ms, span.end_ms or 0.0)
        for trace_event in self.events:
            last = max(last, trace_event.time_ms)
        return last

    def family_root(self, tid) -> int:
        return self._family_roots.get(family_of(tid), 0)

    def spans_of_family(self, tid) -> list[Span]:
        family = family_of(tid)
        return [span for span in self.spans if span.family == family]

    def span_children(self, span_id: int) -> list[Span]:
        return [span for span in self.spans if span.parent_id == span_id]

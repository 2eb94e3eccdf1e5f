"""Causal span tracing over the discrete-event simulation.

A :class:`Tracer` records *spans* (named intervals of simulated time with a
node, a Figure 3-1 component, and an optional transaction family) and
*instant events* (votes, acks, network datagram events).  Spans form a
tree: each carries the id of its parent, and the whole family of one
distributed transaction -- client call on the birth node, lock waits and
log forces on every participant, the 2PC prepare/vote/commit/ack exchange
-- stitches into a single cross-node tree rooted at the application's
``txn`` span.

A span's parent is, in order:

1. the innermost open span of the *process* that opens it (a lock wait
   inside a data-server operation nests under the operation);
2. else the causal context that process started in: the span its
   starting message carried in ``Message.trace_parent``, which the port
   stamps from the sending process's own context;
3. else the registered root of the span's transaction family;
4. else nothing (a top-level span on the node's track).

TABS components are processes that talk only by messages, so this one
rule follows every cause, within a node and across the wire.  Two
threads of control of one family on one node -- a write-behind replica
copy beside the client's next call, four data servers preparing at once
-- are two processes, and their spans cannot adopt each other's.  A
process spawned rather than started by a message (the write-behind copy,
a group-commit flush) starts in no context: its spans hang off their
family's root, or off nothing.  A span with no family of its own (a WAL
force) takes its parent's.

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
        #: every span by id (a context may outlive the span it names)
        self._by_id: dict[int, Span] = {}
        #: open span id -> the trace stack of the process that opened it,
        #: or None when a plain callback did
        self._open: dict[int, list[int] | None] = {}
        #: family key -> root span id (the application's ``txn`` span)
        self._family_roots: dict[str, int] = {}

    # -- span lifecycle ------------------------------------------------------

    def context(self) -> int:
        """The running process's causal context: its innermost open span,
        else the span the message that started it carried; 0 outside a
        process or with neither.  Ports stamp it into every message they
        send (``Message.trace_parent``)."""
        process = self.engine.active_process
        stack = process.trace_stack if process is not None else None
        return stack[-1] if stack else 0

    def begin(self, name: str, node: str, component: str, tid=None,
              parent_id: int | None = None, **attrs) -> int:
        """Open a span; returns its id (pass to :meth:`end`).

        The parent is the module's rule unless ``parent_id`` names one
        (0: a root)."""
        family = family_of(tid)
        process = self.engine.active_process
        stack = None
        if process is not None:
            stack = process.trace_stack
            if stack is None:
                stack = process.trace_stack = [0]
        if parent_id is None:
            parent_id = ((stack[-1] if stack is not None else 0)
                         or self._family_roots.get(family, 0))
        if not family and parent_id in self._by_id:
            family = self._by_id[parent_id].family
        span = Span(self._next_id, name, node, component, self.engine.now,
                    parent_id=parent_id, family=family, attrs=dict(attrs))
        self._next_id += 1
        self.spans.append(span)
        self._by_id[span.span_id] = span
        self._open[span.span_id] = stack
        if stack is not None:
            stack.append(span.span_id)
        return span.span_id

    def span(self, name: str, node: str, component: str, tid=None,
             **attrs) -> "SpanScope":
        """Open a span as a ``with`` scope that closes it on every exit.

        An attribute value may be a zero-argument callable; it is called
        here, so sites reached through :meth:`SimContext.span` build
        costly values only when a tracer is attached.
        """
        for key, value in attrs.items():
            if callable(value):
                attrs[key] = value()
        return SpanScope(self, self.begin(name, node, component, tid,
                                          **attrs))

    def begin_root(self, tid, node: str, component: str = "APP",
                   name: str = "txn") -> int:
        """Open a transaction family's root span and register it."""
        family = family_of(tid)
        span_id = self.begin(name, node, component, tid=tid, parent_id=0)
        self._family_roots.setdefault(family, span_id)
        return span_id

    def annotate(self, span_id: int, **attrs) -> None:
        """Add attributes to a span that is still open (else ignored)."""
        if span_id in self._open:
            self._by_id[span_id].attrs.update(attrs)

    def end(self, span_id: int, **attrs) -> None:
        """Close a span (idempotent; unknown/closed ids are ignored)."""
        if span_id not in self._open:
            return
        stack = self._open.pop(span_id)
        span = self._by_id[span_id]
        span.end_ms = self.engine.now
        span.attrs.update(attrs)
        if stack is not None:
            stack.remove(span_id)

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

    def detector_event(self, _time_ms: float, local: str, event: str,
                       peer: str) -> None:
        """Subscriber for a node's ``fd_observers``: what its failure
        detector decided about ``peer`` (``fd.suspect``,
        ``fd.restart_observed``, ``fd.recovered``)."""
        self.event("fd." + event.replace("-", "_"), local, "CM", peer=peer)

    # -- failure model -------------------------------------------------------

    def node_crashed(self, node: str) -> None:
        """Close every open span on a crashing node (volatile state gone)."""
        for span_id in [span_id for span_id in self._open
                        if self._by_id[span_id].node == node]:
            self.end(span_id, truncated="crash")
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

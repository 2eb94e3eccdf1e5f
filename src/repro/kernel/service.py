"""The service kit: what every Figure 3-1 component does with its port.

The TABS components are Accent processes that talk only by messages, and
in TABS that plumbing was generated (Matchmaker stubs), not written per
component.  This module is the one hand-written copy:

- :class:`Service` is the server side -- take each message its port
  delivers, find its handler and run it in the causal context the
  message carried: a handler that waits in a process of its own
  (:func:`spawn_handler`), one that never waits as a single queue entry;
- the client side of a request/reply -- :func:`post` makes the reply
  port and sends, :func:`answer` waits (with a deadline if given),
  :func:`unmarshal` raises what the server marshalled, and
  :func:`request` is the three in a row;
- :func:`respond` / :func:`respond_error`, the server side's reply.

Inter-node calls build their time-out and retry from these in
:mod:`repro.rpc.stubs`; trace spans open through
:meth:`repro.kernel.context.SimContext.span`.
"""

from __future__ import annotations

from inspect import CO_GENERATOR
from typing import Callable, Generator

from repro.kernel.messages import Message, MessageKind
from repro.kernel.node import Node
from repro.kernel.ports import Port
from repro.sim import Event

#: ``handler(message)``: a generator function when the handler waits, a
#: plain function or method when it never does
Handler = Callable[[Message], object]


def handlers_of(owner: object) -> Callable[[str], Handler | None]:
    """Resolve ``"tm.begin"`` to ``owner._handle_begin`` (None if absent)."""
    def resolve(op: str) -> Handler | None:
        return getattr(owner, "_handle_" + op.rpartition(".")[2], None)
    return resolve


class _Context:
    """The causal context of a handler that runs without a process: the
    one attribute the tracer reads off ``Engine.active_process``."""

    __slots__ = ("trace_stack",)

    def __init__(self, trace_parent: int) -> None:
        self.trace_stack = [trace_parent] if trace_parent else None


class Service:
    """One component's request loop over ``port``, without a process.

    The port hands each message over as it is delivered
    (:meth:`deliver`).  The service then behaves exactly like a process
    looping on ``port.receive()``: it is either *waiting*, and dispatches
    a delivery in the delivering entry unless another entry is due at
    this instant, or *busy* -- a queued wake-up, or a wait on
    :attr:`gate` -- while later messages wait in the port's queue and
    are taken one queued entry each.  A queued entry whose port died (a
    node crash, ``DataServerLibrary.fail``) does nothing.

    A handler that waits runs in a process named ``<prefix>:<op>``, so it
    never holds up the port; one that never waits runs as the single
    entry that process's start would have been.  A message ``resolve``
    has no handler for is dropped, like a bad datagram.  While
    :attr:`gate` holds an event, messages wait for it before dispatch
    (nothing is dropped).  ``name`` labels the service's queue entries
    in the profiler (``Service:<name>``).
    """

    def __init__(self, node: Node, port: Port, prefix: str,
                 resolve: Callable[[str], Handler | None],
                 name: str) -> None:
        self.node = node
        self.port = port
        self.prefix = prefix
        self.resolve = resolve
        self.name = f"{node.name}:{name}"
        self.gate: Event | None = None
        self._engine = node.ctx.engine
        #: a wake-up is queued or a gate wait is pending
        self._busy = True
        #: the message a gate wait holds back
        self._held: Message | None = None
        port.service = self
        self._engine.schedule_now(self._take_next)

    # -- the loop's two states ---------------------------------------------

    def deliver(self, message: Message) -> None:
        """Take ``message`` from the port: ``Port._deliver``'s last act.
        Waiting, it dispatches as the resumption of a loop blocked in
        ``receive()`` would run: in this entry when that is the next to
        pop (:meth:`~repro.sim.engine.Engine.run_due_next`)."""
        if self._busy:
            self.port._queue.append(message)
            return
        self._busy = True
        self._engine.run_due_next(self._got, (message,), self._take)

    def _take(self, message: Message) -> None:
        if self.port.alive:
            self._got(message)

    def _take_next(self) -> None:
        if self.port.alive:
            self._next()

    def _got(self, message: Message) -> None:
        gate = self.gate
        if gate is not None:
            self._held = message
            gate.add_callback(self._gate_opened)
            return
        self.dispatch(message)
        self._next()

    def _gate_opened(self, _gate: Event) -> None:
        message, self._held = self._held, None
        if message is not None and self.port.alive:
            self.dispatch(message)
            self._next()

    def _next(self) -> None:
        queue = self.port._queue
        if queue:
            self._engine.schedule_now(self._take, args=(queue.popleft(),))
        else:
            self._busy = False

    # -- handlers ----------------------------------------------------------

    def dispatch(self, message: Message) -> None:
        """Start ``message``'s handler: a process if it waits, else one
        queue entry."""
        handler = self.resolve(message.op)
        if handler is None:
            return
        if handler.__code__.co_flags & CO_GENERATOR:  # type: ignore
            spawn_handler(self.node, message, handler(message),
                          f"{self.prefix}:{message.op}")
        else:
            self._engine.schedule_now(self._handle, args=(handler, message))

    def _handle(self, handler: Handler, message: Message) -> None:
        """A handler that never waits.  It runs only while the node is up
        in the port's incarnation, in the context ``message`` carried,
        timed like a process's resumption when a profiler is attached."""
        node = self.node
        if not node.alive or node.epoch != self.port._epoch:
            return
        context = (None if node.ctx.tracer is None
                   else _Context(message.trace_parent))
        profiler = self._engine.profiler
        if profiler is None:
            self._run(context, handler, message)
        else:
            profiler.resume(context, self._run, (context, handler, message))

    def _run(self, context: _Context | None, handler: Handler,
             message: Message) -> None:
        """Run ``handler`` in ``context``; an exception it raises is
        dropped, as its process's would be."""
        engine = self._engine
        engine.active_process = context  # type: ignore[assignment]
        try:
            handler(message)
        except Exception:  # noqa: BLE001 - nobody waits on a handler
            pass
        finally:
            engine.active_process = None


def spawn_handler(node: Node, message: Message, body: Generator,
                  name: str) -> None:
    """Run ``body``, the handling of ``message``, in a process of its own
    that starts in the causal context ``message`` carried: its spans
    parent under the span that sent it (:mod:`repro.obs.tracer`).  No
    reference to the process is kept, so nobody can join it."""
    process = node.spawn(body, name=name, defused=True)
    process.unjoinable = True
    if message.trace_parent:
        process.trace_stack = [message.trace_parent]


def post(node: Node, port: Port, op: str, body: dict, *, reply: str,
         kind: MessageKind = MessageKind.SMALL, tid: object = None) -> Port:
    """Send ``op`` to ``port`` with a fresh reply port named ``reply``
    (the profiler's label for the reply's delivery) and return that
    port.  ``kind`` alone says what the request costs
    (:meth:`Port.send`)."""
    reply_port = Port(node.ctx, node=node, name=reply)
    port.send(Message(op=op, body=body, reply_to=reply_port, kind=kind,
                      tid=tid, sender_node=node.name))
    return reply_port


def answer(reply_port: Port, deadline_ms: float | None = None) -> Generator:
    """Wait for the reply on a :func:`post`'s port (generator): its body,
    or None when ``deadline_ms`` passes first."""
    response = yield reply_port.wait(deadline_ms)
    return None if response is None else response.body


def unmarshal(body: dict) -> dict:
    """A reply body; one the server marshalled an exception into
    (:func:`respond_error`) raises it here."""
    if "error" in body:
        raise body["error"]
    return body


def request(node: Node, port: Port, op: str, body: dict, *, reply: str,
            kind: MessageKind = MessageKind.SMALL) -> Generator:
    """Send ``op`` to a local ``port`` and wait for the reply (generator):
    :func:`post`, :func:`answer` with no deadline, :func:`unmarshal`."""
    return unmarshal((yield from answer(
        post(node, port, op, body, reply=reply, kind=kind))))


def respond(message: Message, body: dict | None = None,
            kind: MessageKind = MessageKind.SMALL) -> None:
    """Send the reply to ``message``, if it asked for one.  An
    ``UNCHARGED`` request -- half of a composite primitive, or a message
    between components merged into the kernel (Section 5.3) -- gets an
    ``UNCHARGED`` reply."""
    if message.reply_to is None:
        return
    if message.kind is MessageKind.UNCHARGED:
        kind = MessageKind.UNCHARGED
    message.reply_to.send(Message(op=message.op + ".reply",
                                  body=dict(body or {}), kind=kind))


def respond_error(message: Message, error: Exception) -> None:
    """Marshal ``error`` back to the caller; :func:`unmarshal` raises it
    there."""
    respond(message, {"error": error})

"""The service kit: what every Figure 3-1 component does with its port.

The TABS components are Accent processes that talk only by messages, and
in TABS that plumbing was generated (Matchmaker stubs), not written per
component.  This module is the one hand-written copy:

- :class:`Service` is the server side -- receive a message, find its
  handler, run the handler in a process of its own
  (:func:`spawn_handler`), which starts in the causal context the message
  carried;
- :func:`request` is the client side of a local request/reply -- make a
  reply port, send, wait, unmarshal an error.

Inter-node calls with their time-out and retry live in
:mod:`repro.rpc.stubs`; trace spans open through
:meth:`repro.kernel.context.SimContext.span`.
"""

from __future__ import annotations

from inspect import CO_GENERATOR
from typing import Callable, Generator

from repro.kernel.messages import Message, MessageKind
from repro.kernel.node import Node
from repro.kernel.ports import Port
from repro.sim import Event, Process

#: ``handler(message)``: a generator function when the handler waits, a
#: plain function or method when it never does
Handler = Callable[[Message], object]


def handlers_of(owner: object) -> Callable[[str], Handler | None]:
    """Resolve ``"tm.begin"`` to ``owner._handle_begin`` (None if absent)."""
    def resolve(op: str) -> Handler | None:
        return getattr(owner, "_handle_" + op.rpartition(".")[2], None)
    return resolve


def _run(handler: Handler, message: Message) -> Generator:
    """Process body for a handler that never waits."""
    handler(message)
    return
    yield  # pragma: no cover - makes this a generator


class Service:
    """One component's request loop over ``port``, run as the node
    process ``name``.

    Every message gets its own process, named ``<prefix>:<op>``, so a
    handler that waits never holds up the port; a message ``resolve`` has
    no handler for is dropped, like a bad datagram.  While :attr:`gate`
    holds an event, received messages wait for it before dispatch
    (nothing is dropped).
    """

    def __init__(self, node: Node, port: Port, prefix: str,
                 resolve: Callable[[str], Handler | None],
                 name: str) -> None:
        self.node = node
        self.port = port
        self.prefix = prefix
        self.resolve = resolve
        self.gate: Event | None = None
        self.process: Process = node.spawn(self._loop(), name=name,
                                           defused=True)

    def _loop(self) -> Generator:
        while True:
            message = yield self.port.receive()
            if self.gate is not None:
                yield self.gate
            self.dispatch(message)

    def dispatch(self, message: Message) -> None:
        """Run ``message``'s handler in a process of its own."""
        handler = self.resolve(message.op)
        if handler is None:
            return
        # A generator function's call only builds the generator, so the
        # body still first runs inside the spawned process.
        waits = handler.__code__.co_flags & CO_GENERATOR  # type: ignore
        body = handler(message) if waits else _run(handler, message)
        spawn_handler(self.node, message, body, f"{self.prefix}:{message.op}")


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


def request(node: Node, port: Port, op: str, body: dict, *, reply: str,
            kind: MessageKind = MessageKind.SMALL, charged: bool = True,
            free_reply: bool = False) -> Generator:
    """Send ``op`` to a local ``port`` and wait for the reply (generator).

    Returns the reply body; a body the server marshalled an exception into
    (``respond_error``) raises it here.  ``reply`` names the reply port;
    ``kind``, ``charged`` and ``free_reply`` are the cost-model knobs of
    :class:`~repro.kernel.messages.Message` and :meth:`Port.send`.
    """
    reply_port = Port(node.ctx, node=node, name=reply)
    port.send(Message(op=op, body=body, reply_to=reply_port, kind=kind,
                      free_reply=free_reply), charged=charged)
    response = yield reply_port.receive()
    if "error" in response.body:
        raise response.body["error"]
    return response.body

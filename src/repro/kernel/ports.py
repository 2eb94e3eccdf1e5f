"""Ports: Accent's addressed message queues.

Many processes may hold send rights to a port; exactly one holds receive
rights.  Our ports belong to one incarnation (epoch) of a
:class:`~repro.kernel.node.Node`; when the node crashes, the port dies for
good and subsequent sends are silently dropped (a crashed Accent node
neither receives nor acknowledges anything -- senders discover the failure
through time-outs or through the Communication Manager's failure detector).

Sending charges the message's primitive cost as *delivery latency*: the
message is enqueued at the receiver after the primitive time elapses, and
the sender continues immediately, matching Accent's asynchronous sends.
With a tracer attached, a send also stamps the sending process's causal
context into the message (:meth:`repro.obs.tracer.Tracer.context`).
"""

from __future__ import annotations

import collections
import itertools
from typing import TYPE_CHECKING

from repro.errors import InvalidPort
from repro.kernel.context import SimContext
from repro.kernel.messages import Message
from repro.sim import PARKED, Event, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.node import Node
    from repro.kernel.service import Service

_port_ids = itertools.count(1)


class Port:
    """A message queue with single-receiver semantics."""

    def __init__(self, ctx: SimContext, node: "Node | None" = None,
                 name: str = "") -> None:
        self.ctx = ctx
        self.node = node
        #: the node incarnation this port lives and dies with
        self._epoch = node.epoch if node is not None else 0
        self.port_id = next(_port_ids)
        self.name = name or f"port-{self.port_id}"
        self.dead = False
        self._queue: collections.deque[Message] = collections.deque()
        #: receivers in arrival order: ``(process, token)`` for one parked
        #: by :meth:`wait`, ``(event, 0)`` for a :meth:`receive`
        self._waiters: collections.deque[tuple[Event, int]] = \
            collections.deque()
        #: messages dropped because the port was dead (diagnostic)
        self.dropped = 0
        #: the :class:`~repro.kernel.service.Service` that takes every
        #: message this port delivers, or None for a port read with
        #: :meth:`receive`
        self.service: "Service | None" = None

    @property
    def alive(self) -> bool:
        """Not destroyed, and the node is still up in the port's epoch."""
        node = self.node
        return not self.dead and (
            node is None or (node.alive and node.epoch == self._epoch))

    @property
    def queued(self) -> int:
        """Messages delivered but not yet received; a dead port has none."""
        return len(self._queue) if self.alive else 0

    def send(self, message: Message) -> None:
        """Send asynchronously; delivery after the message's primitive time.

        An ``UNCHARGED`` message is delivered at the current instant and no
        primitive is recorded -- used by composite primitives (e.g. a Data
        Server Call) that account for their messages as one unit, exactly
        as the paper's Table 5-1 does.
        """
        if not self.alive:
            self.dropped += 1
            return
        if message.sender_node == "" and self.node is not None:
            message.sender_node = self.node.name
        tracer = self.ctx.tracer
        if tracer is not None:
            message.trace_parent = tracer.context()
            # A datagram rides to the Communication Manager inside a
            # request; it leaves in the context the request does.
            payload = message.body.get("payload")
            if isinstance(payload, Message):
                payload.trace_parent = message.trace_parent
        primitive = message.kind.primitive
        delay = 0.0 if primitive is None else self.ctx.charge(primitive)
        self.ctx.engine.schedule(delay, self._deliver, args=(message,))

    def _deliver(self, message: Message) -> None:
        if not self.alive:
            self.dropped += 1
            return
        if self._waiters:
            # The first receiver takes it, even one whose wait is stale
            # (killed, or its deadline won): that wake-up does nothing.
            waiter, token = self._waiters.popleft()
            if token:
                waiter.wake_last(token, message)  # type: ignore[attr-defined]
            else:
                waiter.succeed_last(message)
            return
        if self.service is not None:
            self.service.deliver(message)
        else:
            self._queue.append(message)

    def receive(self) -> Event:
        """An event yielding the next message (FIFO among waiters), for a
        caller that needs one; a process waits with :meth:`wait`."""
        if not self.alive:
            raise InvalidPort(f"receive on dead port {self.name!r}")
        event = Event(self.ctx.engine, name="recv:" + self.name)
        if self._queue:
            event.succeed(self._queue.popleft())
        else:
            self._waiters.append((event, 0))
        return event

    def wait(self, deadline_ms: float | None = None) -> object:
        """Park the running process for the next message, FIFO among
        waiters, and return what it yields: it resumes with the message,
        or with None once ``deadline_ms`` has passed first."""
        if not self.alive:
            raise InvalidPort(f"receive on dead port {self.name!r}")
        process: Process = self.ctx.engine.active_process  # type: ignore
        token = process.park(deadline_ms)
        if self._queue:
            process.wake(token, self._queue.popleft())
        else:
            self._waiters.append((process, token))
        return PARKED

    def destroy(self) -> None:
        """Kill the port: drop its queue, future sends are discarded."""
        self.dead = True
        self._queue.clear()
        self._waiters.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "dead" if not self.alive else f"{len(self._queue)} queued"
        return f"<Port {self.name!r} {state}>"

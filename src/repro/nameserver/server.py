"""The Name Server process.

Requests on its port:

====================  ========================================================
``ns.register``       map ``name`` to a <port, object id> pair on this node
``ns.deregister``     remove one mapping
``ns.lookup``         resolve ``name``; broadcasts to other Name Servers
                      when the local map cannot satisfy the request
``ns.lookup_remote``  a broadcast query from another node's Name Server
``ns.lookup_reply``   a remote Name Server's answer to our broadcast
====================  ========================================================

Lookups return :class:`~repro.rpc.stubs.ServiceRef` values.  When the
broadcast succeeds, the Communication Managers establish the session between
the requesting node and the serving node as a side effect of the first RPC.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.comm.manager import SERVICE as CM_SERVICE
from repro.comm.network import Network
from repro.kernel.messages import Message
from repro.kernel.node import Node
from repro.kernel.service import Service, handlers_of, respond
from repro.rpc.stubs import ServiceRef
from repro.sim import PARKED, Process

SERVICE = "name_server"

_lookup_ids = itertools.count(1)


@dataclass
class _Registration:
    name: str
    type_name: str
    ref: ServiceRef


@dataclass
class _PendingLookup:
    name: str
    wanted: int
    #: only references on this node count ("" = any node)
    node_name: str = ""
    collected: list[ServiceRef] = field(default_factory=list)
    #: the broadcasting process and its park token
    waiter: tuple[Process, int] | None = None
    #: ``wanted`` references have arrived
    done: bool = False


class NameServer:
    """Per-node name registry with broadcast resolution."""

    def __init__(self, node: Node, network: Network) -> None:
        self.node = node
        self.ctx = node.ctx
        self.network = network
        self.port = node.create_port("ns")
        node.register_service(SERVICE, self.port)
        self._names: dict[str, list[_Registration]] = {}
        self._pending: dict[int, _PendingLookup] = {}
        self.broadcasts = 0
        Service(node, self.port, "ns", handlers_of(self), "name-server")

    # -- registration ------------------------------------------------------------

    def _handle_register(self, message: Message) -> None:
        body = message.body
        ref = ServiceRef(node_name=self.node.name, port=body["port"],
                         object_id=body.get("object_id"),
                         epoch=self.node.epoch, name=body["name"])
        self._names.setdefault(body["name"], []).append(
            _Registration(body["name"], body.get("type", ""), ref))
        respond(message, {"ok": True})

    def _handle_deregister(self, message: Message) -> None:
        body = message.body
        entries = self._names.get(body["name"], [])
        self._names[body["name"]] = [
            r for r in entries
            if not (r.ref.port is body["port"]
                    and r.ref.object_id == body.get("object_id"))]
        respond(message, {"ok": True})

    def _local_refs(self, name: str) -> list[ServiceRef]:
        # Entries whose port died (a failed data-server process) are
        # withdrawn lazily: the abstraction persists, its port does not
        # (Section 3.1.3), and a recovered server re-registers.
        live = [r for r in self._names.get(name, []) if r.ref.port.alive]
        self._names[name] = live
        return [r.ref for r in live]

    # -- lookup ------------------------------------------------------------------

    def _handle_lookup(self, message: Message):
        body = message.body
        wanted = body.get("desired", 1)
        max_wait_ms = body.get("max_wait_ms", 1000.0)
        node_filter = body.get("node_name", "")
        refs = list(self._local_refs(body["name"]))
        if node_filter:
            refs = [r for r in refs if r.node_name == node_filter]
        if len(refs) < wanted:
            # The broadcast also serves node-filtered lookups: the name may
            # live on another node (e.g. re-resolving a stale reference
            # after the serving node restarted).
            refs.extend((yield from self._broadcast_lookup(
                body["name"], wanted - len(refs), max_wait_ms,
                node_filter)))
        respond(message, {"refs": refs[:wanted]})

    def _broadcast_lookup(self, name: str, wanted: int,
                          max_wait_ms: float, node_name: str):
        """Ask every other Name Server; wait for ``wanted`` references
        (on ``node_name``, if given) or the deadline."""
        lookup_id = next(_lookup_ids)
        pending = _PendingLookup(name=name, wanted=wanted,
                                 node_name=node_name)
        self._pending[lookup_id] = pending
        self.broadcasts += 1
        self.ctx.metrics.counter(self.node.name, "ns.broadcasts").inc()
        payload = Message(op="ns.lookup_remote",
                          body={"service": SERVICE, "name": name,
                                "lookup_id": lookup_id,
                                "origin": self.node.name})
        self.node.service(CM_SERVICE).send(
            Message(op="cm.broadcast", body={"payload": payload}))
        process: Process = self.ctx.engine.active_process  # type: ignore
        pending.waiter = (process, process.park(max_wait_ms))
        yield PARKED
        del self._pending[lookup_id]
        return pending.collected

    def _handle_lookup_remote(self, message: Message) -> None:
        """A broadcast query arrived from another node's Name Server."""
        refs = self._local_refs(message.body["name"])
        if not refs:
            return  # only nodes that know the name answer the broadcast
        payload = Message(op="ns.lookup_reply",
                          body={"service": SERVICE,
                                "lookup_id": message.body["lookup_id"],
                                "refs": refs})
        self.node.service(CM_SERVICE).send(
            Message(op="cm.send_datagram",
                    body={"target": message.body["origin"],
                          "payload": payload}))

    def _handle_lookup_reply(self, message: Message) -> None:
        pending = self._pending.get(message.body["lookup_id"])
        if pending is None:
            return  # the lookup already completed or timed out
        # A filtered lookup completes on the named node's answer, not on
        # the first holder's: another copy answering sooner is no answer.
        pending.collected.extend(
            ref for ref in message.body["refs"]
            if not pending.node_name or ref.node_name == pending.node_name)
        if len(pending.collected) >= pending.wanted and not pending.done:
            pending.done = True
            process, token = pending.waiter  # type: ignore[misc]
            process.wake(token, True)

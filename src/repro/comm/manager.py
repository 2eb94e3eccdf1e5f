"""The Communication Manager process.

One runs on every node; it is the only process with network access.  Local
clients reach it through its request port:

=======================  ====================================================
request ``op``           effect
=======================  ====================================================
``cm.send_datagram``     transmit ``body["payload"]`` to ``body["target"]``
``cm.spanning_info``     reply (pointer message) with the commit spanning
                         tree fragment for ``body["tid"]``
``cm.broadcast``         broadcast ``body["payload"]`` to all other nodes
``cm.ack_remote``        Transaction Manager's ack of a remote-transaction
                         notice (bookkeeping only)
=======================  ====================================================

Inbound datagrams are forwarded to the local service named in the payload
(``transaction_manager``, ``name_server``, ...) as small local messages.

The spanning-tree duty (Section 3.2.4): the Communication Manager scans the
transaction identifier of every inter-node message.  It records the node's
parent (the first remote node to invoke an operation here on behalf of the
transaction), whether the transaction was initiated remotely, and the list
of the node's children; and it tells the local Transaction Manager -- once
per transaction -- that remote sites are involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm.network import Network
from repro.comm.sessions import SessionTable
from repro.errors import TransactionAborted
from repro.kernel.costs import Primitive
from repro.kernel.messages import Message, MessageKind
from repro.kernel.node import Node
from repro.kernel.service import Service, handlers_of, respond, spawn_handler
from repro.txn.ids import TransactionID

SERVICE = "communication_manager"


@dataclass
class SpanningRecord:
    """This node's fragment of one transaction's commit spanning tree."""

    parent: str = ""
    #: each child and its epoch when first contacted -- "a small amount of
    #: additional information that is used for detecting some types of node
    #: crashes" (Section 3.2.4): the family reaches a child in one
    #: incarnation only
    child_epochs: dict[str, int] = field(default_factory=dict)
    #: notices already sent to the local Transaction Manager
    tm_told_arrival: bool = False
    tm_told_remote_sites: bool = False
    #: peers whose failure has already been reported to the TM for this
    #: transaction (re-armed if a suspicion turns out to be false)
    failure_told: set[str] = field(default_factory=set)


class CommunicationManager:
    """Datagrams, sessions, broadcast, and spanning-tree recording."""

    def __init__(self, node: Node, network: Network) -> None:
        self.node = node
        self.ctx = node.ctx
        self.network = network
        self.port = node.create_port("cm")
        node.register_service(SERVICE, self.port)
        network.register(node, self)
        self.sessions = SessionTable(network, node.name)
        self._trees: dict[TransactionID, SpanningRecord] = {}
        #: this node's :class:`~repro.comm.failures.FailureDetector`,
        #: attached by the facility layer; its probes bypass the manager
        self.failure_detector = None
        Service(node, self.port, "cm", handlers_of(self),
                "communication-manager")

    # -- requests -----------------------------------------------------------

    def _handle_send_datagram(self, message: Message):
        yield self.ctx.cpu("CM", self.ctx.cpu_costs.cm_datagram)
        target = message.body["target"]
        payload: Message = message.body["payload"]
        payload.sender_node = self.node.name
        # The sender is busy for half the datagram time; the other half is
        # wire latency that overlaps with the sender's next work.  This is
        # exactly the paper's one-half-datagram accounting (Table 5-3).
        time_ms = self.ctx.delay_of(Primitive.DATAGRAM)
        yield time_ms / 2
        self.network.deliver_datagram(target, payload, time_ms / 2)

    def _handle_spanning_info(self, message: Message):
        yield self.ctx.cpu("CM", self.ctx.cpu_costs.cm_datagram)
        record = self._trees.get(message.body["tid"].toplevel,
                                 SpanningRecord())
        respond(message, {"parent": record.parent,
                          "children": sorted(record.child_epochs)},
                kind=MessageKind.POINTER)

    def _handle_broadcast(self, message: Message):
        yield self.ctx.cpu("CM", self.ctx.cpu_costs.cm_datagram)
        payload: Message = message.body["payload"]
        time_ms = self.ctx.delay_of(Primitive.DATAGRAM)
        yield time_ms / 2
        self.network.broadcast_datagram(
            self.node.name,
            lambda _target: Message(op=payload.op, body=dict(payload.body),
                                    reply_to=payload.reply_to,
                                    tid=payload.tid,
                                    sender_node=self.node.name),
            time_ms / 2)

    def _handle_ack_remote(self, message: Message) -> None:
        """Pure bookkeeping: the notice/ack pair is now complete."""

    # -- inbound datagrams -----------------------------------------------------

    def deliver_inbound_datagram(self, message: Message) -> None:
        """Called by the network when a datagram arrives for this node."""
        if not self.node.alive:  # pragma: no cover - network already checks
            return
        spawn_handler(self.node, message, self._forward_inbound(message),
                      "cm:inbound")

    def _forward_inbound(self, message: Message):
        yield self.ctx.cpu("CM", self.ctx.cpu_costs.cm_datagram)
        service = message.body.get("service", "transaction_manager")
        try:
            port = self.node.service(service)
        except Exception:
            return  # target service not up: datagram semantics, drop it
        port.send(message)  # small local message, charged

    # -- spanning-tree recording (called from the RPC session path) -----------

    def record_outbound(self, tid: TransactionID | None, target: str) -> None:
        """An inter-node message for ``tid`` is about to leave this node.

        Refused with :class:`TransactionAborted` -- where it starts, and
        for good -- when ``tid`` or an ancestor of it is in this node's
        abort mark, or when ``target`` is a child the family first reached
        in an earlier incarnation: the family's work there was lost with
        it (docs/PROTOCOL.md "Why an abort reaches every fragment once").
        """
        if tid is None:
            return
        family: TransactionID | None = tid
        while family is not None:
            if family in self.node.aborted:
                raise TransactionAborted(
                    tid, f"{family} aborted on {self.node.name}")
            family = family.parent
        record = self._trees.setdefault(tid.toplevel, SpanningRecord())
        if target != record.parent:
            epoch = self.network.epoch_of(target)
            if record.child_epochs.setdefault(target, epoch) != epoch:
                raise TransactionAborted(
                    tid, f"node {target} restarted since the family "
                    "first called it")
        # The transaction now has sites below this node: the local
        # Transaction Manager must know, whether we are its birth node or
        # an interior node of the spanning tree.
        if not record.tm_told_remote_sites:
            record.tm_told_remote_sites = True
            tm_port = self._tm_port()
            if tm_port is not None:
                tm_port.send(Message(op="tm.remote_sites", tid=tid,
                                     body={"tid": tid}))

    def record_inbound(self, tid: TransactionID | None, source: str) -> None:
        """An inter-node message for ``tid`` just arrived from ``source``."""
        if tid is None:
            return
        key = tid.toplevel
        is_new = key not in self._trees
        record = self._trees.setdefault(key, SpanningRecord())
        if is_new and tid.toplevel.node != self.node.name:
            # First node to ship us the transaction becomes our parent.
            record.parent = source
        if record.parent and not record.tm_told_arrival:
            # A remote-born transaction: the TM must learn of it (and acks,
            # creating its local state for the eventual prepare).
            record.tm_told_arrival = True
            tm_port = self._tm_port()
            if tm_port is not None:
                tm_port.send(Message(
                    op="tm.remote_arrived", tid=tid,
                    body={"tid": tid, "parent_node": record.parent,
                          "reply_service": SERVICE}))

    def _tm_port(self):
        try:
            return self.node.service("transaction_manager")
        except Exception:  # pragma: no cover - TM always up in practice
            return None

    # -- failure notifications (called by the failure detector) ----------------

    def peer_failed(self, peer: str) -> None:
        """A peer is suspected dead: break its session, tell the TM.

        Section 3.2: the Communication Manager reports node failures so the
        Transaction Manager can promptly abort the transactions spanning the
        failed site instead of stalling until vote/ack timeouts.
        """
        self.sessions.break_to(peer)
        self._notify_tm_peer_failed(peer, "failed")

    def peer_restarted(self, peer: str) -> None:
        """A peer restarted (epoch bump): old incarnation's work is gone."""
        self.sessions.break_to(peer)
        self._notify_tm_peer_failed(peer, "restarted")

    def peer_recovered(self, peer: str) -> None:
        """A suspicion proved false: re-arm future failure notifications."""
        for record in self._trees.values():
            record.failure_told.discard(peer)

    def _notify_tm_peer_failed(self, peer: str, event: str) -> None:
        tm_port = self._tm_port()
        if tm_port is None:  # pragma: no cover - TM always up in practice
            return
        for key, record in self._trees.items():
            if peer != record.parent and peer not in record.child_epochs:
                continue
            if (event == "restarted" and record.child_epochs.get(peer)
                    == self.network.epoch_of(peer)):
                continue  # the family first reached the new incarnation
            if peer in record.failure_told:
                continue  # this family was already told about this peer
            record.failure_told.add(peer)
            tm_port.send(Message(
                op="tm.peer_failed", tid=key,
                body={"tid": key, "peer": peer, "event": event,
                      "parent": record.parent,
                      "children": sorted(record.child_epochs)}))

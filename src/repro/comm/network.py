"""The simulated network fabric.

The network connects the Communication Managers of all nodes.  It resolves
node names, reports liveness (a crashed node is simply unreachable -- there
is no oracle beyond failed communication), and carries datagrams with an
optional loss rate for failure-injection tests.  Sessions are layered on
top in :mod:`repro.comm.sessions`.

Fault injection (driven by :mod:`repro.chaos`):

- **Partitions** split the nodes into groups; a datagram whose source and
  target fall in different groups is silently discarded (counted in
  ``datagrams_blocked``) and sessions across the cut break.  ``heal()``
  rejoins the network.
- **Per-link faults** attach a loss / duplication / reordering probability
  to one directed link for a bounded window of simulated time.  All rolls
  come from the cluster's seeded RNG, so a run is exactly reproducible.
- An optional **trace hook** observes every send, arrival, and drop with
  its simulated timestamp; the chaos harness uses it for the determinism
  regression suite.

Failure-detector probes are not datagrams here: they travel between the
detectors over :attr:`Network.heartbeats` (:mod:`repro.comm.failures`),
which this fabric tells of every change that can end its steady state --
a registration, a deregistration, a partition, a node crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.comm.failures import Heartbeats
from repro.errors import CommunicationError
from repro.kernel.context import SimContext
from repro.kernel.messages import Message
from repro.kernel.node import Node

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.manager import CommunicationManager


@dataclass
class LinkFault:
    """Failure behaviour of one directed link for a bounded time window."""

    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    #: extra latency (ms) given to a reordered datagram so later traffic
    #: overtakes it
    reorder_delay_ms: float = 50.0
    #: simulated time after which the fault stops applying (None = forever)
    until: float | None = None

    def active(self, now: float) -> bool:
        return self.until is None or now <= self.until


class Network:
    """Registry of nodes and the datagram transport between them."""

    def __init__(self, ctx: SimContext, datagram_loss_rate: float = 0.0) -> None:
        if not 0.0 <= datagram_loss_rate < 1.0:
            raise CommunicationError(
                f"loss rate {datagram_loss_rate} outside [0, 1)")
        self.ctx = ctx
        self.datagram_loss_rate = datagram_loss_rate
        self._nodes: dict[str, Node] = {}
        self._managers: dict[str, "CommunicationManager"] = {}
        self.datagrams_sent = 0
        self.datagrams_lost = 0
        #: datagrams that reached the target node while it was down -- the
        #: wire worked, the endpoint did not.  Distinct from loss so failure
        #: tests can tell injected drops from crash-window drops.
        self.datagrams_undeliverable = 0
        #: datagrams discarded because a partition separated the endpoints
        self.datagrams_blocked = 0
        self.datagrams_duplicated = 0
        self.datagrams_reordered = 0
        #: partition id per node; None means the network is whole
        self._partition: dict[str, int] | None = None
        self._link_faults: dict[tuple[str, str], LinkFault] = {}
        #: each called as hook(time_ms, event, source, target, op); events
        #: are "send", "recv", "lost", "blocked", "undeliverable", "dup",
        #: "reorder".  A list so the chaos controller and a tracer can
        #: observe the same run without clobbering each other.
        self.trace_hooks: list[Callable[[float, str, str, str, str], None]] \
            = []
        #: per-(node, event) Counter objects, resolved once -- the metrics
        #: registry returns stable objects, so caching skips a dict lookup
        #: plus an f-string per datagram on the hot path
        self._net_counters: dict[tuple[str, str], object] = {}
        #: session identifiers, scoped to this network so two cluster runs
        #: in one process produce identical ids (trace reproducibility)
        self._session_seq = 0
        #: the failure detectors' probe transport
        self.heartbeats = Heartbeats(self)

    def next_session_id(self) -> int:
        self._session_seq += 1
        return self._session_seq

    # -- registry ---------------------------------------------------------------

    def register(self, node: Node,
                 manager: "CommunicationManager") -> None:
        self.heartbeats.break_steady()
        self._nodes[node.name] = node
        self._managers[node.name] = manager
        if self.heartbeats.node_crashed not in node.on_crash:
            node.on_crash.append(self.heartbeats.node_crashed)

    def deregister(self, name: str) -> None:
        """Remove a retired node from the fabric.

        Peers' failure detectors enumerate :meth:`node_names`, so a
        deregistered node stops being probed (and so never becomes a
        permanent suspect); datagrams addressed to it count as
        undeliverable like any unknown endpoint.
        """
        self.heartbeats.break_steady()
        self._nodes.pop(name, None)
        self._managers.pop(name, None)

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise CommunicationError(f"unknown node {name!r}") from None

    def manager(self, name: str) -> "CommunicationManager":
        try:
            return self._managers[name]
        except KeyError:
            raise CommunicationError(f"no Communication Manager registered "
                                     f"for node {name!r}") from None

    def node_names(self) -> list[str]:
        return list(self._nodes)

    def is_up(self, name: str) -> bool:
        node = self._nodes.get(name)
        return node is not None and node.alive

    def epoch_of(self, name: str) -> int:
        return self.node(name).epoch

    def incarnation(self, name: str) -> int | None:
        """The epoch of ``name`` while it is registered and up, else None."""
        node = self._nodes.get(name)
        return node.epoch if node is not None and node.alive else None

    # -- partitions -------------------------------------------------------------

    def partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Split the network: nodes in different groups cannot communicate.

        Nodes not named in any group each land in their own singleton
        partition.  A new partition replaces any existing one.
        """
        mapping: dict[str, int] = {}
        for group_id, group in enumerate(groups):
            for name in group:
                if name not in self._nodes:
                    raise CommunicationError(
                        f"cannot partition unknown node {name!r}")
                if name in mapping:
                    raise CommunicationError(
                        f"node {name!r} appears in two partition groups")
                mapping[name] = group_id
        next_id = len(groups)
        for name in self._nodes:
            if name not in mapping:
                mapping[name] = next_id
                next_id += 1
        self.heartbeats.break_steady()
        self._partition = mapping

    def heal(self) -> None:
        """Remove any partition: every node can reach every other again."""
        self._partition = None

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def reachable(self, source: str, target: str) -> bool:
        """Can a message from ``source`` currently reach ``target``?

        False when the target is down or a partition separates the two.
        An unknown/empty source is treated as unpartitioned (used by
        infrastructure messages that predate fault injection).
        """
        if not self.is_up(target):
            return False
        return not self.separated(source, target)

    def separated(self, source: str, target: str) -> bool:
        """Does the active partition separate ``source`` from ``target``?"""
        if self._partition is None or not source:
            return False
        source_group = self._partition.get(source)
        target_group = self._partition.get(target)
        if source_group is None or target_group is None:
            return False
        return source_group != target_group

    # -- per-link faults ---------------------------------------------------------

    def set_link_fault(self, source: str, target: str,
                       loss: float = 0.0, duplicate: float = 0.0,
                       reorder: float = 0.0,
                       reorder_delay_ms: float = 50.0,
                       until: float | None = None,
                       both_ways: bool = True) -> None:
        """Attach loss/duplication/reordering to a directed link.

        With ``both_ways`` (the default) the reverse direction gets the
        same fault -- the usual model for a flaky physical segment.
        """
        for rate, label in ((loss, "loss"), (duplicate, "duplicate"),
                            (reorder, "reorder")):
            if not 0.0 <= rate <= 1.0:
                raise CommunicationError(
                    f"link {label} rate {rate} outside [0, 1]")
        fault = LinkFault(loss=loss, duplicate=duplicate, reorder=reorder,
                          reorder_delay_ms=reorder_delay_ms, until=until)
        self._link_faults[(source, target)] = fault
        if both_ways:
            self._link_faults[(target, source)] = LinkFault(
                loss=loss, duplicate=duplicate, reorder=reorder,
                reorder_delay_ms=reorder_delay_ms, until=until)

    def clear_link_fault(self, source: str, target: str,
                         both_ways: bool = True) -> None:
        self._link_faults.pop((source, target), None)
        if both_ways:
            self._link_faults.pop((target, source), None)

    def clear_all_link_faults(self) -> None:
        self._link_faults.clear()

    def _link_fault(self, source: str, target: str) -> LinkFault | None:
        fault = self._link_faults.get((source, target))
        if fault is None:
            return None
        if not fault.active(self.ctx.now):
            del self._link_faults[(source, target)]
            return None
        return fault

    # -- tracing -----------------------------------------------------------------

    def add_trace_hook(
            self, hook: Callable[[float, str, str, str, str], None]) -> None:
        """Subscribe to network events; hooks fire in subscription order."""
        self.trace_hooks.append(hook)

    def _trace(self, event: str, source: str, target: str, op: str) -> None:
        node = target if event in ("recv", "undeliverable") else \
            (source or target)
        if node:
            key = (node, event)
            counter = self._net_counters.get(key)
            if counter is None:
                counter = self._net_counters[key] = \
                    self.ctx.metrics.counter(node, "net." + event)
            counter.inc()
        for hook in self.trace_hooks:
            hook(self.ctx.now, event, source, target, op)

    # -- datagram transport -----------------------------------------------------

    def deliver_datagram(self, target: str, message: Message,
                         latency_ms: float, source: str = "") -> None:
        """Queue a datagram for delivery to ``target``'s Communication
        Manager after ``latency_ms``.  Silently dropped when a partition
        blocks the link, the loss roll fails, or the target is down at
        delivery time -- datagram semantics.  Each category has its own
        counter so failure tests can tell the drop modes apart.
        """
        source = source or message.sender_node or ""
        self.datagrams_sent += 1
        self._trace("send", source, target, message.op)
        if self.separated(source, target):
            self.datagrams_blocked += 1
            self._trace("blocked", source, target, message.op)
            return
        if (self.datagram_loss_rate and
                self.ctx.random.random() < self.datagram_loss_rate):
            self.datagrams_lost += 1
            self._trace("lost", source, target, message.op)
            return

        copies = 1
        fault = self._link_fault(source, target) if source else None
        if fault is not None:
            if fault.loss and self.ctx.random.random() < fault.loss:
                self.datagrams_lost += 1
                self._trace("lost", source, target, message.op)
                return
            if fault.duplicate and self.ctx.random.random() < fault.duplicate:
                copies = 2
                self.datagrams_duplicated += 1
                self._trace("dup", source, target, message.op)
            if fault.reorder and self.ctx.random.random() < fault.reorder:
                # Delay this datagram so traffic sent later overtakes it.
                latency_ms += fault.reorder_delay_ms
                self.datagrams_reordered += 1
                self._trace("reorder", source, target, message.op)

        args = (target, message, source)
        for copy in range(copies):
            # A duplicate trails the original slightly, as a retransmitted
            # or doubly-routed packet would.
            self.ctx.engine.schedule(latency_ms * (1 + copy), self._arrive,
                                     args=args)

    def _arrive(self, target: str, message: Message, source: str) -> None:
        """Datagram arrival: bound-method dispatch, no per-send closure."""
        if not self.is_up(target):
            self.datagrams_undeliverable += 1
            self._trace("undeliverable", source, target, message.op)
            return
        self._trace("recv", source, target, message.op)
        self._managers[target].deliver_inbound_datagram(message)

    def broadcast_datagram(self, source: str, message_factory:
                           Callable[[str], Message],
                           latency_ms: float) -> int:
        """Deliver one broadcast to every other live node's manager.

        Returns the number of nodes targeted.  ``message_factory`` builds a
        fresh message per recipient so receivers never share mutable bodies.
        """
        targets = [name for name in self._nodes
                   if name != source and self.is_up(name)]
        for name in targets:
            self.deliver_datagram(name, message_factory(name), latency_ms,
                                  source=source)
            self.datagrams_sent -= 1  # broadcast is one wire transmission
        self.datagrams_sent += 1 if targets else 0
        return len(targets)

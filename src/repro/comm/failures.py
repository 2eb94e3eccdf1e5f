"""Proactive failure detection over the simulated network.

TABS Section 3.2 makes the Communication Manager responsible not just for
intersite sessions but for *reporting node failures* so the Transaction
Manager can promptly abort transactions that span a failed site.  Before
this module, sessions broke only lazily on next use and a spanning
transaction stalled until its vote/ack timeouts expired.

:class:`FailureDetector` closes that gap with a heartbeat/probe loop per
node:

- every ``probe_interval_ms`` it sends an ``fd.ping`` datagram to every
  other known node; live peers answer ``fd.pong``.  Both carry the
  sender's incarnation epoch.
- a peer unheard for ``suspicion_timeout_ms`` is *suspected*: the detector
  tells the Communication Manager (:meth:`CommunicationManager.peer_failed`),
  which breaks the session and uses its spanning records to notify the
  local Transaction Manager per affected transaction family.
- a pong carrying a *higher* epoch means the peer crashed and restarted --
  authoritative crash evidence even if the crash window was shorter than
  the suspicion timeout (:meth:`CommunicationManager.peer_restarted`).
- a pong from a suspected peer with the *same* epoch means the suspicion
  was false (a partition healed, or loss ate the probes): the detector
  counts a false suspicion and re-arms notifications
  (:meth:`CommunicationManager.peer_recovered`).  False suspicions are
  safe -- they can only cause aborts, never wrong commits.

Determinism and cost-model fidelity: the probe loop is a *daemon* --
its ticks and datagrams never keep the engine from quiescing -- and probe
traffic is deliberately **uncharged** (no primitive recorded, no CPU
charged, no ports involved), so the paper's Table 5-1..5-5 accounting is
untouched by heartbeats.  All scheduling is on the seeded engine, so the
same ``(seed, plan)`` yields the same detections at the same instants.

A detector builds its ping and its pong once per incarnation epoch and
sends the same two messages to every peer; one tick's pings, due at one
instant, arrive in one queue entry (:mod:`repro.comm.network`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.kernel.costs import Primitive
from repro.kernel.messages import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.manager import CommunicationManager

#: service name routed by the Communication Manager's inbound dispatch
SERVICE = "failure_detector"

DEFAULT_PROBE_INTERVAL_MS = 250.0
DEFAULT_SUSPICION_TIMEOUT_MS = 1500.0


class PeerHealth:
    """What one detector believes about one peer."""

    __slots__ = ("last_heard", "epoch", "suspected")

    def __init__(self, last_heard: float) -> None:
        self.last_heard = last_heard
        #: incarnation epoch learned from the peer's own probes (None until
        #: first heard -- there is no liveness oracle)
        self.epoch: int | None = None
        self.suspected = False


class FailureDetector:
    """Per-node heartbeat prober and suspicion timer."""

    def __init__(self, manager: "CommunicationManager",
                 probe_interval_ms: float = DEFAULT_PROBE_INTERVAL_MS,
                 suspicion_timeout_ms: float = DEFAULT_SUSPICION_TIMEOUT_MS,
                 observers: list[Callable[[float, str, str, str], None]]
                 | None = None) -> None:
        self.cm = manager
        self.node = manager.node
        self.ctx = manager.ctx
        self.network = manager.network
        self.probe_interval_ms = probe_interval_ms
        self.suspicion_timeout_ms = suspicion_timeout_ms
        #: called as observer(time_ms, local_node, event, peer); events are
        #: "suspect", "restart-observed", "recovered"
        self.observers = observers if observers is not None else []
        self.peers: dict[str, PeerHealth] = {}
        self.failures_detected = 0
        self.false_suspicions = 0
        self._stopped = False
        #: (epoch, ping, pong): this incarnation's probe messages
        self._probes: tuple[int, Message, Message] | None = None
        self._schedule_tick()

    # -- lifecycle ----------------------------------------------------------

    def stop(self) -> None:
        self._stopped = True

    @property
    def _stale(self) -> bool:
        """True once this detector no longer speaks for its node.

        After a crash+rebuild the node registers a fresh Communication
        Manager (with a fresh detector); the old detector's pending tick
        must then fall silent instead of double-probing.
        """
        if self._stopped or not self.node.alive:
            return True
        try:
            return self.network.manager(self.node.name) is not self.cm
        except Exception:  # pragma: no cover - node vanished from registry
            return True

    # -- the probe loop -----------------------------------------------------

    def _schedule_tick(self) -> None:
        self.ctx.engine.schedule(self.probe_interval_ms, self._tick,
                                 daemon=True)

    def _tick(self) -> None:
        if self._stale:
            return
        now = self.ctx.now
        names = self.network.node_names()
        # Forget peers that left the fabric (retired nodes deregister):
        # keeping their PeerHealth around would report them as suspects
        # forever, and pings to them would count as undeliverable noise.
        for peer in [peer for peer in self.peers if peer not in names]:
            del self.peers[peer]
        for peer in names:
            if peer == self.node.name:
                continue
            health = self.peers.get(peer)
            if health is None:
                # Grace: a freshly-learned peer gets a full timeout before
                # it can be suspected.
                health = self.peers[peer] = PeerHealth(last_heard=now)
            if (not health.suspected
                    and now - health.last_heard > self.suspicion_timeout_ms):
                self._suspect(peer, health)
            self._probe(peer, "ping")
        self._schedule_tick()

    def _probe(self, peer: str, kind: str) -> None:
        # Half the datagram time is wire latency (Table 5-3 accounting);
        # count=False keeps heartbeats out of the paper's primitive tables.
        latency = self.ctx.delay_of(Primitive.DATAGRAM, count=False) / 2
        epoch = self.node.epoch
        probes = self._probes
        if probes is None or probes[0] != epoch:
            probes = self._probes = (epoch, self._message("ping", epoch),
                                     self._message("pong", epoch))
        message = probes[1] if kind == "ping" else probes[2]
        self.network.deliver_datagram(peer, message, latency,
                                      source=self.node.name, daemon=True)

    def _message(self, kind: str, epoch: int) -> Message:
        return Message(op=f"fd.{kind}",
                       body={"service": SERVICE, "kind": kind,
                             "origin": self.node.name, "epoch": epoch},
                       sender_node=self.node.name)

    # -- inbound probes (dispatched synchronously by the CM) ----------------

    def on_datagram(self, message: Message) -> None:
        if self._stale:
            return
        origin = message.body.get("origin")
        epoch = message.body.get("epoch")
        if not origin or origin == self.node.name or epoch is None:
            return
        self._observe(origin, epoch)
        if message.body.get("kind") == "ping":
            self._probe(origin, "pong")

    # -- belief updates -----------------------------------------------------

    def _suspect(self, peer: str, health: PeerHealth) -> None:
        health.suspected = True
        self.failures_detected += 1
        self.ctx.meter.bump("failures_detected")
        self._notify("suspect", peer)
        self.cm.peer_failed(peer)

    def _observe(self, peer: str, epoch: int) -> None:
        now = self.ctx.now
        health = self.peers.get(peer)
        if health is None:
            health = self.peers[peer] = PeerHealth(last_heard=now)
        if health.epoch is not None and epoch < health.epoch:
            return  # straggler from a dead incarnation
        restarted = health.epoch is not None and epoch > health.epoch
        health.epoch = epoch
        health.last_heard = now
        if restarted:
            # Authoritative crash evidence, even when the outage was shorter
            # than the suspicion timeout.
            health.suspected = False
            self._notify("restart-observed", peer)
            self.cm.peer_restarted(peer)
        elif health.suspected:
            health.suspected = False
            self.false_suspicions += 1
            self.ctx.meter.bump("false_suspicions")
            self._notify("recovered", peer)
            self.cm.peer_recovered(peer)

    def _notify(self, event: str, peer: str) -> None:
        for observer in self.observers:
            observer(self.ctx.now, self.node.name, event, peer)

    # -- diagnostics --------------------------------------------------------

    def suspects(self) -> list[str]:
        return sorted(peer for peer, health in self.peers.items()
                      if health.suspected)

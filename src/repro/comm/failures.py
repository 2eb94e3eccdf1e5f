"""Proactive failure detection between the nodes.

TABS Section 3.2 makes the Communication Manager responsible not just for
intersite sessions but for *reporting node failures* so the Transaction
Manager can promptly abort transactions that span a failed site.  Before
this module, sessions broke only lazily on next use and a spanning
transaction stalled until its vote/ack timeouts expired.

:class:`FailureDetector` closes that gap with a heartbeat/probe loop per
node:

- every ``probe_interval_ms`` it pings every other registered node; live
  peers answer with a pong.  Both probes carry the sender's incarnation
  epoch.
- a peer unheard for ``suspicion_timeout_ms`` is *suspected*: the detector
  tells the Communication Manager (:meth:`CommunicationManager.peer_failed`),
  which breaks the session and uses its spanning records to notify the
  local Transaction Manager per affected transaction family.
- a probe carrying a *higher* epoch means the peer crashed and restarted --
  authoritative crash evidence even if the crash window was shorter than
  the suspicion timeout (:meth:`CommunicationManager.peer_restarted`).
- a probe from a suspected peer with the *same* epoch means the suspicion
  was false (a partition healed): the detector counts a false suspicion
  and re-arms notifications (:meth:`CommunicationManager.peer_recovered`).
  False suspicions are safe -- they can only cause aborts, never wrong
  commits.

Probes are not datagrams.  :class:`Heartbeats` carries them from one
detector to another, half a datagram time (``L``) after they leave: no
primitive recorded, no CPU charged, no port, no network counter or trace
hook, and no seeded roll -- only a partition (checked when a probe
leaves) and the end of the target's incarnation (a probe is addressed to
the epoch its target had when it left) silence one.  Ticks and probes
are daemon entries, so they never keep the engine from quiescing.  One
tick's pings, due at one instant, arrive in one queue entry, and so do
the pongs they raise.

**A healthy fabric sends no heartbeats.**  The fabric is *steady* while
every registered node is up with a detector, no partition is in force,
and every detector holds every peer at its current epoch, suspects none,
and has heard each recently enough that no tick can suspect it before
its next probe lands.  Then a probe can only move
``PeerHealth.last_heard`` forward, so a tick only records its instant,
takes the sequence number its ping run would have had, and reschedules
itself.  A *break* -- a node crash, :meth:`Network.register`,
:meth:`Network.deregister` or :meth:`Network.partition` -- first makes
the skipped probes real: a ping run still ahead of the running entry is
queued at exactly its reserved key, one already behind it is folded into
``last_heard`` and its pongs still in flight are queued at their due
instant.  Then the explicit protocol runs until the steady
condition holds again at a tick.  docs/SIMULATOR.md gives the argument
for why no simulated number moves.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Callable

from repro.errors import CommunicationError
from repro.kernel.costs import Primitive

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.manager import CommunicationManager
    from repro.comm.network import Network
    from repro.kernel.node import Node

DEFAULT_PROBE_INTERVAL_MS = 250.0
DEFAULT_SUSPICION_TIMEOUT_MS = 1500.0

#: one probe in flight: (kind, source, source epoch, target, the target's
#: epoch when it left -- None when the target was down)
Probe = tuple[str, str, int, str, "int | None"]


class PeerHealth:
    """What one detector believes about one peer."""

    __slots__ = ("last_heard", "epoch", "suspected")

    def __init__(self, last_heard: float) -> None:
        #: while the fabric is steady this lags behind the skipped probes;
        #: :meth:`Heartbeats.break_steady` brings it up to date
        self.last_heard = last_heard
        #: incarnation epoch learned from the peer's own probes (None until
        #: first heard -- there is no liveness oracle)
        self.epoch: int | None = None
        self.suspected = False


class Heartbeats:
    """The detectors' probe transport, and the steady fabric."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.engine = network.ctx.engine
        #: True while ticks skip their probes (module docstring)
        self.steady = False
        #: the detectors of the steady fabric
        self._members: list[FailureDetector] = []
        #: the probes of the entry queued last, while another may still
        #: join them: its due instant, and the engine's sequence number
        #: after it
        self._run: list[Probe] | None = None
        self._run_due = 0.0
        self._run_seq = 0
        self.engine.skipped.append(self.latest_skipped)

    # -- transport ------------------------------------------------------------

    def send(self, kind: str, source: str, epoch: int, target: str,
             latency_ms: float) -> None:
        """Queue one probe, in the run queued last if it may join it: due
        at the same instant with no entry queued since, the two would have
        popped back to back anyway."""
        network = self.network
        if network.separated(source, target):
            return
        probe = (kind, source, epoch, target, network.incarnation(target))
        engine = self.engine
        due = engine.now + latency_ms
        run = self._run
        if (run is not None and due == self._run_due
                and engine.events_scheduled == self._run_seq):
            run.append(probe)
            return
        run = self._run = [probe]
        self._run_due = due
        engine.schedule(latency_ms, self.arrive, daemon=True, args=(run,))
        self._run_seq = engine.events_scheduled

    def arrive(self, run: list[Probe]) -> None:
        """One entry delivers a run of probes in order."""
        if run is self._run:
            self._run = None
        network = self.network
        for kind, source, epoch, target, incarnation in run:
            if incarnation is None or \
                    network.incarnation(target) != incarnation:
                continue  # the incarnation it was addressed to is gone
            detector = network.manager(target).failure_detector
            if detector is not None:
                detector.receive(kind, source, epoch)

    # -- the steady fabric ----------------------------------------------------

    def try_steady(self) -> None:
        """Go steady if the steady condition holds (after a tick that
        probed)."""
        network = self.network
        if network.partitioned:
            return
        names = network.node_names()
        members = []
        for name in names:
            if network.incarnation(name) is None:
                return
            detector = network.manager(name).failure_detector
            heard = None if detector is None else detector.holds(names)
            if heard is None:
                return
            members.append((detector, heard))
        self.steady = True
        self._members = [detector for detector, _ in members]
        for detector, heard in members:
            detector.go_steady(heard)

    def break_steady(self) -> None:
        """Something that can end the steady state is about to happen:
        make the probes the ticks skipped real, and probe explicitly."""
        if not self.steady:
            return
        self.steady = False
        members, self._members = self._members, []
        key = self.engine.running_key
        for detector in members:
            detector.steady = False
        for detector in members:
            detector.materialise(key)

    def latest_skipped(self, deadline: float) -> float:
        """The latest instant, at or before ``deadline``, at which a probe
        run the steady ticks skipped would have landed (``Engine.drain``
        rests the clock there when it gives up, as the explicit run's
        last entry would have left it)."""
        return max((detector.latest_skipped(deadline)
                    for detector in self._members), default=-inf)

    def node_crashed(self, _node: "Node") -> None:
        """``Node.on_crash`` hook of every registered node."""
        self.break_steady()


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
        #: half the datagram time is wire latency (Table 5-3 accounting);
        #: uncharged, so heartbeats stay out of the paper's primitive tables
        self._latency = self.ctx.profile.time_of(Primitive.DATAGRAM) / 2
        #: True while this detector is a member of the steady fabric
        self.steady = False
        #: while steady: every peer was heard at or after this instant
        self._heard = 0.0
        #: while steady: when the pongs of the last tick land
        self._landing = 0.0
        #: the last two steady ticks, oldest first: (instant, the sequence
        #: number of its ping run) or None
        self._ticks: tuple = (None, None)
        self._next_tick = 0.0
        self.network.heartbeats.break_steady()
        self._schedule_tick()

    @property
    def _stale(self) -> bool:
        """True once this detector no longer speaks for its node.

        After a crash+rebuild the node registers a fresh Communication
        Manager (with a fresh detector); the old detector's pending tick
        must then fall silent instead of double-probing.
        """
        if not self.node.alive:
            return True
        try:
            return self.network.manager(self.node.name) is not self.cm
        except CommunicationError:  # the node left the registry
            return True

    # -- the probe loop -----------------------------------------------------

    def _schedule_tick(self) -> None:
        self._next_tick = self.ctx.now + self.probe_interval_ms
        self.ctx.engine.schedule(self.probe_interval_ms, self._tick,
                                 daemon=True)

    def _tick(self) -> None:
        if self.steady:
            now = self.ctx.now
            if self._landing < now:
                self._heard = self._landing
            if self._fresh(now, self._heard):
                self._landing = (now + self._latency) + self._latency
                self._ticks = (self._ticks[1], (
                    now, self.ctx.engine.reserve() if self.peers else None))
                self._schedule_tick()
                return
            self.network.heartbeats.break_steady()
        if self._stale:
            return
        now = self.ctx.now
        names = self.network.node_names()
        # Forget peers that left the fabric (retired nodes deregister):
        # keeping their PeerHealth around would report them as suspects
        # forever.
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
            self._send("ping", peer)
        self._schedule_tick()
        self.network.heartbeats.try_steady()

    def _send(self, kind: str, peer: str) -> None:
        self.network.heartbeats.send(kind, self.node.name, self.node.epoch,
                                     peer, self._latency)

    def receive(self, kind: str, origin: str, epoch: int) -> None:
        """A probe from ``origin``'s detector arrived (at the detector of
        the Communication Manager registered for this node, which is up:
        :meth:`Heartbeats.arrive`)."""
        if self.steady and origin not in self.peers:
            # A straggler from a node that left the fabric adds a peer,
            # which only an explicit tick forgets again.
            self.network.heartbeats.break_steady()
        self._observe(origin, epoch)
        if kind == "ping":
            self._send("pong", origin)

    # -- the steady fabric --------------------------------------------------

    def _fresh(self, tick: float, heard: float) -> bool:
        """Can a tick at ``tick`` suspect no peer heard at or after
        ``heard``?"""
        return tick - heard <= self.suspicion_timeout_ms

    def holds(self, names: list[str]) -> float | None:
        """The instant every peer was last heard by, if this detector
        holds every one of ``names`` at its current epoch, suspects none,
        and no tick can suspect one before the probes of the next tick
        land; else None."""
        if len(self.peers) != len(names) - 1:
            return None
        heard = inf
        for peer in names:
            if peer == self.node.name:
                continue
            health = self.peers.get(peer)
            if (health is None or health.suspected
                    or health.epoch != self.network.incarnation(peer)):
                return None
            heard = min(heard, health.last_heard)
        tick = self._next_tick
        landing = (tick + self._latency) + self._latency
        after = tick + self.probe_interval_ms
        if landing < after and self._fresh(tick, heard) and \
                self._fresh(after, landing):
            return heard
        return None

    def go_steady(self, heard: float) -> None:
        self.steady = True
        self._heard = self._landing = heard
        self._ticks = (None, None)

    def materialise(self, key: tuple[float, float]) -> None:
        """Make real the probes of the steady ticks: a ping run still ahead
        of ``key`` (the running entry) is queued at its reserved key; one
        behind it is folded, and its pongs still in flight are queued at
        their due instant."""
        ticks, self._ticks = self._ticks, (None, None)
        network = self.network
        heartbeats = network.heartbeats
        engine = self.ctx.engine
        name, epoch = self.node.name, self.node.epoch
        peers = [(peer, network.node(peer).epoch,
                  network.manager(peer).failure_detector)
                 for peer in network.node_names() if peer != name]
        for tick in ticks:
            if tick is None or tick[1] is None:
                continue
            instant, seq = tick
            arrival = instant + self._latency
            if (arrival, seq) > key:
                engine.push(arrival, seq, heartbeats.arrive, args=(
                    [("ping", name, epoch, peer, peer_epoch)
                     for peer, peer_epoch, _ in peers],))
                continue
            for _, _, detector in peers:
                detector._heard_at(name, arrival)
            landing = arrival + self._latency
            if (landing, inf) <= key:  # every entry due then has run
                for peer, _, _ in peers:
                    self._heard_at(peer, landing)
            else:
                engine.push(landing, engine.reserve(), heartbeats.arrive,
                            args=([("pong", peer, peer_epoch, name, epoch)
                                   for peer, peer_epoch, _ in peers],))

    def _heard_at(self, peer: str, instant: float) -> None:
        """A skipped probe from ``peer`` landed at ``instant``."""
        health = self.peers[peer]
        health.last_heard = max(health.last_heard, instant)

    def latest_skipped(self, deadline: float) -> float:
        """The latest instant, at or before ``deadline``, at which a probe
        run of this detector's steady ticks would have landed."""
        latest = -inf
        for tick in self._ticks:
            if tick is not None and tick[1] is not None:
                ping = tick[0] + self._latency
                for due in (ping, ping + self._latency):
                    if latest < due <= deadline:
                        latest = due
        return latest

    # -- belief updates -----------------------------------------------------

    def _suspect(self, peer: str, health: PeerHealth) -> None:
        health.suspected = True
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

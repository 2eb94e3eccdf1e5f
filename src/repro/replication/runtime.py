"""Per-node replication runtime: availability view, validation, catch-up.

One :class:`ReplicaRuntime` hangs off each :class:`~repro.core.facility
.TabsNode` when ``config.replication.enabled``.  Like the node's
``fd_observers`` list it is created once and *survives* crash/rebuild
cycles -- the availability view is knowledge about peers, not volatile
node state, and losing it on every local restart would blind commit-time
validation exactly when it matters (a node that restarts mid-run must
still abort transactions that wrote to peers which failed meanwhile).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.replication.server import ReplicatedServerMixin
from repro.replication.view import AvailabilityView, validate_footprint

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.facility import TabsNode
    from repro.replication.placement import PlacementMap

#: how long a prepared 2PC subordinate of a replicated cluster waits
#: before inquiring about the outcome itself.  Tighter than the
#: single-copy default (30 s): a crashed coordinator's in-doubt
#: transactions hold write locks on the *surviving* copies of everything
#: they touched, and those shards stay frozen until the inquiry resolves
#: them -- exactly the outage-by-blocking this subsystem exists to
#: shrink.
PREPARED_INQUIRY_MS = 5_000.0


class ReplicaRuntime:
    """Replication state and hooks for one TABS node."""

    def __init__(self, tabs_node: "TabsNode") -> None:
        self.tabs_node = tabs_node
        self.view = AvailabilityView(tabs_node.name)
        #: assigned by TabsCluster.set_placement once the workload builder
        #: has decided the sharding (property: installing it also primes
        #: the per-shard available-copies gauges)
        self._placement: "PlacementMap | None" = None
        #: placement epoch this node currently routes under; bumped by
        #: :meth:`install_epoch` when online reconfiguration commits a
        #: migration (0 forever when reconfiguration is off)
        self.epoch = 0
        #: key-spaces whose available-copies gauge this node last set --
        #: so a shard migrated *away* zeroes its gauge instead of
        #: reporting a stale copy count forever
        self._gauged: set[str] = set()
        # Order matters: the view must absorb the detector event before
        # the gauge refresh reads it.
        tabs_node.fd_observers.append(self.view.observe)
        tabs_node.fd_observers.append(self._observe_availability)

    @property
    def placement(self) -> "PlacementMap | None":
        return self._placement

    @placement.setter
    def placement(self, placement: "PlacementMap | None") -> None:
        self._placement = placement
        self.refresh_copy_gauges()

    def install_epoch(self, epoch: int, placement: "PlacementMap") -> None:
        """Adopt a new placement epoch (online reconfiguration).

        Refreshes the copy gauges for the new map -- including zeroing
        the gauges of key-spaces that just migrated away -- and records
        the epoch this node now stamps transactions with.
        """
        self.epoch = epoch
        self.placement = placement
        self.tabs_node.ctx.metrics.gauge(
            self.tabs_node.name, "reconfig.placement_epoch").set(epoch)

    def _observe_availability(self, time_ms: float, local_node: str,
                              event: str, peer: str) -> None:
        """``fd_observers`` hook: any availability change moves gauges."""
        if event in ("suspect", "restart-observed", "recovered"):
            self.refresh_copy_gauges()

    def refresh_copy_gauges(self) -> None:
        """Per-shard redundancy as this node sees it:
        ``replication.available_copies[keyspace]`` for each locally
        hosted key-space."""
        if self._placement is None:
            return
        metrics = self.tabs_node.ctx.metrics
        local = self.tabs_node.name
        hosted = self._placement.keyspaces_on(local)
        # A key-space that moved away must not keep reporting its last
        # copy count: zero the gauge it primed while hosted here.
        for keyspace in sorted(self._gauged.difference(hosted)):
            metrics.gauge(
                local, f"replication.available_copies[{keyspace}]").set(0)
        self._gauged = set(hosted)
        for keyspace in hosted:
            copies = len(self.view.available_replicas(self._placement,
                                                      keyspace))
            metrics.gauge(
                local, f"replication.available_copies[{keyspace}]"
            ).set(copies)

    # -- commit-time validation (called by the Transaction Manager) -------------

    def validate(self, footprint: dict) -> str | None:
        """Abort reason for a transaction's replication footprint, or
        None if it may commit."""
        reason = validate_footprint(self.view, self.placement, footprint,
                                    epoch=self.epoch)
        if reason is not None and reason.startswith("placement epoch"):
            self.tabs_node.ctx.metrics.counter(
                self.tabs_node.name, "reconfig.stale_epoch_abort").inc()
        return reason

    # -- recovery hooks (called by TabsNode.recovery_generator) -----------------

    def _replicated(self, server) -> bool:
        # The local-replica check matters under reconfiguration: a node
        # may still host the *orphaned* copy of a key-space that
        # migrated away (or whose migration rolled back) -- placement no
        # longer routes reads here, so neither barrier nor catch-up
        # applies to it.
        return (isinstance(server, ReplicatedServerMixin)
                and self.placement is not None
                and server.name in self.placement
                and self.tabs_node.name
                in self.placement.replicas(server.name)
                and len(self.placement.replicas(server.name)) > 1)

    def mark_catchup_pending(self) -> None:
        """Raise the read barrier on every replicated server -- called
        after a restart re-creates the servers, before they serve."""
        for server in self.tabs_node.servers.values():
            if self._replicated(server):
                server.catchup_pending = True

    def spawn_catchup(self) -> None:
        """Start one catch-up process per pending server -- called once
        crash recovery completes and the node serves requests again."""
        from repro.replication.catchup import catchup_server

        for server in self.tabs_node.servers.values():
            if (isinstance(server, ReplicatedServerMixin)
                    and server.catchup_pending):
                self.tabs_node.node.spawn(
                    catchup_server(self, server),
                    name=f"catchup:{server.name}", defused=True)

"""The cluster-side reconfiguration surface.

One :class:`ReconfigManager` per cluster, anchored on an *originator*
node that hosts the durable
:class:`~repro.reconfig.registry.ReconfigRegistryServer` and drives
every membership and placement change:

- :meth:`join` -- a node boots into the *running* cluster, registers
  with the name fabric, gets discovered by every peer's failure
  detector, and becomes eligible as a migration destination;
- :meth:`run_migration` / :meth:`spawn_migration` -- move one shard via
  a :class:`~repro.reconfig.migration.MigrationCoordinator` (spawned as
  a process *on the originator node*, so an originator crash cuts it
  down at a message boundary exactly like any other victim of the
  fault);
- :meth:`retire` -- drain a node by migrating every shard it hosts to
  the least-loaded eligible peer, then gracefully power it off and
  deregister it from the network fabric;
- :meth:`install_epoch` -- adopt a successor
  :class:`~repro.reconfig.epoch.PlacementEpoch` on the cluster and on
  every live node's replication runtime.  From the simulation's point
  of view this is atomic (no yield between per-node installs), which is
  the simulator's stand-in for an epoch-change broadcast; the *window*
  where it matters -- transactions routed under the old epoch still in
  flight -- is exactly what footprint rule 3 closes;
- :meth:`resolve_pending` -- the recovery hook armed on the originator:
  after a crash, read the registry and either roll the interrupted
  migration forward (its commit sequence was durably bumped) or back
  (it was not).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.app.library import ApplicationLibrary
from repro.errors import TabsError
from repro.reconfig.epoch import PlacementEpoch
from repro.reconfig.migration import MigrationCoordinator
from repro.reconfig.registry import (
    REGISTRY_SERVER,
    ReconfigRegistryServer,
    registry_call,
    unpack_intent,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import TabsCluster
    from repro.core.facility import TabsNode


class ReconfigManager:
    """Online membership and placement changes for one cluster."""

    def __init__(self, cluster: "TabsCluster", originator: str) -> None:
        if not cluster.config.reconfig.enabled:
            raise TabsError("online reconfiguration is disabled "
                            "(set config.reconfig.enabled)")
        if cluster.placement is None:
            raise TabsError("reconfiguration needs a placement map "
                            "(enable replication and build a workload)")
        self.cluster = cluster
        self.originator = originator
        originator_tabs = cluster.node(originator)
        #: called as hook(phase, info) at every migration phase boundary;
        #: the chaos controller arms its migration faults here
        self.phase_hooks: list[Callable] = []
        #: deterministic reconfiguration trace:
        #: (time_ms, phase, keyspace, source, dest, epoch)
        self.events: list[tuple] = []
        # A placement is built by building a workload, which starts the
        # cluster, so the registry always comes up live.
        if REGISTRY_SERVER not in originator_tabs._server_factories:
            cluster.add_server_live(
                originator, ReconfigRegistryServer.factory(REGISTRY_SERVER))
        # Durable resume: after every crash recovery of the originator,
        # consult the registry for a migration the crash cut short.
        originator_tabs.recovery_hooks.append(self.resolve_pending)
        cluster.reconfig = self

    # -- epochs ------------------------------------------------------------------

    def current_epoch(self) -> PlacementEpoch:
        return PlacementEpoch(self.cluster.placement_epoch,
                              self.cluster.placement)

    def install_epoch(self, epoch: PlacementEpoch) -> None:
        """Adopt a successor epoch cluster-wide.

        No yield between per-node installs: the epoch change is atomic in
        simulated time.  In-flight transactions routed under the old
        epoch are caught at commit by footprint rule 3.
        """
        if epoch.epoch <= self.cluster.placement_epoch:
            raise TabsError(
                f"placement epochs only go forward "
                f"({self.cluster.placement_epoch} -> {epoch.epoch})")
        self.cluster.placement = epoch.placement
        self.cluster.placement_epoch = epoch.epoch
        for tabs_node in self.cluster.nodes.values():
            if tabs_node.replication is not None and not tabs_node.retired:
                tabs_node.replication.install_epoch(epoch.epoch,
                                                    epoch.placement)
        self.cluster.metrics.counter(self.originator,
                                     "reconfig.epoch_installs").inc()

    def phase(self, phase: str, info: dict) -> None:
        """Record a migration phase boundary and fire the chaos hooks."""
        self.events.append((self.cluster.ctx.now, phase,
                            info.get("keyspace"), info.get("source"),
                            info.get("dest"),
                            self.cluster.placement_epoch))
        for hook in list(self.phase_hooks):
            hook(phase, info)

    # -- membership --------------------------------------------------------------

    def join(self, name: str) -> "TabsNode":
        """A node joins the running cluster (driver surface).

        The node boots live (see :meth:`TabsCluster.add_node`), peers'
        failure detectors discover it, and it becomes eligible as a
        migration destination.  It hosts no shards until one is migrated
        to it.
        """
        tabs_node = self.cluster.add_node(name)
        self.cluster.settle()
        self.cluster.metrics.counter(self.originator,
                                     "reconfig.nodes_joined").inc()
        return tabs_node

    def retire(self, node_name: str) -> None:
        """Drain and remove a node (driver surface).

        Every shard the node hosts is migrated to the least-loaded
        eligible peer (fewest hosted shards, name as tie-break); a
        migration that fails aborts the retirement with the node still
        in service.  Once drained the node is gracefully powered off
        (flush + log force -- its disk must stand on its own, no
        recovery pass will ever visit it again) and deregistered from
        the network fabric so failure detectors forget it.
        """
        cluster = self.cluster
        if node_name == self.originator:
            raise TabsError("cannot retire the reconfiguration "
                            "originator (it holds the registry)")
        tabs_node = cluster.node(node_name)
        if tabs_node.retired:
            raise TabsError(f"node {node_name!r} is already retired")
        for keyspace in sorted(cluster.placement.keyspaces_on(node_name)):
            dest = self._pick_destination(keyspace, node_name)
            if not self.run_migration(keyspace, node_name, dest):
                raise TabsError(
                    f"migration of {keyspace!r} off {node_name!r} "
                    f"failed; retirement aborted with the node still "
                    f"in service")
        cluster.run_on(node_name, tabs_node.shutdown_generator())
        tabs_node.retired = True
        cluster.network.deregister(node_name)
        cluster.metrics.counter(self.originator,
                                "reconfig.nodes_retired").inc()

    def _pick_destination(self, keyspace: str, retiring: str) -> str:
        """Least-loaded live node that does not already hold the shard."""
        placement = self.cluster.placement
        replicas = placement.replicas(keyspace)
        candidates = [
            name for name, tabs_node in self.cluster.nodes.items()
            if name != retiring and not tabs_node.retired
            and tabs_node.node.alive and name not in replicas]
        if not candidates:
            raise TabsError(f"no eligible destination for {keyspace!r} "
                            f"(retiring {retiring!r})")
        return min(candidates,
                   key=lambda name: (len(placement.keyspaces_on(name)),
                                     name))

    # -- migrations --------------------------------------------------------------

    def spawn_migration(self, keyspace: str, source: str,
                        dest: str) -> MigrationCoordinator:
        """Start a migration as a process on the originator node.

        Returns the coordinator immediately; its ``result`` resolves to
        True (committed) or False (rolled back) when the process
        finishes -- or stays None if the originator crashes mid-flight,
        in which case :meth:`resolve_pending` settles the outcome on
        recovery.
        """
        coordinator = MigrationCoordinator(self, keyspace, source, dest)
        originator_tabs = self.cluster.node(self.originator)
        originator_tabs.node.spawn(
            coordinator.run(),
            name=f"reconfig:migrate:{keyspace}", defused=True)
        return coordinator

    def run_migration(self, keyspace: str, source: str,
                      dest: str) -> bool | None:
        """Run one migration to completion (driver surface)."""
        coordinator = self.spawn_migration(keyspace, source, dest)
        self.cluster.settle()
        return coordinator.result

    # -- crash resume ------------------------------------------------------------

    def resolve_pending(self):
        """Settle a migration the originator's crash cut short
        (generator; armed as a recovery hook).

        The registry answers the only question that matters: did the
        commit sequence reach the intent's sequence number?  Yes means
        the shrink epoch was durably decided -- roll forward by
        re-installing the post-migration map.  No means it was not --
        roll back by re-installing the pre-migration map.  Either way
        the answer is re-installed as a *fresh* epoch (epochs only go
        forward) and the intent is cleared; the resolution is idempotent
        across repeated crashes.
        """
        cluster = self.cluster
        tabs_node = cluster.node(self.originator)
        app = ApplicationLibrary(tabs_node.node, cluster.network)
        state = yield from registry_call(app, self.originator,
                                         "reconfig_state", {})
        intent = unpack_intent(state["intent"])
        if intent is None:
            return
        forward = int(state["seq"]) >= intent["seq"]
        keyspace = intent["keyspace"]
        replicas = (intent["new_replicas"] if forward
                    else intent["old_replicas"])
        if not forward:
            # The destination's partial copy is an orphan: make sure its
            # read barrier is up before placement changes settle (it may
            # have dropped if the crash hit between barrier and commit).
            dest_tabs = cluster.nodes.get(intent["dest"])
            if dest_tabs is not None:
                server = dest_tabs.servers.get(keyspace)
                if server is not None:
                    server.catchup_pending = True
        self.install_epoch(self.current_epoch().with_replicas(keyspace,
                                                              replicas))
        outcome = "resumed-forward" if forward else "resumed-back"
        cluster.metrics.counter(self.originator,
                                f"reconfig.{outcome}").inc()
        self.phase(outcome, dict(intent))
        yield from registry_call(app, self.originator,
                                 "reconfig_set_intent", {"intent": 0})

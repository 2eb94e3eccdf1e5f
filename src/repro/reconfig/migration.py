"""Shard migration as a crash-safe transaction.

Modeled on dist_zero's ``TransactionRole`` pattern: the invariant
("every key-space's committed data is readable at its placed replicas")
is briefly weakened while one shard's topology changes, and every exit
path -- commit, abort, or a crash of any participant -- restores it.
One object runs it, :class:`MigrationCoordinator` on the *originator*
node, owning the durable state via the
:class:`~repro.reconfig.registry.ReconfigRegistryServer`.  The other two
parties need no code of their own: the *source* (the node shedding the
shard) keeps serving reads and writes throughout and answers the
chunked snapshot reads -- it is the authoritative copy until the shrink
epoch drops it; the *destination* (the node gaining it) gets the
key-space's server behind the catch-up read barrier, absorbs the copy
and the live write fan-out, and starts serving only when the barrier
drops.

The phase machine (each boundary fires the manager's phase hooks, which
is where chaos faults land)::

    intent   -- durable intent transaction on the registry (WAL-logged)
    extend   -- install epoch N+1: destination appended to the replica
                tuple; its server exists, barrier up; write_all now fans
                to source AND destination; reads still fail over past
                the barrier to the source
    copy     -- :func:`~repro.replication.catchup.copy_shard`, the loop
                replica catch-up runs (a cell the destination already
                holds gets no apply); each chunk fires a "copy" hook
    barrier  -- destination read barrier drops (it is now current:
                copied prefix + fanned-out live writes)
    commit   -- commit-sequence transaction on the registry, then
                install epoch N+2: source dropped from the tuple
    done     -- intent cleared

Any retryable failure past the copy budget -- source or destination
crashed or partitioned away -- rolls back: install an epoch whose map
content equals the pre-migration one (epochs only go forward) and clear
the intent.  Nothing is lost either way: until the shrink epoch the
source received every committed write, and after it the destination has
the full copy plus the fan-out.  A crash of the *originator* kills the
coordinator process itself; the durable intent lets
:meth:`~repro.reconfig.manager.ReconfigManager.resolve_pending` finish
the job on recovery -- forward iff the commit sequence reached the
intent's sequence number, backward otherwise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.app.library import ApplicationLibrary
from repro.core.cluster import bring_up_server
from repro.errors import TabsError
from repro.reconfig.registry import pack_intent, registry_call
from repro.replication.catchup import (
    RETRYABLE_ERRORS,
    CopyExhausted,
    copy_shard,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.reconfig.manager import ReconfigManager

#: consecutive failures of one copy chunk (or of the destination probe)
#: before the migration rolls back to the old epoch: how long it keeps
#: retrying a source or destination that stays down
COPY_MAX_RETRIES = 6


class MigrationCoordinator:
    """Drives one shard migration on the originator node (generator)."""

    def __init__(self, manager: "ReconfigManager", keyspace: str,
                 source: str, dest: str) -> None:
        cluster = manager.cluster
        replicas = cluster.placement.replicas(keyspace)
        if source not in replicas:
            raise TabsError(f"{source!r} holds no copy of {keyspace!r}")
        if dest in replicas:
            raise TabsError(f"{dest!r} already holds {keyspace!r}")
        if cluster.node(dest).retired:
            raise TabsError(f"cannot migrate to retired node {dest!r}")
        self.manager = manager
        self.keyspace = keyspace
        self.source = source
        self.dest = dest
        self.old_replicas = replicas
        # The destination takes the source's position in the ordered
        # tuple, inheriting anchor duty if the source was the anchor --
        # read-for-update serialization keeps a single home site.
        self.new_replicas = tuple(dest if node == source else node
                                  for node in replicas)
        self.seq = 0  # assigned from the registry when the run starts
        #: None while running; True committed; False rolled back
        self.result: bool | None = None
        self._tabs = cluster.node(manager.originator)
        self._app = ApplicationLibrary(self._tabs.node, cluster.network)
        self._ctx = self._tabs.ctx

    def _registry(self, op: str, body: dict):
        """One WAL-logged transaction against the originator's registry
        (generator)."""
        return registry_call(self._app, self.manager.originator, op, body)

    # -- the destination copy ----------------------------------------------------

    def _dest_server(self):
        """The destination's server for the key-space, or None (not yet
        materialized, or the node is mid-restart)."""
        return self.manager.cluster.node(self.dest).servers.get(
            self.keyspace)

    def _set_barrier(self, pending: bool) -> None:
        server = self._dest_server()
        if server is not None:
            server.catchup_pending = pending

    def _ensure_dest_server(self):
        """Materialize the key-space's server on the destination behind
        the read barrier (generator), from the source's factory --
        identical schema and scale.  Re-entrant: a re-migration to a
        node that already holds an orphaned copy just re-raises the
        barrier -- the versioned copy loop brings it current again."""
        cluster = self.manager.cluster
        tabs_node = cluster.node(self.dest)
        if self.keyspace in tabs_node._server_factories:
            self._set_barrier(True)
            return
        tabs_node.add_server(
            cluster.node(self.source)._server_factories[self.keyspace])
        self._set_barrier(True)
        yield from bring_up_server(self._dest_server())

    # -- the protocol ------------------------------------------------------------

    def _info(self, **extra) -> dict:
        info = {"keyspace": self.keyspace,
                "source": self.source,
                "dest": self.dest,
                "originator": self.manager.originator,
                "seq": self.seq}
        info.update(extra)
        return info

    def run(self):
        """The full migration (generator; spawn on the originator node so
        an originator crash kills it at the current message boundary)."""
        ctx = self._ctx
        local = self.manager.originator
        ctx.metrics.counter(local, "reconfig.migrations_started").inc()
        with ctx.span("reconfig.migrate", local, "RECONFIG",
                      keyspace=self.keyspace, source=self.source,
                      dest=self.dest) as span:
            try:
                committed = yield from self._attempt()
            except RETRYABLE_ERRORS + (CopyExhausted,):
                yield from self._rollback()
                committed = False
            self.result = committed
            span.set(committed=committed)
            return committed

    def _attempt(self):
        manager = self.manager
        state = yield from self._registry("reconfig_state", {})
        self.seq = int(state["seq"]) + 1
        intent = pack_intent(self.keyspace, self.source, self.dest,
                             self.old_replicas, self.new_replicas, self.seq)
        yield from self._registry("reconfig_set_intent", {"intent": intent})
        manager.phase("intent", self._info())

        # Extend: the destination's server must exist (barrier up)
        # before the epoch that fans writes to it is installed.
        yield from self._ensure_dest_server()
        manager.install_epoch(manager.current_epoch().with_replicas(
            self.keyspace, self.old_replicas + (self.dest,)))
        manager.phase("extend", self._info())

        yield from self._copy()
        self._set_barrier(False)
        manager.phase("barrier", self._info())

        # Commit: the durable decision, then the shrink epoch.
        yield from self._registry("reconfig_commit", {"seq": self.seq})
        manager.install_epoch(manager.current_epoch().with_replicas(
            self.keyspace, self.new_replicas))
        manager.phase("commit", self._info())

        yield from self._registry("reconfig_set_intent", {"intent": 0})
        manager.phase("done", self._info())
        self._ctx.metrics.counter(self.manager.originator,
                                  "reconfig.migrations_committed").inc()
        return True

    def _copy(self):
        """The shard copy, source into destination (generator): the
        catch-up loop, twice over and probing.  Past the retry budget
        it raises and the migration rolls back.

        *Two* full passes: during the first, writers that cannot reach
        the destination (crashed, partitioned away, or simply suspected
        by the writer's failure detector) may commit on the source alone
        -- write-all-*available* semantics.  Those cells are newer on
        the source than anywhere else, and the shrink epoch is about to
        drop the source from the map; without a second pass they would
        be durably committed yet unreachable.  And every pass ends with
        a listing round trip *to the destination* -- an empty key-space
        copies zero chunks, so without the probe a dead destination
        would never be noticed and the barrier would drop on a copy
        nobody can serve.
        """
        view = self._tabs.replication.view
        return copy_shard(
            self._app, self.keyspace, self.source, self.dest,
            # A suspected source may be a false suspicion (partition
            # healing), and a crashed destination may restart: not
            # ready burns a retry rather than rolling back outright.
            ready=lambda: (view.available(self.source)
                           and self._dest_server() is not None),
            max_retries=COPY_MAX_RETRIES, passes=2, probe=True,
            on_chunk=lambda chunk: self.manager.phase(
                "copy", self._info(chunk=chunk)))

    def _rollback(self):
        """Restore the pre-migration map (as a fresh epoch) and clear the
        durable intent.  The destination's orphaned copy keeps its read
        barrier up -- nothing routes to it, and a retried migration
        re-uses it as a warm start (versioned cells merge safely)."""
        manager = self.manager
        self._set_barrier(True)
        manager.install_epoch(manager.current_epoch().with_replicas(
            self.keyspace, self.old_replicas))
        self._ctx.metrics.counter(self.manager.originator,
                                  "reconfig.migrations_rolled_back").inc()
        manager.phase("rolled-back", self._info())
        yield from self._registry("reconfig_set_intent", {"intent": 0})

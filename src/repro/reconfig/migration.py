"""Shard migration as a crash-safe transaction.

Modeled on dist_zero's ``TransactionRole`` pattern: the invariant
("every key-space's committed data is readable at its placed replicas")
is briefly weakened while per-node roles cooperate to change the
topology, and every exit path -- commit, abort, or a crash of any
participant -- restores it.  Three roles move one shard:

- :class:`MigrationCoordinator` (on the *originator* node) drives the
  protocol and owns its durable state via the
  :class:`~repro.reconfig.registry.ReconfigRegistryServer`;
- :class:`SourceRole` (the node shedding the shard) keeps serving reads
  and writes throughout and answers the chunked snapshot reads -- it is
  the authoritative copy until the shrink epoch drops it;
- :class:`DestinationRole` (the node gaining the shard) materializes
  the key-space's server behind the catch-up read barrier, absorbs the
  copy and the live write fan-out, and starts serving only when the
  barrier drops.

The phase machine (each boundary fires the manager's phase hooks, which
is where chaos faults land)::

    intent   -- durable intent transaction on the registry (WAL-logged)
    extend   -- install epoch N+1: destination appended to the replica
                tuple; its server exists, barrier up; write_all now fans
                to source AND destination; reads still fail over past
                the barrier to the source
    copy     -- chunked snapshot/apply loop reusing the replication
                catch-up machinery (versioned cells make re-applies
                no-ops); each applied chunk fires a "copy" hook
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
from repro.replication.catchup import (
    CATCHUP_CHUNK_CELLS,
    _RETRYABLE_ERRORS,
    _apply_local,
    _list_peer,
    _snapshot_peer,
)
from repro.reconfig.registry import pack_intent, registry_call
from repro.sim import Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.reconfig.manager import ReconfigManager


class MigrationRollback(Exception):
    """Internal: the migration cannot proceed and must roll back."""


class SourceRole:
    """The shedding node: authoritative until the shrink epoch."""

    def __init__(self, manager: "ReconfigManager", keyspace: str,
                 node_name: str) -> None:
        self.manager = manager
        self.keyspace = keyspace
        self.node_name = node_name

    def server_exists(self) -> bool:
        tabs_node = self.manager.cluster.node(self.node_name)
        return self.keyspace in tabs_node.servers

    def factory(self):
        """The key-space's server factory (re-used to materialize the
        destination copy with identical schema and scale)."""
        tabs_node = self.manager.cluster.node(self.node_name)
        return tabs_node._server_factories[self.keyspace]


class DestinationRole:
    """The gaining node: barrier up until the copy completes."""

    def __init__(self, manager: "ReconfigManager", keyspace: str,
                 node_name: str) -> None:
        self.manager = manager
        self.keyspace = keyspace
        self.node_name = node_name

    @property
    def tabs_node(self):
        return self.manager.cluster.node(self.node_name)

    def server(self):
        return self.tabs_node.servers.get(self.keyspace)

    def ensure_server(self, source: SourceRole):
        """Materialize the key-space's server behind the read barrier
        (generator).  Re-entrant: a re-migration to a node that already
        holds an orphaned copy just re-raises the barrier -- the
        versioned copy loop brings it current again."""
        tabs_node = self.tabs_node
        if self.keyspace not in tabs_node._server_factories:
            tabs_node.add_server(source.factory())
            server = tabs_node.servers[self.keyspace]
            server.catchup_pending = True
            yield from server.setup()
            yield from server.on_recovered()
            server.start()
        else:
            server = self.server()
            if server is not None:
                server.catchup_pending = True
        return self.server()

    def set_barrier(self, pending: bool) -> None:
        server = self.server()
        if server is not None:
            server.catchup_pending = pending


class MigrationCoordinator:
    """Drives one shard migration on the originator node (generator)."""

    def __init__(self, manager: "ReconfigManager", keyspace: str,
                 source: str, dest: str) -> None:
        cluster = manager.cluster
        placement = cluster.placement
        replicas = placement.replicas(keyspace)
        from repro.errors import TabsError

        if source not in replicas:
            raise TabsError(f"{source!r} holds no copy of {keyspace!r}")
        if dest in replicas:
            raise TabsError(f"{dest!r} already holds {keyspace!r}")
        if cluster.node(dest).retired:
            raise TabsError(f"cannot migrate to retired node {dest!r}")
        self.manager = manager
        self.keyspace = keyspace
        self.source_role = SourceRole(manager, keyspace, source)
        self.dest_role = DestinationRole(manager, keyspace, dest)
        self.old_replicas = replicas
        # The destination takes the source's position in the ordered
        # tuple, inheriting anchor duty if the source was the anchor --
        # read-for-update serialization keeps a single home site.
        self.new_replicas = tuple(dest if node == source else node
                                  for node in replicas)
        self.seq = 0  # assigned from the registry when the run starts
        #: None while running; True committed; False rolled back
        self.result: bool | None = None
        originator = manager.originator
        self._tabs = cluster.node(originator)
        self._app = ApplicationLibrary(self._tabs.node, cluster.network)
        self._ctx = self._tabs.ctx

    # -- registry transactions ---------------------------------------------------

    def _registry(self, op: str, body: dict):
        """One WAL-logged transaction against the originator's registry
        (generator)."""
        reply = yield from registry_call(self._app, self.manager.originator,
                                         op, body)
        return reply

    # -- the protocol ------------------------------------------------------------

    def _info(self, **extra) -> dict:
        info = {"keyspace": self.keyspace,
                "source": self.source_role.node_name,
                "dest": self.dest_role.node_name,
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
                      keyspace=self.keyspace,
                      source=self.source_role.node_name,
                      dest=self.dest_role.node_name) as span:
            try:
                committed = yield from self._attempt()
            except _RETRYABLE_ERRORS + (MigrationRollback,):
                yield from self._rollback()
                committed = False
            self.result = committed
            span.set(committed=committed)
            return committed

    def _attempt(self):
        manager = self.manager
        state = yield from self._registry("reconfig_state", {})
        self.seq = int(state["seq"]) + 1
        intent = pack_intent(self.keyspace, self.source_role.node_name,
                             self.dest_role.node_name, self.old_replicas,
                             self.new_replicas, self.seq)
        yield from self._registry("reconfig_set_intent", {"intent": intent})
        manager.phase("intent", self._info())

        # Extend: the destination's server must exist (barrier up)
        # before the epoch that fans writes to it is installed.
        yield from self.dest_role.ensure_server(self.source_role)
        manager.install_epoch(manager.current_epoch().with_replicas(
            self.keyspace, self.old_replicas
            + (self.dest_role.node_name,)))
        manager.phase("extend", self._info())

        yield from self._copy()
        self.dest_role.set_barrier(False)
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
        """Chunked snapshot/apply from source into the destination copy,
        reusing the replication catch-up helpers.  Retries transient
        failures; past the budget the migration rolls back.

        The copy runs *two* full passes.  During the first, writers that
        cannot reach the destination (crashed, partitioned away, or
        simply suspected by the writer's failure detector) may commit on
        the source alone -- write-all-*available* semantics.  Those
        cells are newer on the source than anywhere else, and the shrink
        epoch is about to drop the source from the map; without a second
        pass they would be durably committed yet unreachable.  The
        second pass re-lists the source and re-copies (versioned cells
        make already-current chunks cheap no-ops), and every pass ends
        with a listing round trip *to the destination* -- an empty
        key-space copies zero chunks, so without the probe a dead
        destination would never be noticed and the barrier would drop on
        a copy nobody can serve.
        """
        manager = self.manager
        ctx = self._ctx
        config = manager.cluster.config
        reconfig = config.reconfig
        replication = config.replication
        source = self.source_role.node_name
        dest = self.dest_role.node_name
        view = self._tabs.replication.view
        attempt = 0
        passes = 0
        offsets: list[int] | None = None
        start = 0
        chunk_index = 0
        while True:
            if attempt:
                if attempt >= reconfig.copy_max_retries:
                    raise MigrationRollback(
                        f"copy of {self.keyspace!r} from {source!r} "
                        f"exhausted {attempt} retries")
                yield Timeout(ctx.engine,
                              ctx.random.uniform(0.5, 1.0)
                              * reconfig.copy_retry_ms * attempt)
            dest_server = self.dest_role.server()
            if not view.available(source) or dest_server is None:
                # A suspected source may be a false suspicion (partition
                # healing), and a crashed destination may restart: burn a
                # retry rather than rolling back outright.
                attempt += 1
                continue
            try:
                if offsets is None:
                    offsets = yield from _list_peer(
                        self._app, self.keyspace, source, replication)
                while start < len(offsets):
                    chunk = offsets[start:start + CATCHUP_CHUNK_CELLS]
                    cells = yield from _snapshot_peer(
                        self._app, self.keyspace, source, chunk,
                        replication)
                    yield from _apply_local(self._app, dest_server, cells,
                                            replication)
                    start += CATCHUP_CHUNK_CELLS
                    attempt = 0  # forward progress refreshes the budget
                    chunk_index += 1
                    manager.phase("copy", self._info(chunk=chunk_index))
                yield from _list_peer(self._app, self.keyspace, dest,
                                      replication)
            except _RETRYABLE_ERRORS:
                attempt += 1
                continue
            passes += 1
            if passes >= 2:
                return
            offsets = None  # second pass: pick up writes the fan-out missed
            start = 0

    def _rollback(self):
        """Restore the pre-migration map (as a fresh epoch) and clear the
        durable intent.  The destination's orphaned copy keeps its read
        barrier up -- nothing routes to it, and a retried migration
        re-uses it as a warm start (versioned cells merge safely)."""
        manager = self.manager
        self.dest_role.set_barrier(True)
        manager.install_epoch(manager.current_epoch().with_replicas(
            self.keyspace, self.old_replicas))
        self._ctx.metrics.counter(self.manager.originator,
                                  "reconfig.migrations_rolled_back").inc()
        manager.phase("rolled-back", self._info())
        yield from self._registry("reconfig_set_intent", {"intent": 0})

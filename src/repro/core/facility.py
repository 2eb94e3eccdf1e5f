"""One TABS node: the four system processes plus user data servers.

The component inventory mirrors Figure 3-1: applications and data servers
above; Name Server, Communication Manager, Recovery Manager, and
Transaction Manager as the TABS system components; the (simulated) Accent
kernel below.  The node's durable state -- its disk and its non-volatile
log store -- survives :meth:`crash`; everything else is rebuilt by
:meth:`restart` followed by crash recovery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.comm.failures import FailureDetector
from repro.comm.manager import CommunicationManager
from repro.comm.network import Network
from repro.errors import TabsError
from repro.kernel.context import SimContext
from repro.kernel.node import Node
from repro.kernel.service import request
from repro.nameserver.server import NameServer
from repro.recovery.archive import Archive
from repro.recovery.driver import (
    RecoveryReport,
    in_doubt_footprint,
    recover_node,
)
from repro.recovery.manager import (
    RecoveryManager,
    RecoveryManagerClient,
    RmPagerClient,
)
from repro.recovery.supervisor import RecoverySupervisor
from repro.replication.runtime import PREPARED_INQUIRY_MS, ReplicaRuntime
from repro.txn.manager import SERVICE as TM_SERVICE
from repro.txn.manager import TransactionManager
from repro.wal.store import LogStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import TabsConfig

#: base virtual address of the first recoverable segment on a node; further
#: segments are laid out above it
SEGMENT_BASE_VA = 0x1000_0000
SEGMENT_VA_STRIDE = 0x0100_0000


class TabsNode:
    """The TABS facilities on one simulated workstation."""

    def __init__(self, ctx: SimContext, network: Network, name: str,
                 config: "TabsConfig") -> None:
        self.ctx = ctx
        self.network = network
        self.name = name
        self.config = config
        #: durable across restarts (the log lives on the node's disk)
        self.log_store = LogStore(config.log_capacity_records)
        #: the off-line archive (Section 2.1.3); survives even disk loss
        self.archive = Archive()
        self._server_factories: dict[str, Callable] = {}
        self._next_va = SEGMENT_BASE_VA
        self._segment_vas: dict[str, int] = {}
        self.node: Node | None = None
        self.last_recovery: RecoveryReport | None = None
        #: failure-detector observers; the list survives rebuilds so chaos
        #: tracing hooks keep observing across crash/recovery cycles
        self.fd_observers: list = []
        #: generator factories spawned after every crash recovery (e.g. a
        #: reconfiguration manager resolving a migration the crash cut
        #: short); survives rebuilds like ``fd_observers``
        self.recovery_hooks: list[Callable] = []
        #: a retired node left the cluster for good: it is powered off,
        #: deregistered from the network, and repair/finale sweeps must
        #: not restart it
        self.retired = False
        #: available-copies replication runtime; like ``fd_observers`` it
        #: survives rebuilds (the availability view is knowledge about
        #: peers, not volatile local state).  None when replication is off.
        self.replication = None
        if config.replication.enabled:
            self.replication = ReplicaRuntime(self)
        self._build()
        #: self-healing: recovery now runs off Node.on_restart, unattended
        self.supervisor = RecoverySupervisor(self)

    # -- construction -------------------------------------------------------------

    def _build(self) -> None:
        if self.node is None:
            self.node = Node(self.ctx, self.name,
                             vm_capacity_pages=self.config.vm_capacity_pages)
        self.cm = CommunicationManager(self.node, self.network)
        self.cm.failure_detector = FailureDetector(
            self.cm,
            probe_interval_ms=self.config.probe_interval_ms,
            suspicion_timeout_ms=self.config.suspicion_timeout_ms,
            observers=self.fd_observers)
        self.ns = NameServer(self.node, self.network)
        self.rm = RecoveryManager(self.node, store=self.log_store,
                                  commit=self.config.commit)
        self.tm = TransactionManager(self.node,
                                     RecoveryManagerClient(self.node))
        # Inbound protocol traffic (a peer's prompt abort, an outcome
        # query) must not race the log replay below; the gate opens at
        # the end of setup_generator once the node is consistent.
        self.tm.hold_messages_until_recovered()
        self.tm.checkpoint_every_commits = \
            self.config.checkpoint_every_commits
        if self.replication is not None:
            self.tm.replication_validator = self.replication.validate
            # A dead coordinator's in-doubt locks freeze the surviving
            # replica copies it wrote; inquire early to unfreeze them.
            self.tm.prepared_inquiry_ms = PREPARED_INQUIRY_MS
            # Don't await 2PC acks from peers the availability view has
            # down: they cannot answer, and the wait freezes the client.
            view = self.replication.view
            self.tm.peer_down_probe = \
                lambda peer: not view.available(peer)
        self.node.vm.pager_client = RmPagerClient(self.node)
        #: name -> live data-server objects (BaseDataServer instances)
        self.servers: dict[str, object] = {}

    def allocate_segment_va(self, segment_id: str = "") -> int:
        """Carve out address space for one more recoverable segment.

        Keyed by segment id: a recovered server re-maps its segment at
        the same virtual address, so object ids stay stable.
        """
        if segment_id and segment_id in self._segment_vas:
            return self._segment_vas[segment_id]
        va = self._next_va
        self._next_va += SEGMENT_VA_STRIDE
        if segment_id:
            self._segment_vas[segment_id] = va
        return va

    # -- server management ------------------------------------------------------------

    def add_server(self, factory: Callable) -> None:
        """Register a data-server factory: ``factory(tabs_node) -> server``.

        The factory is kept so the server can be re-instantiated after a
        crash (the abstraction is permanent even though its ports change,
        Section 3.1.3).
        """
        server = factory(self)
        if server.name in self._server_factories:
            raise TabsError(f"server {server.name!r} already exists on "
                            f"node {self.name!r}")
        self._server_factories[server.name] = factory
        self.servers[server.name] = server

    def setup_generator(self):
        """Bring every server up: map, attach, recover, serve (generator)."""
        for server in self.servers.values():
            yield from server.setup()
        report = yield from recover_node(
            self.rm, self.tm,
            {name: server.library for name, server in self.servers.items()},
            self.archive,
            [server.segment_id for server in self.servers.values()])
        self.last_recovery = report
        for server in self.servers.values():
            yield from server.on_recovered()
        for server in self.servers.values():
            server.start()
        self.tm.recovery_complete()
        return report

    # -- failure model -----------------------------------------------------------------

    def crash(self) -> None:
        """Power failure: kill the node; disk and durable log survive."""
        self.rm.crash()
        self.node.crash()
        self.servers = {}

    def shutdown_generator(self):
        """Graceful power-off (generator): flush dirty pages and force the
        log so the disk image is consistent, then cut power.

        Used by node retirement -- unlike :meth:`crash`, a retired node's
        disk must stand on its own because no recovery pass will ever
        reconcile it with the log again.
        """
        yield from self.node.vm.flush_all()
        yield from self.rm.wal.force()
        self.crash()

    def restart_generator(self):
        """Restart + crash recovery (generator).  Run it on the engine.

        Thin wrapper: powering the node on fires the
        :class:`RecoverySupervisor`, which drives the recovery itself;
        this generator merely awaits that process and returns its report.
        After :meth:`media_failure` this is media recovery: the scrub
        rebuilds every destroyed page.
        """
        self.node.restart()
        report = yield self.supervisor.recovery_process
        return report

    def recovery_generator(self):
        """Rebuild the system processes and run crash recovery (generator).

        Spawned by the :class:`RecoverySupervisor` the moment the kernel
        node restarts; assumes the node itself is already powered on.
        """
        self._build()
        if not self.archive.empty:
            self.rm.media_retention_lsn = self.archive.retain_from_lsn
        for factory in self._server_factories.values():
            server = factory(self)
            self.servers[server.name] = server
        if self.replication is not None:
            # The read barrier must be up before the servers accept
            # requests: log replay restores durable state, not the
            # writes peers committed while this node was down.
            self.replication.mark_catchup_pending()
        report = yield from self.setup_generator()
        if self.replication is not None:
            self.replication.spawn_catchup()
        for index, hook in enumerate(self.recovery_hooks):
            self.node.spawn(hook(), name=f"recovery-hook:{index}",
                            defused=True)
        return report

    # -- archive dumps and media recovery (the Section 7 extension) -------------

    def archive_dump_generator(self):
        """Dump every attached segment's non-volatile image (generator).

        "Systems infrequently dump the contents of non-volatile storage
        into an off-line archive" (Section 2.1.3).  Forces dirty pages and
        the log first, so the dump is complete up to ``archive_lsn``.
        """
        # Read before the flush: it steals the uncommitted values of
        # whatever is in flight from here on into the page images, and
        # a transaction that aborts while it runs is in no table after.
        retain_from = self.rm.undo_horizon()
        yield from self.node.vm.flush_all()
        yield from self.rm.wal.force()
        segment_ids = [server.segment_id
                       for server in self.servers.values()]
        self.archive.dump(self.node.disk, segment_ids,
                          self.rm.wal.flushed_lsn, retain_from)
        self.rm.media_retention_lsn = self.archive.retain_from_lsn
        return self.archive.archive_lsn

    def media_failure(self, segment_ids: list[str]) -> int:
        """A disk failure destroys the named segments (node must be down:
        losing the disk takes the system with it).  Returns pages lost;
        the next restart's scrub rebuilds them (``page_base``)."""
        if self.node.alive:
            raise TabsError("crash the node before failing its disk")
        return sum(self.node.disk.wipe_segment(segment_id)
                   for segment_id in segment_ids)

    # -- single-server recovery (the Section 7 extension) ----------------------------------

    def fail_server(self, name: str) -> None:
        """Kill one data-server process; the node stays up.

        The paper's Conclusions ask that TABS "be extended to permit the
        recovery of a single server without the recovery of the entire
        node"; :meth:`recover_server` is that extension's other half.
        """
        server = self.servers.pop(name)
        server.library.fail()

    def recover_server_generator(self, name: str):
        """Re-create one failed data server and recover it (generator).

        The segment and the common log are intact (the node never went
        down), so there is nothing to replay; what the dead process lost
        was its volatile state.  Recovery therefore: re-creates the
        process at the same segment address, aborts every non-prepared
        transaction that had joined it (their locks and buffered state
        are gone), and re-acquires the locks of its in-doubt prepared
        transactions from the durable log.
        """
        from repro.recovery.analysis import analyze

        server = self._server_factories[name](self)
        self.servers[name] = server
        yield from server.setup()
        self.tm.rebind_server_port(name, server.library.port)

        # In-doubt transactions: restore their locks before anything runs.
        records = self.rm.wal.read_forward(
            self.rm.wal.store.truncated_before)
        plan = analyze(records)
        held, _chains = in_doubt_footprint(plan, records,
                                           {name: server.library})
        for tid, status_record in plan.prepared.items():
            if name in status_record.servers:
                server.library.relock_prepared(
                    tid, held.get(tid, {}).get(name, {}))

        # The request loop must run before the aborts: the Recovery
        # Manager's undo instructions arrive on the new port.
        server.start()

        # Everything else this server had joined lost its locks: abort.
        for tid in self.tm.transactions_with_server(name):
            yield from request(
                self.node, self.node.service(TM_SERVICE), "tm.abort",
                {"tid": tid, "reason": f"data server {name!r} failed"},
                reply="sr-abort")

        yield from server.on_recovered()
        return server

    # -- introspection ---------------------------------------------------------------------

    def component_inventory(self) -> dict[str, str]:
        """The Figure 3-1 component map, programmatically."""
        inventory = {
            "name_server": "name dissemination",
            "communication_manager": "network communication",
            "recovery_manager": "recovery and log management",
            "transaction_manager": "transaction management",
        }
        for name in self.servers:
            inventory[name] = "data server"
        return inventory

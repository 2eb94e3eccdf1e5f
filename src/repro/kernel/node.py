"""The simulated workstation: one Accent node.

A node owns a disk (non-volatile), a virtual-memory page cache (volatile),
its live processes, and its ports.  :meth:`Node.crash` models a Perq power
failure: every process is killed, every port dies, and all volatile state
is lost, while the disk (recoverable segments and the non-volatile log)
survives.  :meth:`Node.restart` brings the node back with a new *epoch*;
the facility layer then re-creates the TABS system processes and runs
crash recovery.  The node keeps no list of its ports: each is alive only
while the node is up in the epoch the port was made in, so a crash kills
them all and no restart brings one back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Hashable

from repro.errors import NodeDown
from repro.kernel.context import SimContext
from repro.kernel.disk import Disk
from repro.kernel.ports import Port
from repro.kernel.vm import VirtualMemory
from repro.sim import Event, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.rpc.stubs import ServiceRef

#: smallest process-table size worth compacting
_MIN_COMPACT = 64


class Node:
    """One simulated workstation."""

    def __init__(self, ctx: SimContext, name: str,
                 vm_capacity_pages: int = 1500) -> None:
        self.ctx = ctx
        self.name = name
        self.alive = True
        #: incremented on every restart; lets peers detect reincarnation
        self.epoch = 0
        self.disk = Disk(ctx, name=f"{name}.disk", node_name=name)
        self.vm_capacity_pages = vm_capacity_pages
        self.vm = VirtualMemory(ctx, self.disk, vm_capacity_pages)
        #: live processes in spawn order, plus those finished since the
        #: last compaction in :meth:`spawn`
        self._processes: list[Process] = []
        self._compact_at = _MIN_COMPACT
        #: well-known local services (e.g. "transaction_manager" -> Port)
        self.services: dict[str, Port] = {}
        #: (name, node filter) -> the ServiceRef this node last resolved
        #: for it; the Name Server library's ``lookup_one`` answers from
        #: here while the reference's port is alive.  Volatile.
        self.bindings: dict[tuple[str, str], ServiceRef] = {}
        #: the abort mark: transaction -> why it aborted, for each whose
        #: abort has begun on this node or whose family a peer failure
        #: doomed here.  No operation of theirs starts here again, no
        #: server joins them, and the Transaction Manager keeps no state
        #: for them once their walk ends: the reason answers for them.
        #: Volatile.
        self.aborted: dict[Hashable, str] = {}
        #: transaction -> how many of its operations are running here (one
        #: queued for a lock is not running), and the event an abort
        #: waits on until none is
        self._running: dict[Hashable, int] = {}
        self._idle: dict[Hashable, Event] = {}
        #: total power failures suffered (diagnostic)
        self.crashes = 0
        #: observers notified on crash/restart (fault-injection tracing);
        #: callbacks receive this node and must not raise
        self.on_crash: list[Callable[["Node"], None]] = []
        self.on_restart: list[Callable[["Node"], None]] = []

    # -- process / port management -------------------------------------------

    def spawn(self, generator: Generator, name: str = "",
              defused: bool = False) -> Process:
        """Start a process owned by this node (killed when the node crashes)."""
        if not self.alive:
            raise NodeDown(f"cannot spawn on crashed node {self.name!r}")
        process = Process(self.ctx.engine, generator,
                          name=f"{self.name}:{name or 'proc'}")
        process.defused = defused
        processes = self._processes
        if len(processes) >= self._compact_at:
            # Drop the finished once the table has doubled: amortised O(1)
            # per spawn, and the survivors keep their spawn order.
            processes[:] = [p for p in processes if p.alive]
            self._compact_at = max(_MIN_COMPACT, 2 * len(processes))
        processes.append(process)
        return process

    def live_processes(self) -> list[Process]:
        """The processes this node spawned that have not finished, in
        spawn order."""
        return [process for process in self._processes if process.alive]

    def create_port(self, name: str = "") -> Port:
        if not self.alive:
            raise NodeDown(f"cannot create port on crashed node {self.name!r}")
        return Port(self.ctx, node=self, name=f"{self.name}:{name or 'port'}")

    def register_service(self, name: str, port: Port) -> None:
        """Publish a well-known local service port (TM, RM, CM, NS)."""
        self.services[name] = port

    def service(self, name: str) -> Port:
        try:
            return self.services[name]
        except KeyError:
            raise NodeDown(
                f"service {name!r} is not running on node {self.name!r}"
            ) from None

    # -- operations of a transaction ------------------------------------------

    def count_operation(self, tid: Hashable, delta: int) -> None:
        """An operation of ``tid`` starts (+1) or stops (-1) running here."""
        running = self._running[tid] = self._running.get(tid, 0) + delta
        if not running:
            del self._running[tid]
            if tid in self._idle:
                self._idle.pop(tid).succeed()

    def until_idle(self, tid: Hashable):
        """Wait until no operation of ``tid`` runs here (generator; free
        when none does)."""
        while self._running.get(tid, 0) > 0:
            yield self._idle.setdefault(tid, Event(self.ctx.engine, "idle"))

    # -- failure model --------------------------------------------------------

    def crash(self) -> None:
        """Power failure: volatile state vanishes, the disk survives."""
        if not self.alive:
            return
        self.alive = False
        if self.ctx.tracer is not None:
            # Before the kills: a killed process closes its own spans as
            # merely "killed"; these are truncated by the crash.
            self.ctx.tracer.node_crashed(self.name)
        for process in self._processes:
            process.kill(f"node {self.name} crashed")
        self._processes.clear()
        self.services.clear()
        self.bindings.clear()
        # (the kills above ended every counted operation)
        self.aborted.clear()
        self.vm.clear_volatile()
        self.crashes += 1
        self.ctx.metrics.counter(self.name, "node.crashes").inc()
        for callback in list(self.on_crash):
            callback(self)

    def restart(self) -> None:
        """Power back on with empty volatile state and a new epoch.

        A facility-level node self-heals from here: its
        ``RecoverySupervisor`` listens on ``on_restart`` and drives the
        rebuild plus crash recovery itself.  A bare kernel node (no
        supervisor) still needs its caller to re-create state afterwards.
        """
        if self.alive:
            return
        self.alive = True
        self.epoch += 1
        self.vm = VirtualMemory(self.ctx, self.disk, self.vm_capacity_pages)
        for callback in list(self.on_restart):
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "up" if self.alive else "down"
        return f"<Node {self.name!r} {state} epoch={self.epoch}>"

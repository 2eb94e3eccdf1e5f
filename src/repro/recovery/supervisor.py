"""Self-healing node recovery.

Before this module, a crashed node came back only because some external
driver (the chaos controller, a test) explicitly ran
``TabsNode.restart_generator()`` to rebuild the system processes and drive
:func:`repro.recovery.driver.recover_node`.  The
:class:`RecoverySupervisor` moves that responsibility into the facility
itself: it hooks ``Node.on_restart`` and, the instant the kernel node
powers back up, spawns the full recovery sequence (rebuild the four system
processes, re-create the data servers from their factories, run analysis /
value / operation passes, restore in-doubt transactions, reach a clean
point) as a background process on the engine.

External callers -- the chaos controller's restart action,
``TabsCluster.restart_node`` -- become thin wrappers: they power the node
on and wait for the supervisor's recovery process to finish.  A bare
``node.restart()`` with no driver at all now yields a fully recovered
node, which is what "unattended self-healing" means.

The supervisor is also the facility's *media repairer*: it installs
itself as the virtual-memory layer's ``media_repairer`` hook, so a data
server tripping :class:`~repro.errors.PageCorruption` on a page fault
gets the page repaired in place (its base + log roll-forward, see
:func:`repro.recovery.driver.repair_page`) and its read retried --
graceful degradation instead of a crashed node.  Repairs of the same
page are deduplicated across concurrent readers, and a page that
single-page repair cannot reconstruct (operation-logged history)
escalates to a controlled crash + self-healing restart, whose recovery
scrub handles it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim import Event, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.facility import TabsNode


class RecoverySupervisor:
    """Drives crash recovery automatically whenever its node restarts."""

    def __init__(self, tabs_node: "TabsNode") -> None:
        self.tabs_node = tabs_node
        self.ctx = tabs_node.ctx
        #: recoveries this supervisor has initiated
        self.self_recoveries = 0
        #: live single-page media repairs completed
        self.page_repairs = 0
        #: repairs that had to escalate to a full node restart
        self.repair_escalations = 0
        #: the in-flight (or most recent) recovery process; it is an Event,
        #: so callers may yield it to await completion and read the
        #: RecoveryReport it returns
        self.recovery_process: Process | None = None
        #: pages with a repair in flight (dedupes concurrent readers) ->
        #: the Event a second reader made to wait for its outcome, if any
        self._repairing: dict = {}
        #: last outcome per repaired page ("repaired"/"escalate"/...)
        self.repair_outcomes: dict = {}
        tabs_node.node.on_restart.append(self._on_restart)
        self._install_repairer()

    def _install_repairer(self) -> None:
        # The VirtualMemory is rebuilt on every restart; re-point its
        # media_repairer at us each time the node comes up.
        self.tabs_node.node.vm.media_repairer = self.repair_generator

    def _on_restart(self, node) -> None:
        # on_restart callbacks must not raise; Process creation only
        # registers the generator with the engine.
        self.self_recoveries += 1
        self.ctx.meter.bump("self_recoveries")
        self._install_repairer()
        process = Process(self.ctx.engine, self._recover(node.epoch),
                          name=f"recovery-supervisor:{node.name}")
        process.defused = True
        self.recovery_process = process

    def _recover(self, epoch: int):
        """The node's recovery (generator returning its report).  One
        that raises powers the node back off, still raising: up with its
        servers never started and its Transaction Manager's gate shut,
        the node would take every transaction that reached it into a
        wait nothing ends."""
        try:
            report = yield from self.tabs_node.recovery_generator()
        except Exception:
            node = self.tabs_node.node
            if node.alive and node.epoch == epoch:
                self.tabs_node.crash()
            raise
        return report

    # -- live media repair -------------------------------------------------------

    def repair_generator(self, segment_id: str, page: int):
        """Repair one corrupt page in place (generator; returns bool).

        Invoked by :meth:`VirtualMemory.ensure_resident` when a page read
        trips :class:`PageCorruption`.  Returns True when the page was
        repaired (the caller retries the read), False when the read must
        fail.  Concurrent readers of the same page wait for the first
        repair instead of duplicating it.
        """
        from repro.recovery.driver import repair_page

        key = (segment_id, page)
        if key in self._repairing:
            # Another coroutine is repairing this page; wait for its outcome.
            if self._repairing[key] is None:
                self._repairing[key] = Event(self.ctx.engine, "repair-outcome")
            status = yield self._repairing[key]
            return status == "repaired"
        self._repairing[key] = None
        node = self.tabs_node.node
        status = "failed"
        with self.ctx.span("media.page_repair", node.name, "RECOVERY",
                           segment=segment_id, page=page) as span:
            try:
                status = yield from repair_page(
                    self.tabs_node.rm, self.tabs_node.archive, node.disk,
                    segment_id, page)
            finally:
                outcome = self._repairing.pop(key)
                self.repair_outcomes[key] = status
                span.set(status=status)
                if outcome is not None:
                    outcome.succeed(status)
        if status == "repaired":
            self.page_repairs += 1
            self.ctx.metrics.counter(node.name, "media.page_repairs").inc()
            return True
        if status == "escalate":
            # Operation-logged history: only full recovery's scrub +
            # three-pass replay can rebuild the page.  Schedule a
            # controlled crash/restart (we may be running *inside* a
            # process this crash would kill) and fail the current read.
            self.repair_escalations += 1
            self.ctx.metrics.counter(node.name,
                                     "media.repair_escalations").inc()
            self.ctx.engine.schedule(0.0, self._escalate)
        else:
            self.ctx.metrics.counter(node.name,
                                     "media.repair_failures").inc()
        return False

    def _escalate(self) -> None:
        if self.tabs_node.node.alive:
            self.tabs_node.crash()
            self.tabs_node.node.restart()

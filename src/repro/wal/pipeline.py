"""Group commit: one physical log force for every request in a window.

The paper's commit path forces every prepare and commit record
individually -- one ``Stable Storage Write`` per record, exactly as
Tables 5-2/5-3 account for it; :meth:`repro.wal.log.WriteAheadLog.force`
does that itself when no pipeline is installed.

:class:`GroupCommitPipeline` is the classic group-commit lever (Gray &
Levine, "Thousands of DebitCredit Transactions-Per-Second"): a force
request enqueues and waits; all requests that arrive within a configurable
window are completed by one physical log force.  Under concurrent commit
traffic this drops forces-per-commit below 1.0, which is what turns a
log-force-bound system into a throughput machine.

The pipeline drives :meth:`repro.wal.log.WriteAheadLog.physical_force`,
which owns the storage write, the (optional) serial log-device queue, and
the paper's cost accounting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from repro.sim import Event, Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.wal.log import WriteAheadLog

#: ``(node_name, batch_size, target_lsn) -> None`` -- observers invoked at
#: the start of every physical group force (chaos crash triggers hook here).
GroupForceHook = Callable[[str, int, int], None]


class GroupCommitPipeline:
    """Coalesce force requests inside a window into one physical force.

    A request opens an accumulation window (``window_ms``); every request
    arriving before it expires joins the batch.  One stable-storage write
    completes all waiters at once.

    Over a *serial* log device the window is additionally device-aware:
    if a physical force is in flight when the window expires, the batch
    keeps accumulating until the device frees.  Without this, a backlogged
    device degenerates group commit into a FIFO of near-singleton batches
    -- every request that arrived during the 79 ms flight would force
    separately -- which is precisely the regime group commit exists for.

    Crash semantics: a node crash inside the window (or during the
    physical write) loses the volatile log buffer, so *none* of the
    batched records become durable and no waiter is completed -- the
    batched transactions atomically all abort at recovery.  The epoch
    guard makes the scheduled window callback and any in-flight flush
    process inert after a crash.
    """

    def __init__(self, wal: "WriteAheadLog", window_ms: float) -> None:
        self.wal = wal
        self.ctx = wal.ctx
        self.window_ms = window_ms
        self._pending: list[tuple[int, Event]] = []
        self._window_open = False
        self._epoch = 0
        #: physical group forces performed
        self.batches = 0
        #: waiters completed across all batches
        self.coalesced = 0
        self.on_group_force: list[GroupForceHook] = []

    def force(self, target: int) -> Iterator:
        """Enqueue a force request and wait for its batch (generator)."""
        waiter = Event(self.ctx.engine,
                       name=f"wal.group_force_wait:{self.wal.node_name}")
        self._pending.append((target, waiter))
        if not self._window_open:
            self._window_open = True
            epoch = self._epoch
            self.ctx.engine.schedule(
                self.window_ms, lambda: self._window_expired(epoch))
        # The physical force belongs to no one transaction: each waiter's
        # wait is a span of its own, under whatever asked for the force.
        with self.ctx.span("wal.group_wait", self.wal.node_name, "WAL",
                           target_lsn=target):
            yield waiter

    def _window_expired(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # the node crashed; a new incarnation owns the log now
        busy_for = self.wal.device_busy_for()
        if busy_for > 0.0:
            # A force is occupying the serial log device: flushing now
            # would just queue a tiny batch behind it.  Hold the window
            # open until the device frees -- the classic group-commit
            # move -- so one physical force completes every waiter that
            # accumulated during the in-flight write.
            self.ctx.engine.schedule(
                busy_for, lambda: self._window_expired(epoch))
            return
        batch, self._pending = self._pending, []
        self._window_open = False
        Process(self.ctx.engine, self._flush(batch),
                name=f"wal:group-force:{self.wal.node_name}")

    def _flush(self, batch: list[tuple[int, Event]]) -> Iterator:
        epoch = self._epoch
        target = max(lsn for lsn, _ in batch)
        self.batches += 1
        self.ctx.metrics.histogram(
            self.wal.node_name, "wal.group_force_batch").observe(len(batch))
        with self.ctx.span("wal.group_force", self.wal.node_name, "WAL",
                           target_lsn=target, batch=len(batch)) as span:
            for hook in list(self.on_group_force):
                hook(self.wal.node_name, len(batch), target)
            if epoch != self._epoch:
                # A hook crashed the node inside the window: nothing was
                # forced, no waiter completes, the batch atomically aborts.
                return
            yield from self.wal.physical_force(target)
            span.set(waiters=len(batch))
        if epoch != self._epoch:
            # Crashed during the stable write: the volatile buffer is gone,
            # nothing landed (physical_force re-reads the buffer after the
            # I/O wait), and the waiting processes died with the node.
            return
        self.coalesced += len(batch)
        for _, waiter in batch:
            waiter.succeed()

    def crash(self) -> None:
        """Drop the queue; fence the window callback and in-flight flushes."""
        self._epoch += 1
        self._pending = []
        self._window_open = False

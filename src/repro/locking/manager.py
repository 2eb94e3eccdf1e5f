"""The lock manager.

Each data server owns one lock manager ("servers implement locking
locally", Section 2.1.3).  Requests that cannot be granted wait in a FIFO
queue per lock; a user-set time-out bounds the wait and resolves deadlock,
exactly as in TABS.  All unlocking is done in bulk at commit or abort time
by the server library (Section 3.1.1: "All unlocking is done automatically
by the server library at commit or abort time").
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Hashable, Iterator

from repro.errors import LockTimeout, TabsError, TransactionAborted
from repro.kernel.context import SimContext
from repro.locking.modes import CompatibilityMatrix, LockMode, READ_WRITE_PROTOCOL
from repro.sim import PARKED, Process

#: Default lock wait bound, milliseconds.  "Time-outs ... are explicitly set
#: by system users"; benchmarks never wait, so the default only matters for
#: genuinely conflicting workloads.
DEFAULT_LOCK_TIMEOUT_MS = 10_000.0


@dataclass
class _Waiter:
    tid: Hashable
    mode: LockMode
    #: the waiting process and its park token
    process: Process
    token: int
    #: granted, or failed because its transaction finished
    triggered: bool = False


@dataclass
class _LockEntry:
    #: granted modes: tid -> multiset of modes (a tid may hold READ twice)
    holders: dict[Hashable, list[LockMode]] = field(default_factory=dict)
    queue: collections.deque = field(default_factory=collections.deque)


class LockManager:
    """Per-server lock table with FIFO waiting and time-outs."""

    def __init__(self, ctx: SimContext,
                 protocol: CompatibilityMatrix = READ_WRITE_PROTOCOL,
                 default_timeout_ms: float = DEFAULT_LOCK_TIMEOUT_MS,
                 node_name: str = "") -> None:
        self.ctx = ctx
        self.protocol = protocol
        self.default_timeout_ms = default_timeout_ms
        #: which node's metrics/trace track lock activity lands on
        self.node_name = node_name
        self._locks: dict[Hashable, _LockEntry] = {}
        self.timeouts = 0
        self.waits = 0
        # Registered so a profiler can snapshot cluster-wide wait-for
        # graphs; managers of crashed nodes stay listed (their cleared
        # tables contribute no edges).
        ctx.lock_managers.append(self)

    # -- queries ---------------------------------------------------------------

    def is_locked(self, key: Hashable) -> bool:
        """Table 3-1's ``IsObjectLocked``: is any lock set on ``key``?"""
        entry = self._locks.get(key)
        return bool(entry and entry.holders)

    def holds(self, tid: Hashable, key: Hashable,
              mode: LockMode | None = None) -> bool:
        entry = self._locks.get(key)
        if not entry or tid not in entry.holders:
            return False
        if mode is None:
            return True
        return any(self.protocol.covers(held, mode)
                   for held in entry.holders[tid])

    def held_keys(self, tid: Hashable) -> list[Hashable]:
        return [key for key, entry in self._locks.items()
                if tid in entry.holders]

    def exclusive_holder(self, key: Hashable,
                         against: LockMode) -> Hashable | None:
        """The transaction holding ``key`` in a mode incompatible with
        ``against``, or None if ``against`` could be granted outright."""
        entry = self._locks.get(key)
        if not entry:
            return None
        for tid, modes in entry.holders.items():
            if any(not self.protocol.compatible(held, against)
                   for held in modes):
                return tid
        return None

    def wait_graph(self) -> list[tuple[Hashable, _Waiter, list[Hashable]]]:
        """Every queued request as a raw wait-for edge ``(key, waiter,
        holders)``, in lock-table order: lock keys in insertion order,
        each queue front to back.  The profiler renders it; the deadlock
        detector builds its graph from it.
        """
        return [(key, waiter, list(entry.holders))
                for key, entry in self._locks.items()
                for waiter in entry.queue]

    # -- acquisition -------------------------------------------------------------

    def _grantable(self, entry: _LockEntry, tid: Hashable,
                   mode: LockMode) -> bool:
        return all(
            holder == tid or
            all(self.protocol.compatible(held, mode)
                for held in held_modes)
            for holder, held_modes in entry.holders.items())

    def _grant(self, entry: _LockEntry, tid: Hashable, mode: LockMode) -> None:
        entry.holders.setdefault(tid, []).append(mode)

    def try_lock(self, tid: Hashable, key: Hashable, mode: LockMode) -> bool:
        """``ConditionallyLockObject``: acquire or return False immediately."""
        self.protocol.check_mode(mode)
        entry = self._locks.setdefault(key, _LockEntry())
        if self.holds(tid, key, mode):
            return True  # already covered (e.g. WRITE held, READ requested)
        # FIFO fairness: do not jump a non-empty queue unless already holding.
        if entry.queue and tid not in entry.holders:
            return False
        if self._grantable(entry, tid, mode):
            self._grant(entry, tid, mode)
            return True
        return False

    def lock(self, tid: Hashable, key: Hashable, mode: LockMode,
             timeout_ms: float | None = None,
             priority: bool = False) -> Iterator:
        """``LockObject``: acquire, waiting if necessary (generator).

        Raises :class:`LockTimeout` when the wait exceeds the time-out --
        the caller (server library) then aborts the transaction, which is
        how TABS breaks deadlocks.

        ``priority`` queues the request at the *head* of the wait queue
        instead of the tail: it waits only for the current holders, not
        the whole convoy.  Reserved for work that restores redundancy
        (replica catch-up) -- a recovering copy's read barrier stays up
        until the merge finishes, so making it wait its turn behind a
        hot-cell convoy trades one transaction's latency for a whole
        copy's availability.
        """
        if self.try_lock(tid, key, mode):
            # Zero-duration span: granted without waiting, but still a
            # node in the transaction's span tree.
            with self.ctx.span("lock.acquire", self.node_name, "LOCK",
                               tid=tid, key=lambda: str(key),
                               mode=mode.name):
                return
        self.waits += 1
        metrics = self.ctx.metrics
        metrics.counter(self.node_name, "lock.waits").inc()
        depth = metrics.gauge(self.node_name, "lock.wait_depth")
        depth.inc()
        started = self.ctx.now
        entry = self._locks[key]
        process: Process = self.ctx.engine.active_process  # type: ignore
        waiter = _Waiter(tid, mode, process, process.park(
            self.default_timeout_ms if timeout_ms is None else timeout_ms))
        if priority:
            entry.queue.appendleft(waiter)
        else:
            entry.queue.append(waiter)
        outcome = "granted"
        with self.ctx.span("lock.wait", self.node_name, "LOCK", tid=tid,
                           key=lambda: str(key), mode=mode.name) as span:
            try:
                granted = yield PARKED
                if granted is None and not waiter.triggered:
                    entry.queue.remove(waiter)
                    self.timeouts += 1
                    metrics.counter(self.node_name, "lock.timeouts").inc()
                    outcome = "timeout"
                    raise LockTimeout(
                        f"transaction {tid} timed out waiting for {mode} on "
                        f"{key!r} (holders: {list(entry.holders)})")
            finally:
                depth.dec()
                metrics.histogram(self.node_name, "lock.wait_ms").observe(
                    self.ctx.now - started)
                if self.ctx.profiler is not None:
                    # Simulated ms, not wall -- the heatmap ranks keys by how
                    # much workload time they serialized, deterministically.
                    self.ctx.profiler.record_lock_wait(
                        self.node_name, key, self.ctx.now - started)
                span.set(outcome=outcome)

    # -- release ---------------------------------------------------------------

    def release_all(self, tid: Hashable) -> list[Hashable]:
        """Drop every lock held by ``tid`` (commit/abort); wake waiters.

        Requests ``tid`` still has *queued* are cancelled: the
        transaction is finished, so granting one later (after its bulk
        unlock already ran) would leave a lock nothing will ever
        release.  The waiting ``lock`` call raises
        :class:`TransactionAborted` instead.

        Returns the keys that were released.
        """
        return self._finish(tid, None)

    def _finish(self, tid: Hashable, heir: Hashable | None) -> list[Hashable]:
        """``tid`` is finished here: the locks it holds go to ``heir``
        (dropped if None), its queued requests fail, and waiters the
        change unblocks are granted.  Returns the keys it held."""
        held = []
        for key, entry in list(self._locks.items()):
            modes = entry.holders.pop(tid, None)
            if modes is not None:
                held.append(key)
                if heir is not None:
                    entry.holders.setdefault(heir, []).extend(modes)
            for waiter in [w for w in entry.queue if w.tid == tid]:
                entry.queue.remove(waiter)
                if not waiter.triggered:
                    waiter.triggered = True
                    waiter.process.wake(waiter.token, TransactionAborted(
                        tid, f"lock request on {key!r} cancelled: "
                        f"transaction finished while queued"), ok=False)
            self._wake(entry)
            if not entry.holders and not entry.queue:
                del self._locks[key]
        return held

    def release(self, tid: Hashable, key: Hashable) -> None:
        """Early release of one lock (used by non-serializable servers)."""
        entry = self._locks.get(key)
        if not entry or tid not in entry.holders:
            raise TabsError(f"{tid} does not hold a lock on {key!r}")
        del entry.holders[tid]
        self._wake(entry)
        if not entry.holders and not entry.queue:
            del self._locks[key]

    def transfer(self, from_tid: Hashable, to_tid: Hashable) -> None:
        """Move every lock held by ``from_tid`` to ``to_tid``.

        Used when a subtransaction commits: its parent inherits the locks,
        which remain held until the top-level transaction finishes.  A
        request the subtransaction still has queued fails as at
        :meth:`release_all`: granted later, it would be held under a
        transaction nothing will ever end.
        """
        self._finish(from_tid, to_tid)

    def _wake(self, entry: _LockEntry) -> None:
        """Grant from the head of the queue while compatible (FIFO)."""
        while entry.queue:
            waiter = entry.queue[0]
            if waiter.triggered:
                entry.queue.popleft()  # stale: its transaction timed out
                continue
            if not self._grantable(entry, waiter.tid, waiter.mode):
                break
            entry.queue.popleft()
            self._grant(entry, waiter.tid, waiter.mode)
            waiter.triggered = True
            waiter.process.wake(waiter.token, True)

    # -- crash ------------------------------------------------------------------

    def clear(self) -> None:
        """Volatile state: a node crash empties the lock table."""
        self._locks.clear()

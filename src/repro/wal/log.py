"""The buffered write-ahead log.

All log records are written into a volatile buffer until the buffer fills or
until the buffer is forced to non-volatile storage by either the
write-ahead-log or commit protocols (Section 3.2.2).  A crash loses the
volatile buffer; the durable prefix survives in the :class:`LogStore`.

One force operation writes the buffered records as a batch and is charged a
single stable-storage write -- this matches the paper's accounting, where a
one-page log force costs one ``Stable Storage Write`` primitive (79 ms
measured, 32 ms achievable with dedicated logging disks).

By default every force request is one physical force, exactly as
measured; under ``CommitConfig(pipeline="grouped")`` the requests arriving
within a window share a single force (group commit, see
:mod:`repro.wal.pipeline`).  :meth:`WriteAheadLog.force` is the only entry
point either way -- callers request a force and get a completion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import WriteAheadLogError
from repro.kernel.context import SimContext
from repro.kernel.costs import Primitive
from repro.wal.pipeline import GroupCommitPipeline
from repro.wal.records import LogRecord
from repro.wal.store import LogStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import CommitConfig


class WriteAheadLog:
    """LSN assignment + volatile buffering over a :class:`LogStore`."""

    def __init__(self, ctx: SimContext, store: LogStore | None = None,
                 buffer_capacity: int = 512, node_name: str = "",
                 commit: "CommitConfig | None" = None) -> None:
        if buffer_capacity < 1:
            raise WriteAheadLogError("log buffer needs capacity >= 1")
        self.ctx = ctx
        #: which node's metrics/trace track log forces land on
        self.node_name = node_name
        # Explicit None check: an *empty* LogStore is falsy (it has __len__),
        # and discarding the caller's store would sever log durability.
        self.store = LogStore() if store is None else store
        self.buffer_capacity = buffer_capacity
        self._buffer: list[LogRecord] = []
        # Past everything ever durable, reclaimed records included: page
        # sequence numbers on disk are old LSNs, and operation recovery
        # redoes a record iff its LSN is newer than its page's.  A log
        # truncated to empty must not start over from 1.
        self._next_lsn: int = max(self.store.last_lsn + 1,
                                  self.store.truncated_before)
        self.forces = 0
        #: called when an append finds the buffer full; the Recovery Manager
        #: hooks reclamation checks here.
        self.on_buffer_full: Callable[[], None] | None = None
        #: the group-commit scheduler; None forces once per request
        self.group_pipeline: GroupCommitPipeline | None = None
        if commit is not None and commit.pipeline == "grouped":
            self.group_pipeline = GroupCommitPipeline(
                self, commit.force_window_ms)
        #: model the log disk as a serial resource (one force in flight at
        #: a time); off by default so the paper's overlapping accounting --
        #: and every historical seed -- is preserved exactly
        self.serial_log_device: bool = (commit is not None
                                        and commit.serial_log_device)
        self._device_free_at: float = 0.0
        # Force-path metrics, resolved once (the registry get-or-create
        # lookup is per-force otherwise; the objects are stable).
        self._forces_counter = None
        self._force_ms_histogram = None

    def device_busy_for(self) -> float:
        """Milliseconds until the serial log device frees (0 when idle).

        Always 0 under the paper's overlapping device model.  The group
        pipeline uses this to keep its batch window open while a force
        is in flight, so the next physical force carries every waiter
        that accumulated during the flight.
        """
        if not self.serial_log_device:
            return 0.0
        return max(0.0, self._device_free_at - self.ctx.now)

    # -- state ---------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the newest record (buffered or durable)."""
        return self._next_lsn - 1

    @property
    def flushed_lsn(self) -> int:
        """LSN up to which records are durable."""
        return self.store.last_lsn

    # -- writing ---------------------------------------------------------------

    def append(self, record: LogRecord) -> int:
        """Spool a record to the volatile buffer; returns its LSN.

        Spooling is free in the primitive cost model (the paper charges the
        *message* carrying the record and the Recovery Manager CPU, not the
        buffer insert).  An overfull buffer is synchronously drained to the
        store *without* the stable-write cost being skipped -- see
        :meth:`force`, which the caller must drive for durability guarantees.
        """
        record.lsn = self._next_lsn
        self._next_lsn += 1
        self._buffer.append(record)
        if len(self._buffer) >= self.buffer_capacity and self.on_buffer_full:
            self.on_buffer_full()
        return record.lsn

    def force(self, up_to_lsn: int | None = None) -> Iterator:
        """Make records up to ``up_to_lsn`` durable (generator; charges I/O).

        Forces the whole buffer when ``up_to_lsn`` is None.  A no-op (and
        free) when everything requested is already durable.  Without a
        group pipeline the force happens immediately; with one the request
        is enqueued and the completion arrives when its batch's single
        physical force lands.
        """
        target = self.last_lsn if up_to_lsn is None else up_to_lsn
        if target <= self.flushed_lsn or not self._buffer:
            return
        if not any(r.lsn <= target for r in self._buffer):
            return
        if self.group_pipeline is None:
            yield from self.physical_force(target)
        else:
            yield from self.group_pipeline.force(target)

    def physical_force(self, target: int) -> Iterator:
        """One physical log force through ``target`` (generator).

        Owns the stable-storage write, the optional serial-device queue,
        and the metrics.  The group pipeline calls this; everyone else
        goes through :meth:`force`.
        """
        started = self.ctx.now
        with self.ctx.span("wal.force", self.node_name, "WAL",
                           target_lsn=target,
                           buffered=len(self._buffer)) as span:
            if self.serial_log_device:
                # The log disk does one force at a time: queue FIFO behind
                # the in-flight force, then hold the device for the write.
                time_ms = self.ctx.charge(Primitive.STABLE_STORAGE_WRITE)
                begin = max(self.ctx.now, self._device_free_at)
                self._device_free_at = begin + time_ms
                yield self._device_free_at - self.ctx.now
            else:
                yield self.ctx.charge(Primitive.STABLE_STORAGE_WRITE)
            # Recompute after the I/O wait: a concurrent force may have
            # drained part of the buffer while this one slept, and
            # appending an already durable record would corrupt the LSN
            # order.
            to_flush = [r for r in self._buffer
                        if self.flushed_lsn < r.lsn <= target]
            if to_flush:
                self.store.append(to_flush)
                self._buffer = [r for r in self._buffer if r.lsn > target]
                self.forces += 1
            if self._forces_counter is None:
                self._forces_counter = self.ctx.metrics.counter(
                    self.node_name, "wal.forces")
                self._force_ms_histogram = self.ctx.metrics.histogram(
                    self.node_name, "wal.force_ms")
            self._forces_counter.inc()
            self._force_ms_histogram.observe(self.ctx.now - started)
            span.set(flushed=len(to_flush))

    # -- reading (durable prefix only) ----------------------------------------

    def read_forward(self, from_lsn: int = 1) -> list[LogRecord]:
        return self.store.read_forward(from_lsn)

    def record_at(self, lsn: int) -> LogRecord:
        """Find a record by LSN in the buffer or the durable store.

        Abort processing walks a live transaction's backward chain, whose
        newest records are usually still in the volatile buffer.
        """
        for record in self._buffer:
            if record.lsn == lsn:
                return record
        return self.store.record_at(lsn)

    # -- failure model ----------------------------------------------------------

    def crash(self) -> None:
        """Drop the volatile buffer (the durable prefix survives).

        A group pipeline is fenced too: queued group-commit waiters are
        dropped (their processes died with the node) and any scheduled
        window callback or in-flight flush becomes inert.
        """
        self._buffer.clear()
        if self.group_pipeline is not None:
            self.group_pipeline.crash()

    def tear_inflight_force(self) -> int | None:
        """Power fails mid-force: the oldest buffered record reaches the
        log disks half-written (:meth:`LogStore.append_torn`).

        Returns the torn LSN, or None when the buffer is empty.  The
        record was never durable or acknowledged, so tearing it loses
        nothing a crash would not -- but it leaves real damage on the
        media tail for the next recovery's salvage scan to truncate.
        The caller crashes the node immediately after.
        """
        if not self._buffer:
            return None
        record = min(self._buffer, key=lambda r: r.lsn)
        self.store.append_torn(record)
        return record.lsn

"""Operation-logging crash recovery: analysis, redo-history, undo-losers.

The operation-based algorithm "is more complex, and it requires three
passes over the log during crash recovery, instead of the single pass
needed for the value-based algorithm" (Section 2.1.3).  The three passes:

1. **Analysis** (shared with value recovery, :mod:`repro.recovery.analysis`):
   a forward read establishing transaction outcomes and the checkpoint.
2. **Redo history** (forward): every logged operation whose effects did not
   reach non-volatile storage is re-invoked, regardless of its
   transaction's outcome.  The decision uses the sequence number the
   kernel atomically stamps into each sector header when it writes a page
   (Section 3.2.1): the operation is replayed iff any covered page's
   sequence number is older than the record's LSN.
3. **Undo losers** (backward): operations of aborted and crash-active
   transactions are inverted via their logged undo operations, skipping
   records already compensated -- by pre-crash abort processing or by an
   earlier recovery.  Each inversion is itself logged as a compensation
   record, exactly as a live abort logs it: an inverse is not idempotent,
   and the loser's record can outlive this recovery (an in-doubt
   transaction or the archive pins the log) while the clean point makes
   the inverted page durable, so the next recovery must find the evidence
   that the undo already happened.

Redo and undo run through handlers the data server registers for recovery
("This procedure ... calls the server library's undo/redo code",
Section 3.1.1); handlers apply their effects directly, without locking or
logging.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import RecoveryError
from repro.kernel.disk import Disk
from repro.kernel.vm import VirtualMemory
from repro.recovery.analysis import Outcome, RecoveryPlan
from repro.txn.ids import TransactionID
from repro.wal.records import OperationRecord

#: A recovery handler: (operation name, args) -> generator applying the
#: operation against the page cache.
RecoveryApplier = Callable[[str, tuple], Iterator]


def run_operation_passes(vm: VirtualMemory, disk: Disk, plan: RecoveryPlan,
                         appliers: dict[str, RecoveryApplier],
                         log_compensation: Callable[[OperationRecord],
                                                    object]):
    """Run redo-history then undo-losers (generator).

    ``appliers`` maps server names to their recovery-apply callables;
    ``log_compensation`` appends one compensation record to the log,
    which assigns its LSN.  Returns ``(redone, undone)`` counts.
    """
    # Lazily-loaded view of each page's on-disk sequence number, advanced
    # in memory as records are replayed.
    page_seq: dict[tuple[str, int], int] = {}

    def seq_of(segment_id: str, page: int) -> int:
        key = (segment_id, page)
        if key not in page_seq:
            page_seq[key] = disk.read_sequence_number(segment_id, page)
        return page_seq[key]

    def advance(record: OperationRecord) -> None:
        for oid in record.oids:
            for page in oid.pages():
                key = (oid.segment_id, page)
                page_seq[key] = max(page_seq.get(key, 0), record.lsn)
            vm.set_page_lsn(oid, record.lsn)

    def applier_for(record: OperationRecord) -> RecoveryApplier:
        try:
            return appliers[record.server]
        except KeyError:
            raise RecoveryError(
                f"no recovery applier registered for server "
                f"{record.server!r} (operation record at lsn "
                f"{record.lsn})") from None

    # -- pass 2: redo history -------------------------------------------------
    redone = 0
    for record in plan.records:
        if not isinstance(record, OperationRecord):
            continue
        needs_redo = any(seq_of(oid.segment_id, page) < record.lsn
                         for oid in record.oids for page in oid.pages())
        if needs_redo:
            yield from applier_for(record)(record.operation,
                                           record.redo_args)
            redone += 1
        advance(record)

    # -- pass 3: undo losers ----------------------------------------------------
    compensated = {record.compensates_lsn for record in plan.records
                   if isinstance(record, OperationRecord)
                   and record.compensates_lsn}
    undone = 0
    for record in reversed(plan.records):
        if not isinstance(record, OperationRecord):
            continue
        if record.compensates_lsn or record.lsn in compensated:
            continue
        outcome = plan.resolve(record.tid)
        if outcome not in (Outcome.LOSER, Outcome.ABORTED):
            continue
        yield from applier_for(record)(record.undo_operation,
                                       record.undo_args)
        clr = compensation_for(record)
        log_compensation(clr)
        # The pages carry the inverse now: stamped with the compensation's
        # LSN, the write-ahead gate forces it out before any of them.
        advance(clr)
        undone += 1
    return redone, undone


def compensation_for(record: OperationRecord,
                     tid: TransactionID | None = None) -> OperationRecord:
    """The record, logged under ``tid`` (default: ``record``'s own), that
    says ``record``'s inverse was applied: redone like any operation,
    never undone, and it takes ``record`` out of every later undo pass."""
    return OperationRecord(
        tid=tid or record.tid, server=record.server,
        operation=record.undo_operation, redo_args=record.undo_args,
        oids=record.oids, compensates_lsn=record.lsn)

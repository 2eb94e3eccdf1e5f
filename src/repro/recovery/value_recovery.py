"""Value-logging crash recovery: the single backward pass.

"Objects are reset to their most recently committed values during a one
pass scan that begins at the last log record written and proceeds
backward" (Section 2.1.3).  The first record seen for each object (i.e.
the newest) decides its recovered value: the redo value for committed and
prepared transactions, the undo value for aborted transactions and losers.
Older records for the same object are skipped -- latest wins.

The scan stops at the plan's bound (derived from the last checkpoint):
anything older is already reflected in non-volatile storage for every
object not touched since.
"""

from __future__ import annotations

from repro.kernel.vm import ObjectID, VirtualMemory
from repro.recovery.analysis import RecoveryPlan
from repro.wal.records import ValueUpdateRecord


#: :func:`restored_value`'s answer for an object a newer winner decided
DECIDED = object()


def restored_value(record: ValueUpdateRecord, plan: RecoveryPlan,
                   decided: dict) -> object:
    """Latest wins: the value a backward scan restores for ``record``'s
    object, the scan having met ``decided`` (``{oid: "winner" |
    "loser"}``, updated here) on its newer records -- or
    :data:`DECIDED` when a newer winner fixed the object already."""
    oid = record.oid
    if decided.get(oid) == "winner":
        return DECIDED
    if record.compensates_lsn:
        # An abort's compensation: replay the restored value and keep
        # scanning, so older losers of other transactions still unwind
        # beneath it.
        decided[oid] = "loser"
        return record.new_value
    if plan.resolve(record.tid).winner:
        # The newest winner value is final -- whether it is the newest
        # record overall, or an older committed record reached while
        # unwinding a loser that overwrote it.
        decided[oid] = "winner"
        return record.new_value
    # A loser that wrote the object several times must be unwound all
    # the way to its *oldest* old value: each successively older loser
    # record's old value is applied in turn.
    decided[oid] = "loser"
    return record.old_value


def run_value_pass(vm: VirtualMemory, plan: RecoveryPlan,
                   bound: int | None = None):
    """Apply the backward pass into the page cache (generator).

    Returns ``{oid: outcome}`` for every object it restored.  Pages touched
    are left dirty with their ``page_lsn`` set to the deciding record's
    LSN, so the normal write-ahead gate pushes them to disk afterwards.

    ``bound`` overrides the checkpoint-derived scan bound; a media scrub
    passes the start of the retained log, since the checkpoint bound
    assumes a surviving non-volatile image.
    """
    if bound is None:
        bound = plan.scan_bound()
    decided: dict[ObjectID, str] = {}
    for record in reversed(plan.records):
        if record.lsn < bound:
            break
        if not isinstance(record, ValueUpdateRecord) or record.oid is None:
            continue
        value = restored_value(record, plan, decided)
        if value is DECIDED:
            continue
        yield from vm.write_object(record.oid, value)
        vm.set_page_lsn(record.oid, record.lsn)
    return decided
